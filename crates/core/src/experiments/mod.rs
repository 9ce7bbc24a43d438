//! The experiment registry: one entry per table/figure of the paper.

mod app_figs;
pub mod cluster;
pub mod coll;
pub mod conformance;
mod micro;
mod npb_figs;
mod pcie;

use crate::figdata::FigureData;

/// Every artifact of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 1: system characteristics.
    T1Table,
    /// Figure 4: STREAM triad bandwidth vs threads.
    F4Stream,
    /// Figure 5: memory load latency vs working set.
    F5Latency,
    /// Figure 6: per-core read/write bandwidth vs working set.
    F6Bandwidth,
    /// Figure 7: MPI latency over PCIe (pre/post update).
    F7PcieLatency,
    /// Figure 8: MPI bandwidth over PCIe (pre/post update).
    F8PcieBandwidth,
    /// Figure 9: post/pre bandwidth gain.
    F9UpdateGain,
    /// Figure 10: MPI_Send/Recv ring.
    F10SendRecv,
    /// Figure 11: MPI_Bcast.
    F11Bcast,
    /// Figure 12: MPI_Allreduce.
    F12Allreduce,
    /// Figure 13: MPI_Allgather.
    F13Allgather,
    /// Figure 14: MPI_Alltoall (with OOM gating).
    F14Alltoall,
    /// Figure 15: OpenMP synchronization overheads.
    F15OmpSync,
    /// Figure 16: OpenMP scheduling overheads.
    F16OmpSched,
    /// Figure 17: sequential I/O bandwidth.
    F17Io,
    /// Figure 18: offload PCIe bandwidth.
    F18OffloadBw,
    /// Figure 19: NPB OpenMP performance.
    F19NpbOmp,
    /// Figure 20: NPB MPI performance.
    F20NpbMpi,
    /// Figure 21: Cart3D native host vs Phi.
    F21Cart3d,
    /// Figure 22: OVERFLOW native (I × J) sweep.
    F22OverflowNative,
    /// Figure 23: OVERFLOW symmetric mode pre/post update.
    F23OverflowSymmetric,
    /// Figure 24: MG loop-collapse gain.
    F24MgCollapse,
    /// Figure 25: MG in native and offload modes.
    F25MgModes,
    /// Figure 26: offload overhead breakdown.
    F26OffloadOverhead,
    /// Figure 27: offload invocations and transfer volume.
    F27OffloadCost,
    /// Beyond-paper validation: distributed NPB kernels (real numerics)
    /// measured on the simulated fabric.
    A1NpbMpiMeasured,
    /// Beyond-paper validation: hybrid OVERFLOW zones over the simulated
    /// fabric with communication/compute accounting.
    A2OverflowHybrid,
    /// Beyond-paper extrapolation: cluster-wide MPI_Allreduce over the
    /// partitioned multi-node DES (128 × (16 host + 2×60 Phi) ranks).
    C1ClusterAllreduce,
    /// Beyond-paper extrapolation: cluster-wide MPI_Alltoall, same world.
    C2ClusterAlltoall,
}

/// All experiments in paper order.
pub fn all_experiments() -> Vec<ExperimentId> {
    use ExperimentId::*;
    vec![
        T1Table,
        F4Stream,
        F5Latency,
        F6Bandwidth,
        F7PcieLatency,
        F8PcieBandwidth,
        F9UpdateGain,
        F10SendRecv,
        F11Bcast,
        F12Allreduce,
        F13Allgather,
        F14Alltoall,
        F15OmpSync,
        F16OmpSched,
        F17Io,
        F18OffloadBw,
        F19NpbOmp,
        F20NpbMpi,
        F21Cart3d,
        F22OverflowNative,
        F23OverflowSymmetric,
        F24MgCollapse,
        F25MgModes,
        F26OffloadOverhead,
        F27OffloadCost,
        A1NpbMpiMeasured,
        A2OverflowHybrid,
        C1ClusterAllreduce,
        C2ClusterAlltoall,
    ]
}

/// Static metadata about one experiment, used by the parallel runner for
/// scheduling and by the CLI for selection and display.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentMeta {
    /// Canonical zero-padded code (`"T01"`, `"F04"`, `"A01"`), accepted by
    /// `maia-bench run --only` alongside the short `FigureData` id.
    pub code: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Relative cost estimate (arbitrary units ~ serial milliseconds).
    /// The executor schedules longest-first so stragglers start early.
    pub cost_estimate: u32,
    /// Experiments whose cached sub-models this one reuses. Purely
    /// informational: the cache makes order irrelevant for correctness.
    pub depends_on: &'static [ExperimentId],
    /// Seed for any stochastic sub-model (pointer-chase shuffles, EP
    /// streams). Fixed per experiment so reruns are bit-identical.
    pub seed: u64,
}

impl ExperimentId {
    /// Metadata for this experiment.
    pub fn meta(self) -> ExperimentMeta {
        use ExperimentId::*;
        let (code, title, cost_estimate, depends_on): (_, _, u32, &'static [ExperimentId]) =
            match self {
                T1Table => ("T01", "Table 1: system characteristics", 1, &[]),
                F4Stream => ("F04", "STREAM triad bandwidth vs threads", 2, &[]),
                F5Latency => ("F05", "Memory load latency vs working set", 2, &[]),
                F6Bandwidth => ("F06", "Per-core bandwidth vs working set", 2, &[]),
                F7PcieLatency => ("F07", "MPI latency over PCIe", 5, &[]),
                F8PcieBandwidth => ("F08", "MPI bandwidth over PCIe", 20, &[F7PcieLatency]),
                F9UpdateGain => ("F09", "Post/pre update bandwidth gain", 20, &[F8PcieBandwidth]),
                F10SendRecv => ("F10", "MPI_Send/Recv ring", 300, &[]),
                F11Bcast => ("F11", "MPI_Bcast", 250, &[]),
                F12Allreduce => ("F12", "MPI_Allreduce", 350, &[]),
                F13Allgather => ("F13", "MPI_Allgather", 500, &[]),
                F14Alltoall => ("F14", "MPI_Alltoall with OOM gating", 600, &[]),
                F15OmpSync => ("F15", "OpenMP synchronization overheads", 50, &[]),
                F16OmpSched => ("F16", "OpenMP scheduling overheads", 50, &[]),
                F17Io => ("F17", "Sequential I/O bandwidth", 1, &[]),
                F18OffloadBw => ("F18", "Offload PCIe bandwidth", 1, &[]),
                F19NpbOmp => ("F19", "NPB OpenMP performance", 400, &[F4Stream]),
                F20NpbMpi => ("F20", "NPB MPI performance", 700, &[]),
                F21Cart3d => ("F21", "Cart3D native host vs Phi", 100, &[F4Stream]),
                F22OverflowNative => ("F22", "OVERFLOW native sweep", 100, &[F4Stream]),
                F23OverflowSymmetric => ("F23", "OVERFLOW symmetric pre/post", 200, &[]),
                F24MgCollapse => ("F24", "MG loop-collapse gain", 100, &[]),
                F25MgModes => ("F25", "MG native and offload modes", 100, &[]),
                F26OffloadOverhead => ("F26", "Offload overhead breakdown", 50, &[]),
                F27OffloadCost => ("F27", "Offload invocations and volume", 50, &[]),
                A1NpbMpiMeasured => ("A01", "Distributed NPB kernels (measured)", 800, &[]),
                A2OverflowHybrid => ("A02", "Hybrid OVERFLOW zones (measured)", 400, &[]),
                C1ClusterAllreduce => ("C01", "Cluster MPI_Allreduce (partitioned DES)", 150, &[]),
                C2ClusterAlltoall => ("C02", "Cluster MPI_Alltoall (partitioned DES)", 200, &[]),
            };
        ExperimentMeta {
            code,
            title,
            cost_estimate,
            depends_on,
            // Decorrelated per-experiment stream; any fixed constant works,
            // it only has to be stable across runs.
            seed: 0x6D61_6961_0000_0000 | code.as_bytes()[0] as u64 | (cost_estimate as u64) << 8,
        }
    }

    /// Parse a user-supplied experiment code: accepts the canonical
    /// zero-padded form (`F04`), the short `FigureData` id (`F4`, `T1`),
    /// spelled-out forms (`fig_04`, `fig4`, `table1`, `app_1`), and any
    /// case.
    pub fn parse(text: &str) -> Option<ExperimentId> {
        let mut want = text.trim().to_ascii_uppercase().replace('-', "_");
        for (long, short) in [("FIG", "F"), ("TABLE", "T"), ("APP", "A"), ("CLUSTER", "C")] {
            if let Some(rest) = want.strip_prefix(long) {
                let digits = rest.strip_prefix('_').unwrap_or(rest);
                if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                    want = format!("{short}{digits}");
                }
                break;
            }
        }
        all_experiments().into_iter().find(|&id| {
            let meta = id.meta();
            let short = {
                // "F04" -> "F4"; "T01" -> "T1"; "F10" stays "F10".
                let (prefix, digits) = meta.code.split_at(1);
                format!("{prefix}{}", digits.trim_start_matches('0'))
            };
            want == meta.code || want == short
        })
    }
}

/// Which experiments an invocation operates on. All entry points —
/// `run`, `check`, `profile` and `faults` — parse their
/// selection flags into this one type and hand it to the executor, so
/// "which experiments" is decided in exactly one place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentSelection {
    /// Every experiment, in paper order.
    All,
    /// An explicit list, in request order, without duplicates.
    Ids(Vec<ExperimentId>),
}

impl ExperimentSelection {
    /// Parse a comma-separated code list (`F04,f21,T1`, `fig_05`, ...).
    /// Fails with the offending code on the first unknown entry.
    pub fn from_spec(spec: &str) -> Result<ExperimentSelection, String> {
        let mut ids = Vec::new();
        for code in spec.split(',').filter(|s| !s.is_empty()) {
            let id = ExperimentId::parse(code)
                .ok_or_else(|| format!("unknown experiment '{code}'"))?;
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        if ids.is_empty() {
            return Err("empty experiment selection".into());
        }
        Ok(ExperimentSelection::Ids(ids))
    }

    /// The concrete experiment list this selection denotes.
    pub fn resolve(&self) -> Vec<ExperimentId> {
        match self {
            ExperimentSelection::All => all_experiments(),
            ExperimentSelection::Ids(ids) => ids.clone(),
        }
    }

    /// Number of selected experiments.
    pub fn len(&self) -> usize {
        match self {
            ExperimentSelection::All => all_experiments().len(),
            ExperimentSelection::Ids(ids) => ids.len(),
        }
    }

    /// True when the selection denotes no experiments (never produced by
    /// [`ExperimentSelection::from_spec`]).
    pub fn is_empty(&self) -> bool {
        matches!(self, ExperimentSelection::Ids(ids) if ids.is_empty())
    }
}

/// Regenerate the data for one experiment.
pub fn run_experiment(id: ExperimentId) -> FigureData {
    use ExperimentId::*;
    match id {
        T1Table => micro::table1(),
        F4Stream => micro::fig4_stream(),
        F5Latency => micro::fig5_latency(),
        F6Bandwidth => micro::fig6_bandwidth(),
        F7PcieLatency => pcie::fig7_latency(),
        F8PcieBandwidth => pcie::fig8_bandwidth(),
        F9UpdateGain => pcie::fig9_gain(),
        F10SendRecv => coll::fig10_sendrecv(),
        F11Bcast => coll::fig11_bcast(),
        F12Allreduce => coll::fig12_allreduce(),
        F13Allgather => coll::fig13_allgather(),
        F14Alltoall => coll::fig14_alltoall(),
        F15OmpSync => micro::fig15_omp_sync(),
        F16OmpSched => micro::fig16_omp_sched(),
        F17Io => micro::fig17_io(),
        F18OffloadBw => pcie::fig18_offload_bw(),
        F19NpbOmp => npb_figs::fig19_npb_omp(),
        F20NpbMpi => npb_figs::fig20_npb_mpi(),
        F21Cart3d => app_figs::fig21_cart3d(),
        F22OverflowNative => app_figs::fig22_overflow_native(),
        F23OverflowSymmetric => app_figs::fig23_overflow_symmetric(),
        F24MgCollapse => npb_figs::fig24_mg_collapse(),
        F25MgModes => npb_figs::fig25_mg_modes(),
        F26OffloadOverhead => npb_figs::fig26_offload_overhead(),
        F27OffloadCost => npb_figs::fig27_offload_cost(),
        A1NpbMpiMeasured => npb_figs::a1_npb_mpi_measured(),
        A2OverflowHybrid => app_figs::a2_overflow_hybrid(),
        C1ClusterAllreduce => cluster::c1_cluster_allreduce(),
        C2ClusterAlltoall => cluster::c2_cluster_alltoall(),
    }
}

#[cfg(test)]
mod selection_tests {
    use super::*;

    #[test]
    fn parse_accepts_spelled_out_codes() {
        for (text, want) in [
            ("fig_05", ExperimentId::F5Latency),
            ("FIG5", ExperimentId::F5Latency),
            ("fig-10", ExperimentId::F10SendRecv),
            ("table1", ExperimentId::T1Table),
            ("TABLE_01", ExperimentId::T1Table),
            ("app_1", ExperimentId::A1NpbMpiMeasured),
            ("F04", ExperimentId::F4Stream),
            ("f4", ExperimentId::F4Stream),
            ("C01", ExperimentId::C1ClusterAllreduce),
            ("c2", ExperimentId::C2ClusterAlltoall),
            ("cluster_1", ExperimentId::C1ClusterAllreduce),
        ] {
            assert_eq!(ExperimentId::parse(text), Some(want), "parsing {text:?}");
        }
        for bad in ["fig_", "fig_99", "figx", "table", "F99", ""] {
            assert_eq!(ExperimentId::parse(bad), None, "parsing {bad:?}");
        }
    }

    #[test]
    fn selection_resolves_and_dedups() {
        assert_eq!(ExperimentSelection::All.resolve(), all_experiments());
        let sel = ExperimentSelection::from_spec("F04,fig_04,T1").unwrap();
        assert_eq!(
            sel.resolve(),
            vec![ExperimentId::F4Stream, ExperimentId::T1Table]
        );
        assert_eq!(sel.len(), 2);
        assert!(!sel.is_empty());
        let err = ExperimentSelection::from_spec("F04,F99").unwrap_err();
        assert!(err.contains("F99"), "{err}");
        assert!(ExperimentSelection::from_spec("").is_err());
    }
}
