//! The experiment registry: one [`ExperimentDef`] row per table/figure
//! of the paper, in `EXPERIMENTS`. A row carries everything known about
//! its artifact — code, title, scheduling cost, the function that
//! regenerates its table, the oracle predicates that gate it and the
//! paper's claims — so adding an experiment is one enum variant plus one
//! row.

mod app_figs;
pub mod cluster;
pub mod coll;
pub mod conformance;
mod micro;
mod npb_figs;
mod pcie;

use crate::config::RunConfig;
use crate::figdata::FigureData;
use crate::oracle::Check;

/// Every artifact of the paper's evaluation section. The discriminant
/// indexes `EXPERIMENTS`, so variants stay in row order.
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

/// One experiment: a row of `EXPERIMENTS`.
#[derive(Debug)]
pub struct ExperimentDef {
    /// The experiment this row defines; its discriminant is the row index.
    pub id: ExperimentId,
    /// Canonical zero-padded code (`"T01"`, `"F04"`, `"A01"`), accepted by
    /// `maia-bench run --only` alongside the short `FigureData` id.
    pub code: &'static str,
    /// One-line description (`maia-bench list`).
    pub title: &'static str,
    /// Relative cost estimate (arbitrary units ~ serial milliseconds).
    /// The executor schedules longest-first so stragglers start early.
    pub cost_estimate: u32,
    /// Regenerates the experiment's table under a run configuration.
    /// Rows whose models read no configuration ignore it.
    pub run: fn(&RunConfig) -> FigureData,
    /// The oracle predicates gating the table (`maia-bench check`).
    pub checklist: fn() -> Vec<Check>,
    /// The paper's headline claims, printed under the table in
    /// EXPERIMENTS.md.
    pub claims: &'static [&'static str],
}

/// The experiment table, one row per [`ExperimentId`] in declaration
/// (paper) order.
static EXPERIMENTS: [ExperimentDef; 29] = {
    use ExperimentId::*;
    [
        ExperimentDef {
            id: T1Table,
            code: "T01",
            title: "Table 1: system characteristics",
            cost_estimate: 1,
            run: |_| micro::table1(),
            checklist: conformance::table1,
            claims: &[
                "Host: 20.8 Gflop/s/core, 166.4 Gflop/s/socket; Phi: 16.8 Gflop/s/core, 1008 Gflop/s/card",
                "System: 42.6 Tflop/s host + 258 Tflop/s Phi; Phi holds 86% of the flops",
            ],
        },
        ExperimentDef {
            id: F4Stream,
            code: "F04",
            title: "STREAM triad bandwidth vs threads",
            cost_estimate: 2,
            run: micro::fig4_stream,
            checklist: conformance::fig4,
            claims: &[
                "Phi triad: 180 GB/s at 59 and 118 threads, 140 GB/s beyond 118",
                "Cause: GDDR5 exposes 128 open banks (16 banks x 8 devices)",
            ],
        },
        ExperimentDef {
            id: F5Latency,
            code: "F05",
            title: "Memory load latency vs working set",
            cost_estimate: 2,
            run: |_| micro::fig5_latency(),
            checklist: conformance::fig5,
            claims: &[
                "Host: 1.5 / 4.6 / 15 / 81 ns (L1 / L2 / L3 / DRAM)",
                "Phi: 2.9 / 22.9 / 295 ns (L1 / L2 / DRAM)",
            ],
        },
        ExperimentDef {
            id: F6Bandwidth,
            code: "F06",
            title: "Per-core bandwidth vs working set",
            cost_estimate: 2,
            run: |_| micro::fig6_bandwidth(),
            checklist: conformance::fig6,
            claims: &[
                "Host per-core: read 12.6..7.5 GB/s, write 10.4..7.2 GB/s",
                "Phi per-core: read 1.68..0.504 GB/s, write 1.538..0.263 GB/s",
            ],
        },
        ExperimentDef {
            id: F7PcieLatency,
            code: "F07",
            title: "MPI latency over PCIe",
            cost_estimate: 5,
            run: pcie::fig7_latency,
            checklist: conformance::fig7,
            claims: &["Pre-update: 3.3 / 4.6 / 6.3 us; post-update: 3.3 / 4.1 / 6.6 us"],
        },
        ExperimentDef {
            id: F8PcieBandwidth,
            code: "F08",
            title: "MPI bandwidth over PCIe",
            cost_estimate: 20,
            run: pcie::fig8_bandwidth,
            checklist: conformance::fig8,
            claims: &[
                "4 MB pre-update: 1.6 / 0.455 / 0.444 GB/s",
                "4 MB post-update: 6 / 6 / 0.899 GB/s (asymmetry removed)",
            ],
        },
        ExperimentDef {
            id: F9UpdateGain,
            code: "F09",
            title: "Post/pre update bandwidth gain",
            cost_estimate: 20,
            run: pcie::fig9_gain,
            checklist: conformance::fig9,
            claims: &[
                ">=256 KB (SCIF): 2-3.8x host-phi0, 7-13x host-phi1, ~2x phi0-phi1",
                "Small/medium messages: 1-1.5x",
            ],
        },
        ExperimentDef {
            id: F10SendRecv,
            code: "F10",
            title: "MPI_Send/Recv ring",
            cost_estimate: 300,
            run: coll::fig10_sendrecv,
            checklist: conformance::fig10,
            claims: &["Host over Phi: 1.3-3.5x at 1 thread/core, 24-54x at 4 threads/core"],
        },
        ExperimentDef {
            id: F11Bcast,
            code: "F11",
            title: "MPI_Bcast",
            cost_estimate: 250,
            run: coll::fig11_bcast,
            checklist: conformance::fig11,
            claims: &["Host over Phi0 (59T): 1.1-3.8x; per-core vs 236T: 20-35x"],
        },
        ExperimentDef {
            id: F12Allreduce,
            code: "F12",
            title: "MPI_Allreduce",
            cost_estimate: 350,
            run: coll::fig12_allreduce,
            checklist: conformance::fig12,
            claims: &["Host over Phi0: 2.2-13.4x (59T), 28-104x (236T)"],
        },
        ExperimentDef {
            id: F13Allgather,
            code: "F13",
            title: "MPI_Allgather",
            cost_estimate: 500,
            run: coll::fig13_allgather,
            checklist: conformance::fig13,
            claims: &[
                "Abrupt time jump at 2 KB and 4 KB (collective algorithm change)",
                "Host over Phi0: 2.6-17.1x (59T), 68-1146x (236T)",
            ],
        },
        ExperimentDef {
            id: F14Alltoall,
            code: "F14",
            title: "MPI_Alltoall with OOM gating",
            cost_estimate: 600,
            run: coll::fig14_alltoall,
            checklist: conformance::fig14,
            claims: &[
                "236-rank runs only complete up to 4 KB (out of memory beyond)",
                "Host over Phi0: 8-20x (59T), 1003-2603x (236T)",
            ],
        },
        ExperimentDef {
            id: F15OmpSync,
            code: "F15",
            title: "OpenMP synchronization overheads",
            cost_estimate: 50,
            run: |_| micro::fig15_omp_sync(),
            checklist: conformance::fig15,
            claims: &[
                "Phi overheads ~an order of magnitude above host",
                "Reduction most expensive, then PARALLEL FOR and PARALLEL; ATOMIC least",
            ],
        },
        ExperimentDef {
            id: F16OmpSched,
            code: "F16",
            title: "OpenMP scheduling overheads",
            cost_estimate: 50,
            run: |_| micro::fig16_omp_sched(),
            checklist: conformance::fig16,
            claims: &["STATIC < GUIDED < DYNAMIC; Phi an order of magnitude above host"],
        },
        ExperimentDef {
            id: F17Io,
            code: "F17",
            title: "Sequential I/O bandwidth",
            cost_estimate: 1,
            run: |_| micro::fig17_io(),
            checklist: conformance::fig17,
            claims: &[
                "Host: 210 MB/s write, 295 MB/s read; Phi0: 80 / 75 MB/s",
                "Cause: NFS reaches the Phi via the MPSS TCP/IP stack over PCIe",
            ],
        },
        ExperimentDef {
            id: F18OffloadBw,
            code: "F18",
            title: "Offload PCIe bandwidth",
            cost_estimate: 1,
            run: pcie::fig18_offload_bw,
            checklist: conformance::fig18,
            claims: &[
                "~6.4 GB/s for large transfers; ceilings 6.1/6.9 GB/s from 20-byte TLP wrapping",
                "Phi0 ~3% above Phi1; unexplained dip at 64 KB",
            ],
        },
        ExperimentDef {
            id: F19NpbOmp,
            code: "F19",
            title: "NPB OpenMP performance",
            cost_estimate: 400,
            run: npb_figs::fig19_npb_omp,
            checklist: conformance::fig19,
            claims: &[
                "Host beats the best Phi result for every benchmark except MG",
                "BT highest / CG lowest on the Phi; 3 threads/core generally best",
                "Vectorized sparse CG only 10% faster than unvectorized (gather/scatter inefficiency)",
            ],
        },
        ExperimentDef {
            id: F20NpbMpi,
            code: "F20",
            title: "NPB MPI performance",
            cost_estimate: 700,
            run: npb_figs::fig20_npb_mpi,
            checklist: conformance::fig20,
            claims: &[
                "FT needs ~10 GB and cannot run on the 8 GB Phi",
                "BT best at 4 threads/core (225 ranks), unlike the OpenMP version",
            ],
        },
        ExperimentDef {
            id: F21Cart3d,
            code: "F21",
            title: "Cart3D native host vs Phi",
            cost_estimate: 100,
            run: app_figs::fig21_cart3d,
            checklist: conformance::fig21,
            claims: &[
                "Host performance 2x the best Phi result",
                "Phi best at 4 threads/core (236) — Cart3D is not heavily vectorized",
            ],
        },
        ExperimentDef {
            id: F22OverflowNative,
            code: "F22",
            title: "OVERFLOW native sweep",
            cost_estimate: 100,
            run: app_figs::fig22_overflow_native,
            checklist: conformance::fig22,
            claims: &[
                "Host best 16x1, worst 1x16; Phi best 8x28 (224T), worst 4x14 (56T)",
                "Host best beats Phi best by 1.8x",
            ],
        },
        ExperimentDef {
            id: F23OverflowSymmetric,
            code: "F23",
            title: "OVERFLOW symmetric pre/post",
            cost_estimate: 200,
            run: app_figs::fig23_overflow_symmetric,
            checklist: conformance::fig23,
            claims: &[
                "Post-update software gains 2-28%",
                "Symmetric (host+Phi0+Phi1) beats native host by 1.9x but loses to two hosts",
                "Compute parts ~15% faster than two hosts; communication + imbalance outweigh",
            ],
        },
        ExperimentDef {
            id: F24MgCollapse,
            code: "F24",
            title: "MG loop-collapse gain",
            cost_estimate: 100,
            run: npb_figs::fig24_mg_collapse,
            checklist: conformance::fig24,
            claims: &[
                "Loop collapse gains 25-28% on Phi0, loses ~1% on the host (16T)",
                "59/118/177/236 threads much better than 60/120/180/240 (the 60th core runs OS services)",
            ],
        },
        ExperimentDef {
            id: F25MgModes,
            code: "F25",
            title: "MG native and offload modes",
            cost_estimate: 100,
            run: npb_figs::fig25_mg_modes,
            checklist: conformance::fig25,
            claims: &[
                "Native host 23.5 Gflop/s (16T); HT (32T) 6% lower; native Phi 29.9 (177T, 3t/c)",
                "All offload variants slower than both native modes; whole > subroutine > loop",
            ],
        },
        ExperimentDef {
            id: F26OffloadOverhead,
            code: "F26",
            title: "Offload overhead breakdown",
            cost_estimate: 50,
            run: npb_figs::fig26_offload_overhead,
            checklist: conformance::fig26,
            claims: &["Offloading one OpenMP loop worst; whole computation best"],
        },
        ExperimentDef {
            id: F27OffloadCost,
            code: "F27",
            title: "Offload invocations and volume",
            cost_estimate: 50,
            run: npb_figs::fig27_offload_cost,
            checklist: conformance::fig27,
            claims: &[
                "Transfer volume and invocation count maximal for the loop variant, minimal for whole",
            ],
        },
        ExperimentDef {
            id: A1NpbMpiMeasured,
            code: "A01",
            title: "Distributed NPB kernels (measured)",
            cost_estimate: 800,
            run: npb_figs::a1_npb_mpi_measured,
            checklist: conformance::a1,
            claims: &[
                "(beyond paper) validation: the distributed kernels compute results identical to the shared-memory kernels while the DES prices their communication",
            ],
        },
        ExperimentDef {
            id: A2OverflowHybrid,
            code: "A02",
            title: "Hybrid OVERFLOW zones (measured)",
            cost_estimate: 400,
            run: app_figs::a2_overflow_hybrid,
            checklist: conformance::a2,
            claims: &[
                "(beyond paper) validation: zone data crosses the simulated fabric; PCIe layouts show the communication dominance the paper describes for symmetric mode",
            ],
        },
        ExperimentDef {
            id: C1ClusterAllreduce,
            code: "C01",
            title: "Cluster MPI_Allreduce (partitioned DES)",
            cost_estimate: 150,
            run: cluster::c1_cluster_allreduce,
            checklist: conformance::c1,
            claims: &[
                "(beyond paper) extrapolation: hierarchical allreduce over the 128-node FDR fabric grows logarithmically in nodes; the partitioned DES agrees bit-for-bit with the closed form",
            ],
        },
        ExperimentDef {
            id: C2ClusterAlltoall,
            code: "C02",
            title: "Cluster MPI_Alltoall (partitioned DES)",
            cost_estimate: 200,
            run: cluster::c2_cluster_alltoall,
            checklist: conformance::c2,
            claims: &[
                "(beyond paper) extrapolation: pairwise-exchange alltoall among node leaders grows linearly in nodes plus incast contention, scaling far worse than allreduce",
            ],
        },
    ]
};

/// All experiments in paper order.
pub fn all_experiments() -> Vec<ExperimentId> {
    EXPERIMENTS.iter().map(|def| def.id).collect()
}

impl ExperimentId {
    /// This experiment's row of the table.
    pub fn meta(self) -> &'static ExperimentDef {
        &EXPERIMENTS[self as usize]
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
}

/// Regenerate the data for one experiment under the process's current
/// [`RunConfig`], bypassing the executor and its memo entry.
pub fn run_experiment(id: ExperimentId) -> FigureData {
    (id.meta().run)(&RunConfig::current())
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
        let err = ExperimentSelection::from_spec("F04,F99").unwrap_err();
        assert!(err.contains("F99"), "{err}");
        assert!(ExperimentSelection::from_spec("").is_err());
    }

    #[test]
    fn every_row_defines_its_own_experiment() {
        let mut codes = std::collections::HashSet::new();
        for (index, def) in EXPERIMENTS.iter().enumerate() {
            let code = def.code;
            assert_eq!(def.id as usize, index, "{code} is out of declaration order");
            assert_eq!(ExperimentId::parse(code), Some(def.id), "parsing {code}");
            assert!(codes.insert(code), "{code} appears twice");
            assert!(!def.claims.is_empty(), "{code} lacks paper claims");
            assert!(!(def.checklist)().is_empty(), "{code} has no predicates");
        }
    }
}
