//! Cluster-scale collective experiments: multi-node MPI_Allreduce and
//! MPI_Alltoall over the SGI Rackable system's FDR InfiniBand fabric, up
//! to 128 nodes of 16 host + 2×60 Phi ranks (17 408 ranks total).
//!
//! The paper evaluates a single node; these experiments extrapolate its
//! calibrated intra-node model to the full rack using a hierarchical
//! collective: every node reduces/gathers internally (closed-form phase
//! from the single-node transport model), the 128 node leaders run the
//! real collective algorithm over InfiniBand on the discrete-event
//! engine, and the result fans back out. The leader stage runs
//! *partitioned* — one event wheel per worker thread, one simulation
//! domain per node — through `maia_sim::partition`, and is bit-identical
//! at every `--partitions` count.

use maia_mpi::bench::{cluster_collective_run_under, CollectiveOp};
use maia_mpi::fastpath::{self, SelectedEngine};
use maia_mpi::process_backend::Backend;

use crate::cache;
use crate::config::RunConfig;
use crate::figdata::{fmt_bytes, FigureData};
use crate::supervise::WorkerSets;
use crate::telemetry;

/// Simulated node counts (the machine tops out at 128 nodes).
const NODES: [usize; 4] = [2, 8, 32, 128];

/// Per-pair payload sizes.
const SIZES: [u64; 3] = [64, 4 * 1024, 64 * 1024];

/// Total MPI ranks a hierarchical run stands in for.
fn total_ranks(nodes: usize) -> usize {
    nodes * (fastpath::NODE_HOST_RANKS + 2 * fastpath::NODE_PHI_RANKS)
}

/// Memoized cluster collective. The memo key carries the run config, so
/// the partition battery and the byte-identity harness see every wheel
/// count and backend actually run: the *values* are invariant, but a
/// cache hit across configs would defeat the invariance tests. On the
/// process backend a miss runs on `sets`, the caller's worker processes.
pub fn cached_cluster_time(
    cfg: &RunConfig,
    sets: &mut WorkerSets,
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
) -> f64 {
    let key = format!("cluster/{nodes}/{bytes}/{op:?}");
    // The partition stats are recorded *outside* the memo compute so the
    // window/message counters land on the experiment's own sink (the
    // determinism battery pins them per experiment); the engine's virtual
    // time stays attributed to the shared `cluster/...` key as usual.
    let mut recorded = None;
    let time_s = cache::memo(&cfg.memo_key(&key), || match cfg.resolved_engine() {
        SelectedEngine::Fast => fastpath::cluster_collective_time(nodes, bytes, op, cfg.faults()),
        SelectedEngine::Des => {
            let (faults, p) = (cfg.faults(), cfg.partitions);
            let (time_s, stats) = match cfg.backend {
                Backend::Channel => cluster_collective_run_under(faults, nodes, bytes, op, p),
                Backend::Process => sets.run(cfg, nodes, bytes, op),
            };
            recorded = Some(stats);
            time_s
        }
    });
    if let Some(stats) = recorded {
        telemetry::record_partition_run(&stats);
    }
    time_s
}

fn cluster_fig(
    cfg: &RunConfig,
    id: &'static str,
    title: &str,
    op: CollectiveOp,
    note: &str,
) -> FigureData {
    let mut f = FigureData::new(id, title, &["nodes", "ranks", "size", "time us"]);
    // On the process backend, the cells share worker processes.
    let mut sets = WorkerSets::default();
    for nodes in NODES {
        for &size in &SIZES {
            let t = cached_cluster_time(cfg, &mut sets, nodes, size, op);
            f.push_row(vec![
                nodes.to_string(),
                total_ranks(nodes).to_string(),
                fmt_bytes(size),
                format!("{:.1}", t * 1e6),
            ]);
        }
    }
    f.note(note);
    f
}

/// C01: cluster-wide MPI_Allreduce.
pub fn c1_cluster_allreduce(cfg: &RunConfig) -> FigureData {
    cluster_fig(
        cfg,
        "C1",
        "Cluster MPI_Allreduce: hierarchical, node leaders over InfiniBand",
        CollectiveOp::Allreduce,
        "Inter-node stage is recursive doubling among node leaders (log2 growth); \
         intra-node phases from the calibrated single-node model.",
    )
}

/// C02: cluster-wide MPI_Alltoall.
pub fn c2_cluster_alltoall(cfg: &RunConfig) -> FigureData {
    cluster_fig(
        cfg,
        "C2",
        "Cluster MPI_Alltoall: hierarchical, node leaders over InfiniBand",
        CollectiveOp::Alltoall,
        "Inter-node stage is pairwise exchange among node leaders — rounds grow \
         linearly with nodes and pay incast contention, so scaling is far worse \
         than Allreduce's.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_cover_the_full_rack() {
        let cfg = RunConfig::default();
        for f in [c1_cluster_allreduce(&cfg), c2_cluster_alltoall(&cfg)] {
            assert_eq!(f.rows.len(), NODES.len() * SIZES.len());
            assert!(f.rows.iter().any(|r| r[0] == "128" && r[1] == "17408"));
        }
    }

    #[test]
    fn alltoall_scales_worse_than_allreduce() {
        let cfg = RunConfig::default();
        let mut sets = WorkerSets::default();
        let mut t = |op, nodes| cached_cluster_time(&cfg, &mut sets, nodes, 4 * 1024, op);
        let ar_growth = t(CollectiveOp::Allreduce, 128) / t(CollectiveOp::Allreduce, 2);
        let a2a_growth = t(CollectiveOp::Alltoall, 128) / t(CollectiveOp::Alltoall, 2);
        assert!(
            a2a_growth > ar_growth,
            "alltoall growth {a2a_growth} vs allreduce {ar_growth}"
        );
    }
}
