//! Partition-determinism battery: the partitioned cluster DES must be a
//! *pure* function of the simulated world — never of how the world is
//! sharded across event wheels. The battery pins three independence
//! claims:
//!
//! 1. **Partition count**: the cluster experiments produce bit-identical
//!    `FigureData` and virtual-side telemetry at `--partitions 1|2|4|8`.
//! 2. **Domain placement**: shuffled domain→wheel folds (same wheel
//!    count, scrambled assignment) leave end times and window/message
//!    totals untouched.
//! 3. **Faults**: a seeded straggler plan shifts the timeline, but the
//!    shifted timeline is itself partition-count-invariant.
//!
//! Nothing here serializes: fault plans travel as values, and the one
//! test that enables telemetry reads back only its own experiment
//! scopes.

use maia_arch::Faults;
use maia_core::faults::{arm, FaultPlan};
use maia_core::telemetry::{self, ProfileReport};
use maia_core::{run_experiments_parallel, ExperimentId, RunConfig};
use maia_mpi::bench::{
    cluster_collective_run_plan, cluster_collective_run_under, cluster_collective_run_with,
    CollectiveOp,
};
use maia_mpi::fastpath::EngineMode;
use maia_mpi::partition::PartitionPlan;
use maia_mpi::process_backend::Backend;

const COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The deterministic (virtual-side) projection of a profile: everything
/// except the wall section. Rendered to a string so a mismatch prints
/// the whole offending profile.
fn virtual_side(profile: &ProfileReport) -> String {
    let mut out = String::new();
    for e in &profile.experiments {
        out.push_str(&format!(
            "{}: counters={:?} vt={:?} total_vt={} proc_vt={:?} hist={:?} sim={:?} \
             spans={:?} dropped={}\n",
            e.code,
            e.counters,
            e.vt_ps,
            e.total_vt_ps,
            e.proc_vt_ps,
            e.hist,
            e.sim,
            e.spans,
            e.dropped_spans,
        ));
    }
    out
}

/// Claim 1, end to end through the executor: same figures, same
/// virtual-side telemetry, at every wheel count. Each count runs under
/// its own [`RunConfig`]; memo keys carry the config, so every sweep
/// genuinely re-runs the DES (a cache hit would leave the count's
/// experiment sink without window counters).
#[test]
fn cluster_figures_and_virtual_telemetry_are_partition_invariant() {
    telemetry::enable();
    let ids = [
        ExperimentId::C1ClusterAllreduce,
        ExperimentId::C2ClusterAlltoall,
    ];
    let mut baseline: Option<(String, String)> = None;
    for n in COUNTS {
        let cfg = RunConfig::new(EngineMode::Des, n, Backend::Channel);
        let sweep = run_experiments_parallel(&cfg, &ids, 2);
        assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
        let figures: String = sweep
            .runs
            .iter()
            .map(|r| r.data.to_markdown())
            .collect();
        let virt = virtual_side(&telemetry::collect(&sweep));
        assert!(
            virt.contains("partition.windows"),
            "partitioned runs must surface window counters:\n{virt}"
        );
        match &baseline {
            None => baseline = Some((figures, virt)),
            Some((fig0, virt0)) => {
                assert_eq!(&figures, fig0, "figure data differs at --partitions {n}");
                assert_eq!(&virt, virt0, "virtual telemetry differs at --partitions {n}");
            }
        }
    }
}

/// Claim 1 at the stats level: end time, window count and cross-domain
/// message count straight out of the partition driver, per wheel count.
#[test]
fn partition_stats_are_count_invariant() {
    for (nodes, bytes, op) in [
        (8usize, 4 * 1024u64, CollectiveOp::Allreduce),
        (5, 64 * 1024, CollectiveOp::Alltoall),
    ] {
        let mut baseline = None;
        for n in COUNTS {
            let (t, stats) = cluster_collective_run_with(nodes, bytes, op, n);
            let probe = (t.to_bits(), stats.windows, stats.messages);
            match baseline {
                None => baseline = Some(probe),
                Some(b) => assert_eq!(
                    probe, b,
                    "{op:?} nodes={nodes} bytes={bytes} diverged at --partitions {n}"
                ),
            }
        }
    }
}

/// Claim 2: scrambling which wheel owns which domain — including a
/// maximally unbalanced fold that piles most domains onto one wheel —
/// changes nothing observable on the virtual side.
#[test]
fn shuffled_domain_placement_is_observationally_equivalent() {
    let (nodes, bytes, op) = (8usize, 4 * 1024u64, CollectiveOp::Allreduce);
    let (t0, s0) = cluster_collective_run_with(nodes, bytes, op, 4);
    // 8 domains on 4 wheels: reversed, interleaved, and unbalanced folds.
    let folds: [Vec<usize>; 3] = [
        vec![3, 2, 1, 0, 3, 2, 1, 0],
        vec![0, 2, 1, 3, 2, 0, 3, 1],
        vec![0, 0, 0, 0, 0, 1, 2, 3],
    ];
    for fold in folds {
        let plan = PartitionPlan {
            partitions: 4,
            fold: Some(fold.clone()),
        };
        let (t, s) = cluster_collective_run_plan(&Faults::default(), nodes, bytes, op, &plan);
        assert_eq!(t.to_bits(), t0.to_bits(), "end time moved under fold {fold:?}");
        assert_eq!(s.windows, s0.windows, "window count moved under fold {fold:?}");
        assert_eq!(s.messages, s0.messages, "message count moved under fold {fold:?}");
    }
}

/// Claim 3: with the seeded straggler plan armed (rank 3 computes 4×
/// slower), the degraded timeline is still partition-count-invariant —
/// and really is degraded relative to nominal.
#[test]
fn seeded_faults_stay_partition_invariant() {
    let (nodes, bytes, op) = (8usize, 4 * 1024u64, CollectiveOp::Allreduce);
    let (nominal, _) = cluster_collective_run_with(nodes, bytes, op, 1);
    let plan = FaultPlan::named("straggler").expect("canned plan");
    let mut baseline = None;
    for n in COUNTS {
        // Each count is its own activation, with its own injected total.
        let armed = arm(&RunConfig::default(), &plan);
        let (t, stats) = cluster_collective_run_under(armed.faults(), nodes, bytes, op, n);
        let probe = (t.to_bits(), stats.windows, stats.messages, armed.faults().injected_ps());
        match baseline {
            None => baseline = Some(probe),
            Some(b) => assert_eq!(probe, b, "faulted run diverged at --partitions {n}"),
        }
    }
    let faulted = f64::from_bits(baseline.expect("ran at least one count").0);
    assert!(
        faulted > nominal,
        "straggler should slow the collective: {faulted} vs {nominal}"
    );
    let (restored, _) = cluster_collective_run_with(nodes, bytes, op, 2);
    assert_eq!(
        restored.to_bits(),
        nominal.to_bits(),
        "the healthy machine keeps the nominal timeline"
    );
}
