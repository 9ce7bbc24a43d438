//! Chaos battery for the supervised multi-process cluster backend: real
//! `maia-bench partition-worker` child processes are crashed, stalled
//! and killed mid-window while the supervisor retries, degrades, or
//! honestly fails the experiment. Verifies the three load-bearing
//! claims of the backend:
//!
//! 1. fault-free process runs are **byte-identical** to the in-process
//!    channel backend at every partition count,
//! 2. a lost worker that heals on respawn (or degrades to in-process
//!    execution) still yields the identical result, and the respawned
//!    worker set serves the experiment's later cells unchanged,
//! 3. an unrecoverable loss fails only its own experiment, with a
//!    failure entry naming the wheel (partition), exchange window and
//!    virtual time — survivors complete with correct bytes,
//!
//! and that an armed fault plan reaches the worker processes' wheels.
//!
//! The chaos and supervision knobs are parsed onto each test's own
//! [`RunConfig`]; the worker binary rides on it too, except in the one
//! test that covers the process-default route library callers take.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use maia_core::faults::{arm, run_resilience, FaultPlan};
use maia_core::supervise::{
    install_default_launcher, supervised_cluster_run, supervised_cluster_run_under, WorkerSets,
};
use maia_core::telemetry;
use maia_core::{
    run_experiments_parallel, ExperimentId, ExperimentSelection, FailureKind, RunConfig,
};
use maia_mpi::bench::{cluster_collective_run_with, CollectiveOp};
use maia_mpi::fastpath::EngineMode;
use maia_mpi::process_backend::Backend;

/// Guards the process-wide `telemetry::supervise_counters()`: the chaos
/// tests lose, respawn and degrade workers, and assert on the counters'
/// deltas across their own run.
static SER: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locate (building if necessary) the `maia-bench` binary the launcher
/// will spawn. Test executables live in `target/<profile>/deps`, the
/// binary in `target/<profile>`.
fn worker_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("MAIA_WORKER_BIN") {
        return PathBuf::from(p);
    }
    let mut dir = std::env::current_exe().expect("current_exe");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("maia-bench{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = std::process::Command::new(cargo);
        cmd.args(["build", "-p", "maia-bench", "--bin", "maia-bench"]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo build -p maia-bench");
        assert!(status.success(), "building the worker binary failed");
    }
    assert!(bin.exists(), "worker binary not found at {}", bin.display());
    bin
}

/// A process-backend config at `partitions` wheels of `engine` that
/// spawns [`worker_bin`], under the supervision `knobs`.
fn process_backend_config(
    engine: EngineMode,
    partitions: usize,
    knobs: &[(&str, &str)],
) -> RunConfig {
    let bin = worker_bin();
    let bin = bin.to_str().expect("UTF-8 worker path");
    RunConfig::new(engine, partitions, Backend::Process)
        .with_knobs([("MAIA_WORKER_BIN", bin)].into_iter().chain(knobs.iter().copied()))
        .expect("valid knobs")
}

/// Acceptance criterion: fault-free process-backend runs land on the
/// bit-exact completion time and partition statistics of the channel
/// backend at partition counts 1, 2, 4 and 8. Runs the route library
/// callers take: the process-default worker binary, and
/// [`supervised_cluster_run`] on [`RunConfig::current`].
#[test]
fn process_backend_is_bit_identical_to_channel_at_every_partition_count() {
    install_default_launcher(worker_bin());
    for partitions in [1usize, 2, 4, 8] {
        let (want, want_stats) =
            cluster_collective_run_with(8, 4096, CollectiveOp::Allreduce, partitions);
        let (got, got_stats) =
            supervised_cluster_run(8, 4096, CollectiveOp::Allreduce, partitions);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "p={partitions}: process {got} vs channel {want}"
        );
        assert_eq!(got_stats.partitions, want_stats.partitions, "p={partitions}");
        assert_eq!(got_stats.windows, want_stats.windows, "p={partitions}");
        assert_eq!(got_stats.messages, want_stats.messages, "p={partitions}");
    }
}

/// A worker killed mid-window (no abort frame, no report — as if
/// SIGKILLed) on its first attempt only: the supervisor respawns after a
/// backoff wait and the re-run is byte-identical. The supervise bucket
/// records the loss and the respawn.
#[test]
fn killed_worker_heals_on_respawn_with_identical_bytes() {
    let _g = serialize();
    let cfg = process_backend_config(
        EngineMode::Auto,
        2,
        &[("MAIA_WORKER_CHAOS", "kill:1:once"), ("MAIA_SUPERVISE_RETRIES", "2")],
    );
    let before = telemetry::supervise_counters();
    let (want, _) = cluster_collective_run_with(4, 64, CollectiveOp::Alltoall, 2);
    let (got, _) = supervised_cluster_run_under(&cfg, 4, 64, CollectiveOp::Alltoall);
    assert_eq!(got.to_bits(), want.to_bits());
    let after = telemetry::supervise_counters();
    assert!(after.workers_lost > before.workers_lost, "loss not counted");
    assert!(after.respawns > before.respawns, "respawn not counted");
    assert!(
        after.backoff_wait_ms > before.backoff_wait_ms,
        "backoff wait not counted"
    );
}

/// A worker that handshakes and then goes silent forever: the hub's
/// heartbeat deadline converts the hang into a loss (no waiting for a
/// wall-clock watchdog), and the respawned worker completes identically.
#[test]
fn stalled_worker_trips_the_heartbeat_deadline_and_heals() {
    let _g = serialize();
    let cfg = process_backend_config(
        EngineMode::Auto,
        2,
        &[
            ("MAIA_WORKER_CHAOS", "stall:once"),
            ("MAIA_SUPERVISE_RETRIES", "1"),
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "20"),
        ],
    );
    let before = telemetry::supervise_counters();
    let (want, _) = cluster_collective_run_with(4, 64, CollectiveOp::Allreduce, 2);
    let (got, _) = supervised_cluster_run_under(&cfg, 4, 64, CollectiveOp::Allreduce);
    assert_eq!(got.to_bits(), want.to_bits());
    let after = telemetry::supervise_counters();
    assert!(after.workers_lost > before.workers_lost);
    assert!(
        after.missed_heartbeats > before.missed_heartbeats,
        "a stalled worker must show up as missed heartbeats"
    );
}

/// A worker that crashes before the handshake on every attempt: the
/// retry budget exhausts and the run degrades to in-process execution —
/// identical bytes, degradation counted, never silent success.
#[test]
fn persistent_crash_degrades_to_in_process_execution() {
    let _g = serialize();
    let cfg = process_backend_config(
        EngineMode::Auto,
        2,
        &[("MAIA_WORKER_CHAOS", "panic-on-connect"), ("MAIA_SUPERVISE_RETRIES", "1")],
    );
    let before = telemetry::supervise_counters();
    let (want, _) = cluster_collective_run_with(4, 64, CollectiveOp::Allreduce, 2);
    let (got, _) = supervised_cluster_run_under(&cfg, 4, 64, CollectiveOp::Allreduce);
    assert_eq!(got.to_bits(), want.to_bits());
    let after = telemetry::supervise_counters();
    assert!(after.degraded > before.degraded, "degradation not counted");
}

/// Acceptance criterion: with degradation disabled and the budget
/// exhausted, the loss becomes a per-experiment `WorkerLost` failure
/// whose detail names the wheel (partition), the exchange window and
/// the virtual time — and the rest of the sweep still completes with
/// correct bytes.
#[test]
fn unrecoverable_loss_fails_one_experiment_and_spares_the_rest() {
    let _g = serialize();
    let cfg = process_backend_config(
        EngineMode::Des,
        4,
        &[
            ("MAIA_WORKER_CHAOS", "kill:1"),
            ("MAIA_SUPERVISE_RETRIES", "0"),
            ("MAIA_SUPERVISE_DEGRADE", "0"),
        ],
    );
    let cluster = ExperimentId::C1ClusterAllreduce;
    let survivor = ExperimentId::T1Table;
    let report = run_experiments_parallel(&cfg, &[cluster, survivor], 2);

    assert_eq!(report.failures.len(), 1, "exactly the cluster experiment fails");
    let f = &report.failures[0];
    assert_eq!(f.id, cluster);
    assert_eq!(f.kind, FailureKind::WorkerLost);
    assert!(
        f.detail.contains("worker for wheel") && f.detail.contains("virtual time"),
        "failure must name the partition and virtual time: {:?}",
        f.detail
    );
    assert!(
        f.detail.contains("retry budget exhausted"),
        "failure must say why supervision gave up: {:?}",
        f.detail
    );

    assert_eq!(report.runs.len(), 1);
    assert_eq!(report.runs[0].id, survivor);
    let direct = maia_core::run_experiment(survivor);
    assert_eq!(report.runs[0].data.rows, direct.rows, "survivor data corrupted");
}

/// An experiment's cells share one worker set per wheel count, so a
/// `kill:1:once` worker costs C01 one loss, not one per cell: the
/// respawned set serves the rest. Every row matches the channel
/// backend's. The straggler plan is armed on both sides only to give the
/// cells memo keys no other test computes.
#[test]
fn a_loss_costs_an_experiment_one_respawn() {
    let _g = serialize();
    let plan = FaultPlan::named("straggler").expect("canned plan");
    let c01 = [ExperimentId::C1ClusterAllreduce];
    let channel = arm(&RunConfig::new(EngineMode::Des, 2, Backend::Channel), &plan);
    let want = run_experiments_parallel(&channel, &c01, 1);
    let process =
        process_backend_config(EngineMode::Des, 2, &[("MAIA_WORKER_CHAOS", "kill:1:once")]);
    let before = telemetry::supervise_counters();
    let got = run_experiments_parallel(&arm(&process, &plan), &c01, 1);
    let after = telemetry::supervise_counters();
    assert!(got.failures.is_empty(), "{:?}", got.failures);
    assert_eq!(got.runs[0].data.rows, want.runs[0].data.rows);
    assert_eq!(after.workers_lost - before.workers_lost, 1);
    assert_eq!(after.respawns - before.respawns, 1);
}

/// A worker's `kill:<W>` counts exchange windows over its life, so with
/// W past the first cell it dies in a later one, cell k; the set
/// respawned for cell k serves cell k + 1 and on, and every cell lands on
/// the channel backend's bits, with one loss in all.
#[test]
fn a_worker_killed_in_one_cell_leaves_the_next_unchanged() {
    let _g = serialize();
    let op = CollectiveOp::Allreduce;
    let cells: Vec<(usize, u64)> = [2, 8, 32, 128]
        .into_iter()
        .flat_map(|nodes| [64, 4096, 65536].map(|bytes| (nodes, bytes)))
        .collect();
    let channel: Vec<_> = cells
        .iter()
        .map(|&(nodes, bytes)| cluster_collective_run_with(nodes, bytes, op, 2))
        .collect();
    for kill_at in [5u64, 20, 60] {
        let chaos = format!("kill:{kill_at}:once");
        let cfg = process_backend_config(EngineMode::Des, 2, &[("MAIA_WORKER_CHAOS", &chaos)]);
        // The cell whose windows hold the worker's `kill_at`-th exchange.
        let mut driven = 0;
        let doomed = channel
            .iter()
            .position(|(_, stats)| {
                driven += stats.windows;
                driven > kill_at
            })
            .expect("the kill lands inside C01");
        assert!(doomed > 0, "{chaos} lands in the first cell");
        let mut sets = WorkerSets::default();
        for (k, (&(nodes, bytes), (want, want_stats))) in cells.iter().zip(&channel).enumerate() {
            let before = telemetry::supervise_counters().workers_lost;
            let (got, stats) = sets.run(&cfg, nodes, bytes, op);
            let lost = telemetry::supervise_counters().workers_lost - before;
            assert_eq!(lost, u64::from(k == doomed), "{chaos}: losses in cell {k}");
            assert_eq!(got.to_bits(), want.to_bits(), "{chaos}: cell {k}");
            assert_eq!(stats.windows, want_stats.windows, "{chaos}: cell {k}");
            assert_eq!(stats.messages, want_stats.messages, "{chaos}: cell {k}");
        }
    }
}

/// One fault plan reaches every wheel: under the straggler plan, the
/// resilience report over C01+C02 is byte-identical whether wheel 1 runs
/// on a thread of this process or in a worker process — where straggler
/// rank 3 lives at two wheels.
#[test]
fn armed_plan_reaches_worker_wheels() {
    let plan = FaultPlan::named("straggler").expect("canned plan");
    let selection = ExperimentSelection::Ids(vec![
        ExperimentId::C1ClusterAllreduce,
        ExperimentId::C2ClusterAlltoall,
    ]);
    let report = |cfg: &RunConfig| run_resilience(cfg, &plan, &selection, 2).to_markdown();
    let channel = report(&RunConfig::new(EngineMode::Des, 2, Backend::Channel));
    assert!(
        channel.contains("injected model time: 207763879224 ps")
            && channel.contains("| C01 | 48 | 9 |")
            && channel.contains("| C02 | 48 | 9 |"),
        "{channel}"
    );
    assert_eq!(report(&process_backend_config(EngineMode::Des, 2, &[])), channel);
}
