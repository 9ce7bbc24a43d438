//! Supervision of the multi-process cluster backend: spawn one worker
//! process per non-hub event wheel, watch their heartbeats through the
//! hub, and when a worker crashes or goes silent, respawn the whole cell
//! under a seeded exponential-backoff schedule ([`crate::backoff`]).
//! Because a partitioned run is a pure function of its job description,
//! a re-run after a loss is byte-identical to an undisturbed one — retry
//! is *safe*, never "best effort".
//!
//! The degradation ladder, in order:
//!
//! 1. **Run** under the process backend; worker loss aborts the cell.
//! 2. **Respawn** everything after a backoff delay, up to
//!    `MAIA_SUPERVISE_RETRIES` times (default 2).
//! 3. **Degrade** to the in-process channel backend (identical results,
//!    no isolation) when the budget is exhausted — counted and reported,
//!    never silent. Disabled with `MAIA_SUPERVISE_DEGRADE=0`.
//! 4. **Fail** the experiment with a [`crate::FailureKind::WorkerLost`]
//!    entry naming the wheel, the exchange window and the virtual time
//!    of the loss; the rest of the sweep continues.
//!
//! Every supervision event lands in the wall-side
//! [`crate::telemetry::SuperviseCounters`] bucket, kept apart from the
//! virtual-side counters so backend identity stays bit-exact.

use std::io::{Read, Write};
use std::process::Child;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use maia_arch::Faults;
use maia_mpi::bench::{cluster_collective_run_under, CollectiveOp};
use maia_mpi::process_backend::{cluster_collective_run_process, effective_partitions};
use maia_mpi::world::ProcessWorldError;
use maia_sim::partition::{PartitionRunStats, ProcessConfig};

use crate::backoff::BackoffPolicy;
use crate::telemetry;

/// Everything a launcher needs to spawn one worker process.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSpawnCtx {
    /// The event wheel the worker will host (`1..partitions`).
    pub wheel: usize,
    /// Respawn attempt number, 0 on the first try. Exported to the
    /// child as `MAIA_WORKER_ATTEMPT` so `:once` chaos heals on respawn.
    pub attempt: u32,
    /// Effective wheel count of the run.
    pub partitions: usize,
}

type Launcher = dyn Fn(&WorkerSpawnCtx) -> std::io::Result<Child> + Send + Sync;

static LAUNCHER: Mutex<Option<Box<Launcher>>> = Mutex::new(None);

/// Install the closure that spawns worker processes. The CLI installs a
/// self-exec (`maia-bench partition-worker ...`); tests install one
/// pointing at a built `maia-bench` binary.
pub fn install_worker_launcher(f: Box<Launcher>) {
    *LAUNCHER.lock().unwrap_or_else(PoisonError::into_inner) = Some(f);
}

/// Build the canonical worker command for `ctx` over `program`: the
/// `partition-worker` subcommand with stdin/stdout piped (they carry the
/// wire protocol), stderr inherited, and the attempt number exported.
pub fn worker_command(program: &std::path::Path, ctx: &WorkerSpawnCtx) -> std::process::Command {
    let mut cmd = std::process::Command::new(program);
    cmd.arg("partition-worker")
        .arg("--wheel")
        .arg(ctx.wheel.to_string())
        .arg("--partitions")
        .arg(ctx.partitions.to_string())
        .env("MAIA_WORKER_ATTEMPT", ctx.attempt.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    cmd
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Retry budget: respawn attempts after the first loss.
fn retry_budget() -> u32 {
    env_u64("MAIA_SUPERVISE_RETRIES", 2) as u32
}

/// Whether budget exhaustion degrades to in-process execution (default)
/// or fails the experiment (`MAIA_SUPERVISE_DEGRADE=0`).
fn degrade_enabled() -> bool {
    std::env::var("MAIA_SUPERVISE_DEGRADE").map_or(true, |v| v != "0")
}

/// Install the standard launcher over a worker binary path: spawns
/// `program partition-worker ...` via [`worker_command`]. The CLI passes
/// its own executable; tests pass a built `maia-bench`.
pub fn install_default_launcher(program: std::path::PathBuf) {
    install_worker_launcher(Box::new(move |ctx| worker_command(&program, ctx).spawn()));
}

/// Heartbeat config: `MAIA_SUPERVISE_HEARTBEAT_MS` sets the interval
/// (default 100 ms); the silence deadline is 20 intervals. Shared by the
/// hub (deadline enforcement) and the worker entry point (send cadence)
/// so one knob tunes both sides.
pub fn process_config() -> ProcessConfig {
    let interval_ms = env_u64("MAIA_SUPERVISE_HEARTBEAT_MS", 100).max(1);
    ProcessConfig {
        heartbeat_interval: Duration::from_millis(interval_ms),
        heartbeat_deadline: Duration::from_millis(interval_ms * 20),
        handshake_deadline: Duration::from_secs(20),
    }
}

/// Deterministic backoff seed for one cell: the supervision schedule is
/// a pure function of what is being retried, so two runs of the same
/// failing cell wait identically.
fn cell_seed(nodes: usize, bytes: u64, op: CollectiveOp, partitions: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in [nodes as u64, bytes, op as u64, partitions as u64] {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn kill_all(children: &mut Vec<Child>) {
    for child in children.iter_mut() {
        let _ = child.kill();
    }
    for child in children.iter_mut() {
        let _ = child.wait();
    }
    children.clear();
}

/// One supervised cluster collective of the healthy machine under the
/// process backend. Returns the same `(time, stats)` as
/// [`maia_mpi::bench::cluster_collective_run_with`] — byte-identical —
/// or panics the way the channel backend does on a deterministic
/// simulation error, or (budget exhausted, degradation disabled) with
/// the rendered worker loss, which the executor classifies as
/// [`crate::FailureKind::WorkerLost`].
pub fn supervised_cluster_run(
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
    partitions: usize,
) -> (f64, PartitionRunStats) {
    supervised_cluster_run_under(&Faults::default(), nodes, bytes, op, partitions)
}

/// [`supervised_cluster_run`] on the machine `faults` describes: every
/// wheel, the hub's and the workers', runs its faults, and `faults`
/// tallies the injected time of the attempt that completes (or of the
/// in-process run it degrades to).
pub(crate) fn supervised_cluster_run_under(
    faults: &Faults,
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
    partitions: usize,
) -> (f64, PartitionRunStats) {
    let eff = effective_partitions(nodes, partitions);
    if eff == 1 {
        // Single wheel: there are no workers to supervise.
        return cluster_collective_run_under(faults, nodes, bytes, op, partitions);
    }
    let cfg = process_config();
    let budget = retry_budget();
    let policy = BackoffPolicy {
        base_s: 0.05,
        factor: 2.0,
        cap_s: 2.0,
        jitter: 0.25,
        budget,
    };
    let delays = policy.schedule(cell_seed(nodes, bytes, op, partitions));

    let mut last_loss = None;
    for attempt in 0..=budget {
        let mut children = Vec::with_capacity(eff - 1);
        let mut workers: Vec<(Box<dyn Read + Send>, Box<dyn Write + Send>)> =
            Vec::with_capacity(eff - 1);
        let spawn_err = {
            let launcher = LAUNCHER.lock().unwrap_or_else(PoisonError::into_inner);
            let launcher = launcher.as_ref().expect(
                "process backend selected but no worker launcher installed \
                 (maia_core::supervise::install_worker_launcher)",
            );
            let mut err = None;
            for wheel in 1..eff {
                let ctx = WorkerSpawnCtx {
                    wheel,
                    attempt,
                    partitions: eff,
                };
                match launcher(&ctx) {
                    Ok(mut child) => {
                        let stdin = child.stdin.take().expect("worker stdin must be piped");
                        let stdout = child.stdout.take().expect("worker stdout must be piped");
                        workers.push((Box::new(stdout), Box::new(stdin)));
                        children.push(child);
                    }
                    Err(e) => {
                        err = Some(format!("worker for wheel {wheel} failed to spawn: {e}"));
                        break;
                    }
                }
            }
            err
        };

        let loss_detail = if let Some(err) = spawn_err {
            err
        } else {
            let run =
                cluster_collective_run_process(faults, nodes, bytes, op, partitions, workers, cfg);
            match run {
                Ok((time_s, stats, missed)) => {
                    telemetry::record_missed_heartbeats(missed);
                    for child in children.iter_mut() {
                        let _ = child.wait();
                    }
                    return (time_s, stats);
                }
                Err(ProcessWorldError::Sim(e)) => {
                    kill_all(&mut children);
                    // Deterministic simulation failure: identical to what
                    // the channel backend reports, so fail the same way.
                    panic!("cluster collective failed: {e}");
                }
                Err(ProcessWorldError::Lost { loss, missed }) => {
                    kill_all(&mut children);
                    // Failed attempts still account for the silence the
                    // hub observed — a stalled worker's missed beats are
                    // evidence, not noise to drop with the attempt.
                    telemetry::record_missed_heartbeats(missed);
                    loss.to_string()
                }
            }
        };
        kill_all(&mut children);
        telemetry::record_worker_lost();
        eprintln!("supervise: {loss_detail} (attempt {attempt}/{budget})");
        last_loss = Some(loss_detail);
        if (attempt as usize) < delays.len() {
            let delay = Duration::from_secs_f64(delays[attempt as usize]);
            telemetry::record_respawn(delay);
            std::thread::sleep(delay);
        }
    }

    let loss = last_loss.expect("loop exits via return or records a loss");
    if degrade_enabled() {
        // Graceful degradation: the channel backend computes the
        // identical result in-process. Honest about it: counted in the
        // supervise bucket and narrated on stderr.
        telemetry::record_degraded();
        eprintln!(
            "supervise: retry budget exhausted ({loss}); \
             degrading to in-process channel backend"
        );
        return cluster_collective_run_under(faults, nodes, bytes, op, partitions);
    }
    panic!("{loss} (retry budget exhausted, degradation disabled)");
}
