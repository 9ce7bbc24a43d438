//! Supervision of the multi-process cluster backend: keep one worker
//! process per non-hub event wheel alive for an experiment's cells, watch
//! their heartbeats through the hub, and when a worker crashes or goes
//! silent, kill its whole set and re-run the cell on a fresh one under a
//! seeded exponential-backoff schedule ([`crate::backoff`]). Because a
//! partitioned run is a pure function of its job description, a re-run
//! after a loss is byte-identical to an undisturbed one — retry is
//! *safe*, never "best effort".
//!
//! An experiment owns its [`WorkerSets`]: at most one live set per
//! effective wheel count, spawned and handshaken the first time a cell
//! needs it, then sent one job per cell. Dropping the value closes the
//! workers' pipes, and the workers exit on EOF. The spawn count at a wheel
//! count is the set's `MAIA_WORKER_ATTEMPT`, so a `:once` chaos fault
//! heals on the first respawn.
//!
//! The degradation ladder, per cell, in order:
//!
//! 1. **Run** on the live set; a worker loss aborts the cell and kills
//!    the set.
//! 2. **Respawn** the set after a backoff delay and re-run the cell, up
//!    to `MAIA_SUPERVISE_RETRIES` times (default 2).
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

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use maia_mpi::bench::{cluster_collective_run_under, CollectiveOp};
use maia_mpi::process_backend::{
    cluster_collective_run_process, effective_partitions, worker_main,
};
use maia_mpi::world::{Msg, ProcessWorldError};
use maia_sim::partition::{PartitionRunStats, ProcessCommunicator, ProcessConfig};

use crate::backoff::BackoffPolicy;
use crate::config::{RunConfig, Supervision};
use crate::telemetry;

/// The process-default worker binary, read only by
/// [`RunConfig::current`].
pub(crate) static DEFAULT_WORKER_BIN: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Make `program` the worker binary of [`RunConfig::current`]: library
/// callers that run the process backend through the process defaults
/// pass a binary whose `partition-worker` subcommand is `maia-bench`'s.
pub fn install_default_launcher(program: PathBuf) {
    *DEFAULT_WORKER_BIN
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(program);
}

/// The command that hosts wheel `wheel` of `partitions` in `program`'s
/// `partition-worker` on spawn attempt `attempt`: stdin/stdout piped (the
/// wire protocol), stderr inherited, and the hub's heartbeat, the attempt
/// and `sup`'s chaos, if any (else the worker's inherited one applies),
/// set for the worker to parse back.
fn worker_command(
    sup: &Supervision,
    program: &Path,
    wheel: usize,
    partitions: usize,
    attempt: u32,
) -> Command {
    let mut cmd = Command::new(program);
    cmd.arg("partition-worker")
        .arg("--wheel")
        .arg(wheel.to_string())
        .arg("--partitions")
        .arg(partitions.to_string())
        .env("MAIA_SUPERVISE_HEARTBEAT_MS", sup.heartbeat_ms.to_string())
        .env("MAIA_WORKER_ATTEMPT", attempt.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(chaos) = sup.chaos {
        cmd.env("MAIA_WORKER_CHAOS", chaos.to_string());
    }
    cmd
}

/// Heartbeat config: `MAIA_SUPERVISE_HEARTBEAT_MS` sets the interval
/// (default 100 ms); the silence deadline is 20 intervals. Shared by the
/// hub (deadline enforcement) and the worker entry point (send cadence),
/// which reads the hub's interval back off its command.
fn process_config(sup: &Supervision) -> ProcessConfig {
    ProcessConfig {
        heartbeat_interval: Duration::from_millis(sup.heartbeat_ms),
        heartbeat_deadline: Duration::from_millis(sup.heartbeat_ms * 20),
        handshake_deadline: Duration::from_secs(20),
    }
}

/// Worker side of a supervised run (`maia-bench partition-worker`): host
/// wheel `wheel` of `partitions` over `reader`/`writer` at `cfg`'s
/// heartbeat interval for every job the hub sends until it closes the
/// pipe, injecting the chaos `cfg` arms for its attempt.
pub fn serve_worker(
    cfg: &RunConfig,
    wheel: usize,
    partitions: usize,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
) -> std::io::Result<()> {
    let sup = &cfg.supervise;
    let beat = process_config(sup);
    let chaos = sup.chaos.and_then(|c| c.armed(sup.attempt));
    worker_main(wheel, partitions, reader, writer, beat, chaos)
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

/// One worker process per non-hub wheel and the hub's handshaken session
/// with them. Dropping it closes the workers' pipes — a healthy worker
/// reads EOF between jobs and exits — and then reaps them.
struct WorkerSet {
    // Declared before `children`, so it drops (and closes the pipes) first.
    hub: ProcessCommunicator<Msg>,
    children: Reaped,
}

/// Worker processes, waited for on drop.
struct Reaped(Vec<Child>);

impl Reaped {
    fn kill(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.wait();
        }
    }
}

impl WorkerSet {
    /// Spawn `program`'s workers for wheels `1..eff` on spawn attempt
    /// `attempt` and take their Hellos; the error is the loss detail.
    fn spawn(
        sup: &Supervision,
        program: &Path,
        eff: usize,
        attempt: u32,
    ) -> Result<WorkerSet, String> {
        let mut children = Reaped(Vec::with_capacity(eff - 1));
        let mut pipes: Vec<(Box<dyn Read + Send>, Box<dyn Write + Send>)> =
            Vec::with_capacity(eff - 1);
        for wheel in 1..eff {
            match worker_command(sup, program, wheel, eff, attempt).spawn() {
                Ok(mut child) => {
                    let stdin = child.stdin.take().expect("worker stdin must be piped");
                    let stdout = child.stdout.take().expect("worker stdout must be piped");
                    pipes.push((Box::new(stdout), Box::new(stdin)));
                    children.0.push(child);
                }
                Err(e) => {
                    children.kill();
                    return Err(format!("worker for wheel {wheel} failed to spawn: {e}"));
                }
            }
        }
        match ProcessCommunicator::handshake(eff, pipes, process_config(sup)) {
            Ok(hub) => Ok(WorkerSet { hub, children }),
            Err(loss) => {
                children.kill();
                Err(loss.to_string())
            }
        }
    }

    fn kill(mut self) {
        self.children.kill();
    }
}

/// The worker processes an experiment's cells run on: at most one live
/// `WorkerSet` per effective wheel count, spawned the first time a cell
/// needs it and kept until a loss kills it or the owner drops this value.
#[derive(Default)]
pub struct WorkerSets {
    /// Per effective wheel count: the sets spawned so far (the next one's
    /// spawn attempt) and the live set, if any.
    by_wheels: BTreeMap<usize, (u32, Option<WorkerSet>)>,
}

impl WorkerSets {
    /// [`supervised_cluster_run_under`] on these sets: the cell runs on
    /// the live set at its effective wheel count, and a loss kills that
    /// set, so the retry runs on a fresh one.
    pub fn run(
        &mut self,
        cfg: &RunConfig,
        nodes: usize,
        bytes: u64,
        op: CollectiveOp,
    ) -> (f64, PartitionRunStats) {
        let (faults, partitions, sup) = (cfg.faults(), cfg.partitions, &cfg.supervise);
        let eff = effective_partitions(nodes, partitions);
        if eff == 1 {
            // Single wheel: there are no workers to supervise.
            return cluster_collective_run_under(faults, nodes, bytes, op, partitions);
        }
        let program = sup.worker_bin.as_deref().expect(
            "process backend selected but no worker binary configured \
             (MAIA_WORKER_BIN, or maia_core::supervise::install_default_launcher)",
        );
        let budget = sup.retries;
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
            let (spawned, live) = self.by_wheels.entry(eff).or_default();
            let set = match live.take() {
                Some(set) => Ok(set),
                None => {
                    *spawned += 1;
                    WorkerSet::spawn(sup, program, eff, *spawned - 1)
                }
            };
            let loss_detail = match set {
                Err(detail) => detail,
                Ok(mut set) => {
                    match cluster_collective_run_process(faults, nodes, bytes, op, &mut set.hub) {
                        Ok((time_s, stats, missed)) => {
                            telemetry::record_missed_heartbeats(missed);
                            *live = Some(set);
                            return (time_s, stats);
                        }
                        Err(ProcessWorldError::Sim(e)) => {
                            set.kill();
                            // Deterministic simulation failure: identical to
                            // what the channel backend reports, so fail the
                            // same way.
                            panic!("cluster collective failed: {e}");
                        }
                        Err(ProcessWorldError::Lost { loss, missed }) => {
                            set.kill();
                            // Failed attempts still account for the silence
                            // the hub observed — a stalled worker's missed
                            // beats are evidence, not noise to drop with the
                            // attempt.
                            telemetry::record_missed_heartbeats(missed);
                            loss.to_string()
                        }
                    }
                }
            };
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
        if sup.degrade {
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
}

/// One supervised cluster collective of the healthy machine under the
/// process backend, at `partitions` wheels of [`RunConfig::current`], on
/// a worker set of its own. Returns the same `(time, stats)` as
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
    let mut cfg = RunConfig::current();
    cfg.partitions = partitions;
    supervised_cluster_run_under(&cfg, nodes, bytes, op)
}

/// [`supervised_cluster_run`] under `cfg`: its wheel count, its
/// supervision settings, and the machine its faults describe, on a
/// worker set of its own. Every wheel, the hub's and the workers', runs
/// those faults, and they tally the injected time of the attempt that
/// completes (or of the in-process run it degrades to).
pub fn supervised_cluster_run_under(
    cfg: &RunConfig,
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
) -> (f64, PartitionRunStats) {
    WorkerSets::default().run(cfg, nodes, bytes, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsStr;

    fn env_of<'c>(cmd: &'c Command, name: &str) -> Option<&'c OsStr> {
        cmd.get_envs()
            .find(|&(k, _)| k == OsStr::new(name))
            .and_then(|(_, v)| v)
    }

    #[test]
    fn worker_commands_carry_the_hubs_settings() {
        let knobs = [
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "20"),
            ("MAIA_WORKER_CHAOS", "kill:1:once"),
        ];
        let cfg = RunConfig::default().with_knobs(knobs).expect("valid knobs");
        let cmd = worker_command(&cfg.supervise, Path::new("/opt/maia-bench"), 2, 4, 1);
        assert_eq!(cmd.get_program(), OsStr::new("/opt/maia-bench"));
        let args: Vec<&OsStr> = cmd.get_args().collect();
        assert_eq!(
            args,
            ["partition-worker", "--wheel", "2", "--partitions", "4"].map(OsStr::new)
        );
        assert_eq!(
            env_of(&cmd, "MAIA_SUPERVISE_HEARTBEAT_MS"),
            Some(OsStr::new("20"))
        );
        assert_eq!(env_of(&cmd, "MAIA_WORKER_ATTEMPT"), Some(OsStr::new("1")));
        assert_eq!(
            env_of(&cmd, "MAIA_WORKER_CHAOS"),
            Some(OsStr::new("kill:1:once"))
        );

        // The worker reads them back through the same parser: the hub's
        // interval, and a `:once` fault that stays unarmed on attempt 1.
        let knobs = cmd.get_envs().filter_map(|(k, v)| Some((k, v?)));
        let worker = RunConfig::default()
            .with_knobs(knobs)
            .expect("the worker's knobs");
        let beat = process_config(&worker.supervise);
        assert_eq!(beat.heartbeat_interval, Duration::from_millis(20));
        assert_eq!(beat.heartbeat_deadline, Duration::from_millis(400));
        assert_eq!(worker.supervise.attempt, 1);
        assert_eq!(worker.supervise.chaos.and_then(|c| c.armed(1)), None);

        // No chaos named: the command sets none, so the worker falls back
        // to what it inherits.
        let defaults = RunConfig::default().supervise;
        let plain = worker_command(&defaults, Path::new("maia-bench"), 1, 2, 0);
        assert!(plain
            .get_envs()
            .all(|(k, _)| k != OsStr::new("MAIA_WORKER_CHAOS")));
        assert_eq!(
            env_of(&plain, "MAIA_SUPERVISE_HEARTBEAT_MS"),
            Some(OsStr::new("100"))
        );
        assert_eq!(env_of(&plain, "MAIA_WORKER_ATTEMPT"), Some(OsStr::new("0")));
    }
}
