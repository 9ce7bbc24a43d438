//! The parallel experiment runner: one thread pool, all experiments.
//!
//! Replaces "run 21 binaries one after another" with a single sweep that
//! work-shares the experiment list across a reused [`maia_omp::Team`]
//! (the same pool runtime the OpenMP figures model, here doing real
//! work). Experiments are claimed longest-estimated-first under dynamic
//! self-scheduling, so the expensive 236-rank collective worlds start
//! immediately and short figures fill the tail.
//!
//! Output is deterministic and identical to serial execution: every
//! experiment builds its own [`FigureData`] from deterministic models, and
//! the [`crate::cache`] layer guarantees a shared sub-model is computed
//! once and reused bit-identically regardless of which experiment reaches
//! it first.
//!
//! The sweep is **fail-soft**: each experiment executes on a dedicated
//! guard thread under `catch_unwind` with the run config's wall-clock
//! watchdog (`MAIA_EXPERIMENT_TIMEOUT_S`, default 300 s). A panicking,
//! deadlocking, or hung experiment becomes an [`ExperimentFailure`] in
//! [`SweepReport::failures`] while every other experiment still
//! completes — one sick model no longer tears down the whole sweep.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use maia_omp::{LoopState, Schedule, Team};

use crate::cache;
use crate::config::RunConfig;
use crate::experiments::{ExperimentId, ExperimentSelection};
use crate::figdata::FigureData;
use crate::telemetry;

/// One finished experiment with its wall-clock cost.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Which experiment ran.
    pub id: ExperimentId,
    /// The regenerated table.
    pub data: FigureData,
    /// Wall-clock time this experiment took inside the sweep. With
    /// `jobs > 1` the interval overlaps other experiments', so these
    /// *inclusive* walls sum to more than the sweep wall.
    pub wall: Duration,
    /// Exclusive wall: this experiment's interval with every instant
    /// divided by the number of experiments running at that instant
    /// (∫ dt / active(t)). Exclusive walls sum to at most the sweep
    /// wall, so they are the per-experiment costs a budget can add up.
    pub excl: Duration,
}

/// Why an experiment failed to produce its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The experiment (or a simulated process inside it) panicked.
    Panic,
    /// The simulation deadlocked (`SimError::Deadlock`).
    Deadlock,
    /// The wall-clock watchdog expired before the experiment yielded a
    /// result.
    Timeout,
    /// A partition worker process crashed or went silent and the
    /// supervisor's retry budget (and, if disabled, in-process
    /// degradation) could not recover the run.
    WorkerLost,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::Deadlock => "deadlock",
            FailureKind::Timeout => "timeout",
            FailureKind::WorkerLost => "worker-lost",
        })
    }
}

/// One experiment that did not finish: the panic payload, deadlock
/// detail, or watchdog verdict, with the wall time spent before giving
/// up.
#[derive(Debug, Clone)]
pub struct ExperimentFailure {
    /// Which experiment failed.
    pub id: ExperimentId,
    /// How it failed.
    pub kind: FailureKind,
    /// Panic payload / `SimError` rendering / watchdog message. Sim
    /// errors carry the originating process name and virtual time.
    pub detail: String,
    /// Wall-clock time spent before the failure was declared.
    pub wall: Duration,
}

impl ExperimentFailure {
    /// One-line rendering for stderr reports.
    pub fn to_line(&self) -> String {
        format!(
            "FAILED {} [{}] after {:.1} ms: {}",
            self.id.meta().code,
            self.kind,
            self.wall.as_secs_f64() * 1e3,
            self.detail
        )
    }
}

/// Result of a full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Finished experiments, in the order they were requested.
    pub runs: Vec<ExperimentRun>,
    /// Experiments that panicked, deadlocked, or timed out — the sweep
    /// completed everything else regardless.
    pub failures: Vec<ExperimentFailure>,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Cache effectiveness over the sweep.
    pub cache: cache::CacheStats,
}

impl SweepReport {
    /// Human-readable per-experiment timing summary (for stderr).
    pub fn timing_summary(&self) -> String {
        let mut out = String::new();
        let mut sorted: Vec<&ExperimentRun> = self.runs.iter().collect();
        sorted.sort_by_key(|r| std::cmp::Reverse(r.wall));
        for run in sorted {
            out.push_str(&format!(
                "{:<4} {:>9.1} ms  {}\n",
                run.id.meta().code,
                run.wall.as_secs_f64() * 1e3,
                run.id.meta().title,
            ));
        }
        for failure in &self.failures {
            out.push_str(&failure.to_line());
            out.push('\n');
        }
        let serial: f64 = self.runs.iter().map(|r| r.wall.as_secs_f64()).sum();
        out.push_str(&format!(
            "total {:.1} ms wall on {} job(s); {:.1} ms summed across experiments; \
             cache {} hit / {} miss\n",
            self.wall.as_secs_f64() * 1e3,
            self.jobs,
            serial * 1e3,
            self.cache.hits,
            self.cache.misses,
        ));
        if !self.failures.is_empty() {
            out.push_str(&format!(
                "{} experiment(s) FAILED; {} completed\n",
                self.failures.len(),
                self.runs.len()
            ));
        }
        out
    }

    /// Machine-readable timing record (`BENCH_*.json` trajectory).
    pub fn to_bench_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!(
            "  \"wall_s\": {:.6},\n",
            self.wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"cache\": {{ \"hits\": {}, \"misses\": {} }},\n",
            self.cache.hits, self.cache.misses
        ));
        out.push_str("  \"experiments\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"code\": \"{}\", \"wall_s\": {:.6}, \"excl_s\": {:.6} }}{}\n",
                run.id.meta().code,
                run.wall.as_secs_f64(),
                run.excl.as_secs_f64(),
                if i + 1 == self.runs.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"code\": \"{}\", \"kind\": \"{}\", \"wall_s\": {:.6} }}{}\n",
                f.id.meta().code,
                f.kind,
                f.wall.as_secs_f64(),
                if i + 1 == self.failures.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Run `ids` under `cfg` across `jobs` worker threads and collect the tables.
///
/// `jobs` is clamped to `[1, ids.len()]`. The returned runs are in the
/// same order as `ids` regardless of completion order.
pub fn run_experiments_parallel(cfg: &RunConfig, ids: &[ExperimentId], jobs: usize) -> SweepReport {
    let start = Instant::now();
    let cache_before = cache::stats();
    let jobs = jobs.max(1).min(ids.len().max(1));

    // Longest-estimated-first claim order (LPT): index list sorted by
    // descending cost, claimed one at a time by whichever worker is free.
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ids[i].meta().cost_estimate));

    type SlotResult = Result<ExperimentRun, ExperimentFailure>;
    let slots: Mutex<Vec<Option<SlotResult>>> = Mutex::new((0..ids.len()).map(|_| None).collect());
    // Per-slot (start, end) offsets from sweep start, for the exclusive-
    // wall computation (failures occupy a worker too, so they count).
    let intervals: Mutex<Vec<Option<(f64, f64)>>> =
        Mutex::new((0..ids.len()).map(|_| None).collect());
    let team = Team::labeled(jobs, "sweep");
    let state = LoopState::new(0..order.len(), Schedule::Dynamic { chunk: 1 });
    team.parallel(|ctx| {
        let worker = ctx.thread_num() as u32;
        ctx.for_loop(&state, |k| {
            let idx = order[k];
            let id = ids[idx];
            let t0 = Instant::now();
            let result = run_experiment_guarded(cfg, id);
            let wall = t0.elapsed();
            telemetry::record_wall_span(
                id.meta().code,
                worker,
                t0,
                wall.as_secs_f64(),
                "wall-exp",
            );
            let started_s = t0.duration_since(start).as_secs_f64();
            intervals.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[idx] =
                Some((started_s, started_s + wall.as_secs_f64()));
            let entry = result.map(|data| ExperimentRun {
                id,
                data,
                wall,
                excl: Duration::ZERO, // filled in below from the timeline
            });
            slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[idx] = Some(entry);
        });
    });

    let intervals = intervals
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let exclusive = exclusive_walls(&intervals);

    let mut runs: Vec<ExperimentRun> = Vec::with_capacity(ids.len());
    let mut failures: Vec<ExperimentFailure> = Vec::new();
    for (idx, slot) in slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .enumerate()
    {
        match slot {
            Some(Ok(mut run)) => {
                run.excl = Duration::from_secs_f64(exclusive[idx].unwrap_or(0.0));
                runs.push(run);
            }
            Some(Err(failure)) => failures.push(failure),
            // A worker that died before storing anything (e.g. killed by
            // the pool) is reported, not expect()-ed on.
            None => failures.push(ExperimentFailure {
                id: ids[idx],
                kind: FailureKind::Panic,
                detail: "worker finished without storing a result".to_string(),
                wall: Duration::ZERO,
            }),
        }
    }

    let cache_after = cache::stats();
    SweepReport {
        runs,
        failures,
        wall: start.elapsed(),
        jobs,
        cache: cache::CacheStats {
            hits: cache_after.hits - cache_before.hits,
            misses: cache_after.misses - cache_before.misses,
        },
    }
}

/// Contention-discounted wall per interval: split every elementary time
/// segment evenly among the experiments active during it, so the results
/// sum to (at most) the sweep wall regardless of `jobs`. O(n²) in the
/// experiment count, which never exceeds a few dozen.
fn exclusive_walls(intervals: &[Option<(f64, f64)>]) -> Vec<Option<f64>> {
    let mut bounds: Vec<f64> = intervals
        .iter()
        .flatten()
        .flat_map(|&(s, e)| [s, e])
        .collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    intervals
        .iter()
        .map(|iv| {
            let (s, e) = (*iv)?;
            let mut acc = 0.0;
            for w in bounds.windows(2) {
                let (t0, t1) = (w[0].max(s), w[1].min(e));
                if t1 <= t0 {
                    continue;
                }
                let active = intervals
                    .iter()
                    .flatten()
                    .filter(|&&(s2, e2)| s2 < t1 && e2 > t0)
                    .count();
                acc += (t1 - t0) / active as f64;
            }
            Some(acc)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Guard-thread lifecycle: cancellation + reaping
// ---------------------------------------------------------------------------

thread_local! {
    /// The cancellation flag of the guard thread this code runs on, set
    /// by the watchdog when its budget expires. `None` off guard threads.
    static GUARD_CANCEL: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// True on an experiment guard thread whose watchdog has already fired.
/// Long-running cooperative loops (the forced-hang injector, supervisor
/// waits) poll this and bail out so the thread can be reaped instead of
/// lingering into subsequent experiments.
pub fn guard_cancelled() -> bool {
    GUARD_CANCEL.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Acquire))
    })
}

/// How long the watchdog waits, after setting the cancellation flag,
/// for the guard thread to reach a cancellation point and exit.
const CANCEL_GRACE: Duration = Duration::from_millis(500);

/// Suppress the default panic hook's output for experiment guard
/// threads: their panics are caught, classified, and reported through
/// [`SweepReport::failures`], so the raw hook output would be noise.
/// Chained onto the previous hook, so panics on any other thread still
/// print normally.
fn install_quiet_experiment_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("maia-exp-"));
            if !quiet {
                prev(info);
            }
        }));
    });
}

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Run one experiment on a dedicated guard thread under `catch_unwind`,
/// with `cfg`'s wall-clock watchdog. Panics become [`FailureKind::Panic`]
/// (or [`FailureKind::Deadlock`] when the payload is a rendered
/// `SimError::Deadlock`); a blown watchdog cancels the guard thread,
/// joins it if it reaches a cancellation point within the grace period,
/// and otherwise detaches it — either way the failure is
/// [`FailureKind::Timeout`] and the thread never bleeds its state into
/// a subsequent experiment's failure.
fn run_experiment_guarded(
    cfg: &RunConfig,
    id: ExperimentId,
) -> Result<FigureData, ExperimentFailure> {
    install_quiet_experiment_hook();
    let code = id.meta().code;
    let cfg = cfg.clone();
    let t0 = Instant::now();
    let timeout = cfg.watchdog;
    let cancel = Arc::new(AtomicBool::new(false));
    let cancel_in = Arc::clone(&cancel);
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("maia-exp-{code}"))
        .spawn(move || {
            GUARD_CANCEL.with(|c| *c.borrow_mut() = Some(cancel_in));
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                crate::faults::forced_failure_trigger(&cfg, id);
                run_experiment_cached(&cfg, id)
            }));
            // After a timeout the receiver is gone; the send failing is
            // exactly how a cancelled guard retires quietly.
            let _ = tx.send(result);
        })
        .expect("failed to spawn experiment guard thread");

    match rx.recv_timeout(timeout) {
        Ok(Ok(data)) => {
            let _ = handle.join();
            Ok(data)
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            let detail = payload_to_string(payload);
            let kind = if detail.contains("simulation deadlocked") {
                FailureKind::Deadlock
            } else if detail.contains("worker for wheel") {
                // The supervisor's give-up panic carries the WorkerLoss
                // rendering (wheel, window, virtual time, cause).
                FailureKind::WorkerLost
            } else {
                FailureKind::Panic
            };
            Err(ExperimentFailure {
                id,
                kind,
                detail,
                wall: t0.elapsed(),
            })
        }
        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
            // Signal cancellation, then give cooperative code (the
            // forced-hang loop, supervisor waits) a short grace period
            // to unwind so the thread can be joined right here.
            cancel.store(true, Ordering::Release);
            let grace_deadline = Instant::now() + CANCEL_GRACE;
            while !handle.is_finished() && Instant::now() < grace_deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            // A guard still running is truly stuck (there is no portable
            // way to kill a thread): dropping its handle detaches it.
            let reaped = handle.is_finished();
            if reaped {
                let _ = handle.join();
            }
            Err(ExperimentFailure {
                id,
                kind: FailureKind::Timeout,
                detail: format!(
                    "no result within the {:.0} s watchdog (MAIA_EXPERIMENT_TIMEOUT_S); \
                     guard thread {}",
                    timeout.as_secs_f64(),
                    if reaped {
                        "cancelled and reaped"
                    } else {
                        "detached"
                    }
                ),
                wall: t0.elapsed(),
            })
        }
    }
}

/// Run one experiment under `cfg` through the process-wide memo cache,
/// inside its own telemetry scope when profiling is enabled.
///
/// The nesting order matters: the memo scope is *outer* so the wrapper
/// key stays empty, and the experiment scope is *inner* so everything
/// the experiment does — engines it builds, counters it bumps, model
/// time it attributes — lands in the experiment's own sink. Re-running
/// the same experiment in one process is a cache hit that returns the
/// first table bit-identically.
fn run_experiment_cached(cfg: &RunConfig, id: ExperimentId) -> FigureData {
    let def = id.meta();
    cache::memo(&cfg.memo_key(&format!("experiment/{}", def.code)), || {
        telemetry::with_experiment_scope(def.code, || (def.run)(cfg))
    })
}

/// Run a [`ExperimentSelection`] under the current [`RunConfig`] — the
/// entry point of library callers that set the process defaults.
pub fn run_selection(selection: &ExperimentSelection, jobs: usize) -> SweepReport {
    run_experiments_parallel(&RunConfig::current(), &selection.resolve(), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_requested_order() {
        let ids = [
            ExperimentId::F18OffloadBw,
            ExperimentId::T1Table,
            ExperimentId::F17Io,
        ];
        let report = run_experiments_parallel(&RunConfig::default(), &ids, 2);
        let got: Vec<ExperimentId> = report.runs.iter().map(|r| r.id).collect();
        assert_eq!(got, ids);
        assert_eq!(report.jobs, 2);
    }

    #[test]
    fn parallel_output_matches_serial() {
        let ids = [
            ExperimentId::F7PcieLatency,
            ExperimentId::F18OffloadBw,
            ExperimentId::F17Io,
            ExperimentId::T1Table,
        ];
        let parallel = run_experiments_parallel(&RunConfig::default(), &ids, 4);
        for run in &parallel.runs {
            let serial = crate::experiments::run_experiment(run.id);
            assert_eq!(run.data.to_markdown(), serial.to_markdown());
            assert_eq!(run.data.to_csv(), serial.to_csv());
        }
    }

    #[test]
    fn exclusive_walls_split_overlap_evenly() {
        // Two fully overlapping intervals of 2 s each: 1 s exclusive.
        let both = exclusive_walls(&[Some((0.0, 2.0)), Some((0.0, 2.0))]);
        assert!((both[0].unwrap() - 1.0).abs() < 1e-12);
        assert!((both[1].unwrap() - 1.0).abs() < 1e-12);
        // Half overlap: [0,2) and [1,3) — each gets 1 + 0.5.
        let half = exclusive_walls(&[Some((0.0, 2.0)), Some((1.0, 3.0)), None]);
        assert!((half[0].unwrap() - 1.5).abs() < 1e-12);
        assert!((half[1].unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(half[2], None);
        // Disjoint intervals keep their full wall.
        let apart = exclusive_walls(&[Some((0.0, 1.0)), Some((2.0, 3.0))]);
        assert!((apart[0].unwrap() - 1.0).abs() < 1e-12);
        assert!((apart[1].unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exclusive_walls_sum_to_at_most_the_sweep_wall() {
        let ids = [
            ExperimentId::F7PcieLatency,
            ExperimentId::F18OffloadBw,
            ExperimentId::F17Io,
            ExperimentId::T1Table,
        ];
        let report = run_experiments_parallel(&RunConfig::default(), &ids, 2);
        let excl_sum: f64 = report.runs.iter().map(|r| r.excl.as_secs_f64()).sum();
        assert!(
            excl_sum <= report.wall.as_secs_f64() * 1.001 + 1e-6,
            "exclusive sum {excl_sum} exceeds sweep wall {}",
            report.wall.as_secs_f64()
        );
        for run in &report.runs {
            assert!(run.excl <= run.wall, "{}", run.id.meta().code);
            assert!(run.excl > Duration::ZERO, "{}", run.id.meta().code);
        }
    }

    #[test]
    fn timing_summary_and_json_mention_every_code() {
        let ids = [ExperimentId::T1Table, ExperimentId::F17Io];
        let report = run_experiments_parallel(&RunConfig::default(), &ids, 1);
        let summary = report.timing_summary();
        let json = report.to_bench_json();
        for id in ids {
            assert!(summary.contains(id.meta().code));
            assert!(json.contains(id.meta().code));
        }
        assert!(json.contains("\"jobs\": 1"));
    }
}
