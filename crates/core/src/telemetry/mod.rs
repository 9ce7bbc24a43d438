//! Zero-cost-when-disabled instrumentation for the experiment pipeline.
//!
//! This is the observability layer the paper's methodology calls for
//! turned inward: instead of probing the modeled hardware, it probes the
//! *simulator* — where virtual and wall time go inside `maia-sim`
//! engines, the executor, the memo cache and the OpenMP-style team
//! runtime. It spans four crates:
//!
//! * `maia-sim` reports scheduler activity through a [`maia_sim::Probe`]
//!   installed per engine (see [`probe::SimProbe`]),
//! * `maia-omp` reports team-worker region begin/end,
//! * `maia-mpi` annotates rank-level virtual-time spans,
//! * this crate owns the metrics registry (counters, virtual-time
//!   buckets, histograms), the span recorder, and the Chrome
//!   trace-event/Perfetto emitter (see [`report`]).
//!
//! # Attribution model
//!
//! Recording is scoped through a thread-local *sink stack*:
//! [`with_experiment_scope`] pushes a per-experiment sink around
//! `run_experiment`, and the memo cache pushes a per-key sink around
//! each sub-model computation. Because shared sub-models may be computed
//! by whichever experiment reaches them first (racy under a parallel
//! sweep), their cost is attributed to the *cache key* — deterministic —
//! and then *credited* to every consumer at lookup time, hit or miss.
//! The result: at fixed `--jobs`, every virtual-time field of the
//! profile report is bit-identical across runs, and only wall-clock
//! fields (kept in a separate section) vary.
//!
//! When disabled (the default), every entry point is a single relaxed
//! atomic load; `run`/`check` output is unaffected either way.

pub mod probe;
pub mod report;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

pub use report::{collect, DomainProfile, ExperimentProfile, ProfileReport, WorkerUtilization};

/// Spans kept per sink before counting drops instead (bounds memory for
/// the 236-rank collective worlds). The cap applies to the deterministic
/// prefix of the span sequence, so capped traces stay deterministic too.
pub(crate) const MAX_SPANS_PER_SINK: usize = 4096;

/// Scheduler-level counters mirrored from the [`maia_sim::Probe`] hooks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounters {
    /// Engines constructed under this sink.
    pub engines: u64,
    /// Processes spawned.
    pub processes: u64,
    /// Events pushed onto engine queues.
    pub scheduled: u64,
    /// Events popped (process resumptions).
    pub fired: u64,
    /// Process block operations.
    pub blocked: u64,
    /// Process completions.
    pub finished: u64,
    /// Deepest pending-event queue observed.
    pub max_queue_depth: u64,
}

impl SimCounters {
    /// Total scheduler actions (for "events" summaries).
    pub fn total(&self) -> u64 {
        self.scheduled + self.fired + self.blocked + self.finished
    }
}

/// A power-of-two histogram over `u64` samples (picoseconds, bytes, ...).
/// Bucket `k` counts samples with `bit_length(v) == k`, i.e. in
/// `[2^(k-1), 2^k)`; bucket 0 counts zeros.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Sparse bucket -> count map.
    pub buckets: BTreeMap<u32, u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = 64 - v.leading_zeros();
        *self.buckets.entry(bucket).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A recorded virtual-time span (deterministic; picosecond fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtSpan {
    /// Span name (e.g. `rank-17`).
    pub name: String,
    /// Start, picoseconds of virtual time.
    pub start_ps: u64,
    /// Duration, picoseconds.
    pub dur_ps: u64,
    /// Lane within the owning timeline (the simulated process index).
    pub tid: u32,
}

/// A recorded wall-clock span (nondeterministic; excluded from golden
/// comparisons).
#[derive(Debug, Clone)]
pub struct WallSpan {
    /// Span name (experiment code or `omp/<label>/w<thread>`).
    pub name: String,
    /// Worker thread lane.
    pub tid: u32,
    /// Seconds since the telemetry epoch.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
    /// `wall-exp` (executor) or `wall-omp` (team region).
    pub cat: &'static str,
}

/// One scope's accumulator. Everything in here is deterministic at fixed
/// `--jobs` because each scope's work is either single-threaded or
/// serialized by the simulation engine.
#[derive(Debug, Default)]
pub(crate) struct Sink {
    pub counters: BTreeMap<String, u64>,
    /// Virtual time attributed per subsystem (`mpi-fabric`, `memory`,
    /// `omp`, `io`, `pcie`, `faults`, ...), picoseconds. The `faults`
    /// bucket holds model time injected by an active
    /// [`crate::faults::FaultPlan`] (clamped at zero per contribution).
    pub vt_ps: BTreeMap<String, u64>,
    /// Virtual time advanced per simulated process name.
    pub proc_vt_ps: BTreeMap<String, u64>,
    pub hist: BTreeMap<String, Histogram>,
    pub sim: SimCounters,
    pub spans: Vec<VtSpan>,
    pub dropped_spans: u64,
}

impl Sink {
    pub(crate) fn push_span(&mut self, span: VtSpan) {
        if self.spans.len() < MAX_SPANS_PER_SINK {
            self.spans.push(span);
        } else {
            self.dropped_spans += 1;
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.vt_ps.is_empty()
            && self.spans.is_empty()
            && self.sim == SimCounters::default()
    }
}

pub(crate) type SharedSink = Arc<Mutex<Sink>>;

pub(crate) fn lock_sink(sink: &SharedSink) -> std::sync::MutexGuard<'_, Sink> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Global {
    epoch: Instant,
    /// Finished experiment scopes, in completion order; `collect`
    /// re-orders by the requested selection.
    experiments: Mutex<Vec<(String, SharedSink)>>,
    /// Finished memo-key scopes, by key.
    keys: Mutex<BTreeMap<String, SharedSink>>,
    wall_spans: Mutex<Vec<WallSpan>>,
    omp_regions: AtomicU64,
    supervise: SuperviseAtomics,
}

#[derive(Default)]
struct SuperviseAtomics {
    workers_lost: AtomicU64,
    respawns: AtomicU64,
    missed_heartbeats: AtomicU64,
    degraded: AtomicU64,
    backoff_wait_ms: AtomicU64,
}

/// Wall-side health counters of the process-backend supervisor. These
/// describe *this machine's* behaviour (crashes observed, heartbeats
/// missed, respawn waits), never the simulation — they live outside the
/// sink stack precisely so the virtual-side telemetry stays bit-identical
/// between the channel and process backends even under fault injection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseCounters {
    /// Worker processes declared lost (crash or heartbeat deadline).
    pub workers_lost: u64,
    /// Respawn attempts the supervisor made after a loss.
    pub respawns: u64,
    /// Heartbeat intervals that elapsed without a worker frame.
    pub missed_heartbeats: u64,
    /// Runs that exhausted the retry budget and were re-run in-process.
    pub degraded: u64,
    /// Total milliseconds spent in pre-respawn backoff waits.
    pub backoff_wait_ms: u64,
}

impl SuperviseCounters {
    /// True when nothing supervision-worthy happened (the common case —
    /// reports omit the bucket entirely then).
    pub fn is_zero(&self) -> bool {
        *self == SuperviseCounters::default()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Global> = OnceLock::new();

fn global() -> &'static Global {
    GLOBAL.get_or_init(|| Global {
        epoch: Instant::now(),
        experiments: Mutex::new(Vec::new()),
        keys: Mutex::new(BTreeMap::new()),
        wall_spans: Mutex::new(Vec::new()),
        omp_regions: AtomicU64::new(0),
        supervise: SuperviseAtomics::default(),
    })
}

thread_local! {
    static STACK: RefCell<Vec<SharedSink>> = const { RefCell::new(Vec::new()) };
}

/// Is the telemetry layer recording?
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the instrumentation layer on for the rest of the process:
/// installs the `maia-sim` probe factory and the `maia-omp` team
/// observer, and starts the wall-clock epoch. Idempotent.
pub fn enable() {
    if ENABLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = global();
    maia_sim::probe::set_probe_factory(Some(Arc::new(|| {
        current_sink().map(|sink| Arc::new(probe::SimProbe::new(sink)) as Arc<dyn maia_sim::Probe>)
    })));
    maia_omp::telemetry::set_team_observer(Some(Arc::new(probe::SweepObserver::default())));
}

/// The innermost recording scope on this thread, if any.
pub(crate) fn current_sink() -> Option<SharedSink> {
    if !is_enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().cloned())
}

/// Guard that pops the scope it pushed, panic-safe.
struct ScopeGuard;

impl ScopeGuard {
    fn push(sink: SharedSink) -> ScopeGuard {
        STACK.with(|s| s.borrow_mut().push(sink));
        ScopeGuard
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Bump counter `name` on the innermost scope. No-op outside a scope or
/// with telemetry disabled.
pub fn count(name: &str, n: u64) {
    if let Some(sink) = current_sink() {
        *lock_sink(&sink).counters.entry(name.to_string()).or_insert(0) += n;
    }
}

/// Attribute `ns` nanoseconds of *modeled* virtual time to `subsystem`
/// (`memory`, `omp`, `io`, `pcie`, ...). Used by the analytic
/// (non-DES) experiments so profiles can still say where modeled time
/// goes; engine-driven experiments get their `mpi-fabric` bucket from
/// the probe instead.
pub fn add_model_vt(subsystem: &str, ns: f64) {
    if let Some(sink) = current_sink() {
        let ps = (ns * 1e3).round().max(0.0) as u64;
        *lock_sink(&sink).vt_ps.entry(subsystem.to_string()).or_insert(0) += ps;
    }
}

/// Fault-injected model time from threads without a scope (simulated
/// rank threads never inherit the experiment sink), merged by `collect`
/// into the shared `faults` domain.
static ORPHAN_FAULT_VT_PS: AtomicU64 = AtomicU64::new(0);

/// Attribute fault-injected model time to the `faults` subsystem
/// bucket. Unlike [`add_model_vt`] this also works on threads without a
/// scope — the fault observers fire on simulated rank threads, which
/// run outside any experiment scope — by accumulating into a
/// process-global bucket that [`collect`] reports as a shared `faults`
/// domain. The total stays deterministic: it is a sum over the fixed
/// multiset of model calls, regardless of thread interleaving.
pub(crate) fn add_fault_vt(ns: f64) {
    if !is_enabled() {
        return;
    }
    let ps = (ns * 1e3).round().max(0.0) as u64;
    if ps == 0 {
        return;
    }
    if let Some(sink) = current_sink() {
        *lock_sink(&sink).vt_ps.entry("faults".to_string()).or_insert(0) += ps;
    } else {
        ORPHAN_FAULT_VT_PS.fetch_add(ps, Ordering::Relaxed);
    }
}

/// Drain the orphan fault bucket (called once per [`collect`]).
pub(crate) fn take_orphan_fault_vt_ps() -> u64 {
    ORPHAN_FAULT_VT_PS.swap(0, Ordering::Relaxed)
}

/// Record `value` into histogram `name` on the innermost scope.
pub fn observe(name: &str, value: u64) {
    if let Some(sink) = current_sink() {
        lock_sink(&sink).hist.entry(name.to_string()).or_default().record(value);
    }
}

/// Run `f` inside a fresh per-experiment scope and register the result
/// under `code`. Everything recorded on this thread — and by engines
/// constructed on it — lands in the experiment's sink.
pub fn with_experiment_scope<T>(code: &str, f: impl FnOnce() -> T) -> T {
    if !is_enabled() {
        return f();
    }
    let sink: SharedSink = Arc::new(Mutex::new(Sink::default()));
    let out = {
        let _guard = ScopeGuard::push(Arc::clone(&sink));
        f()
    };
    global()
        .experiments
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push((code.to_string(), sink));
    out
}

/// Run a memo-cache compute closure inside a per-key scope, so the cost
/// of shared sub-models is attributed deterministically to the key (not
/// to whichever experiment won the race to compute it).
pub(crate) fn memo_scope<T>(key: &str, compute: impl FnOnce() -> T) -> T {
    if !is_enabled() {
        return compute();
    }
    let sink: SharedSink = Arc::new(Mutex::new(Sink::default()));
    let out = {
        let _guard = ScopeGuard::push(Arc::clone(&sink));
        compute()
    };
    global()
        .keys
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key.to_string(), sink);
    out
}

/// Credit the current scope with the virtual time recorded under `key`'s
/// sink (called on every memo lookup, hit or miss — so consumers of a
/// cached sub-model account its cost deterministically).
pub(crate) fn memo_credit(key: &str) {
    if !is_enabled() {
        return;
    }
    let Some(consumer) = current_sink() else { return };
    let key_sink = {
        let keys = global().keys.lock().unwrap_or_else(PoisonError::into_inner);
        keys.get(key).cloned()
    };
    let Some(key_sink) = key_sink else { return };
    if Arc::ptr_eq(&consumer, &key_sink) {
        return;
    }
    let credited: Vec<(String, u64)> = {
        let k = lock_sink(&key_sink);
        k.vt_ps.iter().map(|(s, &ps)| (s.clone(), ps)).collect()
    };
    let mut c = lock_sink(&consumer);
    for (subsystem, ps) in credited {
        *c.vt_ps.entry(subsystem).or_insert(0) += ps;
    }
    *c.counters.entry("cache.lookups".to_string()).or_insert(0) += 1;
}

/// Record the wall-clock interval one executor worker spent on one
/// experiment. Wall data is kept apart from the deterministic sinks.
pub(crate) fn record_wall_span(name: &str, tid: u32, started: Instant, dur_s: f64, cat: &'static str) {
    if !is_enabled() {
        return;
    }
    let g = global();
    let start_s = started.saturating_duration_since(g.epoch).as_secs_f64();
    g.wall_spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(WallSpan {
            name: name.to_string(),
            tid,
            start_s,
            dur_s,
            cat,
        });
}

/// Record one partitioned-DES run. The window and message totals are
/// deterministic and partition-count-invariant (windows follow the
/// global floor sequence; messages count cross-*domain* sends, not
/// cross-wheel ones), so they land in the virtual-side counters the
/// determinism battery pins. Per-wheel buckets — final virtual time,
/// outbound messages, wall nanoseconds stalled at window barriers —
/// legitimately vary with the wheel count and machine load, so they go
/// to the wall side under their own category.
pub fn record_partition_run(stats: &maia_sim::partition::PartitionRunStats) {
    if !is_enabled() {
        return;
    }
    count("partition.runs", 1);
    count("partition.windows", stats.windows);
    count("partition.messages", stats.messages);
    let started = Instant::now();
    for (wheel, w) in stats.wheels.iter().enumerate() {
        record_wall_span(
            &format!("partition/w{wheel}/end{}ps/out{}", w.end_ps, w.messages_out),
            wheel as u32,
            started,
            w.stall_wall_ns as f64 / 1e9,
            "wall-partition",
        );
    }
}

pub(crate) fn record_omp_region() {
    global().omp_regions.fetch_add(1, Ordering::Relaxed);
}

/// Total parallel regions observed since enablement (wall-side metric).
pub fn omp_regions() -> u64 {
    global().omp_regions.load(Ordering::Relaxed)
}

/// A worker process was declared lost (crash or heartbeat deadline).
pub fn record_worker_lost() {
    global().supervise.workers_lost.fetch_add(1, Ordering::Relaxed);
}

/// The supervisor is about to respawn after waiting `backoff`.
pub fn record_respawn(backoff: std::time::Duration) {
    let s = &global().supervise;
    s.respawns.fetch_add(1, Ordering::Relaxed);
    s.backoff_wait_ms
        .fetch_add(backoff.as_millis() as u64, Ordering::Relaxed);
}

/// `n` heartbeat intervals elapsed without a frame from some worker.
pub fn record_missed_heartbeats(n: u64) {
    if n > 0 {
        global()
            .supervise
            .missed_heartbeats
            .fetch_add(n, Ordering::Relaxed);
    }
}

/// A run exhausted its retry budget and degraded to in-process execution.
pub fn record_degraded() {
    global().supervise.degraded.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the supervisor's wall-side health counters.
pub fn supervise_counters() -> SuperviseCounters {
    let s = &global().supervise;
    SuperviseCounters {
        workers_lost: s.workers_lost.load(Ordering::Relaxed),
        respawns: s.respawns.load(Ordering::Relaxed),
        missed_heartbeats: s.missed_heartbeats.load(Ordering::Relaxed),
        degraded: s.degraded.load(Ordering::Relaxed),
        backoff_wait_ms: s.backoff_wait_ms.load(Ordering::Relaxed),
    }
}

/// Snapshot accessors used by [`report`].
pub(crate) fn snapshot_experiments() -> Vec<(String, SharedSink)> {
    global()
        .experiments
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

pub(crate) fn snapshot_keys() -> Vec<(String, SharedSink)> {
    global()
        .keys
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .filter(|(_, s)| !lock_sink(s).is_empty())
        .map(|(k, s)| (k.clone(), Arc::clone(s)))
        .collect()
}

pub(crate) fn snapshot_wall_spans() -> Vec<WallSpan> {
    global()
        .wall_spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scopes_are_transparent() {
        // Do not enable() here: this is the disabled-path contract.
        let v = with_experiment_scope("TEST-DISABLED", || 41 + 1);
        assert_eq!(v, 42);
        count("ignored", 5);
        add_model_vt("memory", 10.0);
        assert!(current_sink().is_none() || is_enabled());
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 3, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.buckets.get(&0), Some(&1)); // the zero
        assert_eq!(h.buckets.get(&1), Some(&2)); // 1, 1
        assert_eq!(h.buckets.get(&2), Some(&1)); // 3
        assert_eq!(h.buckets.get(&4), Some(&1)); // 8
        assert_eq!(h.buckets.get(&10), Some(&1)); // 1023
        assert_eq!(h.buckets.get(&11), Some(&1)); // 1024
        assert_eq!(h.sum, 2060);
    }

    #[test]
    fn span_cap_counts_drops() {
        let mut sink = Sink::default();
        for i in 0..(MAX_SPANS_PER_SINK + 10) {
            sink.push_span(VtSpan {
                name: format!("s{i}"),
                start_ps: i as u64,
                dur_ps: 1,
                tid: 0,
            });
        }
        assert_eq!(sink.spans.len(), MAX_SPANS_PER_SINK);
        assert_eq!(sink.dropped_spans, 10);
    }
}
