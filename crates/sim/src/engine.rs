//! The conservative process-oriented simulation engine.
//!
//! The scheduler enforces strict one-at-a-time execution: it resumes
//! exactly one process, waits for that process to yield (by advancing
//! time, blocking, or finishing), and only then picks the next event.
//! Events are totally ordered by `(virtual time, sequence number)` in an
//! arena-backed timer wheel ([`crate::wheel`]), so simulations are
//! deterministic regardless of OS thread scheduling.
//!
//! Every simulated process is an inline state machine
//! ([`Engine::spawn_inline`]): an `async` body written against [`SimCtx`]
//! whose only awaited futures are [`SimCtx::advance`] and the channel
//! waits built on [`SimCtx::block`]. The scheduler polls it directly on
//! its own thread — no channel handoff, no park/unpark, no thread pool —
//! and catches a panicking poll as [`SimError::ProcessPanicked`].

use std::fmt;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::probe::{Probe, SchedStats};
use crate::time::{SimDuration, SimTime};
use crate::wheel::EventWheel;

/// Identifier of a simulated process within one [`Engine`].
///
/// Carries the engine's epoch alongside the dense slot index: a stale id
/// that outlives its engine (e.g. parked in a channel waiter list shared
/// with a later world) can never alias a recycled slot of a newer engine
/// (the ABA guard in `drain_wakes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId {
    slot: u32,
    epoch: u32,
}

/// Monotone engine-construction counter backing the [`ProcessId`] ABA
/// guard. Starts at 1 so epoch 0 is reserved for probe-only ids built via
/// [`ProcessId::from_index`].
static ENGINE_EPOCH: AtomicU32 = AtomicU32::new(1);

impl ProcessId {
    /// Dense index of this process within its engine (spawn order).
    pub fn index(&self) -> usize {
        self.slot as usize
    }

    /// A probe-facing id carrying only a dense index (epoch 0, which no
    /// engine ever uses). The partition layer builds these to remap
    /// wheel-local pids onto the global rank space; they are consumed by
    /// probes via [`ProcessId::index`] and must never be fed back into an
    /// engine wake list.
    pub(crate) fn from_index(index: usize) -> ProcessId {
        ProcessId {
            slot: index as u32,
            epoch: 0,
        }
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.slot)
    }
}

/// Errors surfaced by [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while some processes were still blocked:
    /// every named process is waiting on a channel that no runnable
    /// process can ever satisfy.
    Deadlock {
        /// Names of the blocked processes.
        blocked: Vec<String>,
        /// Virtual time at which the simulation stalled.
        at: SimTime,
    },
    /// A process panicked; the simulation cannot continue.
    ProcessPanicked {
        /// Name given to [`Engine::spawn_inline`].
        name: String,
        /// Rendered panic payload.
        message: String,
        /// Virtual time at which the process was running when it died.
        at: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked, at } => {
                write!(f, "simulation deadlocked at {at}; blocked: {}", blocked.join(", "))
            }
            SimError::ProcessPanicked { name, message, at } => {
                write!(f, "simulated process '{name}' panicked at {at}: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How one scheduler step of a process ended, applied by
/// `Engine::apply_outcome`.
enum Outcome {
    Advanced(SimDuration),
    Blocked,
    Finished,
    Panicked(String),
}

/// Target of a queued event: a process resume, or a scheduled injection
/// (e.g. a cross-partition message delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvTarget {
    Proc(usize),
    Inject(usize),
}

/// A scheduled injection body; runs on the scheduler thread at its
/// virtual time.
type Injection = Box<dyn FnOnce(&InjectCtx<'_>) + Send>;

/// State shared between the scheduler and the (single) running process.
#[derive(Default)]
pub(crate) struct Shared {
    /// Wake requests raised by the running process (e.g. a channel send to a
    /// blocked receiver). Drained by the scheduler every time the running
    /// process yields; because virtual time does not pass while a process
    /// runs, deferring the wake to yield time is exact.
    wakes: Mutex<Vec<ProcessId>>,
    /// Telemetry probe captured at engine construction, reachable from
    /// process bodies for explicit span annotations.
    probe: Option<Arc<dyn Probe>>,
}

/// What the currently polled inline process asked the scheduler to do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Returned `Poll::Pending` without touching a simulation future —
    /// i.e. it awaited something the scheduler cannot drive.
    None,
    Advance(SimDuration),
    Block,
}

/// Per-scheduler-thread scratch cell connecting an inline process being
/// polled to its engine. Written by the scheduler immediately before each
/// poll and read back immediately after, so nesting engines on one thread
/// (or many engines on many threads) cannot interleave.
#[derive(Clone, Copy)]
struct InlineScratch {
    now_ps: u64,
    pending: Pending,
}

thread_local! {
    static SCRATCH: std::cell::Cell<InlineScratch> =
        const { std::cell::Cell::new(InlineScratch { now_ps: 0, pending: Pending::None }) };
}

/// Leaf future of [`SimCtx::advance`]: first poll files the advance with
/// the scheduler and parks; the resumed second poll completes.
#[must_use = "simulation futures do nothing unless awaited"]
pub struct AdvanceFut {
    dur: SimDuration,
    armed: bool,
}

impl Future for AdvanceFut {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.armed {
            return Poll::Ready(());
        }
        this.armed = true;
        SCRATCH.with(|s| {
            let mut v = s.get();
            v.pending = Pending::Advance(this.dur);
            s.set(v);
        });
        Poll::Pending
    }
}

/// Leaf future of [`SimCtx::block`]: parks until another process (or an
/// injection) wakes this pid.
#[must_use = "simulation futures do nothing unless awaited"]
pub struct BlockFut {
    armed: bool,
}

impl Future for BlockFut {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.armed {
            return Poll::Ready(());
        }
        this.armed = true;
        SCRATCH.with(|s| {
            let mut v = s.get();
            v.pending = Pending::Block;
            s.set(v);
        });
        Poll::Pending
    }
}

/// Execution context handed to every simulated process.
///
/// Cloneable so rank programs can stash it in helper structs; all clones
/// share the process identity. The only futures an inline body may await
/// are the ones minted here (and combinators that poll them one at a
/// time, sequentially): the scheduler polls with a no-op waker and reads
/// the requested transition out of thread-local scratch, so awaiting any
/// foreign future is reported as a process error, not silently dropped.
#[derive(Clone)]
pub struct SimCtx {
    pid: ProcessId,
    shared: Arc<Shared>,
}

impl SimCtx {
    /// Identifier of this process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time. Only meaningful while the process is being
    /// polled (which is the only time inline process code runs).
    pub fn now(&self) -> SimTime {
        SimTime(SCRATCH.with(|s| s.get()).now_ps)
    }

    /// Consume `dur` of virtual time. Other processes may run in the
    /// interim. `advance(ZERO)` still yields to the scheduler once.
    pub fn advance(&self, dur: SimDuration) -> AdvanceFut {
        AdvanceFut { dur, armed: false }
    }

    /// Park until another process wakes this one (used by channels).
    /// Returns at the waker's virtual time.
    pub(crate) fn block(&self) -> BlockFut {
        BlockFut { armed: false }
    }

    /// Request that `pid` be made runnable at the current virtual time.
    /// The request takes effect when the running process next yields.
    pub(crate) fn wake(&self, pid: ProcessId) {
        self.shared.wakes.lock().push(pid);
    }

    /// Report a named virtual-time span `[since, now]` to the engine's
    /// telemetry probe, if one is attached.
    pub fn emit_span(&self, name: &str, since: SimTime) {
        if let Some(p) = &self.shared.probe {
            p.span(name, since.as_ps(), self.now().as_ps(), self.pid);
        }
    }
}

/// Context handed to a scheduled injection (see
/// [`Engine::schedule_injection`]). Unlike [`SimCtx`] it cannot consume
/// virtual time: an injection only deposits state (e.g. a message into a
/// [`SimChannel`](crate::channel::SimChannel)) and wakes blocked processes
/// at the injection instant.
pub struct InjectCtx<'a> {
    now: SimTime,
    shared: &'a Shared,
}

impl InjectCtx<'_> {
    /// Virtual time at which the injection runs.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Request that `pid` be made runnable at the injection's virtual
    /// time. Drained by the scheduler right after the injection body.
    pub(crate) fn wake(&self, pid: ProcessId) {
        self.shared.wakes.lock().push(pid);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Has an event in the queue.
    Queued,
    /// Currently being polled.
    Running,
    /// Waiting for a wake-up.
    Blocked,
    Finished,
}

struct ProcEntry {
    name: String,
    state: ProcState,
    /// The process state machine, polled on the scheduler thread. `None`
    /// once finished — the future and its captures are dropped.
    fut: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
}

/// One recorded scheduler action (see [`Engine::enable_tracing`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the action, picoseconds.
    pub at_ps: u64,
    /// Which process.
    pub pid: ProcessId,
    /// What happened.
    pub kind: TraceKind,
}

/// The kinds of scheduler actions a trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Resumed,
    Advanced,
    Blocked,
    Finished,
}

/// The simulation engine: owns the event wheel and all process slots.
///
/// Typical lifecycle: construct, [`spawn_inline`](Engine::spawn_inline)
/// every process, then [`run`](Engine::run) to completion. Results are
/// communicated out of processes through shared state (`Arc<Mutex<..>>`)
/// captured by the bodies. Dropping an engine drops every unfinished
/// process future, and with it the state the body captured.
pub struct Engine {
    /// This engine's slot in the process-global epoch sequence; baked into
    /// every [`ProcessId`] it mints.
    epoch: u32,
    procs: Vec<ProcEntry>,
    shared: Arc<Shared>,
    /// Arena-backed timer wheel over (time, seq, target).
    queue: EventWheel<EvTarget>,
    /// Virtual time of the last processed event; persists across
    /// [`Engine::run_window`] calls.
    now: SimTime,
    ran: bool,
    /// Slab of pending injections, indexed by [`EvTarget::Inject`].
    injections: Vec<Option<Injection>>,
    trace: Option<Vec<TraceRecord>>,
    probe: Option<Arc<dyn Probe>>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Create an empty engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        // The probe is captured once; the factory resolves
        // per-construction-thread so a parallel sweep can attribute each
        // engine to its own experiment.
        Self::with_probe(crate::probe::probe_for_current_thread())
    }

    /// Like [`Engine::new`] but with an explicit probe, bypassing the
    /// per-thread factory. The partition layer uses this to hand every
    /// wheel a pid-remapping view of one shared experiment probe.
    pub fn with_probe(probe: Option<Arc<dyn Probe>>) -> Self {
        Engine {
            epoch: ENGINE_EPOCH.fetch_add(1, Ordering::Relaxed),
            procs: Vec::new(),
            shared: Arc::new(Shared {
                wakes: Mutex::new(Vec::new()),
                probe: probe.clone(),
            }),
            queue: EventWheel::new(),
            now: SimTime::ZERO,
            ran: false,
            injections: Vec::new(),
            trace: None,
            probe,
        }
    }

    /// Record every scheduler action; retrieve the trace from
    /// [`Engine::run_traced`].
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Number of spawned processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    fn pid_of(&self, pidx: usize) -> ProcessId {
        ProcessId {
            slot: pidx as u32,
            epoch: self.epoch,
        }
    }

    /// Spawn a simulated process from an `async` body. The body runs as a
    /// poll-state machine directly on the scheduler thread and may only
    /// await simulation futures minted by its [`SimCtx`] (channel waits
    /// included). All processes start at virtual time zero, in spawn
    /// order.
    ///
    /// # Panics
    /// Panics if the engine has already started running (a
    /// [`run_window`](Engine::run_window) call): a late process would
    /// start in the past.
    pub fn spawn_inline<F, Fut>(&mut self, name: impl Into<String>, f: F) -> ProcessId
    where
        F: FnOnce(SimCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        assert!(!self.ran, "Engine::spawn_inline called after Engine::run");
        let pid = self.pid_of(self.procs.len());
        let ctx = SimCtx {
            pid,
            shared: Arc::clone(&self.shared),
        };
        // `f` runs now (it only builds the future); the body itself runs
        // at the first poll, i.e. at virtual time zero.
        let fut: Pin<Box<dyn Future<Output = ()> + Send>> = Box::pin(f(ctx));
        let name: String = name.into();
        if let Some(p) = &self.probe {
            p.process_spawned(pid, &name);
        }
        self.push_event(SimTime::ZERO, EvTarget::Proc(pid.index()));
        self.procs.push(ProcEntry {
            name,
            state: ProcState::Queued,
            fut: Some(fut),
        });
        pid
    }

    /// Schedule `action` to run on the event wheel at virtual time `at`
    /// (offset from time zero) — the injection point for *timed* faults:
    /// the action fires in deterministic `(time, seq)` order with every
    /// other event, so a fault plan replays identically across runs.
    ///
    /// Implemented as a plain inline process that advances to `at` and
    /// runs the action, so it needs no new scheduler machinery and shows
    /// up in traces/probes like any other process.
    pub fn schedule_fault<F>(&mut self, name: impl Into<String>, at: SimDuration, action: F) -> ProcessId
    where
        F: FnOnce() + Send + 'static,
    {
        self.spawn_inline(name, move |ctx| async move {
            ctx.advance(at).await;
            action();
        })
    }

    fn push_event(&mut self, at: SimTime, target: EvTarget) {
        // Injections are not reported to probes: the single-wheel
        // equivalent of a cross-partition delivery is a plain channel send
        // by the running sender, which schedules no event of its own —
        // only the wake-up it triggers is probed, on both paths.
        if let EvTarget::Proc(pidx) = target {
            if let Some(p) = &self.probe {
                p.event_scheduled(at.as_ps(), self.pid_of(pidx));
            }
        }
        self.queue.push(at.as_ps(), target);
    }

    /// Schedule `deliver` to run on the event wheel at virtual time `at`.
    /// The partition layer uses this to deliver cross-partition messages:
    /// the closure runs on the scheduler thread, in deterministic
    /// `(time, seq)` order with every other event, and may wake blocked
    /// processes through [`InjectCtx`] (e.g. via
    /// [`SimChannel::send_injected`](crate::channel::SimChannel::send_injected)).
    ///
    /// # Panics
    /// Panics if `at` lies before the engine's current virtual time:
    /// conservative synchronization must never deliver into the past.
    pub fn schedule_injection<F>(&mut self, at: SimTime, deliver: F)
    where
        F: FnOnce(&InjectCtx<'_>) + Send + 'static,
    {
        assert!(
            at >= self.now,
            "injection scheduled at {at}, before the engine clock {}",
            self.now
        );
        let slot = self.injections.len();
        self.injections.push(Some(Box::new(deliver)));
        self.push_event(at, EvTarget::Inject(slot));
    }

    /// Virtual time of the last processed event ([`SimTime::ZERO`] before
    /// the first).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Virtual time of the earliest pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime)
    }

    /// Names of the processes currently blocked, in spawn order.
    pub fn blocked_processes(&self) -> Vec<String> {
        self.procs
            .iter()
            .filter(|p| p.state == ProcState::Blocked)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Scheduler counters for the `sched.*` telemetry bucket: event-wheel
    /// traffic plus the process count.
    pub fn sched_stats(&self) -> SchedStats {
        let w = self.queue.stats();
        SchedStats {
            events_pushed: w.pushed,
            events_popped: w.popped,
            wheel_level_pushes: w.level_pushes,
            procs_inline: self.procs.len() as u64,
        }
    }

    /// Run the simulation to completion.
    ///
    /// Returns the virtual time of the last event on success. Fails with
    /// [`SimError::Deadlock`] if processes remain blocked with no runnable
    /// work, or [`SimError::ProcessPanicked`] if any process panics.
    pub fn run(self) -> Result<SimTime, SimError> {
        self.run_traced().map(|(t, _)| t)
    }

    /// Like [`Engine::run`], also returning the recorded trace (empty
    /// unless [`Engine::enable_tracing`] was called).
    pub fn run_traced(mut self) -> Result<(SimTime, Vec<TraceRecord>), SimError> {
        self.step_until(None)?;
        let blocked = self.blocked_processes();
        if blocked.is_empty() {
            if let Some(p) = &self.probe {
                p.sched_stats(&self.sched_stats());
                p.run_complete(self.now.as_ps());
            }
            Ok((self.now, self.trace.take().unwrap_or_default()))
        } else {
            Err(SimError::Deadlock {
                blocked,
                at: self.now,
            })
        }
    }

    /// Process every event with virtual time strictly below `limit`, then
    /// return. Pending events at or past `limit` — and blocked processes —
    /// are left in place for subsequent windows; the partition layer calls
    /// this once per conservative lookahead window, ingesting
    /// cross-partition messages between calls via
    /// [`Engine::schedule_injection`]. Unlike [`Engine::run`] this emits
    /// no `run_complete` and reports no deadlock: end-of-run accounting
    /// belongs to the orchestrator that owns all the wheels.
    pub fn run_window(&mut self, limit: SimTime) -> Result<(), SimError> {
        self.step_until(Some(limit))
    }

    fn step_until(&mut self, limit: Option<SimTime>) -> Result<(), SimError> {
        self.ran = true;
        loop {
            match self.queue.peek_time() {
                None => return Ok(()),
                Some(t) => {
                    if limit.is_some_and(|lim| t >= lim.as_ps()) {
                        return Ok(());
                    }
                }
            }
            let (t_ps, target) = self.queue.pop().expect("peeked event vanished");
            let t = SimTime(t_ps);
            debug_assert!(t >= self.now, "event queue went backwards in time");
            self.now = t;
            match target {
                EvTarget::Inject(slot) => {
                    let deliver = self.injections[slot]
                        .take()
                        .expect("injection event fired twice");
                    deliver(&InjectCtx {
                        now: self.now,
                        shared: &self.shared,
                    });
                }
                EvTarget::Proc(pidx) => self.step_proc(pidx)?,
            }
            self.drain_wakes();
        }
    }

    fn step_proc(&mut self, pidx: usize) -> Result<(), SimError> {
        let now = self.now;
        debug_assert_eq!(
            self.procs[pidx].state,
            ProcState::Queued,
            "popped an event for process '{}' in state {:?}",
            self.procs[pidx].name,
            self.procs[pidx].state
        );
        self.procs[pidx].state = ProcState::Running;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord { at_ps: now.as_ps(), pid: ProcessId { slot: pidx as u32, epoch: self.epoch }, kind: TraceKind::Resumed });
        }
        if let Some(p) = &self.probe {
            p.event_fired(now.as_ps(), self.pid_of(pidx), self.queue.len());
        }
        let outcome = self.poll_inline(pidx, now);
        self.apply_outcome(pidx, now, outcome)
    }

    /// Drive one step of a process: poll its state machine on this thread
    /// and read the requested transition out of the scratch cell.
    fn poll_inline(&mut self, pidx: usize, now: SimTime) -> Outcome {
        let mut fut = self.procs[pidx]
            .fut
            .take()
            .expect("inline process resumed after it finished");
        SCRATCH.with(|s| {
            s.set(InlineScratch {
                now_ps: now.as_ps(),
                pending: Pending::None,
            })
        });
        let mut cx = Context::from_waker(Waker::noop());
        let polled = panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        match polled {
            Ok(Poll::Ready(())) => Outcome::Finished, // future (and captures) drop here
            Ok(Poll::Pending) => {
                let pending = SCRATCH.with(|s| s.get()).pending;
                self.procs[pidx].fut = Some(fut);
                match pending {
                    Pending::Advance(dur) => Outcome::Advanced(dur),
                    Pending::Block => Outcome::Blocked,
                    Pending::None => Outcome::Panicked(
                        "inline process awaited a non-simulation future".to_string(),
                    ),
                }
            }
            Err(payload) => Outcome::Panicked(render_panic(payload)),
        }
    }

    /// The epilogue of every process step: record the trace, notify the
    /// probe, and requeue/park/retire the process — in exactly the order
    /// the pre-wheel engine used, so goldens are byte-identical.
    fn apply_outcome(&mut self, pidx: usize, now: SimTime, outcome: Outcome) -> Result<(), SimError> {
        let pid = self.pid_of(pidx);
        match outcome {
            Outcome::Advanced(dur) => {
                self.procs[pidx].state = ProcState::Queued;
                let at = now + dur;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceRecord { at_ps: now.as_ps(), pid, kind: TraceKind::Advanced });
                }
                if let Some(p) = &self.probe {
                    p.advanced(now.as_ps(), pid, dur.as_ps());
                }
                self.push_event(at, EvTarget::Proc(pidx));
            }
            Outcome::Blocked => {
                self.procs[pidx].state = ProcState::Blocked;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceRecord { at_ps: now.as_ps(), pid, kind: TraceKind::Blocked });
                }
                if let Some(p) = &self.probe {
                    p.blocked(now.as_ps(), pid);
                }
            }
            Outcome::Finished => {
                self.procs[pidx].state = ProcState::Finished;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceRecord { at_ps: now.as_ps(), pid, kind: TraceKind::Finished });
                }
                if let Some(p) = &self.probe {
                    p.finished(now.as_ps(), pid);
                }
            }
            Outcome::Panicked(message) => {
                return Err(SimError::ProcessPanicked {
                    name: self.procs[pidx].name.clone(),
                    message,
                    at: now,
                });
            }
        }
        Ok(())
    }

    /// Apply wake requests raised while a process ran (or an injection
    /// delivered).
    fn drain_wakes(&mut self) {
        let wakes: Vec<ProcessId> = std::mem::take(&mut *self.shared.wakes.lock());
        for w in wakes {
            if w.epoch != self.epoch {
                // ABA guard: a stale pid from a different (typically dead)
                // engine, e.g. parked in a channel waiter list that
                // outlived its world. Its slot index may alias one of our
                // processes; the epoch proves it is not ours.
                continue;
            }
            let widx = w.index();
            if self.procs[widx].state == ProcState::Blocked {
                self.procs[widx].state = ProcState::Queued;
                self.push_event(self.now, EvTarget::Proc(widx));
            }
            // A wake for a Queued/Running/Finished process is spurious
            // (e.g. two senders raced in the same instant); ignore it —
            // the target will re-check its wait condition anyway.
        }
    }
}

fn render_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SimChannel;
    use parking_lot::Mutex as PlMutex;

    #[test]
    fn empty_engine_completes_at_zero() {
        let eng = Engine::new();
        assert_eq!(eng.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn single_process_advances_clock() {
        // Time consumed inside a nested future counts exactly like a
        // direct `advance`: collectives await helper futures, not bare
        // advances.
        async fn compute(ctx: &SimCtx, us: f64) {
            ctx.advance(SimDuration::from_us(us)).await;
        }
        let mut eng = Engine::new();
        eng.spawn_inline("p", |ctx| async move {
            compute(&ctx, 5.0).await;
            compute(&ctx, 2.5).await;
        });
        let end = eng.run().unwrap();
        assert_eq!(end.as_us(), 7.5);
    }

    #[test]
    fn single_inline_process_advances_clock() {
        let mut eng = Engine::new();
        eng.spawn_inline("p", |ctx| async move {
            ctx.advance(SimDuration::from_us(5.0)).await;
            ctx.advance(SimDuration::from_us(2.5)).await;
            assert_eq!(ctx.now().as_us(), 7.5);
        });
        let end = eng.run().unwrap();
        assert_eq!(end.as_us(), 7.5);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let order = Arc::new(PlMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for (name, step) in [("a", 3.0), ("b", 2.0)] {
            let order = Arc::clone(&order);
            eng.spawn_inline(name, move |ctx| async move {
                for i in 0..3 {
                    ctx.advance(SimDuration::from_us(step)).await;
                    order.lock().push((name, i, ctx.now().as_us()));
                }
            });
        }
        eng.run().unwrap();
        let got = order.lock().clone();
        // b ticks at 2,4,6; a at 3,6,9. At t=6, a's event was queued first
        // (a advanced from t=3 before b advanced from t=4).
        let expected = vec![
            ("b", 0, 2.0),
            ("a", 0, 3.0),
            ("b", 1, 4.0),
            ("a", 1, 6.0),
            ("b", 2, 6.0),
            ("a", 2, 9.0),
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn inline_processes_interleave_identically_to_threaded() {
        // `expected` is the order thread-backed processes produced for this
        // schedule before every process ran inline. It must not depend on
        // how a body is built: each process awaits its steps either
        // directly or through a nested helper future, in every combination.
        async fn step(ctx: &SimCtx, us: f64) {
            ctx.advance(SimDuration::from_us(us)).await;
        }
        let expected = vec![
            ("b", 0, 2.0),
            ("a", 0, 3.0),
            ("b", 1, 4.0),
            ("a", 1, 6.0),
            ("b", 2, 6.0),
            ("a", 2, 9.0),
        ];
        for nested_mask in [0b00usize, 0b01, 0b10, 0b11] {
            let order = Arc::new(PlMutex::new(Vec::new()));
            let mut eng = Engine::new();
            for (bit, (name, us)) in [("a", 3.0), ("b", 2.0)].into_iter().enumerate() {
                let order = Arc::clone(&order);
                let nested = nested_mask & (1 << bit) != 0;
                eng.spawn_inline(name, move |ctx| async move {
                    for i in 0..3 {
                        if nested {
                            step(&ctx, us).await;
                        } else {
                            ctx.advance(SimDuration::from_us(us)).await;
                        }
                        order.lock().push((name, i, ctx.now().as_us()));
                    }
                });
            }
            eng.run().unwrap();
            assert_eq!(*order.lock(), expected, "mask {nested_mask:#04b}");
        }
    }

    #[test]
    fn rendezvous_over_channel() {
        // A round trip: the consumer blocks first and is woken by the
        // send; the producer then blocks on the reply and is woken in turn.
        let mut eng = Engine::new();
        let ping = SimChannel::<u64>::new("ping");
        let pong = SimChannel::<u64>::new("pong");
        let out = Arc::new(PlMutex::new(None));
        {
            let (ping, pong) = (ping.clone(), pong.clone());
            let out = Arc::clone(&out);
            eng.spawn_inline("producer", move |ctx| async move {
                ctx.advance(SimDuration::from_us(10.0)).await;
                ping.send_inline(&ctx, 42);
                let reply = pong.recv_inline(&ctx).await;
                *out.lock() = Some((reply, ctx.now().as_us()));
            });
        }
        eng.spawn_inline("consumer", move |ctx| async move {
            let v = ping.recv_inline(&ctx).await;
            assert_eq!(ctx.now().as_us(), 10.0);
            ctx.advance(SimDuration::from_us(1.0)).await;
            pong.send_inline(&ctx, v + 1);
        });
        let end = eng.run().unwrap();
        assert_eq!(*out.lock(), Some((43, 11.0)));
        assert_eq!(end.as_us(), 11.0);
    }

    #[test]
    fn inline_rendezvous_over_channel() {
        let mut eng = Engine::new();
        let ch = SimChannel::<u64>::new("ch");
        let out = Arc::new(PlMutex::new(None));
        {
            let ch = ch.clone();
            eng.spawn_inline("producer", move |ctx| async move {
                ctx.advance(SimDuration::from_us(10.0)).await;
                ch.send_inline(&ctx, 42);
            });
        }
        {
            let out = Arc::clone(&out);
            eng.spawn_inline("consumer", move |ctx| async move {
                let v = ch.recv_inline(&ctx).await;
                *out.lock() = Some((v, ctx.now().as_us()));
            });
        }
        eng.run().unwrap();
        assert_eq!(*out.lock(), Some((42, 10.0)));
    }

    #[test]
    fn deadlock_is_reported_with_names() {
        // Two processes block at different times: both are named, in spawn
        // order, and the deadlock is dated at the last one to block.
        let mut eng = Engine::new();
        for (name, us) in [("x", 2.0), ("y", 3.0)] {
            let ch = SimChannel::<u8>::new(name);
            eng.spawn_inline(name, move |ctx| async move {
                ctx.advance(SimDuration::from_us(us)).await;
                let _ = ch.recv_inline(&ctx).await;
            });
        }
        match eng.run() {
            Err(SimError::Deadlock { blocked, at }) => {
                assert_eq!(blocked, vec!["x".to_string(), "y".to_string()]);
                assert_eq!(at.as_us(), 3.0);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn inline_deadlock_is_reported_with_names() {
        let mut eng = Engine::new();
        let ch = SimChannel::<u8>::new("never");
        eng.spawn_inline("stuck", move |ctx| async move {
            let _ = ch.recv_inline(&ctx).await;
        });
        match eng.run() {
            Err(SimError::Deadlock { blocked, at }) => {
                assert_eq!(blocked, vec!["stuck".to_string()]);
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_is_captured() {
        // A panic on the very first poll, before the body ever yields.
        let mut eng = Engine::new();
        eng.spawn_inline("boom", |_ctx| async move { panic!("kaboom {}", 9) });
        match eng.run() {
            Err(SimError::ProcessPanicked { name, message, at }) => {
                assert_eq!(name, "boom");
                assert!(message.contains("kaboom 9"));
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn inline_process_panic_is_captured() {
        let mut eng = Engine::new();
        eng.spawn_inline("boom", |ctx| async move {
            ctx.advance(SimDuration::from_us(1.0)).await;
            panic!("kaboom {}", 9);
        });
        match eng.run() {
            Err(SimError::ProcessPanicked { name, message, at }) => {
                assert_eq!(name, "boom");
                assert!(message.contains("kaboom 9"));
                assert_eq!(at.as_us(), 1.0);
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn inline_foreign_future_is_reported_not_hung() {
        /// A future the scheduler cannot drive: pends without filing a
        /// simulation transition.
        struct Foreign;
        impl Future for Foreign {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut eng = Engine::new();
        eng.spawn_inline("alien", |_ctx| async move {
            Foreign.await;
            unreachable!("the scheduler cannot complete a foreign future");
        });
        match eng.run() {
            Err(SimError::ProcessPanicked { name, message, .. }) => {
                assert_eq!(name, "alien");
                assert!(message.contains("non-simulation future"), "{message}");
            }
            other => panic!("expected process error, got {other:?}"),
        }
    }

    #[test]
    fn scheduled_fault_fires_at_its_virtual_time() {
        let fired = Arc::new(PlMutex::new(None::<f64>));
        let mut eng = Engine::new();
        {
            let fired = Arc::clone(&fired);
            let probe = Arc::new(PlMutex::new(0.0f64));
            let probe_w = Arc::clone(&probe);
            eng.spawn_inline("worker", move |ctx| async move {
                for _ in 0..10 {
                    ctx.advance(SimDuration::from_us(1.0)).await;
                    *probe_w.lock() = ctx.now().as_us();
                }
            });
            eng.schedule_fault("fault", SimDuration::from_us(4.5), move || {
                // Runs strictly between the worker's 4 us and 5 us ticks.
                *fired.lock() = Some(*probe.lock());
            });
        }
        eng.run().unwrap();
        assert_eq!(*fired.lock(), Some(4.0));
    }

    #[test]
    fn many_processes_round_robin() {
        // Every tick runs all 64 processes, in spawn order, before any of
        // them runs its next tick.
        let order = Arc::new(PlMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for i in 0..64usize {
            let order = Arc::clone(&order);
            eng.spawn_inline(format!("w{i}"), move |ctx| async move {
                for tick in 0..10usize {
                    ctx.advance(SimDuration::from_ns(100.0)).await;
                    order.lock().push((tick, i, ctx.now().as_ns()));
                }
            });
        }
        let end = eng.run().unwrap();
        let expected: Vec<(usize, usize, f64)> = (0..10)
            .flat_map(|tick| (0..64).map(move |i| (tick, i, 100.0 * (tick + 1) as f64)))
            .collect();
        assert_eq!(*order.lock(), expected);
        assert_eq!(end.as_ns(), 1000.0);
    }

    #[test]
    fn many_inline_processes_round_robin() {
        let counter = Arc::new(PlMutex::new(0u64));
        let mut eng = Engine::new();
        for i in 0..64 {
            let counter = Arc::clone(&counter);
            eng.spawn_inline(format!("w{i}"), move |ctx| async move {
                for _ in 0..10 {
                    ctx.advance(SimDuration::from_ns(100.0)).await;
                    *counter.lock() += 1;
                }
            });
        }
        let end = eng.run().unwrap();
        assert_eq!(*counter.lock(), 640);
        assert_eq!(end.as_ns(), 1000.0);
    }

    #[test]
    fn inline_zero_advance_still_yields() {
        // advance(ZERO) must park and requeue at the same instant (later
        // seq), not spin inside one poll: a same-time neighbour runs in
        // between.
        let order = Arc::new(PlMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for name in ["a", "b"] {
            let order = Arc::clone(&order);
            eng.spawn_inline(name, move |ctx| async move {
                order.lock().push((name, 0));
                ctx.advance(SimDuration::ZERO).await;
                order.lock().push((name, 1));
            });
        }
        eng.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec![("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        );
    }

    #[test]
    fn spawn_after_run_panics() {
        // `run` consumes the engine, but `run_window` does not: once a
        // window has run, a late spawn would start in the past.
        let mut eng = Engine::new();
        eng.spawn_inline("p", |ctx| async move {
            ctx.advance(SimDuration::from_ns(1.0)).await;
        });
        eng.run_window(SimTime::ZERO + SimDuration::from_ns(0.5)).unwrap();
        let late = panic::catch_unwind(AssertUnwindSafe(|| {
            eng.spawn_inline("late", |_ctx| async move {});
        }));
        let message = render_panic(late.expect_err("late spawn must panic"));
        assert!(message.contains("called after Engine::run"), "{message}");
        assert!(eng.run().is_ok());
    }

    #[test]
    fn dropping_unrun_engine_does_not_hang() {
        let mut eng = Engine::new();
        eng.spawn_inline("inline-never-started", |ctx| async move {
            ctx.advance(SimDuration::from_us(1.0)).await;
        });
        drop(eng); // must tear down cleanly without running
    }

    #[test]
    fn stale_pid_does_not_wake_recycled_slot() {
        // ABA guard: park a process of world 1 in a channel waiter list,
        // kill world 1, then run world 2 over the same channel. The stale
        // waiter pid occupies the same slot index as a live world-2
        // process; waking it must not requeue the impostor.
        let ch = SimChannel::<u8>::new("carried-over");
        let mut eng1 = Engine::new();
        {
            let ch = ch.clone();
            eng1.spawn_inline("w1-rx", move |ctx| async move {
                let _ = ch.recv_inline(&ctx).await; // parks pid {slot 0, epoch e1}
            });
        }
        assert!(matches!(eng1.run(), Err(SimError::Deadlock { .. })));

        let woke = Arc::new(PlMutex::new(0u32));
        let mut eng2 = Engine::new();
        {
            let ch = ch.clone();
            let woke = Arc::clone(&woke);
            // Slot 0 of world 2: must only run its own two steps.
            eng2.spawn_inline("w2-counter", move |ctx| async move {
                ctx.advance(SimDuration::from_us(5.0)).await;
                *woke.lock() += 1;
                let _ = ch.recv_inline(&ctx).await;
                *woke.lock() += 1;
            });
        }
        {
            let ch = ch.clone();
            eng2.spawn_inline("w2-tx", move |ctx| async move {
                // This send pops the *stale* world-1 waiter first and wakes
                // it; the epoch guard must discard that wake. The queued
                // message still satisfies w2-counter's later recv.
                ctx.advance(SimDuration::from_us(1.0)).await;
                ch.send_inline(&ctx, 7);
            });
        }
        let end = eng2.run().unwrap();
        assert_eq!(end.as_us(), 5.0);
        assert_eq!(*woke.lock(), 2);
    }

    #[test]
    fn sched_stats_report_wheel_traffic_and_process_split() {
        let mut eng = Engine::new();
        for name in ["i", "j"] {
            eng.spawn_inline(name, |ctx| async move {
                ctx.advance(SimDuration::from_us(1.0)).await;
            });
        }
        let stats = eng.sched_stats();
        assert_eq!(stats.procs_inline, 2);
        assert_eq!(stats.events_pushed, 2); // two spawn events queued
        assert_eq!(stats.events_popped, 0);
        eng.run().unwrap();
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn trace_records_schedule_in_order() {
        let mut eng = Engine::new();
        eng.enable_tracing();
        eng.spawn_inline("a", |ctx| async move {
            ctx.advance(SimDuration::from_ns(5.0)).await;
        });
        let (end, trace) = eng.run_traced().unwrap();
        assert_eq!(end.as_ns(), 5.0);
        let kinds: Vec<TraceKind> = trace.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Resumed,
                TraceKind::Advanced,
                TraceKind::Resumed,
                TraceKind::Finished
            ]
        );
        // Times never decrease, and every record names the one process.
        assert!(trace.windows(2).all(|w| w[0].at_ps <= w[1].at_ps));
        assert!(trace.iter().all(|r| r.pid.index() == 0));
    }

    #[test]
    fn inline_trace_is_identical_to_threaded() {
        // The exact `(time, pid, kind)` records a thread-backed process
        // traced for this body before every process ran inline.
        let mut eng = Engine::new();
        eng.enable_tracing();
        eng.spawn_inline("a", |ctx| async move {
            ctx.advance(SimDuration::from_ns(5.0)).await;
        });
        let (_, trace) = eng.run_traced().unwrap();
        let got: Vec<_> = trace
            .iter()
            .map(|r| (r.at_ps, r.pid.index(), r.kind))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, TraceKind::Resumed),
                (0, 0, TraceKind::Advanced),
                (5000, 0, TraceKind::Resumed),
                (5000, 0, TraceKind::Finished),
            ]
        );
    }

    #[test]
    fn tracing_off_returns_empty() {
        let mut eng = Engine::new();
        eng.spawn_inline("a", |ctx| async move {
            ctx.advance(SimDuration::from_ns(1.0)).await;
        });
        let (_, trace) = eng.run_traced().unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn trace_shows_blocking_on_channel() {
        use crate::channel::SimChannel;
        let mut eng = Engine::new();
        eng.enable_tracing();
        let ch = SimChannel::<u8>::new("c");
        {
            let ch = ch.clone();
            eng.spawn_inline("rx", move |ctx| async move {
                let _ = ch.recv_inline(&ctx).await;
            });
        }
        eng.spawn_inline("tx", move |ctx| async move {
            ctx.advance(SimDuration::from_ns(3.0)).await;
            ch.send_inline(&ctx, 1);
        });
        let (_, trace) = eng.run_traced().unwrap();
        assert!(trace
            .iter()
            .any(|r| r.kind == TraceKind::Blocked && r.pid.index() == 0));
    }
}
