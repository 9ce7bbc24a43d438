//! The conservative process-oriented simulation engine.
//!
//! The scheduler enforces strict one-at-a-time execution: it resumes
//! exactly one process, waits for that process to yield (by advancing
//! time, blocking, or finishing), and only then picks the next event.
//! Events are totally ordered by `(virtual time, push order)` in an
//! instant queue, one FIFO per pending instant (the private `wheel`
//! module), so simulations are deterministic regardless of OS thread
//! scheduling.
//!
//! Every simulated process is an inline state machine
//! ([`Engine::spawn_inline`]): an `async` body written against [`SimCtx`]
//! whose only awaited futures are [`SimCtx::advance`] and the channel
//! waits built on the crate-private `SimCtx::block`. The scheduler polls
//! it directly on its own thread — no channel handoff, no park/unpark, no
//! thread pool — and catches a panicking poll as
//! [`SimError::ProcessPanicked`].

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::probe::{Probe, SchedStats};
use crate::time::{SimDuration, SimTime};
use crate::wheel::EventQueue;

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
                write!(
                    f,
                    "simulation deadlocked at {at}; blocked: {}",
                    blocked.join(", ")
                )
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

/// Target of a queued event: a process resume, or a scheduled delivery
/// token (e.g. a cross-partition message, see
/// [`Engine::schedule_injection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvTarget {
    Proc(usize),
    Inject(usize),
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
/// poll and read back immediately after, so many engines on many threads
/// cannot interleave.
#[derive(Clone, Copy)]
struct InlineScratch {
    now_ps: u64,
    pending: Pending,
}

// Both cells belong to the engine being stepped on this thread. Stepping
// one engine from inside a process (or injection) of another engine on the
// same thread is unsupported: the inner engine would overwrite the outer
// poll's scratch and drain — and, by the epoch guard, drop — wakes the
// outer process raised. Engines on different threads, or stepped one
// after another on one thread, never share either cell.
thread_local! {
    static SCRATCH: Cell<InlineScratch> =
        const { Cell::new(InlineScratch { now_ps: 0, pending: Pending::None }) };
    /// Wake requests raised during the current step (e.g. a channel send to
    /// a blocked receiver). Drained by the scheduler after every step;
    /// because virtual time does not pass while a process runs, deferring
    /// the wake to yield time is exact.
    static WAKES: RefCell<Vec<ProcessId>> = const { RefCell::new(Vec::new()) };
}

/// Request that `pid` be made runnable once the current step ends.
fn raise_wake(pid: ProcessId) {
    WAKES.with(|w| w.borrow_mut().push(pid));
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

/// Leaf future of the crate-private `SimCtx::block`: parks until another process (or an
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
    /// Telemetry probe captured at engine construction, reachable from
    /// process bodies for explicit span annotations.
    probe: Option<Arc<dyn Probe>>,
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
        raise_wake(pid);
    }

    /// Report a named virtual-time span `[since, now]` to the engine's
    /// telemetry probe, if one is attached. The name is rendered only
    /// then, so `format_args!` costs nothing on an unprobed engine.
    pub fn emit_span(&self, name: impl fmt::Display, since: SimTime) {
        if let Some(p) = &self.probe {
            let (start_ps, end_ps) = (since.as_ps(), self.now().as_ps());
            p.span(&name.to_string(), start_ps, end_ps, self.pid);
        }
    }
}

/// Context handed to the delivery hook of a scheduled injection (see
/// [`Engine::run_window_delivering`]). Unlike [`SimCtx`] it cannot consume
/// virtual time: a delivery only deposits state (e.g. a message into a
/// [`SimChannel`](crate::channel::SimChannel)) and wakes blocked processes
/// at the injection instant.
pub struct InjectCtx {
    now: SimTime,
}

impl InjectCtx {
    /// Virtual time at which the injection runs.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Request that `pid` be made runnable at the injection's virtual
    /// time. Drained by the scheduler right after the delivery.
    pub(crate) fn wake(&self, pid: ProcessId) {
        raise_wake(pid);
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

/// The simulation engine: owns the event queue and all process slots.
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
    /// Pending events: one FIFO of targets per pending instant.
    queue: EventQueue<EvTarget>,
    /// Virtual time of the last processed event; persists across
    /// [`Engine::run_window`] calls.
    now: SimTime,
    ran: bool,
    /// Spare wake buffer, swapped with the thread's `WAKES` list at every
    /// drain so neither side allocates in steady state.
    wake_buf: Vec<ProcessId>,
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
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            ran: false,
            wake_buf: Vec::new(),
            probe,
        }
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
            probe: self.probe.clone(),
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

    /// Queue delivery `token` on the event queue at virtual time `at`.
    /// The partition layer uses this to deliver cross-partition messages:
    /// [`Engine::run_window_delivering`] hands the token back to its hook
    /// on the scheduler thread, in deterministic `(time, push order)` with
    /// every other event, and the hook may wake blocked processes through
    /// [`InjectCtx`] (e.g. via
    /// [`SimChannel::send_injected`](crate::channel::SimChannel::send_injected)).
    /// The token means nothing to the engine; the caller owns whatever it
    /// indexes.
    ///
    /// # Panics
    /// Panics if `at` lies before the engine's current virtual time:
    /// conservative synchronization must never deliver into the past.
    pub fn schedule_injection(&mut self, at: SimTime, token: usize) {
        assert!(
            at >= self.now,
            "injection scheduled at {at}, before the engine clock {}",
            self.now
        );
        self.push_event(at, EvTarget::Inject(token));
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

    /// Scheduler counters for the `sched.*` telemetry bucket: event-queue
    /// traffic plus the process count.
    pub fn sched_stats(&self) -> SchedStats {
        SchedStats {
            events_pushed: self.queue.pushed(),
            events_popped: self.queue.popped(),
            procs_inline: self.procs.len() as u64,
        }
    }

    /// Run the simulation to completion.
    ///
    /// Returns the virtual time of the last event on success. Fails with
    /// [`SimError::Deadlock`] if processes remain blocked with no runnable
    /// work, or [`SimError::ProcessPanicked`] if any process panics.
    pub fn run(mut self) -> Result<SimTime, SimError> {
        self.step_until(None, &mut no_deliveries)?;
        let blocked = self.blocked_processes();
        if blocked.is_empty() {
            if let Some(p) = &self.probe {
                p.sched_stats(&self.sched_stats());
                p.run_complete(self.now.as_ps());
            }
            Ok(self.now)
        } else {
            Err(SimError::Deadlock {
                blocked,
                at: self.now,
            })
        }
    }

    /// Process every event with virtual time strictly below `limit`, then
    /// return. Pending events at or past `limit` — and blocked processes —
    /// are left in place for subsequent windows. Unlike [`Engine::run`]
    /// this emits no `run_complete` and reports no deadlock: end-of-run
    /// accounting belongs to the orchestrator that owns all the wheels.
    ///
    /// # Panics
    /// Panics if an injection falls due: an engine that schedules
    /// injections must be stepped with [`Engine::run_window_delivering`].
    pub fn run_window(&mut self, limit: SimTime) -> Result<(), SimError> {
        self.step_until(Some(limit), &mut no_deliveries)
    }

    /// Like [`Engine::run_window`], handing every due injection token (see
    /// [`Engine::schedule_injection`]) to `deliver` at its virtual time.
    /// The partition layer calls this once per conservative lookahead
    /// window, scheduling the cross-partition messages of the last
    /// exchange between calls.
    pub fn run_window_delivering(
        &mut self,
        limit: SimTime,
        deliver: &mut dyn FnMut(&InjectCtx, usize),
    ) -> Result<(), SimError> {
        self.step_until(Some(limit), deliver)
    }

    fn step_until(
        &mut self,
        limit: Option<SimTime>,
        deliver: &mut dyn FnMut(&InjectCtx, usize),
    ) -> Result<(), SimError> {
        self.ran = true;
        loop {
            // An unbounded run pops straight away; a window first checks
            // that the next event lies inside it.
            if let Some(lim) = limit {
                if self.queue.peek_time().is_none_or(|t| t >= lim.as_ps()) {
                    return Ok(());
                }
            }
            let Some((t_ps, target)) = self.queue.pop() else {
                return Ok(());
            };
            let t = SimTime(t_ps);
            debug_assert!(t >= self.now, "event queue went backwards in time");
            self.now = t;
            match target {
                EvTarget::Inject(token) => deliver(&InjectCtx { now: t }, token),
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

    /// The epilogue of every process step: notify the probe, then
    /// requeue/park/retire the process — always in this order, which the
    /// trace goldens pin.
    fn apply_outcome(
        &mut self,
        pidx: usize,
        now: SimTime,
        outcome: Outcome,
    ) -> Result<(), SimError> {
        let pid = self.pid_of(pidx);
        match outcome {
            Outcome::Advanced(dur) => {
                self.procs[pidx].state = ProcState::Queued;
                let at = now + dur;
                if let Some(p) = &self.probe {
                    p.advanced(now.as_ps(), pid, dur.as_ps());
                }
                self.push_event(at, EvTarget::Proc(pidx));
            }
            Outcome::Blocked => {
                self.procs[pidx].state = ProcState::Blocked;
                if let Some(p) = &self.probe {
                    p.blocked(now.as_ps(), pid);
                }
            }
            Outcome::Finished => {
                self.procs[pidx].state = ProcState::Finished;
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
    /// delivered): swap the thread's wake list with the spare buffer,
    /// apply it, and keep its capacity for the next swap.
    fn drain_wakes(&mut self) {
        let mut wakes = std::mem::take(&mut self.wake_buf);
        WAKES.with(|list| std::mem::swap(&mut *list.borrow_mut(), &mut wakes));
        for &w in &wakes {
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
        wakes.clear();
        self.wake_buf = wakes;
    }
}

/// Delivery hook of engines that schedule no injections.
fn no_deliveries(_: &InjectCtx, token: usize) {
    panic!("injection {token} fell due on an engine stepped without a delivery hook");
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
        // advance(ZERO) must park and requeue at the same instant (behind
        // its neighbour), not spin inside one poll: a same-time neighbour
        // runs in between.
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
        assert_eq!(*order.lock(), vec![("a", 0), ("b", 0), ("a", 1), ("b", 1)]);
    }

    #[test]
    fn spawn_after_run_panics() {
        // `run` consumes the engine, but `run_window` does not: once a
        // window has run, a late spawn would start in the past.
        let mut eng = Engine::new();
        eng.spawn_inline("p", |ctx| async move {
            ctx.advance(SimDuration::from_ns(1.0)).await;
        });
        eng.run_window(SimTime::ZERO + SimDuration::from_ns(0.5))
            .unwrap();
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
    fn wakes_left_by_a_panicked_step_do_not_reach_the_next_engine() {
        // A process that wakes a blocked peer and then panics in the same
        // poll leaves that wake in this thread's list. An engine stepped
        // afterwards on the thread must behave as on a fresh thread: same
        // end time, same wheel traffic (a misapplied wake would requeue
        // its slot-0 receiver and push an extra event).
        fn second_engine() -> (SimTime, SchedStats) {
            let mut eng = Engine::new();
            let ch = SimChannel::<u8>::new("b");
            {
                let ch = ch.clone();
                eng.spawn_inline("rx", move |ctx| async move {
                    let _ = ch.recv_inline(&ctx).await;
                });
            }
            eng.spawn_inline("tx", move |ctx| async move {
                ctx.advance(SimDuration::from_us(2.0)).await;
                ch.send_inline(&ctx, 1);
            });
            let horizon = SimTime::ZERO + SimDuration::from_us(10.0);
            eng.run_window(horizon).unwrap();
            assert!(eng.blocked_processes().is_empty());
            (eng.now(), eng.sched_stats())
        }
        let fresh = std::thread::spawn(second_engine).join().unwrap();

        let mut eng = Engine::new();
        let ch = SimChannel::<u8>::new("a");
        {
            let ch = ch.clone();
            eng.spawn_inline("sleeper", move |ctx| async move {
                let _ = ch.recv_inline(&ctx).await;
            });
        }
        eng.spawn_inline("waker", move |ctx| async move {
            ctx.advance(SimDuration::from_us(1.0)).await;
            ch.send_inline(&ctx, 1);
            panic!("dies after waking");
        });
        match eng.run() {
            Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "waker"),
            other => panic!("expected the waker's panic, got {other:?}"),
        }
        assert_eq!(second_engine(), fresh);
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
    use crate::channel::SimChannel;
    use std::sync::Mutex;

    /// One scheduler transition as a probe sees it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Resumed,
        Advanced,
        Blocked,
        Finished,
    }

    /// Records every transition as `(virtual time, pid, step)`.
    #[derive(Default)]
    struct TraceProbe(Mutex<Vec<(u64, usize, Step)>>);

    impl TraceProbe {
        fn record(&self, at_ps: u64, pid: ProcessId, step: Step) {
            self.0.lock().unwrap().push((at_ps, pid.index(), step));
        }
    }

    impl Probe for TraceProbe {
        fn event_fired(&self, now_ps: u64, pid: ProcessId, _depth: usize) {
            self.record(now_ps, pid, Step::Resumed);
        }
        fn advanced(&self, now_ps: u64, pid: ProcessId, _dur_ps: u64) {
            self.record(now_ps, pid, Step::Advanced);
        }
        fn blocked(&self, now_ps: u64, pid: ProcessId) {
            self.record(now_ps, pid, Step::Blocked);
        }
        fn finished(&self, now_ps: u64, pid: ProcessId) {
            self.record(now_ps, pid, Step::Finished);
        }
    }

    /// An engine reporting to a fresh [`TraceProbe`].
    fn traced_engine() -> (Engine, Arc<TraceProbe>) {
        let probe = Arc::new(TraceProbe::default());
        let eng = Engine::with_probe(Some(Arc::clone(&probe) as Arc<dyn Probe>));
        (eng, probe)
    }

    #[test]
    fn trace_records_schedule_in_order() {
        let (mut eng, probe) = traced_engine();
        eng.spawn_inline("a", |ctx| async move {
            ctx.advance(SimDuration::from_ns(5.0)).await;
        });
        assert_eq!(eng.run().unwrap().as_ns(), 5.0);
        let trace = probe.0.lock().unwrap();
        let steps: Vec<Step> = trace.iter().map(|r| r.2).collect();
        assert_eq!(
            steps,
            vec![Step::Resumed, Step::Advanced, Step::Resumed, Step::Finished]
        );
        // Times never decrease, and every record names the one process.
        assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(trace.iter().all(|r| r.1 == 0));
    }

    #[test]
    fn inline_trace_is_identical_to_threaded() {
        // The exact `(time, pid, step)` records a thread-backed process
        // traced for this body before every process ran inline.
        let (mut eng, probe) = traced_engine();
        eng.spawn_inline("a", |ctx| async move {
            ctx.advance(SimDuration::from_ns(5.0)).await;
        });
        eng.run().unwrap();
        assert_eq!(
            *probe.0.lock().unwrap(),
            vec![
                (0, 0, Step::Resumed),
                (0, 0, Step::Advanced),
                (5000, 0, Step::Resumed),
                (5000, 0, Step::Finished),
            ]
        );
    }

    #[test]
    fn trace_shows_blocking_on_channel() {
        let (mut eng, probe) = traced_engine();
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
        eng.run().unwrap();
        assert!(probe.0.lock().unwrap().contains(&(0, 0, Step::Blocked)));
    }
}
