//! Instrumentation hook points for the simulation engine.
//!
//! A [`Probe`] is the one way to observe the scheduler: every event
//! push/pop, every virtual-time advance, and every process block/finish
//! is reported through it. The engine never depends
//! on what a probe does with the callbacks — probes must not affect
//! virtual time — so simulations are bit-identical with and without one
//! attached.
//!
//! A probe is attached to one engine with
//! [`Engine::with_probe`](crate::Engine::with_probe), or through a
//! process-wide *factory* rather than a single global probe:
//! [`Engine::new`](crate::Engine::new) calls the factory on the
//! constructing thread, which lets an instrumentation layer hand out a
//! different sink per logical task (e.g. per experiment of a parallel
//! sweep) via thread-local state. With no factory installed the cost is
//! one relaxed atomic load per construction and zero per event.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use crate::engine::ProcessId;

/// End-of-run scheduler counters, reported once per completed
/// [`Engine::run`](crate::Engine::run) through [`Probe::sched_stats`] —
/// the raw material of the `sched.*` telemetry bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events pushed onto the event queue (spawns, advances, injections,
    /// wakes); each is filed once.
    pub events_pushed: u64,
    /// Events popped in `(time, push order)`.
    pub events_popped: u64,
    /// Processes executed as inline state machines on the scheduler
    /// thread (every spawned process).
    pub procs_inline: u64,
}

/// Observer of engine activity. All methods have no-op defaults;
/// implement the subset you need. Calls may come from any thread, but —
/// because the engine runs processes strictly one at a time — calls
/// belonging to one engine are totally ordered and deterministic.
pub trait Probe: Send + Sync {
    /// A process was registered with [`crate::Engine::spawn_inline`].
    fn process_spawned(&self, _pid: ProcessId, _name: &str) {}
    /// An event was pushed onto the queue for `pid` at virtual time
    /// `at_ps`.
    fn event_scheduled(&self, _at_ps: u64, _pid: ProcessId) {}
    /// The scheduler popped an event and resumed `pid`; `queue_depth` is
    /// the number of events still pending (excluding the popped one).
    fn event_fired(&self, _now_ps: u64, _pid: ProcessId, _queue_depth: usize) {}
    /// `pid` consumed `dur_ps` of virtual time starting at `now_ps`.
    fn advanced(&self, _now_ps: u64, _pid: ProcessId, _dur_ps: u64) {}
    /// `pid` blocked on a channel.
    fn blocked(&self, _now_ps: u64, _pid: ProcessId) {}
    /// `pid`'s body returned.
    fn finished(&self, _now_ps: u64, _pid: ProcessId) {}
    /// End-of-run scheduler counters, reported just before
    /// [`Probe::run_complete`] on a successful complete run (windowed
    /// partition runs report no per-wheel stats: their accounting belongs
    /// to the orchestrator).
    fn sched_stats(&self, _stats: &SchedStats) {}
    /// The engine drained its queue; `end_ps` is the final virtual time.
    fn run_complete(&self, _end_ps: u64) {}
    /// An explicit annotation span `[start_ps, end_ps]` named by the
    /// simulated code itself (e.g. one MPI rank's program).
    fn span(&self, _name: &str, _start_ps: u64, _end_ps: u64, _pid: ProcessId) {}
}

/// Produces the probe for engines constructed on the calling thread;
/// return `None` to leave a particular construction unprobed.
pub type ProbeFactory = dyn Fn() -> Option<Arc<dyn Probe>> + Send + Sync;

static FACTORY_SET: AtomicBool = AtomicBool::new(false);
static FACTORY: RwLock<Option<Arc<ProbeFactory>>> = RwLock::new(None);

/// Install (or, with `None`, remove) the process-wide probe factory.
pub fn set_probe_factory(factory: Option<Arc<ProbeFactory>>) {
    let mut slot = FACTORY
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    FACTORY_SET.store(factory.is_some(), Ordering::Release);
    *slot = factory;
}

/// Whether a probe factory is currently installed process-wide.
///
/// Engine-selection layers use this to detect an attached trace/metrics
/// consumer: with a factory installed, analytic fast paths must yield to
/// the full discrete-event engine so the probe sees every event.
pub fn factory_installed() -> bool {
    FACTORY_SET.load(Ordering::Acquire)
}

/// The probe for a construction happening on the current thread, if any.
pub fn probe_for_current_thread() -> Option<Arc<dyn Probe>> {
    if !FACTORY_SET.load(Ordering::Acquire) {
        return None;
    }
    let slot = FACTORY
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    slot.as_ref().and_then(|f| f())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::Engine;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;
    use std::thread;

    #[derive(Default)]
    struct CountingProbe {
        scheduled: AtomicU64,
        fired: AtomicU64,
        advanced_ps: AtomicU64,
        finished: AtomicU64,
        end_ps: AtomicU64,
        spawned: Mutex<Vec<String>>,
    }

    impl Probe for CountingProbe {
        fn process_spawned(&self, _pid: ProcessId, name: &str) {
            self.spawned.lock().unwrap().push(name.to_string());
        }
        fn event_scheduled(&self, _at_ps: u64, _pid: ProcessId) {
            self.scheduled.fetch_add(1, Ordering::Relaxed);
        }
        fn event_fired(&self, _now_ps: u64, _pid: ProcessId, _depth: usize) {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fn advanced(&self, _now_ps: u64, _pid: ProcessId, dur_ps: u64) {
            self.advanced_ps.fetch_add(dur_ps, Ordering::Relaxed);
        }
        fn finished(&self, _now_ps: u64, _pid: ProcessId) {
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
        fn run_complete(&self, end_ps: u64) {
            self.end_ps.store(end_ps, Ordering::Relaxed);
        }
    }

    #[test]
    fn engine_reports_through_an_attached_probe() {
        let probe = Arc::new(CountingProbe::default());
        let mut eng = Engine::with_probe(Some(Arc::clone(&probe) as Arc<dyn Probe>));
        eng.spawn_inline("a", |ctx| async move {
            ctx.advance(SimDuration::from_ns(5.0)).await;
            ctx.advance(SimDuration::from_ns(3.0)).await;
        });
        let end = eng.run().unwrap();
        assert_eq!(end.as_ns(), 8.0);
        assert_eq!(probe.spawned.lock().unwrap().as_slice(), &["a".to_string()]);
        // Initial spawn event + two advances.
        assert_eq!(probe.scheduled.load(Ordering::Relaxed), 3);
        assert_eq!(probe.fired.load(Ordering::Relaxed), 3);
        assert_eq!(probe.advanced_ps.load(Ordering::Relaxed), 8_000);
        assert_eq!(probe.finished.load(Ordering::Relaxed), 1);
        assert_eq!(probe.end_ps.load(Ordering::Relaxed), 8_000);
    }

    #[test]
    fn engine_reports_through_installed_factory() {
        // The factory is process-wide and other tests of this binary
        // build engines meanwhile, so it hands the probe only to engines
        // built on this thread.
        let probe = Arc::new(CountingProbe::default());
        let home = thread::current().id();
        {
            let probe = Arc::clone(&probe);
            set_probe_factory(Some(Arc::new(move || {
                (thread::current().id() == home).then(|| Arc::clone(&probe) as Arc<dyn Probe>)
            })));
        }
        let mut eng = Engine::new();
        let elsewhere = thread::spawn(probe_for_current_thread).join().unwrap();
        set_probe_factory(None); // engine already captured its probe
        assert!(
            elsewhere.is_none(),
            "another thread resolved this thread's probe"
        );
        eng.spawn_inline("a", |ctx| async move {
            ctx.advance(SimDuration::from_ns(5.0)).await;
        });
        eng.run().unwrap();
        assert_eq!(probe.spawned.lock().unwrap().as_slice(), &["a".to_string()]);
        assert_eq!(probe.finished.load(Ordering::Relaxed), 1);
        assert_eq!(probe.end_ps.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn no_factory_means_no_probe() {
        // The only factory this binary installs yields a probe on its
        // installing thread alone, so this thread resolves none whether
        // or not that factory is installed right now.
        assert!(probe_for_current_thread().is_none());
    }
}
