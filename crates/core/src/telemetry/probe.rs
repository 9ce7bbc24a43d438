//! Bridges from the `maia-sim` [`maia_sim::Probe`] hooks and the
//! `maia-omp` [`maia_omp::telemetry::TeamObserver`] hooks into the
//! telemetry sinks of [`super`].

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use maia_sim::engine::ProcessId;

use super::{lock_sink, SharedSink, VtSpan};

/// Per-engine probe: attributes everything the engine reports to the
/// sink that was innermost on the thread that constructed the engine.
/// The engine executes processes strictly one at a time, so all updates
/// through one `SimProbe` are totally ordered and deterministic.
pub struct SimProbe {
    sink: SharedSink,
    /// Process names in spawn order (`ProcessId` is the dense index).
    names: Mutex<Vec<String>>,
}

impl SimProbe {
    pub(crate) fn new(sink: SharedSink) -> SimProbe {
        lock_sink(&sink).sim.engines += 1;
        SimProbe {
            sink,
            names: Mutex::new(Vec::new()),
        }
    }

    fn name_of(&self, pid: ProcessId) -> String {
        let names = self.names.lock().unwrap_or_else(PoisonError::into_inner);
        names
            .get(pid.index())
            .cloned()
            .unwrap_or_else(|| format!("p{}", pid.index()))
    }
}

impl maia_sim::Probe for SimProbe {
    fn process_spawned(&self, pid: ProcessId, name: &str) {
        let mut names = self.names.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert_eq!(names.len(), pid.index());
        names.push(name.to_string());
        lock_sink(&self.sink).sim.processes += 1;
    }

    fn event_scheduled(&self, _at_ps: u64, _pid: ProcessId) {
        lock_sink(&self.sink).sim.scheduled += 1;
    }

    fn event_fired(&self, _now_ps: u64, _pid: ProcessId, queue_depth: usize) {
        let mut s = lock_sink(&self.sink);
        s.sim.fired += 1;
        s.sim.max_queue_depth = s.sim.max_queue_depth.max(queue_depth as u64);
    }

    fn advanced(&self, _now_ps: u64, pid: ProcessId, dur_ps: u64) {
        let name = self.name_of(pid);
        let mut s = lock_sink(&self.sink);
        *s.proc_vt_ps.entry(name).or_insert(0) += dur_ps;
        s.hist
            .entry("sim.advance_ps".to_string())
            .or_default()
            .record(dur_ps);
    }

    fn blocked(&self, _now_ps: u64, _pid: ProcessId) {
        lock_sink(&self.sink).sim.blocked += 1;
    }

    fn finished(&self, _now_ps: u64, _pid: ProcessId) {
        lock_sink(&self.sink).sim.finished += 1;
    }

    fn sched_stats(&self, stats: &maia_sim::SchedStats) {
        let mut s = lock_sink(&self.sink);
        *s.counters.entry("sched.events_pushed".to_string()).or_insert(0) +=
            stats.events_pushed;
        *s.counters.entry("sched.events_popped".to_string()).or_insert(0) +=
            stats.events_popped;
        *s.counters.entry("sched.procs_inline".to_string()).or_insert(0) +=
            stats.procs_inline;
        // Wheel-occupancy histogram: bucket = wheel level (7 = far-future
        // overflow), count = insertions that landed there. Inserted
        // directly — the bucket key is the level itself, not a
        // bit-length.
        let h = s.hist.entry("sched.wheel_level".to_string()).or_default();
        for (level, &pushes) in stats.wheel_level_pushes.iter().enumerate() {
            if pushes > 0 {
                *h.buckets.entry(level as u32).or_insert(0) += pushes;
                h.count += pushes;
                h.sum = h.sum.saturating_add(level as u64 * pushes);
            }
        }
    }

    fn run_complete(&self, end_ps: u64) {
        // Engine makespan is fabric/contention time in this codebase:
        // only the MPI world drives engines.
        let mut s = lock_sink(&self.sink);
        *s.vt_ps.entry("mpi-fabric".to_string()).or_insert(0) += end_ps;
    }

    fn span(&self, name: &str, start_ps: u64, end_ps: u64, pid: ProcessId) {
        lock_sink(&self.sink).push_span(VtSpan {
            name: name.to_string(),
            start_ps,
            dur_ps: end_ps.saturating_sub(start_ps),
            tid: pid.index() as u32,
        });
    }
}

/// Process-wide team observer: counts parallel regions and records
/// wall-clock per-worker spans for *labeled* teams (the executor labels
/// its sweep team `"sweep"`; the unlabeled inner teams of the NPB
/// kernels would flood the recorder and are only counted).
#[derive(Default)]
pub struct SweepObserver {
    started: Mutex<Vec<((&'static str, usize), Instant)>>,
}

impl maia_omp::telemetry::TeamObserver for SweepObserver {
    fn region_begin(&self, label: &'static str, thread: usize, _team: usize) {
        if thread == 0 {
            super::record_omp_region();
        }
        if label.is_empty() {
            return;
        }
        self.started
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(((label, thread), Instant::now()));
    }

    fn region_end(&self, label: &'static str, thread: usize, _team: usize) {
        if label.is_empty() {
            return;
        }
        let begin = {
            let mut started = self.started.lock().unwrap_or_else(PoisonError::into_inner);
            match started.iter().rposition(|(k, _)| *k == (label, thread)) {
                Some(i) => started.swap_remove(i).1,
                None => return,
            }
        };
        super::record_wall_span(
            &format!("omp/{label}/w{thread}"),
            thread as u32,
            begin,
            begin.elapsed().as_secs_f64(),
            "wall-omp",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_sim::Probe as _;
    use std::sync::Arc;

    #[test]
    fn sim_probe_accumulates_into_sink() {
        let sink: SharedSink = Arc::new(Mutex::new(super::super::Sink::default()));
        let probe = SimProbe::new(Arc::clone(&sink));
        let pid = maia_sim::Engine::new().spawn_inline("rank-0", |_| async {});
        probe.process_spawned(pid, "rank-0");
        probe.event_scheduled(0, pid);
        probe.event_fired(0, pid, 3);
        probe.advanced(0, pid, 2_500);
        probe.blocked(2_500, pid);
        probe.event_fired(2_500, pid, 0);
        probe.finished(2_500, pid);
        probe.run_complete(2_500);
        probe.span("rank-0", 0, 2_500, pid);
        let s = lock_sink(&sink);
        assert_eq!(s.sim.engines, 1);
        assert_eq!(s.sim.processes, 1);
        assert_eq!(s.sim.scheduled, 1);
        assert_eq!(s.sim.fired, 2);
        assert_eq!(s.sim.blocked, 1);
        assert_eq!(s.sim.finished, 1);
        assert_eq!(s.sim.max_queue_depth, 3);
        assert_eq!(s.proc_vt_ps.get("rank-0"), Some(&2_500));
        assert_eq!(s.vt_ps.get("mpi-fabric"), Some(&2_500));
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].dur_ps, 2_500);
    }

    #[test]
    fn sched_stats_land_in_counters_and_wheel_histogram() {
        let sink: SharedSink = Arc::new(Mutex::new(super::super::Sink::default()));
        let probe = SimProbe::new(Arc::clone(&sink));
        let stats = maia_sim::SchedStats {
            events_pushed: 12,
            events_popped: 12,
            wheel_level_pushes: [8, 3, 0, 0, 0, 0, 0, 1],
            procs_inline: 4,
        };
        probe.sched_stats(&stats);
        let s = lock_sink(&sink);
        assert_eq!(s.counters.get("sched.events_pushed"), Some(&12));
        assert_eq!(s.counters.get("sched.events_popped"), Some(&12));
        assert_eq!(s.counters.get("sched.procs_inline"), Some(&4));
        let h = s.hist.get("sched.wheel_level").expect("wheel histogram");
        assert_eq!(h.buckets.get(&0), Some(&8));
        assert_eq!(h.buckets.get(&1), Some(&3));
        assert_eq!(h.buckets.get(&7), Some(&1)); // overflow level
        assert_eq!(h.count, 12);
    }
}
