//! Prints a per-rank activity summary of one simulated collective from
//! the scheduler transitions a probe observes — a text "timeline" for
//! inspecting how virtual time is spent on the fabric.
//!
//! ```text
//! cargo run -p maia-bench --bin trace_timeline -- [ranks] [bytes]
//! ```

use std::sync::{Arc, Mutex};

use maia_arch::Device;
use maia_mpi::{MpiWorld, WorldSpec};
use maia_sim::{set_probe_factory, Probe, ProcessId};

/// One scheduler transition of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Resumed,
    Advanced,
    Blocked,
    Finished,
}

/// Every transition as `(virtual time ps, rank, step)`, in scheduler
/// order.
#[derive(Default)]
struct Timeline(Mutex<Vec<(u64, usize, Step)>>);

impl Timeline {
    fn record(&self, at_ps: u64, pid: ProcessId, step: Step) {
        self.0
            .lock()
            .expect("no probe callback panics holding the timeline")
            .push((at_ps, pid.index(), step));
    }
}

impl Probe for Timeline {
    fn event_fired(&self, now_ps: u64, pid: ProcessId, _queue_depth: usize) {
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

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let bytes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(64 * 1024);

    let timeline = Arc::new(Timeline::default());
    {
        let timeline = Arc::clone(&timeline);
        set_probe_factory(Some(Arc::new(move || {
            Some(Arc::clone(&timeline) as Arc<dyn Probe>)
        })));
    }
    let spec = WorldSpec::all_on(Device::Phi0, ranks);
    let res = MpiWorld::run(&spec, move |mut rank| async move {
        rank.allreduce(bytes).await;
        rank
    })
    .expect("allreduce deadlocked");
    set_probe_factory(None);
    let trace = timeline
        .0
        .lock()
        .expect("no probe callback panics holding the timeline");

    println!(
        "allreduce of {bytes} B on {ranks} Phi ranks: {:.1} us total, {} scheduler events\n",
        res.end_time.as_us(),
        trace.len()
    );
    println!(
        "{:<8} {:>8} {:>9} {:>8} {:>12}",
        "rank", "resumes", "advances", "blocks", "finish (us)"
    );
    for r in 0..ranks {
        let count = |step: Step| {
            trace
                .iter()
                .filter(|&&(_, p, s)| p == r && s == step)
                .count()
        };
        println!(
            "rank-{:<3} {:>8} {:>9} {:>8} {:>12.2}",
            r,
            count(Step::Resumed),
            count(Step::Advanced),
            count(Step::Blocked),
            res.rank_finish_s[r] * 1e6,
        );
    }
    println!("\nfirst events: {:?}", &trace[..trace.len().min(6)]);
}
