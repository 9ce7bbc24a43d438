//! The four end-to-end workloads: the process-global configuration each
//! sample installs, the one library call it times, and how its output is
//! checked. Thread counts are sized for a two-core machine.

use std::path::PathBuf;

use maia_core::{CrosscheckReport, ExperimentId, ExperimentSelection, SweepReport};
use maia_mpi::fastpath::EngineMode;
use maia_mpi::process_backend::Backend;

use crate::affinity::OneCpu;

/// One end-to-end workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// `run --all --jobs 2`: the run users wait on most; real NPB and
    /// OVERFLOW numerics, collectives on their closed forms.
    Sweep,
    /// `crosscheck --jobs 2`: every F10–F14, C01 and C02 cell on both
    /// engines — dominated by the discrete-event engine.
    Crosscheck,
    /// C01+C02 on the DES over 2 wheels, in-process channel exchange.
    ClusterChannel,
    /// The same world with wheel 1 in a supervised worker process.
    ClusterProcess,
}

/// What a sample's library call returned.
pub enum Output {
    Sweep(SweepReport),
    Crosscheck(CrosscheckReport),
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::Crosscheck,
        Workload::ClusterChannel,
        Workload::ClusterProcess,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Crosscheck => "crosscheck",
            Workload::ClusterChannel => "cluster_channel",
            Workload::ClusterProcess => "cluster_process",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Experiments a sample requests, in paper order; the runner permutes
    /// the request order by seed. The crosscheck has a fixed scope.
    pub fn experiments(self) -> Vec<ExperimentId> {
        match self {
            Workload::Sweep => maia_core::all_experiments(),
            Workload::Crosscheck => Vec::new(),
            Workload::ClusterChannel | Workload::ClusterProcess => vec![
                ExperimentId::C1ClusterAllreduce,
                ExperimentId::C2ClusterAlltoall,
            ],
        }
    }

    /// The checked-in golden the rendered tables must equal byte for byte.
    pub fn golden(self) -> Option<PathBuf> {
        let file = match self {
            Workload::Sweep => "smoke_sweep.md",
            Workload::Crosscheck => return None,
            Workload::ClusterChannel | Workload::ClusterProcess => "cluster_sweep.md",
        };
        Some(repo_root().join("tests/golden").join(file))
    }

    fn jobs(self) -> usize {
        match self {
            Workload::Sweep | Workload::Crosscheck => 2,
            Workload::ClusterChannel | Workload::ClusterProcess => 1,
        }
    }

    /// Whether heartbeat sleeps, not the host's speed, set the wall time:
    /// each process-backend cell waits about one heartbeat interval while
    /// its worker shuts down. Such a workload runs no reference children
    /// and reports its timings as measured.
    pub fn sleep_bound(self) -> bool {
        self == Workload::ClusterProcess
    }

    /// The engine mode the untraced run installs.
    pub fn engine(self) -> EngineMode {
        match self {
            Workload::Sweep | Workload::Crosscheck => EngineMode::Auto,
            Workload::ClusterChannel | Workload::ClusterProcess => EngineMode::Des,
        }
    }

    /// The engine the untraced run actually selects. Telemetry attaches a
    /// probe, which would switch `Auto` over to the DES, so the counter
    /// child pins this instead. The crosscheck sets both modes itself.
    pub fn pinned_engine(self) -> EngineMode {
        match self {
            Workload::Sweep => EngineMode::Fast,
            other => other.engine(),
        }
    }

    /// Install the process-global knobs of this workload under `engine`.
    pub fn install(self, engine: EngineMode) {
        maia_mpi::fastpath::set_engine_mode(engine);
        let (partitions, backend) = match self {
            Workload::Sweep | Workload::Crosscheck => (1, Backend::Channel),
            Workload::ClusterChannel => (2, Backend::Channel),
            Workload::ClusterProcess => (2, Backend::Process),
        };
        maia_mpi::partition::set_partitions(partitions);
        maia_mpi::process_backend::set_backend(backend);
        if backend == Backend::Process {
            install_self_launcher();
        }
    }

    /// Place the calling thread, and the threads it starts, where this
    /// workload's call runs until the returned guard drops: on one CPU for
    /// `cluster_channel`, free for the rest. Left free, `cluster_channel`'s
    /// two wheel threads share one vCPU or take two as the guest scheduler
    /// decides, and on the 2-vCPU guest that moved its CPU time between 44
    /// and 71 ms per sample from one seven-second batch to the next and its
    /// median wall by up to 20% between runs. On one CPU the batches held at
    /// 46–48 ms of CPU. The partition layer's barriers, exchanges and
    /// lookahead run the same either way. Reference children following
    /// this workload's samples are placed the same way.
    pub fn place(self) -> Option<OneCpu> {
        self.one_cpu()
            .then(|| OneCpu::pin().expect("cannot pin the calling thread to one CPU"))
    }

    /// Whether [`Workload::place`] pins to one CPU.
    pub fn one_cpu(self) -> bool {
        self == Workload::ClusterChannel
    }

    /// The timed library call of one sample.
    pub fn call(self, order: &[ExperimentId]) -> Output {
        let _placed = self.place();
        match self {
            Workload::Crosscheck => Output::Crosscheck(maia_core::run_crosscheck(self.jobs())),
            _ => Output::Sweep(maia_core::run_selection(
                &ExperimentSelection::Ids(order.to_vec()),
                self.jobs(),
            )),
        }
    }
}

/// Worker processes of the process backend are this very binary: `main`
/// hands `partition-worker` argv to the `maia-bench` CLI.
pub fn install_self_launcher() {
    let exe = std::env::current_exe().expect("cannot resolve the benchmark's own executable");
    maia_core::supervise::install_default_launcher(exe);
}

/// The repository root (the benchmark package lives one level below).
fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Tables in paper order, rendered exactly like `maia-bench run`.
fn render_in_paper_order(report: &SweepReport) -> String {
    let paper = maia_core::all_experiments();
    let mut runs: Vec<_> = report.runs.iter().collect();
    runs.sort_by_key(|r| paper.iter().position(|&id| id == r.id));
    runs.iter().map(|r| r.data.to_markdown() + "\n").collect()
}

/// Everything wrong with a sample's output; empty when it is correct.
/// A sample fails on a golden mismatch, a crosscheck MISMATCH, any
/// experiment failure, or any worker loss, respawn or degradation (a
/// healed loss still counts: the run did not go as a user's would).
pub fn problems(output: &Output, golden: Option<&str>) -> Vec<String> {
    let mut out = Vec::new();
    match output {
        Output::Sweep(report) => {
            out.extend(
                report
                    .failures
                    .iter()
                    .map(|f| format!("experiment failure: {}", f.to_line())),
            );
            if let Some(want) = golden {
                let got = render_in_paper_order(report);
                if got != want {
                    let line = got
                        .lines()
                        .zip(want.lines())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
                    out.push(format!("golden mismatch at line {}", line + 1));
                }
            }
        }
        Output::Crosscheck(report) => {
            if !report.is_match() {
                out.push("crosscheck verdict MISMATCH".to_string());
            }
        }
    }
    // Missed heartbeats are left out: a healthy worker goes quiet for up
    // to one interval while it joins its heartbeat thread at shutdown, so
    // that counter is nonzero on runs where nothing went wrong.
    let s = maia_core::telemetry::supervise_counters();
    if s.workers_lost + s.respawns + s.degraded > 0 {
        out.push(format!(
            "supervise counters nonzero: {} worker(s) lost, {} respawn(s), {} degraded run(s)",
            s.workers_lost, s.respawns, s.degraded
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_and_goldens_exist() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            if let Some(path) = w.golden() {
                assert!(path.is_file(), "{}", path.display());
            }
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
