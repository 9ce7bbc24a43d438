//! Entry points of the child processes the runner spawns. Each child
//! installs its configuration, prints `ready`, does its work, and reports
//! back on stdout one fact per line:
//!
//! * `m <name> <value>` — a measured metric,
//! * `x <name> <value>` — a deterministic count that must repeat exactly,
//! * `span <id> <parent> <start_ns> <end_ns> <name>` — a recorded span,
//! * `fail <reason>` — the output was wrong.

use std::io::Write;
use std::time::Instant;

use maia_core::{ExperimentId, SweepReport};

use crate::procfs;
use crate::rng::Rng;
use crate::trace::{Recorder, Span};
use crate::workload::{self, Output, Workload};

/// Child kinds, as spelled on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One untraced sample of the workload.
    Sample,
    /// The workload call under the span recorder, then the layer replays.
    Replay,
    /// A01/A02 and the remaining sweep experiments, memos cold.
    NpbMpi,
    /// The bare NPB kernels and the enabled-telemetry hook.
    Bare,
    /// The workload with telemetry on, for its deterministic counters.
    Counters,
    /// The benchmark's own reference task, which measures the host's speed.
    Reference,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sample => "sample",
            Kind::Replay => "replay",
            Kind::NpbMpi => "npb",
            Kind::Bare => "bare",
            Kind::Counters => "counters",
            Kind::Reference => "reference",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        [
            Kind::Sample,
            Kind::Replay,
            Kind::NpbMpi,
            Kind::Bare,
            Kind::Counters,
            Kind::Reference,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// What one child runs: the workload, the experiment request order, and
/// the seed of its replay cell order.
pub struct Job {
    pub kind: Kind,
    pub workload: Workload,
    pub order: Vec<ExperimentId>,
    pub cell_seed: u64,
    /// Overrides the workload's golden (the error-rate self-test passes a
    /// corrupted copy).
    pub golden: Option<std::path::PathBuf>,
}

/// Facts a child prints for the runner.
#[derive(Default)]
pub struct Report {
    lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.lines.push(format!("m {name} {value}"));
    }

    pub fn exact(&mut self, name: &str, value: u64) {
        self.lines.push(format!("x {name} {value}"));
    }

    pub fn fail(&mut self, reason: &str) {
        self.lines
            .push(format!("fail {}", reason.replace('\n', " ")));
    }
}

fn say(line: &str) {
    let mut stdout = std::io::stdout().lock();
    // A runner that went away cannot read the result anyway.
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
}

/// Run one child to completion; the exit code is 0 whenever the child
/// got as far as reporting (failures travel as `fail` lines).
pub fn run(job: &Job) -> i32 {
    // Only the kinds that run the workload call check its output.
    let golden_path = match job.kind {
        Kind::NpbMpi | Kind::Bare | Kind::Reference => None,
        _ => job.golden.clone().or_else(|| job.workload.golden()),
    };
    let golden = match golden_path {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("maia-perf: reading {}: {e}", path.display());
                return 1;
            }
        },
        None => None,
    };
    let mut report = Report::default();
    let rec = Recorder::new();
    match job.kind {
        Kind::Sample => sample(job, golden.as_deref(), &mut report),
        Kind::Replay => {
            job.workload.install(job.workload.engine());
            say("ready");
            let before = maia_core::cache::stats();
            let output = rec.span("workload", || job.workload.call(&job.order));
            let after = maia_core::cache::stats();
            check(&output, golden.as_deref(), &mut report);
            report.metric(
                "workload.wall_ms",
                rec.last_ns("workload").unwrap_or(0) as f64 / 1e6,
            );
            report.exact("cache.hits", after.hits - before.hits);
            report.exact("cache.misses", after.misses - before.misses);
            crate::layers::replay(&rec, &mut report, &mut Rng::new(job.cell_seed));
        }
        Kind::NpbMpi => {
            say("ready");
            crate::layers::npb_mpi(&rec, &mut report);
        }
        Kind::Bare => {
            say("ready");
            crate::layers::bare(&rec, &mut report);
        }
        Kind::Counters => counters(job, golden.as_deref(), &mut report),
        Kind::Reference => {
            let _placed = job.workload.place();
            say("ready");
            report.metric("ref_ms", crate::reference::run());
        }
    }
    for line in report.lines {
        say(&line);
    }
    for span in rec.into_spans() {
        say(&span.to_line());
    }
    0
}

fn check(output: &Output, golden: Option<&str>, report: &mut Report) {
    for problem in workload::problems(output, golden) {
        report.fail(&problem);
    }
}

/// One untraced sample: only the library call sits inside the wall-clock
/// interval. (Its CPU time is read by the runner when it reaps the child.)
fn sample(job: &Job, golden: Option<&str>, report: &mut Report) {
    job.workload.install(job.workload.engine());
    say("ready");
    let start = Instant::now();
    let output = job.workload.call(&job.order);
    let wall = start.elapsed();
    check(&output, golden, report);
    report.metric("wall_ms", wall.as_secs_f64() * 1e3);
    match procfs::self_vm_hwm_kb() {
        Some(hwm_kb) => report.metric("rss_mb", hwm_kb as f64 / 1024.0),
        None => report.fail("cannot read VmHWM from /proc/self/status"),
    }
}

/// The workload with telemetry enabled, engine pinned to the one the
/// untraced run selects; reports the events the DES engines popped.
fn counters(job: &Job, golden: Option<&str>, report: &mut Report) {
    maia_core::telemetry::enable();
    job.workload.install(job.workload.pinned_engine());
    say("ready");
    let output = job.workload.call(&job.order);
    check(&output, golden, report);
    let sweep = match output {
        Output::Sweep(sweep) => sweep,
        // The crosscheck returns no sweep; profile its experiment set.
        Output::Crosscheck(xc) => SweepReport {
            runs: maia_core::crosscheck::CROSSCHECK_IDS
                .iter()
                .map(|&id| maia_core::ExperimentRun {
                    id,
                    data: maia_core::FigureData::new(id.meta().code, "", &[]),
                    wall: Default::default(),
                    excl: Default::default(),
                })
                .collect(),
            failures: Vec::new(),
            wall: Default::default(),
            jobs: xc.jobs,
            cache: maia_core::cache::stats(),
        },
    };
    let profile = maia_core::telemetry::collect(&sweep);
    let events = profile.experiments.iter().map(|e| e.sim.fired).sum::<u64>()
        + profile.domains.iter().map(|d| d.sim.fired).sum::<u64>();
    report.exact("sim.events", events);
}

/// Parse the text a child printed after `ready`.
#[derive(Debug, Default)]
pub struct Parsed {
    pub metrics: Vec<(String, f64)>,
    pub exact: Vec<(String, u64)>,
    pub spans: Vec<Span>,
    pub fails: Vec<String>,
}

impl Parsed {
    pub fn line(&mut self, line: &str) {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let pair = || rest.split_once(' ');
        match tag {
            "m" => match pair().and_then(|(n, v)| Some((n.to_string(), v.parse().ok()?))) {
                Some(m) => self.metrics.push(m),
                None => self.fails.push(format!("malformed metric line: {line}")),
            },
            "x" => match pair().and_then(|(n, v)| Some((n.to_string(), v.parse().ok()?))) {
                Some(x) => self.exact.push(x),
                None => self.fails.push(format!("malformed count line: {line}")),
            },
            "span" => match Span::parse(rest) {
                Some(s) => self.spans.push(s),
                None => self.fails.push(format!("malformed span line: {line}")),
            },
            "fail" => self.fails.push(rest.to_string()),
            _ => self.fails.push(format!("unexpected child output: {line}")),
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_parse_back() {
        let mut r = Report::default();
        r.metric("wall_ms", 12.5);
        r.exact("sim.events", 42);
        r.fail("golden\nmismatch");
        let mut p = Parsed::default();
        for line in &r.lines {
            p.line(line);
        }
        p.line("span 0 - 10 20 workload");
        assert_eq!(p.metric("wall_ms"), Some(12.5));
        assert_eq!(p.exact, vec![("sim.events".to_string(), 42)]);
        assert_eq!(p.fails, vec!["golden mismatch".to_string()]);
        assert_eq!(p.spans.len(), 1);
        p.line("garbage");
        p.line("m wall_ms notanumber");
        assert_eq!(p.fails.len(), 3);
    }
}
