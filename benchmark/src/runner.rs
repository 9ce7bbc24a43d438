//! The driving process: spawns every sample as a fresh child, one after
//! another (a closed loop with one client), interleaves the workloads
//! round-robin in a seeded order, runs the traced children, applies the
//! determinism gate, and prints every metric.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use maia_core::ExperimentId;

use crate::child::{Kind, Parsed};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, Span};
use crate::workload::Workload;

/// A child that has not finished after this long is killed and counted
/// as failed (a healthy one takes at most a few seconds).
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Traced children of each kind per workload; per-layer metrics are the
/// median over them.
const TRACED: usize = 5;

/// Share of a run's sampling time given to reference children.
const REFERENCE_SHARE: f64 = 0.25;

/// Median `ref_ms` of the reference task on the 2-vCPU guest the benchmark
/// was defined on, free and on one CPU (where its ping-pong needs no
/// cross-CPU wake-up). A run whose reference children took this long
/// reports its timings as the clock read them; a run on a host that ran
/// them 10% slower reports its timings divided by 1.1.
const NOMINAL_REF_MS: f64 = 17.0;
const NOMINAL_REF_MS_ONE_CPU: f64 = 14.0;

/// What the runner was asked to do.
pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Sampling time per workload.
    pub seconds: f64,
    pub sample: bool,
    pub trace: bool,
}

/// One finished child.
struct ChildRun {
    label: String,
    /// Spawn to `ready`: process start-up plus installing the config.
    setup_s: Option<f64>,
    /// Spawn to exit.
    elapsed_s: f64,
    /// CPU of the whole child, workers it reaped included.
    cpu_ms: Option<f64>,
    parsed: Parsed,
    /// Why the child counts as failed, if it does.
    failure: Option<String>,
}

impl ChildRun {
    fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Spawn one child of this very binary and collect what it prints.
/// `env` is set on the child alone; every other `MAIA_*` knob is removed
/// so the environment cannot change what is measured. A child that cannot
/// be started at all (say, the binary was replaced under a running
/// runner) is an error that ends the run: retrying would only spin.
///
/// The child's CPU is the growth of this process's reaped-children ticks
/// across its lifetime (one child runs at a time). Reading it here rather
/// than in the child matters: a child's own tick count starts at zero,
/// so short samples of steady cost would all round down alike, while the
/// runner's running total has an arbitrary fraction of a tick, which
/// makes the rounding error of each delta average out over a run.
fn spawn(
    kind: Kind,
    workload: Workload,
    order: &[ExperimentId],
    cell_seed: u64,
    env: &[(&str, &str)],
    golden: Option<&Path>,
) -> Result<ChildRun, String> {
    let label = format!("{}-{}", kind.name(), workload.name());
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let codes: Vec<&str> = order.iter().map(|id| id.meta().code).collect();
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        kind.name(),
        workload.name(),
        "--order",
        &codes.join(","),
    ])
    .args(["--cell-seed", &cell_seed.to_string()]);
    if let Some(path) = golden {
        cmd.arg("--golden").arg(path);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MAIA_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());

    let cpu_before = procfs::reaped_cpu_ms();
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a {label} child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let deadline = start + CHILD_TIMEOUT;
    let mut setup_s = None;
    let mut parsed = Parsed::default();
    let mut timed_out = false;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok((at, line)) if setup_s.is_none() && line == "ready" => {
                setup_s = Some(at.duration_since(start).as_secs_f64());
            }
            Ok((_, line)) => parsed.line(&line),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                timed_out = true;
                break;
            }
        }
    }
    let status = child.wait();
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu_ms = cpu_before
        .zip(procfs::reaped_cpu_ms())
        .map(|(before, after)| after - before);
    let _ = reader.join();

    let failure = if timed_out {
        Some(format!("no exit within {} s", CHILD_TIMEOUT.as_secs()))
    } else if !status.as_ref().is_ok_and(|s| s.success()) {
        Some(format!("child exited with {status:?}"))
    } else if setup_s.is_none() {
        Some("child never reported ready".to_string())
    } else if cpu_ms.is_none() {
        Some("cannot read reaped-children CPU from /proc/self/stat".to_string())
    } else {
        (!parsed.fails.is_empty()).then(|| parsed.fails.join("; "))
    };
    Ok(ChildRun {
        label,
        setup_s,
        elapsed_s,
        cpu_ms,
        parsed,
        failure,
    })
}

/// A request order for one sample: the workload's experiments, shuffled.
fn order(workload: Workload, rng: &mut Rng) -> Vec<ExperimentId> {
    let mut ids = workload.experiments();
    rng.shuffle(&mut ids);
    ids
}

fn sample(workload: Workload, rng: &mut Rng) -> Result<ChildRun, String> {
    spawn(Kind::Sample, workload, &order(workload, rng), 0, &[], None)
}

/// One reference child placed like `workload`; returns its `ref_ms` and
/// its spawn-to-exit seconds. The task is the benchmark's own code, so a
/// failure is a bug in the benchmark and ends the run.
fn reference(workload: Workload) -> Result<(f64, f64), String> {
    let run = spawn(Kind::Reference, workload, &[], 0, &[], None)?;
    match (&run.failure, run.parsed.metric("ref_ms")) {
        (None, Some(ms)) => Ok((ms, run.elapsed_s)),
        (failure, _) => Err(format!("reference child failed: {failure:?}")),
    }
}

/// What the untraced phase measured, per workload.
struct Sampled {
    runs: BTreeMap<Workload, Vec<ChildRun>>,
    /// `ref_ms` of the reference children that followed the workload's
    /// samples.
    ref_ms: BTreeMap<Workload, Vec<f64>>,
}

/// Untraced samples of every workload, interleaved round-robin in a
/// seeded order until each has spent `seconds` of wall time, so machine
/// drift lands on all of them alike. Of each workload's time, reference
/// children placed like it get `REFERENCE_SHARE`, run after its samples;
/// a sleep-bound workload gets none, since it is not rescaled.
/// The first `WARMUP_S` of samples are not timed: on the 2-vCPU guest this
/// was tuned on, the first second or two of load after an idle spell ran
/// up to 40% slower. A warm-up sample that fails still counts as a failed
/// attempt.
fn sample_phase(workloads: &[Workload], seconds: f64, rng: &mut Rng) -> Result<Sampled, String> {
    const WARMUP_S: f64 = 2.0;
    let mut runs: BTreeMap<Workload, Vec<ChildRun>> = BTreeMap::new();
    let warmup_end = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    while Instant::now() < warmup_end {
        for &w in workloads {
            let run = sample(w, rng)?;
            if !run.ok() {
                runs.entry(w).or_default().push(run);
            }
        }
    }
    // Seconds spent per workload on samples and on reference children.
    let mut spent: BTreeMap<Workload, (f64, f64)> =
        workloads.iter().map(|&w| (w, (0.0, 0.0))).collect();
    let mut ref_ms: BTreeMap<Workload, Vec<f64>> = BTreeMap::new();
    loop {
        let mut round: Vec<Workload> = workloads
            .iter()
            .copied()
            .filter(|w| spent[w].0 + spent[w].1 < seconds)
            .collect();
        if round.is_empty() {
            return Ok(Sampled { runs, ref_ms });
        }
        rng.shuffle(&mut round);
        for w in round {
            let run = sample(w, rng)?;
            let (sample_s, ref_s) = spent.get_mut(&w).expect("listed workload");
            *sample_s += run.elapsed_s;
            while !w.sleep_bound() && *ref_s < *sample_s * REFERENCE_SHARE / (1.0 - REFERENCE_SHARE)
            {
                let (ms, elapsed_s) = reference(w)?;
                *ref_s += elapsed_s;
                ref_ms.entry(w).or_default().push(ms);
            }
            runs.entry(w).or_default().push(run);
        }
    }
}

/// End-to-end summary of one workload's untraced samples.
struct EndToEnd {
    attempted: usize,
    failed: usize,
    /// The declared metrics, timings at the defining host's speed.
    metrics: BTreeMap<&'static str, f64>,
    /// The same metrics as the clock read them.
    measured: BTreeMap<&'static str, f64>,
    /// The host's speed over the run relative to the defining host: the
    /// nominal reference time over the median `ref_ms` of the workload's
    /// reference children; `None` when it ran none.
    speed: Option<f64>,
    error_rate: f64,
    /// Per-sample walls of the successful samples, in run order.
    wall_ms: Vec<f64>,
    tail: Option<u32>,
    first_failure: Option<String>,
}

/// Summarise one workload's samples. `speed`, when known, rescales every
/// timing to the speed of the host the benchmark was defined on.
fn end_to_end(runs: &[ChildRun], speed: Option<f64>) -> EndToEnd {
    let ok: Vec<&ChildRun> = runs.iter().filter(|r| r.ok()).collect();
    let values =
        |name: &str| -> Vec<f64> { ok.iter().filter_map(|r| r.parsed.metric(name)).collect() };
    let wall = values("wall_ms");
    let setup: Vec<f64> = ok.iter().filter_map(|r| r.setup_s).collect();
    let mut measured = BTreeMap::new();
    let mut put = |name, v: Option<f64>| {
        if let Some(v) = v {
            measured.insert(name, v);
        }
    };
    put("wall_ms.p50", stats::median(&wall));
    put("wall_ms.p90", stats::percentile(&wall, 90.0));
    put(
        "cpu_ms.mean",
        stats::mean(&ok.iter().filter_map(|r| r.cpu_ms).collect::<Vec<_>>()),
    );
    put("setup_s", stats::median(&setup));
    put("peak_rss_mb", values("rss_mb").into_iter().reduce(f64::max));
    let metrics = measured
        .iter()
        .map(|(&name, &v)| match speed {
            Some(s) if name != "peak_rss_mb" => (name, v * s),
            _ => (name, v),
        })
        .collect();
    let failed = runs.len() - ok.len();
    EndToEnd {
        attempted: runs.len(),
        failed,
        metrics,
        measured,
        speed,
        error_rate: failed as f64 / runs.len().max(1) as f64,
        tail: stats::tail_percentile(wall.len()),
        first_failure: runs.iter().find_map(|r| r.failure.clone()),
        wall_ms: wall,
    }
}

/// Per-layer results of one workload's traced children.
struct Traced {
    attempted: usize,
    failed: usize,
    /// Medians of the measured metrics, and the exact counters.
    metrics: BTreeMap<String, f64>,
    /// Median self time per span name, ms.
    self_ms: BTreeMap<String, f64>,
    /// Exact counters that differed between children, by name.
    nondeterministic: Vec<String>,
    first_failure: Option<String>,
    children: Vec<(String, Vec<Span>)>,
}

fn trace_phase(workload: Workload, rng: &mut Rng) -> Result<Traced, String> {
    let mut plain = Vec::new();
    let mut layered = Vec::new();
    for _ in 0..TRACED {
        plain.push(sample(workload, rng)?);
        for kind in [Kind::Replay, Kind::NpbMpi, Kind::Bare] {
            let order = order(workload, rng);
            let cell_seed = rng.next_u64();
            layered.push(spawn(kind, workload, &order, cell_seed, &[], None)?);
        }
    }
    let counters = spawn(
        Kind::Counters,
        workload,
        &order(workload, rng),
        0,
        &[],
        None,
    )?;

    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut self_times: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for run in layered.iter().chain([&counters]).filter(|r| r.ok()) {
        for (name, v) in &run.parsed.metrics {
            values.entry(name.clone()).or_default().push(*v);
        }
        for (name, v) in &run.parsed.exact {
            counts.entry(name.clone()).or_default().push(*v);
        }
        for span in &run.parsed.spans {
            let ms = trace::self_time_ns(&run.parsed.spans, span) as f64 / 1e6;
            self_times.entry(span.name.clone()).or_default().push(ms);
        }
    }
    let mut metrics: BTreeMap<String, f64> = values
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), stats::median(v)?)))
        .collect();
    let mut nondeterministic = Vec::new();
    let mut exact = BTreeMap::new();
    for (name, v) in &counts {
        if v.windows(2).any(|w| w[0] != w[1]) {
            nondeterministic.push(format!("{name} {v:?}"));
        }
        exact.insert(name.clone(), v[0]);
    }
    // The process backend must exchange exactly what the channel backend
    // does over the same cells.
    for what in ["windows", "messages"] {
        let process = exact.get(&format!("gate.process.{what}"));
        let channel = exact.get(&format!("gate.channel.{what}"));
        if process != channel {
            nondeterministic.push(format!(
                "partition.{what}: process backend {process:?} vs channel backend {channel:?}"
            ));
        }
    }
    for (name, &v) in &exact {
        metrics.insert(name.clone(), v as f64);
    }
    let plain_wall: Vec<f64> = plain
        .iter()
        .filter(|r| r.ok())
        .filter_map(|r| r.parsed.metric("wall_ms"))
        .collect();
    if let (Some(&traced), Some(untraced)) =
        (metrics.get("workload.wall_ms"), stats::median(&plain_wall))
    {
        metrics.insert("trace.overhead_frac".to_string(), traced / untraced - 1.0);
        if let Some(&events) = exact.get("sim.events") {
            metrics.insert("sim.ns_per_event".to_string(), traced * 1e6 / events as f64);
        }
    }

    let all: Vec<&ChildRun> = plain.iter().chain(&layered).chain([&counters]).collect();
    Ok(Traced {
        attempted: all.len(),
        failed: all.iter().filter(|r| !r.ok()).count(),
        metrics,
        self_ms: self_times
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), stats::median(v)?)))
            .collect(),
        nondeterministic,
        first_failure: all
            .iter()
            .find_map(|r| r.failure.as_ref().map(|f| format!("{}: {f}", r.label))),
        children: layered
            .iter()
            .enumerate()
            .map(|(i, r)| (format!("{}-{i}", r.label), r.parsed.spans.clone()))
            .collect(),
    })
}

/// The error-rate self-test: a sample whose worker is killed once (the
/// supervisor heals it, the tables stay byte-identical) and a sample
/// checked against a corrupted golden must both count as failed.
pub fn selftest() -> Result<(), String> {
    let cluster = Workload::ClusterProcess.experiments();
    let chaos = spawn(
        Kind::Sample,
        Workload::ClusterProcess,
        &cluster,
        0,
        &[("MAIA_WORKER_CHAOS", "kill:1:once")],
        None,
    )?;
    let reason = chaos.failure.clone().unwrap_or_default();
    if !reason.contains("supervise counters nonzero") || reason.contains("golden") {
        return Err(format!(
            "a healed worker loss must fail the sample through the supervise counters \
             alone, got: {reason:?}"
        ));
    }

    let golden = Workload::ClusterChannel
        .golden()
        .expect("the cluster workloads have a golden");
    let mut text =
        std::fs::read_to_string(&golden).map_err(|e| format!("{}: {e}", golden.display()))?;
    text = text.replacen("| 2 | 272 | 64B |", "| 2 | 272 | 65B |", 1);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let corrupted = dir.join("selftest-golden.md");
    std::fs::write(&corrupted, text).map_err(|e| format!("{}: {e}", corrupted.display()))?;
    let mismatch = spawn(
        Kind::Sample,
        Workload::ClusterChannel,
        &cluster,
        0,
        &[],
        Some(&corrupted),
    )?;
    let reason = mismatch.failure.clone().unwrap_or_default();
    if !reason.contains("golden mismatch") {
        return Err(format!(
            "a corrupted golden must fail the sample, got: {reason:?}"
        ));
    }

    let summary = end_to_end(&[chaos, mismatch], None);
    if summary.failed != 2 || summary.error_rate != 1.0 {
        return Err(format!(
            "error_rate counted {} of 2 failed samples",
            summary.failed
        ));
    }
    Ok(())
}

/// One workload's results, as printed and written to `results.json`.
struct WorkloadResult {
    workload: Workload,
    e2e: Option<EndToEnd>,
    traced: Option<Traced>,
}

/// The untraced and traced phases `opts` asks for, per workload.
fn measure(opts: &Options, rng: &mut Rng) -> Result<Vec<WorkloadResult>, String> {
    let mut sampled = if opts.sample {
        sample_phase(&opts.workloads, opts.seconds, rng)?
    } else {
        Sampled {
            runs: BTreeMap::new(),
            ref_ms: BTreeMap::new(),
        }
    };
    let mut results = Vec::new();
    for &w in &opts.workloads {
        let traced = if opts.trace {
            Some(trace_phase(w, rng)?)
        } else {
            None
        };
        let nominal = if w.one_cpu() {
            NOMINAL_REF_MS_ONE_CPU
        } else {
            NOMINAL_REF_MS
        };
        let speed = sampled
            .ref_ms
            .get(&w)
            .and_then(|v| stats::median(v))
            .map(|m| nominal / m);
        results.push(WorkloadResult {
            workload: w,
            e2e: sampled.runs.remove(&w).map(|runs| end_to_end(&runs, speed)),
            traced,
        });
    }
    Ok(results)
}

/// Run everything `opts` asks for. Returns the process exit code.
pub fn run(opts: &Options) -> i32 {
    let mut rng = Rng::new(opts.seed);
    let measured = measure(opts, &mut rng);
    let results = match measured {
        Ok(results) => results,
        Err(e) => {
            eprintln!("maia-perf: {e}");
            return 1;
        }
    };

    let dir = out_dir();
    if let Err(e) = write_outputs(&dir, opts, &results) {
        eprintln!("maia-perf: writing {}: {e}", dir.display());
        return 1;
    }
    for r in &results {
        print_human(r);
    }
    let gate: Vec<String> = results
        .iter()
        .filter_map(|r| r.traced.as_ref().map(|t| (r.workload, t)))
        .flat_map(|(w, t)| {
            t.nondeterministic
                .iter()
                .map(move |n| format!("{}: {n}", w.name()))
        })
        .collect();
    if !gate.is_empty() {
        for line in &gate {
            eprintln!("maia-perf: exact counter not reproduced: {line}");
        }
        return 1;
    }
    println!("{}", result_line(&results));
    0
}

fn print_human(r: &WorkloadResult) {
    let name = r.workload.name();
    if let Some(e) = &r.e2e {
        let tail = e.tail.map_or("none".to_string(), |q| format!("p{q}"));
        let speed = e
            .speed
            .map_or("not measured (timings as measured)".to_string(), |s| {
                format!("{s:.4} of the defining host's")
            });
        println!(
            "{name}: {} samples, {} failed; highest percentile with >=10 samples beyond: {tail}; \
             host speed {speed}",
            e.attempted, e.failed
        );
        for m in &END_TO_END {
            if let Some(v) = e.metrics.get(m.name) {
                println!(
                    "  {:<28} {v:>14.4} {}  (bound +{:.0}%; measured {:.4})",
                    m.name,
                    m.unit,
                    m.bound * 100.0,
                    e.measured[m.name]
                );
            }
        }
        println!("  {:<28} {:>14.4} fraction", "error_rate", e.error_rate);
        if let Some(f) = &e.first_failure {
            println!("  first failure: {f}");
        }
    }
    if let Some(t) = &r.traced {
        println!(
            "{name} traced: {} children, {} failed",
            t.attempted, t.failed
        );
        for m in &PER_LAYER {
            if let Some(v) = t.metrics.get(m.name) {
                let note = match (m.exact, m.higher) {
                    (true, _) => "  exact",
                    (false, true) => "  higher is better",
                    (false, false) => "",
                };
                println!("  {:<28} {v:>14.4} {}{note}", m.name, m.unit);
            }
        }
        if let Some(f) = &t.first_failure {
            println!("  first failure: {f}");
        }
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_number(value)
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The last stdout line: correctness, attempts, failures and the metrics
/// of the phase that ran (end-to-end untraced, per-layer traced). With
/// several workloads, names are prefixed by the workload.
fn result_line(results: &[WorkloadResult]) -> String {
    let prefix = |w: Workload| {
        if results.len() > 1 {
            format!("{}/", w.name())
        } else {
            String::new()
        }
    };
    let (mut attempted, mut failed, mut fields) = (0, 0, Vec::new());
    for r in results {
        if let Some(e) = &r.e2e {
            attempted += e.attempted;
            failed += e.failed;
            for m in &END_TO_END {
                if let Some(&v) = e.metrics.get(m.name) {
                    fields.push(metric_json(
                        &format!("{}{}", prefix(r.workload), m.name),
                        v,
                        m.unit,
                    ));
                }
            }
        }
        if let Some(t) = &r.traced {
            attempted += t.attempted;
            failed += t.failed;
            for m in &PER_LAYER {
                if let Some(&v) = t.metrics.get(m.name) {
                    fields.push(metric_json(
                        &format!("{}{}", prefix(r.workload), m.name),
                        v,
                        m.unit,
                    ));
                }
            }
        }
    }
    let declared = results.iter().map(|r| {
        r.e2e.as_ref().map_or(0, |_| END_TO_END.len())
            + r.traced.as_ref().map_or(0, |_| PER_LAYER.len())
    });
    let correct = failed == 0 && fields.len() == declared.sum::<usize>();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn write_outputs(dir: &Path, opts: &Options, results: &[WorkloadResult]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut workloads = Vec::new();
    for r in results {
        let mut parts = Vec::new();
        if let Some(e) = &r.e2e {
            let metrics = |values: &BTreeMap<&str, f64>| -> String {
                END_TO_END
                    .iter()
                    .filter_map(|m| Some(metric_json(m.name, *values.get(m.name)?, m.unit)))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let walls: Vec<String> = e.wall_ms.iter().map(|&v| json_number(v)).collect();
            parts.push(format!(
                "\"samples\": {}, \"failed\": {}, \"error_rate\": {}, \"tail_percentile\": {}, \
                 \"host_speed\": {}, \"end_to_end\": {{{}}}, \"measured\": {{{}}}, \
                 \"sample_wall_ms\": [{}]",
                e.attempted,
                e.failed,
                json_number(e.error_rate),
                e.tail.map_or("null".to_string(), |q| q.to_string()),
                e.speed.map_or("null".to_string(), json_number),
                metrics(&e.metrics),
                metrics(&e.measured),
                walls.join(", ")
            ));
        }
        if let Some(t) = &r.traced {
            let unit = |name: &str| {
                PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map_or("", |m| m.unit)
            };
            let per_layer: Vec<String> = t
                .metrics
                .iter()
                .map(|(n, &v)| metric_json(n, v, unit(n)))
                .collect();
            let self_ms: Vec<String> = t
                .self_ms
                .iter()
                .map(|(n, &v)| format!("\"{n}\": {}", json_number(v)))
                .collect();
            parts.push(format!(
                "\"traced_children\": {}, \"traced_failed\": {}, \"per_layer\": {{{}}}, \
                 \"self_ms\": {{{}}}",
                t.attempted,
                t.failed,
                per_layer.join(", "),
                self_ms.join(", ")
            ));
            std::fs::write(
                dir.join(format!("trace-{}.json", r.workload.name())),
                trace::chrome_trace(&t.children),
            )?;
        }
        workloads.push(format!(
            "\"{}\": {{{}}}",
            r.workload.name(),
            parts.join(", ")
        ));
    }
    std::fs::write(
        dir.join("results.json"),
        format!(
            "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
            opts.seed,
            opts.seconds,
            workloads.join(",\n")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(wall_ms: f64, setup_s: f64, failure: Option<&str>) -> ChildRun {
        let mut parsed = Parsed::default();
        for line in [
            format!("m wall_ms {wall_ms}"),
            format!("m rss_mb {}", 10.0 + wall_ms),
        ] {
            parsed.line(&line);
        }
        ChildRun {
            label: "sample-sweep".to_string(),
            setup_s: Some(setup_s),
            elapsed_s: 0.05,
            cpu_ms: Some(30.0),
            parsed,
            failure: failure.map(str::to_string),
        }
    }

    #[test]
    fn end_to_end_excludes_failed_samples_from_timings() {
        let runs = [
            run(10.0, 0.002, None),
            run(30.0, 0.004, None),
            run(1000.0, 1.0, Some("golden mismatch")),
        ];
        let e = end_to_end(&runs, None);
        assert_eq!((e.attempted, e.failed), (3, 1));
        assert_eq!(e.metrics["wall_ms.p50"], 20.0);
        assert_eq!(e.metrics["setup_s"], 0.003);
        assert_eq!(e.metrics["peak_rss_mb"], 40.0);
        assert_eq!(e.metrics["cpu_ms.mean"], 30.0);
        assert!((e.error_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.first_failure.as_deref(), Some("golden mismatch"));
    }

    #[test]
    fn host_speed_rescales_timings_only() {
        let runs = [run(10.0, 0.002, None), run(30.0, 0.004, None)];
        // A host at half the defining host's speed doubles every time.
        let e = end_to_end(&runs, Some(0.5));
        assert_eq!(e.measured["wall_ms.p50"], 20.0);
        assert_eq!(e.metrics["wall_ms.p50"], 10.0);
        assert_eq!(e.metrics["wall_ms.p90"], e.measured["wall_ms.p90"] / 2.0);
        assert_eq!(e.metrics["cpu_ms.mean"], 15.0);
        assert_eq!(e.metrics["setup_s"], 0.0015);
        assert_eq!(e.metrics["peak_rss_mb"], 40.0);
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let runs: Vec<ChildRun> = (0..20)
            .map(|i| run(10.0 + f64::from(i), 0.002, None))
            .collect();
        let results = [WorkloadResult {
            workload: Workload::Sweep,
            e2e: Some(end_to_end(&runs, Some(1.0))),
            traced: None,
        }];
        let line = result_line(&results);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 20, \"failed\": 0"),
            "{line}"
        );
        for m in &END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{line}"
            );
        }
        assert!(
            !line.contains("error_rate"),
            "error_rate is zero by design and not declared"
        );
    }
}
