//! Argument parsing and driver for the `maia-bench` binary.
//!
//! Kept in the library (not `src/bin/`) so the parser and the runner are
//! unit-testable without spawning processes. The grammar is deliberately
//! tiny — no external argument-parsing crate. One loop matches each
//! `(flag, subcommand)` pair into one `Invocation`, so a flag parses the
//! same under every subcommand that takes it and an unknown flag exits
//! with code 2 under all of them; one `execute` runs the subcommand and
//! returns its stdout text, stderr text and exit code. [`USAGE`] is the
//! single source of truth for every subcommand. The `MAIA_*` knobs are
//! read here, once per invocation, into the [`RunConfig`] a subcommand
//! runs under; nothing below the CLI reads the environment.

use std::ffi::OsString;
use std::path::{Path, PathBuf};

use maia_core::{
    check_sweep, faults, run_experiments_parallel, telemetry, ExperimentSelection, FigureData,
    RunConfig, SweepReport,
};
use maia_mpi::fastpath::EngineMode;
use maia_mpi::process_backend::Backend;

/// Output format for experiment tables and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// GitHub-flavoured Markdown (default).
    Md,
    /// Comma-separated values (`run` tables only).
    Csv,
    /// JSON objects.
    Json,
}

impl Format {
    fn parse(text: &str) -> Result<Format, String> {
        match text {
            "md" | "markdown" => Ok(Format::Md),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!(
                "unknown format '{other}' (expected md, csv or json)"
            )),
        }
    }
}

/// A `maia-bench` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    Run,
    Check,
    Profile,
    Faults,
    Crosscheck,
    List,
    Report,
    /// Internal: host one event wheel of a `--backend process` run,
    /// speaking the wire protocol on stdin/stdout. Spawned by the
    /// supervisor, not by hand.
    PartitionWorker,
    Help,
}

/// One parsed command line: the subcommand and the value of every flag,
/// defaults filled in. Only the subcommands that take a flag can set its
/// field.
#[derive(Debug, PartialEq)]
struct Invocation {
    sub: Sub,
    /// `--only CODES`, else every experiment (`--all`).
    selection: ExperimentSelection,
    /// `--format`: of `run`'s tables, or of the report (on `profile`,
    /// `--metrics` wins).
    format: Format,
    /// `--out`: a directory of tables for `run`, a report file otherwise.
    out: Option<PathBuf>,
    /// `--jobs`: worker threads (`None`: one per available core).
    jobs: Option<usize>,
    /// `--engine`: how the collective figures are computed.
    engine: EngineMode,
    /// `--partitions`: event wheels (on `partition-worker`, the run's
    /// total, at least 2).
    partitions: usize,
    /// `--backend`: exchange transport of partitioned runs.
    backend: Backend,
    /// `run --bench-json`: where to write the sweep timing record.
    bench_json: Option<PathBuf>,
    /// `run`/`check --metrics`: also print the telemetry report to stderr
    /// in this format.
    metrics: Option<Format>,
    /// `profile --trace`: where to write the Chrome trace.
    trace: Option<PathBuf>,
    /// `faults --plan` (required): a canned plan name or a plan file.
    plan: Option<String>,
    /// `partition-worker --wheel` (required): the wheel this worker hosts.
    wheel: Option<usize>,
}

/// Usage text shown by `help` and on parse errors — the one source of
/// truth for every subcommand.
pub const USAGE: &str = "\
maia-bench — regenerate, validate and profile the paper's tables and figures

USAGE:
    maia-bench run     [COMMON] [--bench-json PATH] [--metrics md|json]
    maia-bench check   [COMMON] [--metrics md|json]
    maia-bench profile [COMMON] [--trace PATH] [--metrics md|json]
    maia-bench faults  [COMMON] --plan NAME|FILE
    maia-bench crosscheck [--jobs N] [--partitions N] [--out PATH]
    maia-bench list
    maia-bench report  (prints EXPERIMENTS.md to stdout)
    maia-bench help
    maia-bench partition-worker --wheel W --partitions N   (internal: one
                       event wheel of a --backend process run; spawned by
                       the supervisor, protocol on stdin/stdout)

COMMON OPTIONS (shared by run, check, profile and faults):
    --all              Select every experiment (default when --only absent)
    --only CODES       Comma-separated codes: F04,F21 (also f4, fig_04, table1)
    --format FORMAT    md (default), csv or json (reports: md or json only)
    --out PATH         run: directory, one file per experiment; check/profile:
                       write the report to this file instead of stdout
    --jobs N           Worker threads (default: available cores)
    --engine MODE      auto (default), des or fast. The collective figures
                       (F10-F14, C01, C02) normally take an exact closed-form
                       fast path; des forces every cell through the
                       discrete-event engine (for debugging), fast forces the
                       closed forms even when a fault plan or probe would
                       otherwise demand the DES
    --partitions N     Event wheels for the partitioned cluster DES (C01,
                       C02): wheel 0 on the calling thread, the others on
                       scoped threads, domains folded round-robin. Figure
                       data and virtual-side telemetry are bit-identical at
                       every N (default 1); N > 1 only changes wall-clock time
    --backend B        Exchange transport for partitioned cluster runs:
                       channel (default; wheels on threads) or process
                       (wheels 1..N in supervised worker processes with
                       heartbeats, seeded retry/backoff respawn, and
                       graceful degradation to in-process execution).
                       Figure data and virtual-side telemetry are
                       bit-identical across backends

ENVIRONMENT (read once at entry by every subcommand that runs experiments;
a malformed value, or a MAIA_* name that is none of these, exits 2 naming
the variable):
    MAIA_EXPERIMENT_TIMEOUT_S    watchdog, finite seconds in (0, 86400] (300)
    MAIA_FAULT_PANIC|_DEADLOCK|_HANG  experiment codes to kill that way
    MAIA_SUPERVISE_RETRIES       worker respawns after a loss, 0..=32 (2)
    MAIA_SUPERVISE_DEGRADE       1 (default) degrades to in-process when
                                 retries run out; 0 fails the experiment
    MAIA_SUPERVISE_HEARTBEAT_MS  worker heartbeat, 1..=60000 ms (100)
    MAIA_WORKER_CHAOS            panic-on-connect, stall or kill:<window>,
                                 optionally followed by :once
    MAIA_WORKER_BIN              worker binary (default: this executable)

run:
    --bench-json PATH  Write the sweep timing record (BENCH_*.json) to PATH
    --metrics FORMAT   Also print the telemetry metrics report to stderr

check:
    --metrics FORMAT   Also print the telemetry metrics report to stderr
    Regenerates the selected experiments and evaluates every oracle
    predicate bound to them; the one-line verdict goes to stderr.

profile:
    --trace PATH       Write a Chrome trace-event JSON file (load it in
                       Perfetto or chrome://tracing)
    --metrics FORMAT   Report format for stdout/--out: md (default) or json
    Runs the selection with the instrumentation layer enabled and reports
    event counts, cache hits/misses, per-subsystem virtual time, scheduler
    activity and worker utilization. All virtual-time fields are
    bit-identical across runs at a fixed --jobs; wall-clock fields live in
    a separate 'wall' section (cat \"wall\" in the trace).

faults:
    --plan NAME|FILE   Canned plan (degraded-stack, dead-card, gddr-degraded,
                       straggler) or a fault-plan text file
    Runs the selection twice — nominal, then with the plan's deterministic
    faults armed — and reports per-experiment deltas, injected model time
    and mode switches. Same plan + seed + --jobs => bit-identical report.

crosscheck:
    Computes every F10-F14 and C01-C02 cell twice — once on the
    discrete-event engine (the cluster cells run partitioned at
    --partitions N), once through the closed-form fast paths — and
    compares the formatted tables cell by cell. Exits 0 on an exact
    match, 1 on any mismatch.

EXIT CODES (shared by every subcommand):
    0  success: every experiment completed (check: and all predicates
       conformant)
    1  conformance violations (check), experiment failures isolated by the
       fail-soft executor (panic/deadlock/timeout; partial report is still
       printed), or any other runtime failure
    2  usage error (unknown subcommand, flag, experiment code or format, or
       a malformed or unknown MAIA_* knob)

Tables go to stdout (or --out); the per-experiment timing summary always
goes to stderr. A sweep with failures still prints every completed
experiment before exiting 1.
";

/// The value following flag `name`.
fn value(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{name} requires a value"))
}

/// The positive integer following flag `name`.
fn positive(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<usize, String> {
    let n = value(it, name)?.parse::<usize>().ok().filter(|&n| n >= 1);
    n.ok_or_else(|| format!("{name} requires a positive integer"))
}

/// Parse the argument list (without the program name). Flags are
/// checked as they come, each given at most once, so an unknown,
/// repeated or malformed one is the error even when a check on the whole
/// line below would also fail.
fn parse(args: &[String]) -> Result<Invocation, String> {
    use Sub::*;
    let it = &mut args.iter();
    let name = it.next().map_or("help", String::as_str);
    let sub = match name {
        "run" => Run,
        "check" => Check,
        "profile" => Profile,
        "faults" => Faults,
        "crosscheck" => Crosscheck,
        "list" => List,
        "report" => Report,
        "partition-worker" => PartitionWorker,
        "help" | "--help" | "-h" => Help,
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    let mut inv = Invocation {
        sub,
        selection: ExperimentSelection::All,
        format: Format::Md,
        out: None,
        jobs: None,
        engine: EngineMode::Auto,
        partitions: 1,
        backend: Backend::Channel,
        bench_json: None,
        metrics: None,
        trace: None,
        plan: None,
        wheel: None,
    };
    let mut all = false;
    let mut seen: Vec<&str> = Vec::new();
    while let Some(arg) = it.next() {
        // A flag given twice would silently keep its last value.
        if seen.contains(&arg.as_str()) {
            return Err(format!("{arg} given twice"));
        }
        seen.push(arg);
        match (arg.as_str(), sub) {
            (_, Help | List | Report) => {
                let name = if sub == Help { "help" } else { name };
                return Err(format!("unknown argument '{arg}' ({name} takes none)"));
            }
            ("--all", Run | Check | Profile | Faults) => all = true,
            ("--only", Run | Check | Profile | Faults) => {
                inv.selection = ExperimentSelection::from_spec(&value(it, "--only")?)?;
            }
            ("--format", Run | Check | Profile | Faults) => {
                inv.format = Format::parse(&value(it, "--format")?)?;
            }
            ("--engine", Run | Check | Profile | Faults) => {
                inv.engine = EngineMode::parse(&value(it, "--engine")?)?;
            }
            ("--backend", Run | Check | Profile | Faults) => {
                let spec = value(it, "--backend")?;
                inv.backend = Backend::parse(&spec)
                    .ok_or_else(|| format!("unknown backend '{spec}' (channel or process)"))?;
            }
            ("--jobs", Run | Check | Profile | Faults | Crosscheck) => {
                inv.jobs = Some(positive(it, "--jobs")?);
            }
            ("--partitions", Run | Check | Profile | Faults | Crosscheck) => {
                inv.partitions = positive(it, "--partitions")?;
            }
            ("--out", Run | Check | Profile | Faults | Crosscheck) => {
                inv.out = Some(PathBuf::from(value(it, "--out")?));
            }
            ("--bench-json", Run) => {
                inv.bench_json = Some(PathBuf::from(value(it, "--bench-json")?));
            }
            ("--metrics", Run | Check | Profile) => {
                inv.metrics = match Format::parse(&value(it, "--metrics")?)? {
                    Format::Csv => return Err("--metrics is md or json, not csv".into()),
                    format => Some(format),
                };
            }
            ("--trace", Profile) => inv.trace = Some(PathBuf::from(value(it, "--trace")?)),
            ("--plan", Faults) => inv.plan = Some(value(it, "--plan")?),
            ("--wheel", PartitionWorker) => {
                let wheel = value(it, "--wheel")?.parse();
                inv.wheel = Some(wheel.map_err(|_| "--wheel requires an integer")?);
            }
            ("--partitions", PartitionWorker) => {
                let n = value(it, "--partitions")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 2);
                inv.partitions = n.ok_or("--partitions requires an integer >= 2")?;
            }
            (other, _) => return Err(format!("unknown argument '{other}'")),
        }
    }
    if all && inv.selection != ExperimentSelection::All {
        return Err("--all and --only are mutually exclusive".into());
    }
    if inv.format == Format::Csv && sub != Run {
        return Err(format!("{name} reports are md or json, not csv"));
    }
    if sub == Faults && inv.plan.is_none() {
        return Err("faults requires --plan NAME|FILE".into());
    }
    if sub == PartitionWorker {
        let wheel = inv.wheel.ok_or("partition-worker requires --wheel")?;
        // A worker's `--partitions` parses only at 2 or more, so the
        // default 1 means it was not given.
        if inv.partitions == 1 {
            return Err("partition-worker requires --partitions".into());
        }
        if wheel == 0 || wheel >= inv.partitions {
            return Err(format!(
                "--wheel must be in 1..{} (hub owns wheel 0)",
                inv.partitions
            ));
        }
    }
    // `--metrics` is the documented spelling of the profile report
    // format; it wins over `--format` when both appear.
    if sub == Profile {
        inv.format = inv.metrics.take().unwrap_or(inv.format);
    }
    Ok(inv)
}

/// Resolve `--plan`: a canned name first, else a fault-plan text file.
fn resolve_plan(spec: &str) -> Result<faults::FaultPlan, String> {
    if let Some(plan) = faults::FaultPlan::named(spec) {
        return Ok(plan);
    }
    let path = Path::new(spec);
    if path.exists() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading fault plan {spec}: {e}"))?;
        return faults::FaultPlan::parse(&text);
    }
    Err(format!(
        "unknown fault plan '{spec}' (canned plans: {}; or pass a plan file)",
        faults::PLAN_NAMES.join(", ")
    ))
}

/// Render the `list` subcommand.
fn render_list() -> String {
    let mut out = String::new();
    for id in maia_core::all_experiments() {
        let meta = id.meta();
        out.push_str(&format!("{:<4} {}\n", meta.code, meta.title));
    }
    out
}

fn render_metrics(profile: &maia_core::ProfileReport, fmt: Format) -> String {
    match fmt {
        Format::Json => profile.to_json(),
        _ => profile.to_markdown(),
    }
}

fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// A rendered report as the text to print: the report itself, or the
/// path it was written to with `--out`.
fn deliver(rendered: String, out: Option<&Path>) -> Result<String, String> {
    let Some(path) = out else { return Ok(rendered) };
    write(path, rendered)?;
    Ok(format!("{}\n", path.display()))
}

/// Run `inv` under `cfg`: its stdout text, its stderr text and its exit
/// code. The files `--out`, `--trace` and `--bench-json` name are
/// written on the way; one that cannot be written, or a fault plan that
/// cannot be read, is the error.
fn execute(inv: &Invocation, cfg: &RunConfig) -> Result<(String, String, i32), String> {
    let json = inv.format == Format::Json;
    let out = inv.out.as_deref();
    let jobs = inv
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if inv.sub == Sub::Profile || inv.metrics.is_some() {
        telemetry::enable();
    }
    let sweep = || run_experiments_parallel(cfg, &inv.selection.resolve(), jobs);
    let metrics = |sweep: &SweepReport| match inv.metrics {
        Some(fmt) => render_metrics(&telemetry::collect(sweep), fmt),
        None => String::new(),
    };
    let (stdout, stderr, failed) = match inv.sub {
        Sub::Help => (USAGE.to_string(), String::new(), false),
        Sub::List => (render_list(), String::new(), false),
        Sub::Report => (crate::render_experiments_md(cfg), String::new(), false),
        Sub::Run => {
            let sweep = sweep();
            let (ext, render): (_, fn(&FigureData) -> String) = match inv.format {
                Format::Md => ("md", FigureData::to_markdown),
                Format::Csv => ("csv", FigureData::to_csv),
                Format::Json => ("json", FigureData::to_json),
            };
            let mut tables = String::new();
            if let Some(dir) = out {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                for run in &sweep.runs {
                    let path = dir.join(format!("{}.{ext}", run.id.meta().code));
                    write(&path, render(&run.data))?;
                    tables.push_str(&format!("{}\n", path.display()));
                }
            } else {
                for run in &sweep.runs {
                    tables.push_str(&render(&run.data));
                    tables.push('\n');
                }
            }
            if let Some(path) = &inv.bench_json {
                write(path, sweep.to_bench_json())?;
            }
            // A failed experiment still leaves every completed table
            // printed in full; it only sets the exit code.
            (
                tables,
                sweep.timing_summary() + &metrics(&sweep),
                !sweep.failures.is_empty(),
            )
        }
        Sub::Check => {
            let sweep = sweep();
            let report = check_sweep(&sweep);
            let text = if json {
                report.to_json()
            } else {
                report.to_markdown()
            };
            let mut stderr = metrics(&sweep);
            for f in &sweep.failures {
                stderr.push_str(&format!("{}\n", f.to_line()));
            }
            stderr.push_str(&format!("maia-bench check: {}\n", report.summary()));
            let failed = !sweep.failures.is_empty() || !report.is_conformant();
            (deliver(text, out)?, stderr, failed)
        }
        Sub::Profile => {
            let sweep = sweep();
            let profile = telemetry::collect(&sweep);
            if let Some(path) = &inv.trace {
                write(path, profile.to_chrome_trace())?;
            }
            let text = render_metrics(&profile, inv.format);
            (
                deliver(text, out)?,
                sweep.timing_summary(),
                !sweep.failures.is_empty(),
            )
        }
        Sub::Faults => {
            let plan = resolve_plan(inv.plan.as_deref().expect("parse requires faults --plan"))?;
            let report = faults::run_resilience(cfg, &plan, &inv.selection, jobs);
            let text = if json {
                report.to_json()
            } else {
                report.to_markdown()
            };
            (deliver(text, out)?, String::new(), report.has_failures())
        }
        Sub::Crosscheck => {
            let report = maia_core::run_crosscheck_under(cfg, jobs);
            (
                deliver(report.to_markdown(), out)?,
                String::new(),
                !report.is_match(),
            )
        }
        Sub::PartitionWorker => unreachable!("main_with_args serves partition-worker itself"),
    };
    Ok((stdout, stderr, i32::from(failed)))
}

/// The run configuration `inv` runs under: the engine, wheel count and
/// backend its flags select, this process's `MAIA_*` knobs (the one
/// place the binary reads its environment), and this executable as the
/// default worker binary.
fn knob_config(inv: &Invocation) -> Result<RunConfig, String> {
    if matches!(inv.sub, Sub::List | Sub::Help) {
        return Ok(RunConfig::default());
    }
    let own = std::env::current_exe()
        .ok()
        .map(|exe| (OsString::from("MAIA_WORKER_BIN"), exe.into_os_string()));
    RunConfig::new(inv.engine, inv.partitions, inv.backend)
        .with_knobs(own.into_iter().chain(std::env::vars_os()))
}

/// The whole binary, minus `std::process::exit`: parse the arguments and
/// the knobs, execute, print. Every subcommand goes through here, so all
/// of them get the same usage text and exit-code contract.
pub fn main_with_args(args: &[String]) -> i32 {
    let parsed = parse(args).and_then(|inv| Ok((knob_config(&inv)?, inv)));
    let (cfg, inv) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("maia-bench: {e}\n\n{USAGE}");
            return 2;
        }
    };
    // A worker speaks the wire protocol on stdin/stdout, one job after
    // another, until the hub closes stdin, and exits 1 on a protocol or
    // IO error (the hub sees EOF: a worker loss). Its stdout *is* the
    // protocol channel, so nothing else may print there.
    if let (Sub::PartitionWorker, Some(wheel)) = (inv.sub, inv.wheel) {
        let (stdin, stdout) = (Box::new(std::io::stdin()), Box::new(std::io::stdout()));
        return match maia_core::supervise::serve_worker(&cfg, wheel, inv.partitions, stdin, stdout)
        {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("maia-bench partition-worker (wheel {wheel}): {e}");
                1
            }
        };
    }
    let (stdout, stderr, code) =
        execute(&inv, &cfg).unwrap_or_else(|e| (String::new(), format!("maia-bench: {e}\n"), 1));
    print!("{stdout}");
    eprint!("{stderr}");
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_core::{all_experiments, ExperimentId};

    fn parse_ok(args: &[&str]) -> Invocation {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&owned).expect("parse failed")
    }

    #[test]
    fn run_defaults_to_all_experiments() {
        let inv = parse_ok(&["run", "--jobs", "2"]);
        assert_eq!(inv.sub, Sub::Run);
        assert_eq!(inv.selection, ExperimentSelection::All);
        assert_eq!(inv.selection.resolve(), all_experiments());
        assert_eq!(inv.jobs, Some(2));
        assert_eq!(inv.format, Format::Md);
        assert!(inv.out.is_none());
        assert!(inv.metrics.is_none());
    }

    #[test]
    fn only_accepts_every_code_spelling() {
        let inv = parse_ok(&["run", "--only", "F04,f21,table1", "--format", "json"]);
        assert_eq!(
            inv.selection,
            ExperimentSelection::Ids(vec![
                ExperimentId::F4Stream,
                ExperimentId::F21Cart3d,
                ExperimentId::T1Table
            ])
        );
        assert_eq!(inv.format, Format::Json);
    }

    #[test]
    fn subcommands_share_the_common_flags() {
        // The same flag spellings must parse identically under run,
        // check, profile and faults: one loop reads them all.
        let flags = [
            "--only",
            "fig_05",
            "--jobs",
            "3",
            "--format",
            "json",
            "--partitions",
            "2",
        ];
        let parsed: Vec<Invocation> = ["run", "check", "profile", "faults"]
            .into_iter()
            .map(|sub| {
                let mut args = vec![sub];
                if sub == "faults" {
                    args.extend(["--plan", "straggler"]);
                }
                args.extend_from_slice(&flags);
                Invocation {
                    sub: Sub::Run,
                    plan: None,
                    ..parse_ok(&args)
                }
            })
            .collect();
        for inv in &parsed[1..] {
            assert_eq!(inv, &parsed[0]);
        }
    }

    #[test]
    fn profile_metrics_flag_sets_report_format() {
        let inv = parse_ok(&[
            "profile",
            "--only",
            "F05",
            "--metrics",
            "json",
            "--trace",
            "/tmp/t.json",
        ]);
        assert_eq!(inv.format, Format::Json);
        assert_eq!(inv.metrics, None, "profile prints no second metrics report");
        assert_eq!(inv.trace, Some(PathBuf::from("/tmp/t.json")));
        let inv = parse_ok(&["run", "--metrics", "json"]);
        assert_eq!((inv.format, inv.metrics), (Format::Md, Some(Format::Json)));
    }

    #[test]
    fn bad_inputs_are_rejected_for_every_subcommand() {
        for bad in [
            vec!["run", "--only", "F99"],
            vec!["run", "--jobs", "0"],
            vec!["run", "--format", "xml"],
            vec!["run", "--all", "--only", "F04"],
            vec!["run", "--trace", "x.json"], // profile-only flag
            vec!["check", "--format", "csv"],
            vec!["check", "--bench-json", "x.json"], // run-only flag
            vec!["profile", "--only", "F98"],
            vec!["profile", "--format", "csv"],
            vec!["profile", "--metrics", "csv"],
            vec!["profile", "--wat"],
            vec!["run", "--engine", "warp"],
            vec!["run", "--engine"], // missing value
            vec!["run", "--partitions", "0"],
            vec!["check", "--partitions", "-1"],
            vec!["crosscheck", "--partitions", "0"],
            vec!["run", "--backend", "carrier-pigeon"],
            vec!["run", "--backend"], // missing value
            vec!["partition-worker"], // both flags mandatory
            vec!["partition-worker", "--wheel", "1"],
            vec!["partition-worker", "--wheel", "0", "--partitions", "4"],
            vec!["partition-worker", "--wheel", "4", "--partitions", "4"],
            vec!["partition-worker", "--wheel", "1", "--partitions", "1"],
            vec!["faults"],           // --plan is mandatory
            vec!["faults", "--plan"], // missing value
            vec!["faults", "--plan", "x", "--format", "csv"],
            vec!["faults", "--plan", "x", "--trace", "t.json"], // profile-only
            vec!["crosscheck", "--only", "F10"],                // fixed closed-form scope
            vec!["crosscheck", "--jobs", "0"],
            vec!["crosscheck", "--engine", "des"], // both engines always run
            vec!["frobnicate"],
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse(&owned).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn engine_flag_parses_on_every_sweep_subcommand() {
        for sub in ["run", "check", "profile"] {
            assert_eq!(
                parse_ok(&[sub, "--engine", "des"]).engine,
                EngineMode::Des,
                "{sub}"
            );
        }
        assert_eq!(
            parse_ok(&["run", "--engine", "fastpath"]).engine,
            EngineMode::Fast
        );
        assert_eq!(parse_ok(&["run", "--jobs", "2"]).engine, EngineMode::Auto);
    }

    #[test]
    fn crosscheck_parses_jobs_and_out() {
        let inv = parse_ok(&["crosscheck", "--jobs", "3", "--out", "/tmp/x.md"]);
        assert_eq!(inv.sub, Sub::Crosscheck);
        assert_eq!(inv.jobs, Some(3));
        assert_eq!(inv.partitions, 1);
        assert_eq!(inv.out, Some(PathBuf::from("/tmp/x.md")));
    }

    #[test]
    fn partitions_flag_parses_everywhere_and_defaults_to_one() {
        for sub in ["run", "check", "profile", "crosscheck"] {
            assert_eq!(parse_ok(&[sub, "--partitions", "4"]).partitions, 4, "{sub}");
        }
        assert_eq!(parse_ok(&["run", "--jobs", "2"]).partitions, 1);
        assert_eq!(parse_ok(&["crosscheck", "--partitions", "8"]).partitions, 8);
    }

    #[test]
    fn backend_flag_parses_and_defaults_to_channel() {
        for sub in ["run", "check", "profile"] {
            assert_eq!(
                parse_ok(&[sub, "--backend", "process"]).backend,
                Backend::Process,
                "{sub}"
            );
        }
        assert_eq!(parse_ok(&["run", "--jobs", "2"]).backend, Backend::Channel);
    }

    #[test]
    fn partition_worker_parses_wheel_and_partitions() {
        let inv = parse_ok(&["partition-worker", "--wheel", "2", "--partitions", "4"]);
        assert_eq!(
            (inv.sub, inv.wheel, inv.partitions),
            (Sub::PartitionWorker, Some(2), 4)
        );
    }

    #[test]
    fn faults_parses_plan_and_common_flags() {
        let inv = parse_ok(&[
            "faults",
            "--plan",
            "degraded-stack",
            "--only",
            "F08",
            "--jobs",
            "2",
        ]);
        assert_eq!(inv.plan.as_deref(), Some("degraded-stack"));
        assert_eq!(inv.jobs, Some(2));
        assert_eq!(
            inv.selection,
            ExperimentSelection::Ids(vec![ExperimentId::F8PcieBandwidth])
        );
    }

    #[test]
    fn resolve_plan_accepts_canned_names_and_files() {
        let canned = resolve_plan("degraded-stack").expect("canned plan");
        assert_eq!(canned.name, "degraded-stack");
        assert!(resolve_plan("no-such-plan-or-file").is_err());

        let path = std::env::temp_dir().join("maia-cli-plan-test.txt");
        std::fs::write(&path, canned.to_text()).unwrap();
        let from_file = resolve_plan(path.to_str().unwrap()).expect("plan file");
        assert_eq!(from_file, canned);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn usage_documents_the_exit_code_contract() {
        for needle in ["EXIT CODES", "faults", "--plan", "usage error"] {
            assert!(USAGE.contains(needle), "USAGE lacks {needle:?}");
        }
    }

    #[test]
    fn list_mentions_every_code() {
        let listing = render_list();
        for id in all_experiments() {
            assert!(listing.contains(id.meta().code));
        }
    }

    #[test]
    fn run_writes_files_and_bench_json() {
        let dir = std::env::temp_dir().join("maia-bench-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        let bench = dir.join("BENCH.json");
        let inv = parse_ok(&[
            "run",
            "--only",
            "T01,F17",
            "--format",
            "csv",
            "--out",
            dir.to_str().unwrap(),
            "--jobs",
            "2",
            "--bench-json",
            bench.to_str().unwrap(),
        ]);
        let (stdout, stderr, code) = execute(&inv, &RunConfig::default()).expect("run failed");
        assert_eq!(code, 0, "{stderr}");
        // One written path per experiment, named by its code, each file a
        // header and at least one row.
        let paths: Vec<&str> = stdout.lines().collect();
        assert_eq!(paths.len(), 2, "{stdout}");
        assert!(
            paths[0].ends_with("T01.csv") && paths[1].ends_with("F17.csv"),
            "{stdout}"
        );
        for path in paths {
            let csv = std::fs::read_to_string(path).unwrap();
            assert!(csv.lines().count() >= 2, "{path} nearly empty");
        }
        let bench = std::fs::read_to_string(bench).unwrap();
        assert!(bench.contains("\"jobs\": 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
