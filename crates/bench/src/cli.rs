//! Argument parsing and driver for the `maia-bench` binary.
//!
//! Kept in the library (not `src/bin/`) so the parser and the render
//! paths are unit-testable without spawning processes. The grammar is
//! deliberately tiny — no external argument-parsing crate. Every
//! subcommand shares one flag vocabulary ([`CommonArgs`]) and one
//! experiment-selection type ([`maia_core::ExperimentSelection`]), so
//! `run`, `check` and `profile` cannot drift apart; [`USAGE`] is the
//! single source of truth for all of them, and every unknown flag exits
//! with code 2 everywhere. The `MAIA_*` knobs are read here, once per
//! invocation, into the [`RunConfig`] a subcommand runs under; nothing
//! below the CLI reads the environment.

use std::ffi::OsString;
use std::path::PathBuf;

use maia_core::{
    check_sweep, faults, run_experiments_parallel, telemetry, ConformanceReport,
    ExperimentSelection, RunConfig, SweepReport,
};
use maia_mpi::fastpath::EngineMode;
use maia_mpi::process_backend::Backend;

/// Output format for experiment tables and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// GitHub-flavoured Markdown (default).
    Md,
    /// Comma-separated values.
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
            other => Err(format!("unknown format '{other}' (expected md, csv or json)")),
        }
    }

    fn parse_report(text: &str, what: &str) -> Result<Format, String> {
        match Format::parse(text)? {
            Format::Csv => Err(format!("{what} is md or json, not csv")),
            f => Ok(f),
        }
    }

    /// File extension used with `--out`.
    pub fn extension(self) -> &'static str {
        match self {
            Format::Md => "md",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }

    fn render(self, data: &maia_core::FigureData) -> String {
        match self {
            Format::Md => data.to_markdown(),
            Format::Csv => data.to_csv(),
            Format::Json => data.to_json(),
        }
    }
}

/// The flag vocabulary every subcommand shares: which experiments, what
/// format, where to write, how many workers. Parsed by one loop so the
/// subcommands cannot diverge.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Which experiments to operate on.
    pub selection: ExperimentSelection,
    /// Output format.
    pub format: Format,
    /// Write output here instead of stdout (a directory for `run`, a
    /// file for `check`/`profile`).
    pub out: Option<PathBuf>,
    /// Worker threads.
    pub jobs: usize,
    /// Engine for the collective benchmarks: `auto` (default) takes the
    /// closed-form fast path when eligible, `des` forces the
    /// discrete-event engine, `fast` forces the closed forms.
    pub engine: EngineMode,
    /// Event wheels for partitioned (cluster) DES runs. Results are
    /// bit-identical at every count; >1 trades wall-clock for threads.
    pub partitions: usize,
    /// Exchange transport for partitioned runs: in-process channels
    /// (default) or supervised worker processes. Results are
    /// bit-identical either way.
    pub backend: Backend,
}

/// Accumulator for the shared flags; each subcommand folds its argv
/// through [`CommonParser::accept`] and keeps its own extras.
#[derive(Debug, Default)]
struct CommonParser {
    all: bool,
    only: Option<ExperimentSelection>,
    format: Option<Format>,
    out: Option<PathBuf>,
    jobs: Option<usize>,
    engine: Option<EngineMode>,
    partitions: Option<usize>,
    backend: Option<Backend>,
}

impl CommonParser {
    /// Try to consume `arg` (pulling values from `it`). Returns false if
    /// the flag is not a common one.
    fn accept(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match arg {
            "--all" => self.all = true,
            "--only" => self.only = Some(ExperimentSelection::from_spec(&value(it, "--only")?)?),
            "--format" => self.format = Some(Format::parse(&value(it, "--format")?)?),
            "--out" => self.out = Some(PathBuf::from(value(it, "--out")?)),
            "--jobs" => self.jobs = Some(positive(it, "--jobs")?),
            "--engine" => self.engine = Some(EngineMode::parse(&value(it, "--engine")?)?),
            "--partitions" => self.partitions = Some(positive(it, "--partitions")?),
            "--backend" => {
                let spec = value(it, "--backend")?;
                self.backend = Some(
                    Backend::parse(&spec)
                        .ok_or_else(|| format!("unknown backend '{spec}' (channel or process)"))?,
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn finish(self) -> Result<CommonArgs, String> {
        if self.all && self.only.is_some() {
            return Err("--all and --only are mutually exclusive".into());
        }
        Ok(CommonArgs {
            selection: self.only.unwrap_or(ExperimentSelection::All),
            format: self.format.unwrap_or(Format::Md),
            out: self.out,
            jobs: self.jobs.unwrap_or_else(default_jobs),
            engine: self.engine.unwrap_or(EngineMode::Auto),
            partitions: self.partitions.unwrap_or(1),
            backend: self.backend.unwrap_or(Backend::Channel),
        })
    }
}

/// Parsed `run` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Shared flags.
    pub common: CommonArgs,
    /// Write the machine-readable timing record here.
    pub bench_json: Option<PathBuf>,
    /// Emit a telemetry metrics report to stderr in this format.
    pub metrics: Option<Format>,
}

/// Parsed `check` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOptions {
    /// Shared flags (`format` restricted to md/json at parse time).
    pub common: CommonArgs,
    /// Emit a telemetry metrics report to stderr in this format.
    pub metrics: Option<Format>,
}

/// Parsed `profile` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Shared flags; `--metrics md|json` (alias of `--format` here)
    /// picks the report format written to stdout or `--out`.
    pub common: CommonArgs,
    /// Write a Chrome trace-event JSON file (Perfetto-loadable) here.
    pub trace: Option<PathBuf>,
}

/// Parsed `faults` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsOptions {
    /// Shared flags (`format` restricted to md/json at parse time).
    pub common: CommonArgs,
    /// Canned plan name or path to a fault-plan file.
    pub plan: String,
}

/// Parsed `crosscheck` subcommand (no experiment selection: the scope
/// is exactly the experiments with closed-form fast paths, F10–F14, C01
/// and C02).
#[derive(Debug, Clone, PartialEq)]
pub struct CrosscheckOptions {
    /// Worker threads.
    pub jobs: usize,
    /// Event wheels for the partitioned (cluster) DES cells.
    pub partitions: usize,
    /// Write the report here instead of stdout.
    pub out: Option<PathBuf>,
}

/// One parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `maia-bench run ...`
    Run(RunOptions),
    /// `maia-bench check ...`
    Check(CheckOptions),
    /// `maia-bench profile ...`
    Profile(ProfileOptions),
    /// `maia-bench faults ...`
    Faults(FaultsOptions),
    /// `maia-bench crosscheck ...`
    Crosscheck(CrosscheckOptions),
    /// `maia-bench list`
    List,
    /// `maia-bench report`: print EXPERIMENTS.md to stdout.
    Report,
    /// `maia-bench partition-worker --wheel W --partitions N` — internal:
    /// host one event wheel of a partitioned run, speaking the wire
    /// protocol on stdin/stdout. Spawned by the supervisor, not by hand.
    PartitionWorker {
        /// The wheel this process hosts (`1..partitions`).
        wheel: usize,
        /// Total wheel count of the run.
        partitions: usize,
    },
    /// `maia-bench help` (or no arguments).
    Help,
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
a malformed value exits 2 naming the variable):
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
       a malformed MAIA_* value)

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

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parse the argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let it = &mut args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some(sub @ ("list" | "report")) => {
            if let Some(stray) = it.next() {
                return Err(format!("unknown argument '{stray}' ({sub} takes none)"));
            }
            Ok(if sub == "list" { Command::List } else { Command::Report })
        }
        Some("partition-worker") => {
            let mut wheel = None;
            let mut partitions = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--wheel" => {
                        wheel = Some(
                            value(it, "--wheel")?
                                .parse::<usize>()
                                .map_err(|_| "--wheel requires an integer".to_string())?,
                        );
                    }
                    "--partitions" => {
                        partitions = Some(
                            value(it, "--partitions")?
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n >= 2)
                                .ok_or("--partitions requires an integer >= 2")?,
                        );
                    }
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            let wheel = wheel.ok_or("partition-worker requires --wheel")?;
            let partitions = partitions.ok_or("partition-worker requires --partitions")?;
            if wheel == 0 || wheel >= partitions {
                return Err(format!("--wheel must be in 1..{partitions} (hub owns wheel 0)"));
            }
            Ok(Command::PartitionWorker { wheel, partitions })
        }
        Some("run") => {
            let mut common = CommonParser::default();
            let mut bench_json = None;
            let mut metrics = None;
            while let Some(arg) = it.next() {
                if common.accept(arg, it)? {
                    continue;
                }
                match arg.as_str() {
                    "--bench-json" => bench_json = Some(PathBuf::from(value(it, "--bench-json")?)),
                    "--metrics" => {
                        metrics = Some(Format::parse_report(&value(it, "--metrics")?, "--metrics")?)
                    }
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            Ok(Command::Run(RunOptions {
                common: common.finish()?,
                bench_json,
                metrics,
            }))
        }
        Some("check") => {
            let mut common = CommonParser::default();
            let mut metrics = None;
            while let Some(arg) = it.next() {
                if common.accept(arg, it)? {
                    continue;
                }
                match arg.as_str() {
                    "--metrics" => {
                        metrics = Some(Format::parse_report(&value(it, "--metrics")?, "--metrics")?)
                    }
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            let common = common.finish()?;
            if common.format == Format::Csv {
                return Err("check reports are md or json, not csv".into());
            }
            Ok(Command::Check(CheckOptions { common, metrics }))
        }
        Some("profile") => {
            let mut common = CommonParser::default();
            let mut trace = None;
            let mut metrics = None;
            while let Some(arg) = it.next() {
                if common.accept(arg, it)? {
                    continue;
                }
                match arg.as_str() {
                    "--trace" => trace = Some(PathBuf::from(value(it, "--trace")?)),
                    "--metrics" => {
                        metrics = Some(Format::parse_report(&value(it, "--metrics")?, "--metrics")?)
                    }
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            let mut common = common.finish()?;
            if common.format == Format::Csv {
                return Err("profile reports are md or json, not csv".into());
            }
            // `--metrics` is the documented spelling for the profile
            // report format; it wins over `--format` when both appear.
            if let Some(m) = metrics {
                common.format = m;
            }
            Ok(Command::Profile(ProfileOptions { common, trace }))
        }
        Some("faults") => {
            let mut common = CommonParser::default();
            let mut plan = None;
            while let Some(arg) = it.next() {
                if common.accept(arg, it)? {
                    continue;
                }
                match arg.as_str() {
                    "--plan" => plan = Some(value(it, "--plan")?),
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            let common = common.finish()?;
            if common.format == Format::Csv {
                return Err("faults reports are md or json, not csv".into());
            }
            let plan = plan.ok_or("faults requires --plan NAME|FILE")?;
            Ok(Command::Faults(FaultsOptions { common, plan }))
        }
        Some("crosscheck") => {
            let mut jobs = None;
            let mut partitions = None;
            let mut out = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--jobs" => jobs = Some(positive(it, "--jobs")?),
                    "--partitions" => partitions = Some(positive(it, "--partitions")?),
                    "--out" => out = Some(PathBuf::from(value(it, "--out")?)),
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            Ok(Command::Crosscheck(CrosscheckOptions {
                jobs: jobs.unwrap_or_else(default_jobs),
                partitions: partitions.unwrap_or(1),
                out,
            }))
        }
        Some(other) => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Resolve `--plan`: a canned name first, else a fault-plan text file.
pub fn resolve_plan(spec: &str) -> Result<faults::FaultPlan, String> {
    if let Some(plan) = faults::FaultPlan::named(spec) {
        return Ok(plan);
    }
    let path = std::path::Path::new(spec);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading fault plan {spec}: {e}"))?;
        return faults::FaultPlan::parse(&text);
    }
    Err(format!(
        "unknown fault plan '{spec}' (canned plans: {}; or pass a plan file)",
        faults::PLAN_NAMES.join(", ")
    ))
}

/// Render the `list` subcommand.
pub fn render_list() -> String {
    let mut out = String::new();
    for id in maia_core::all_experiments() {
        let meta = id.meta();
        out.push_str(&format!("{:<4} {}\n", meta.code, meta.title));
    }
    out
}

/// Result of `run`: stdout payload, the sweep (timing summary), and the
/// optional `--metrics` report for stderr.
pub struct RunOutcome {
    /// Concatenated tables, or the written file paths with `--out`.
    pub payload: String,
    /// The sweep, for the stderr timing summary and `--bench-json`.
    pub report: SweepReport,
    /// Rendered telemetry report when `--metrics` was given.
    pub metrics: Option<String>,
}

/// Run the sweep under `cfg` and render the tables in request order.
pub fn execute_run(opts: &RunOptions, cfg: &RunConfig) -> Result<RunOutcome, String> {
    if opts.metrics.is_some() {
        telemetry::enable();
    }
    let report = run_experiments_parallel(cfg, &opts.common.selection.resolve(), opts.common.jobs);
    let mut payload = String::new();
    if let Some(dir) = &opts.common.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        for run in &report.runs {
            let path = dir.join(format!(
                "{}.{}",
                run.id.meta().code,
                opts.common.format.extension()
            ));
            std::fs::write(&path, opts.common.format.render(&run.data))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            payload.push_str(&format!("{}\n", path.display()));
        }
    } else {
        for run in &report.runs {
            payload.push_str(&opts.common.format.render(&run.data));
            payload.push('\n');
        }
    }
    if let Some(path) = &opts.bench_json {
        std::fs::write(path, report.to_bench_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let metrics = opts
        .metrics
        .map(|fmt| render_metrics(&telemetry::collect(&report), fmt));
    Ok(RunOutcome {
        payload,
        report,
        metrics,
    })
}

/// A rendered report as the payload to print: the report itself, or the
/// path it was written to with `--out`.
fn deliver(rendered: String, out: Option<&std::path::Path>) -> Result<String, String> {
    let Some(path) = out else { return Ok(rendered) };
    std::fs::write(path, rendered).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!("{}\n", path.display()))
}

/// Result of `check`.
pub struct CheckOutcome {
    /// Rendered report, or the written file path with `--out`.
    pub payload: String,
    /// The raw conformance results (exit code, stderr summary).
    pub report: ConformanceReport,
    /// Experiments the fail-soft executor lost while regenerating the
    /// selection (forces exit 1 even when every surviving predicate
    /// passes).
    pub failures: Vec<maia_core::ExperimentFailure>,
    /// Rendered telemetry report when `--metrics` was given.
    pub metrics: Option<String>,
}

/// Run the conformance oracle over the selected experiments under `cfg`.
pub fn execute_check(opts: &CheckOptions, cfg: &RunConfig) -> Result<CheckOutcome, String> {
    if opts.metrics.is_some() {
        telemetry::enable();
    }
    let sweep = run_experiments_parallel(cfg, &opts.common.selection.resolve(), opts.common.jobs);
    let report = check_sweep(&sweep);
    let rendered = match opts.common.format {
        Format::Json => report.to_json(),
        _ => report.to_markdown(),
    };
    let payload = deliver(rendered, opts.common.out.as_deref())?;
    let metrics = opts
        .metrics
        .map(|fmt| render_metrics(&telemetry::collect(&sweep), fmt));
    Ok(CheckOutcome {
        payload,
        report,
        failures: sweep.failures,
        metrics,
    })
}

/// Result of `profile`.
pub struct ProfileOutcome {
    /// Rendered metrics report, or the written file path with `--out`.
    pub payload: String,
    /// The underlying sweep (stderr timing summary).
    pub report: SweepReport,
}

/// Run the selection under `cfg` with instrumentation enabled and build
/// the profile.
pub fn execute_profile(opts: &ProfileOptions, cfg: &RunConfig) -> Result<ProfileOutcome, String> {
    telemetry::enable();
    let report = run_experiments_parallel(cfg, &opts.common.selection.resolve(), opts.common.jobs);
    let profile = telemetry::collect(&report);
    if let Some(path) = &opts.trace {
        std::fs::write(path, profile.to_chrome_trace())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let rendered = render_metrics(&profile, opts.common.format);
    let payload = deliver(rendered, opts.common.out.as_deref())?;
    Ok(ProfileOutcome { payload, report })
}

/// Result of `faults`.
pub struct FaultsOutcome {
    /// Rendered resilience report, or the written file path with `--out`.
    pub payload: String,
    /// The raw report (exit code: nonzero when either sweep lost
    /// experiments).
    pub report: faults::ResilienceReport,
}

/// Run the nominal-vs-degraded resilience comparison under `cfg`.
pub fn execute_faults(opts: &FaultsOptions, cfg: &RunConfig) -> Result<FaultsOutcome, String> {
    let plan = resolve_plan(&opts.plan)?;
    let report = faults::run_resilience(cfg, &plan, &opts.common.selection, opts.common.jobs);
    let rendered = match opts.common.format {
        Format::Json => report.to_json(),
        _ => report.to_markdown(),
    };
    let payload = deliver(rendered, opts.common.out.as_deref())?;
    Ok(FaultsOutcome { payload, report })
}

/// Result of `crosscheck`.
pub struct CrosscheckOutcome {
    /// Rendered report, or the written file path with `--out`.
    pub payload: String,
    /// The raw report (exit code: nonzero on any cell mismatch).
    pub report: maia_core::CrosscheckReport,
}

/// Compute F10–F14, C01 and C02 on both engines under `cfg` and diff the
/// formatted tables.
pub fn execute_crosscheck(
    opts: &CrosscheckOptions,
    cfg: &RunConfig,
) -> Result<CrosscheckOutcome, String> {
    let report = maia_core::run_crosscheck_under(cfg, opts.jobs);
    let rendered = report.to_markdown();
    let payload = deliver(rendered, opts.out.as_deref())?;
    Ok(CrosscheckOutcome { payload, report })
}

/// The run configuration `command` runs under: the engine, wheel count
/// and backend its flags select, this process's `MAIA_*` knobs (the one
/// place the binary reads its environment), and this executable as the
/// default worker binary.
fn knob_config(command: &Command) -> Result<RunConfig, String> {
    let (engine, partitions, backend) = match command {
        Command::Run(RunOptions { common, .. })
        | Command::Check(CheckOptions { common, .. })
        | Command::Profile(ProfileOptions { common, .. })
        | Command::Faults(FaultsOptions { common, .. }) => {
            (common.engine, common.partitions, common.backend)
        }
        Command::Crosscheck(opts) => (EngineMode::Auto, opts.partitions, Backend::Channel),
        Command::Report | Command::PartitionWorker { .. } => {
            (EngineMode::Auto, 1, Backend::Channel)
        }
        Command::List | Command::Help => return Ok(RunConfig::default()),
    };
    let own = std::env::current_exe()
        .ok()
        .map(|exe| (OsString::from("MAIA_WORKER_BIN"), exe.into_os_string()));
    RunConfig::new(engine, partitions, backend)
        .with_knobs(own.into_iter().chain(std::env::vars_os()))
}

fn render_metrics(profile: &maia_core::ProfileReport, fmt: Format) -> String {
    match fmt {
        Format::Json => profile.to_json(),
        _ => profile.to_markdown(),
    }
}

/// Exit code for a finished conformance run: 0 conformant, 1 violated.
///
/// Usage errors exit 2 from `main` before a report ever exists, so the
/// three-way contract (0 pass / 1 violations / 2 usage) is split between
/// this function and the parse path.
pub fn check_exit_code(report: &ConformanceReport) -> i32 {
    if report.is_conformant() {
        0
    } else {
        1
    }
}

/// The whole binary, minus `std::process::exit`: parse the arguments and
/// the knobs, dispatch, print. Every subcommand goes through here, so all
/// of them get the same usage text and exit-code contract.
pub fn main_with_args(args: &[String]) -> i32 {
    let parsed = parse(args).and_then(|command| Ok((knob_config(&command)?, command)));
    let (cfg, command) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("maia-bench: {e}\n\n{USAGE}");
            return 2;
        }
    };
    match command {
        Command::Help => {
            print!("{USAGE}");
            0
        }
        Command::List => {
            print!("{}", render_list());
            0
        }
        Command::Report => {
            print!("{}", crate::render_experiments_md(&cfg));
            0
        }
        // Speak the wire protocol on stdin/stdout until the hub says done;
        // exit 1 on a protocol/IO error (the hub sees EOF: a worker loss).
        // Nothing may print to stdout here — it *is* the protocol channel.
        Command::PartitionWorker { wheel, partitions } => {
            let (stdin, stdout) = (Box::new(std::io::stdin()), Box::new(std::io::stdout()));
            match maia_core::supervise::serve_worker(&cfg, wheel, partitions, stdin, stdout) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("maia-bench partition-worker (wheel {wheel}): {e}");
                    1
                }
            }
        }
        Command::Run(opts) => match execute_run(&opts, &cfg) {
            Ok(out) => {
                print!("{}", out.payload);
                eprint!("{}", out.report.timing_summary());
                if let Some(metrics) = out.metrics {
                    eprint!("{metrics}");
                }
                // Fail-soft contract: the partial report above is
                // printed in full, then failures force exit 1.
                i32::from(!out.report.failures.is_empty())
            }
            Err(e) => {
                eprintln!("maia-bench: {e}");
                1
            }
        },
        Command::Check(opts) => match execute_check(&opts, &cfg) {
            Ok(out) => {
                print!("{}", out.payload);
                if let Some(metrics) = out.metrics {
                    eprint!("{metrics}");
                }
                for f in &out.failures {
                    eprintln!("{}", f.to_line());
                }
                eprintln!("maia-bench check: {}", out.report.summary());
                if out.failures.is_empty() {
                    check_exit_code(&out.report)
                } else {
                    1
                }
            }
            Err(e) => {
                eprintln!("maia-bench: {e}");
                1
            }
        },
        Command::Profile(opts) => match execute_profile(&opts, &cfg) {
            Ok(out) => {
                print!("{}", out.payload);
                eprint!("{}", out.report.timing_summary());
                i32::from(!out.report.failures.is_empty())
            }
            Err(e) => {
                eprintln!("maia-bench: {e}");
                1
            }
        },
        Command::Faults(opts) => match execute_faults(&opts, &cfg) {
            Ok(out) => {
                print!("{}", out.payload);
                i32::from(out.report.has_failures())
            }
            Err(e) => {
                eprintln!("maia-bench: {e}");
                1
            }
        },
        Command::Crosscheck(opts) => match execute_crosscheck(&opts, &cfg) {
            Ok(out) => {
                print!("{}", out.payload);
                i32::from(!out.report.is_match())
            }
            Err(e) => {
                eprintln!("maia-bench: {e}");
                1
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_core::{all_experiments, ExperimentId};

    fn parse_ok(args: &[&str]) -> Command {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&owned).expect("parse failed")
    }

    #[test]
    fn run_defaults_to_all_experiments() {
        let Command::Run(opts) = parse_ok(&["run", "--jobs", "2"]) else {
            panic!("expected run");
        };
        assert_eq!(opts.common.selection, ExperimentSelection::All);
        assert_eq!(opts.common.selection.resolve(), all_experiments());
        assert_eq!(opts.common.jobs, 2);
        assert_eq!(opts.common.format, Format::Md);
        assert!(opts.common.out.is_none());
        assert!(opts.metrics.is_none());
    }

    #[test]
    fn only_accepts_every_code_spelling() {
        let Command::Run(opts) = parse_ok(&["run", "--only", "F04,f21,table1", "--format", "json"])
        else {
            panic!("expected run");
        };
        assert_eq!(
            opts.common.selection,
            ExperimentSelection::Ids(vec![
                ExperimentId::F4Stream,
                ExperimentId::F21Cart3d,
                ExperimentId::T1Table
            ])
        );
        assert_eq!(opts.common.format, Format::Json);
    }

    #[test]
    fn subcommands_share_the_common_flags() {
        // The same flag spellings must parse identically under run,
        // check and profile — that is the point of CommonArgs.
        let flags = ["--only", "fig_05", "--jobs", "3", "--format", "json"];
        let mut commons = Vec::new();
        for sub in ["run", "check", "profile"] {
            let mut args = vec![sub];
            args.extend_from_slice(&flags);
            let common = match parse_ok(&args) {
                Command::Run(o) => o.common,
                Command::Check(o) => o.common,
                Command::Profile(o) => o.common,
                other => panic!("unexpected {other:?}"),
            };
            commons.push(common);
        }
        assert_eq!(commons[0], commons[1]);
        assert_eq!(commons[1], commons[2]);
    }

    #[test]
    fn profile_metrics_flag_sets_report_format() {
        let Command::Profile(opts) =
            parse_ok(&["profile", "--only", "F05", "--metrics", "json", "--trace", "/tmp/t.json"])
        else {
            panic!("expected profile");
        };
        assert_eq!(opts.common.format, Format::Json);
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/t.json")));
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
            vec!["faults"],                         // --plan is mandatory
            vec!["faults", "--plan"],               // missing value
            vec!["faults", "--plan", "x", "--format", "csv"],
            vec!["faults", "--plan", "x", "--trace", "t.json"], // profile-only
            vec!["crosscheck", "--only", "F10"], // fixed closed-form scope
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
            let engine = match parse_ok(&[sub, "--engine", "des"]) {
                Command::Run(o) => o.common.engine,
                Command::Check(o) => o.common.engine,
                Command::Profile(o) => o.common.engine,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(engine, EngineMode::Des, "{sub}");
        }
        let Command::Run(o) = parse_ok(&["run", "--engine", "fastpath"]) else {
            panic!("expected run");
        };
        assert_eq!(o.common.engine, EngineMode::Fast);
        let Command::Run(o) = parse_ok(&["run", "--jobs", "2"]) else {
            panic!("expected run");
        };
        assert_eq!(o.common.engine, EngineMode::Auto);
    }

    #[test]
    fn crosscheck_parses_jobs_and_out() {
        let Command::Crosscheck(o) =
            parse_ok(&["crosscheck", "--jobs", "3", "--out", "/tmp/x.md"])
        else {
            panic!("expected crosscheck");
        };
        assert_eq!(o.jobs, 3);
        assert_eq!(o.partitions, 1);
        assert_eq!(o.out, Some(PathBuf::from("/tmp/x.md")));
    }

    #[test]
    fn partitions_flag_parses_everywhere_and_defaults_to_one() {
        for sub in ["run", "check", "profile"] {
            let partitions = match parse_ok(&[sub, "--partitions", "4"]) {
                Command::Run(o) => o.common.partitions,
                Command::Check(o) => o.common.partitions,
                Command::Profile(o) => o.common.partitions,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(partitions, 4, "{sub}");
        }
        let Command::Run(o) = parse_ok(&["run", "--jobs", "2"]) else {
            panic!("expected run");
        };
        assert_eq!(o.common.partitions, 1);
        let Command::Crosscheck(o) = parse_ok(&["crosscheck", "--partitions", "8"]) else {
            panic!("expected crosscheck");
        };
        assert_eq!(o.partitions, 8);
    }

    #[test]
    fn backend_flag_parses_and_defaults_to_channel() {
        for sub in ["run", "check", "profile"] {
            let backend = match parse_ok(&[sub, "--backend", "process"]) {
                Command::Run(o) => o.common.backend,
                Command::Check(o) => o.common.backend,
                Command::Profile(o) => o.common.backend,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(backend, Backend::Process, "{sub}");
        }
        let Command::Run(o) = parse_ok(&["run", "--jobs", "2"]) else {
            panic!("expected run");
        };
        assert_eq!(o.common.backend, Backend::Channel);
    }

    #[test]
    fn partition_worker_parses_wheel_and_partitions() {
        assert_eq!(
            parse_ok(&["partition-worker", "--wheel", "2", "--partitions", "4"]),
            Command::PartitionWorker {
                wheel: 2,
                partitions: 4
            }
        );
    }

    #[test]
    fn faults_parses_plan_and_common_flags() {
        let Command::Faults(opts) =
            parse_ok(&["faults", "--plan", "degraded-stack", "--only", "F08", "--jobs", "2"])
        else {
            panic!("expected faults");
        };
        assert_eq!(opts.plan, "degraded-stack");
        assert_eq!(opts.common.jobs, 2);
        assert_eq!(
            opts.common.selection,
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
        let opts = RunOptions {
            common: CommonArgs {
                selection: ExperimentSelection::Ids(vec![
                    ExperimentId::T1Table,
                    ExperimentId::F17Io,
                ]),
                format: Format::Csv,
                out: Some(dir.clone()),
                jobs: 2,
                engine: EngineMode::Auto,
                partitions: 1,
                backend: Backend::Channel,
            },
            bench_json: Some(dir.join("BENCH.json")),
            metrics: None,
        };
        let out = execute_run(&opts, &RunConfig::default()).expect("run failed");
        assert!(out.payload.contains("T01.csv") && out.payload.contains("F17.csv"));
        assert_eq!(out.report.runs.len(), 2);
        assert!(out.metrics.is_none());
        let bench = std::fs::read_to_string(dir.join("BENCH.json")).unwrap();
        assert!(bench.contains("\"jobs\": 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
