//! End-to-end fail-soft and fault-plan tests against the real
//! `maia-bench` binary: forced failures are injected via the
//! `MAIA_FAULT_*` environment variables (each test spawns its own
//! process, so nothing here races process-global state).

use std::process::{Command, Output};

fn bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_maia-bench"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawning maia-bench failed")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A forced panic makes `run` exit 1 but still print the partial report
/// for every surviving experiment, and the failure line carries the
/// originating simulated process name and virtual time.
#[test]
fn run_with_forced_panic_exits_nonzero_with_partial_report() {
    let out = bench(
        &["run", "--only", "F17,T01", "--jobs", "2"],
        &[("MAIA_FAULT_PANIC", "F17")],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let so = stdout(&out);
    assert!(so.contains("## T1 "), "partial report missing T1: {so}");
    assert!(!so.contains("## F17 "), "failed experiment should have no table");
    let se = stderr(&out);
    assert!(se.contains("FAILED F17 [panic]"), "stderr: {se}");
    assert!(
        se.contains("rank-0-F17") && se.contains("panicked at"),
        "failure line lacks process name / virtual time: {se}"
    );
}

/// A forced deadlock is classified as such, with the engine's blocked-
/// process diagnosis in the detail.
#[test]
fn run_with_forced_deadlock_reports_deadlock_detail() {
    let out = bench(
        &["run", "--only", "F17,T01", "--jobs", "2"],
        &[("MAIA_FAULT_DEADLOCK", "F17")],
    );
    assert_eq!(out.status.code(), Some(1));
    let se = stderr(&out);
    assert!(se.contains("FAILED F17 [deadlock]"), "stderr: {se}");
    assert!(se.contains("simulation deadlocked at"), "stderr: {se}");
    assert!(stdout(&out).contains("## T1 "));
}

/// A hung experiment trips the wall-clock watchdog.
#[test]
fn run_with_hung_experiment_times_out() {
    let out = bench(
        &["run", "--only", "F17,T01", "--jobs", "2"],
        &[("MAIA_FAULT_HANG", "F17"), ("MAIA_EXPERIMENT_TIMEOUT_S", "1")],
    );
    assert_eq!(out.status.code(), Some(1));
    let se = stderr(&out);
    assert!(se.contains("FAILED F17 [timeout]"), "stderr: {se}");
    assert!(se.contains("watchdog"), "stderr: {se}");
    assert!(stdout(&out).contains("## T1 "));
}

/// `check` also fails soft: surviving predicates are evaluated, the
/// lost experiment forces exit 1.
#[test]
fn check_with_forced_panic_exits_nonzero() {
    let out = bench(
        &["check", "--only", "F17,T01", "--jobs", "2"],
        &[("MAIA_FAULT_PANIC", "F17")],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("FAILED F17 [panic]"));
}

/// `maia-bench faults` is bit-deterministic: two runs at the same plan,
/// seed and --jobs produce identical reports, in md and json alike.
#[test]
fn faults_report_is_bit_identical_across_runs() {
    let args = ["faults", "--plan", "degraded-stack", "--only", "F07,F08,F09", "--jobs", "2"];
    let a = bench(&args, &[]);
    let b = bench(&args, &[]);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", stderr(&a));
    assert_eq!(stdout(&a), stdout(&b));
    let so = stdout(&a);
    assert!(so.contains("# Resilience report — plan 'degraded-stack'"), "{so}");
    assert!(so.contains("dapl-fallback"));

    let mut json_args = args.to_vec();
    json_args.extend_from_slice(&["--format", "json"]);
    let ja = bench(&json_args, &[]);
    let jb = bench(&json_args, &[]);
    assert_eq!(ja.status.code(), Some(0));
    assert_eq!(stdout(&ja), stdout(&jb));
    assert!(stdout(&ja).contains("\"plan\": \"degraded-stack\""));
}

/// Usage errors keep the distinct exit code 2 (vs. 1 for failures).
#[test]
fn usage_errors_exit_two() {
    for args in [&["faults"][..], &["faults", "--plan", "x", "--wat"][..]] {
        let out = bench(args, &[]);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
    // Unknown plan *name* is a runtime failure, not a usage error.
    let out = bench(&["faults", "--plan", "warp-core", "--only", "T01"], &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown fault plan"));
}

/// A plan file with a value the machine cannot have is a named error on
/// its line and exit 1: unbounded, 4294967295 link retries would ask the
/// backoff schedule for a 32 GiB allocation.
#[test]
fn hostile_plan_value_is_a_named_error() {
    let path = std::env::temp_dir().join(format!("maia-hostile-plan-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "name: hostile\nseed: 1\nfault: degraded-link retries=4294967295 timeout_us=50.0\n",
    )
    .expect("writing the plan file");
    let plan = path.to_str().expect("utf-8 path");
    let out = bench(&["faults", "--plan", plan, "--only", "T01"], &[]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let se = stderr(&out);
    assert!(se.contains("fault plan line 3: retries=4294967295 is outside 0..=32"), "{se}");
    assert!(stdout(&out).is_empty());
}

/// Every `MAIA_*` knob is parsed once, at entry: a value outside its
/// bounds is a usage error (exit 2) naming the variable and the value,
/// never a silent default, a panic or an abort.
#[test]
fn hostile_knobs_are_named_usage_errors() {
    for (name, value) in [
        ("MAIA_EXPERIMENT_TIMEOUT_S", "banana"),
        ("MAIA_EXPERIMENT_TIMEOUT_S", "inf"),
        ("MAIA_SUPERVISE_RETRIES", "-1"),
        ("MAIA_SUPERVISE_RETRIES", "4294967295"),
        ("MAIA_SUPERVISE_HEARTBEAT_MS", "0x10"),
        ("MAIA_SUPERVISE_DEGRADE", "no"),
        ("MAIA_WORKER_CHAOS", "bogus"),
        ("MAIA_FAULT_PANIC", "ZZZ"),
    ] {
        let out = bench(&["run", "--only", "T01", "--jobs", "1"], &[(name, value)]);
        let se = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{name}={value}: {se}");
        assert!(se.contains(name) && se.contains(value), "{name}={value}: {se}");
        assert!(stdout(&out).is_empty(), "{name}={value} ran anyway");
    }
    // Every subcommand that runs experiments parses them, and so does a
    // worker.
    for args in [
        &["check", "--only", "T01"][..],
        &["profile", "--only", "T01"],
        &["faults", "--plan", "straggler", "--only", "T01"],
        &["crosscheck", "--jobs", "1"],
        &["report"],
        &["partition-worker", "--wheel", "1", "--partitions", "2"],
    ] {
        let out = bench(args, &[("MAIA_SUPERVISE_HEARTBEAT_MS", "0")]);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("MAIA_SUPERVISE_HEARTBEAT_MS"), "{args:?}");
    }
}
