//! Negative-path contract of the `maia-bench` binary, exercised through a
//! real spawned process: bad inputs exit nonzero with a useful message
//! (never a panic), and `check` distinguishes "violations found" (1) from
//! "usage error" (2).

use std::process::{Command, Output};

fn maia_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maia-bench"))
        .args(args)
        .output()
        .expect("failed to spawn maia-bench")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn run_with_unknown_experiment_is_a_usage_error() {
    let out = maia_bench(&["run", "--only", "F99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("unknown experiment 'F99'"),
        "unhelpful message:\n{err}"
    );
    assert!(err.contains("USAGE"), "usage text missing:\n{err}");
}

#[test]
fn check_with_unknown_experiment_is_a_usage_error() {
    let out = maia_bench(&["check", "--only", "F31"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown experiment 'F31'"));
}

#[test]
fn check_rejects_csv_format() {
    let out = maia_bench(&["check", "--format", "csv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("md or json"));
}

/// Every message the argument parser can give, under each subcommand
/// that can give it: exit 2, nothing on stdout, and on stderr the
/// message, a blank line and the usage text. The table pins the CLI's
/// usage-error bytes, so a parser change that alters any of them fails
/// here.
#[test]
fn bad_flags_and_subcommands_exit_two() {
    #[rustfmt::skip]
    let table: &[(&[&str], &str)] = &[
        (&["frobnicate"], "unknown subcommand 'frobnicate'"),
        (&["run", "--jobs", "0"], "--jobs requires a positive integer"),
        (&["run", "--format", "xml"], "unknown format 'xml' (expected md, csv or json)"),
        (&["check", "--all", "--only", "F04"], "--all and --only are mutually exclusive"),
        (&["check", "--wat"], "unknown argument '--wat'"),
        (&["run", "--only"], "--only requires a value"),
        (&["list", "--bogus"], "unknown argument '--bogus' (list takes none)"),
        (&["report", "--bogus"], "unknown argument '--bogus' (report takes none)"),
        // A flag missing its value, under each subcommand that takes it.
        (&["run", "--format"], "--format requires a value"),
        (&["check", "--out"], "--out requires a value"),
        (&["profile", "--jobs"], "--jobs requires a value"),
        (&["faults", "--plan", "x", "--engine"], "--engine requires a value"),
        (&["run", "--partitions"], "--partitions requires a value"),
        (&["profile", "--backend"], "--backend requires a value"),
        (&["run", "--bench-json"], "--bench-json requires a value"),
        (&["check", "--metrics"], "--metrics requires a value"),
        (&["profile", "--trace"], "--trace requires a value"),
        (&["faults", "--plan"], "--plan requires a value"),
        (&["crosscheck", "--jobs"], "--jobs requires a value"),
        (&["crosscheck", "--partitions"], "--partitions requires a value"),
        (&["crosscheck", "--out"], "--out requires a value"),
        (&["partition-worker", "--wheel"], "--wheel requires a value"),
        (&["partition-worker", "--wheel", "1", "--partitions"], "--partitions requires a value"),
        // A malformed value.
        (&["run", "--jobs", "two"], "--jobs requires a positive integer"),
        (&["check", "--partitions", "-1"], "--partitions requires a positive integer"),
        (&["faults", "--plan", "x", "--partitions", "0"], "--partitions requires a positive integer"),
        (&["crosscheck", "--jobs", "0"], "--jobs requires a positive integer"),
        (&["crosscheck", "--partitions", "0"], "--partitions requires a positive integer"),
        (&["run", "--only", "F99"], "unknown experiment 'F99'"),
        (&["faults", "--only", "F99"], "unknown experiment 'F99'"),
        (&["profile", "--only", ","], "empty experiment selection"),
        (&["profile", "--format", "yaml"], "unknown format 'yaml' (expected md, csv or json)"),
        (&["run", "--engine", "warp"], "unknown engine 'warp' (expected auto, des or fast)"),
        (&["check", "--engine", "fast", "--backend", "pipe"], "unknown backend 'pipe' (channel or process)"),
        (&["run", "--metrics", "csv"], "--metrics is md or json, not csv"),
        (&["check", "--metrics", "csv"], "--metrics is md or json, not csv"),
        (&["profile", "--metrics", "csv"], "--metrics is md or json, not csv"),
        (&["profile", "--metrics", "xml"], "unknown format 'xml' (expected md, csv or json)"),
        (&["partition-worker", "--wheel", "x", "--partitions", "4"], "--wheel requires an integer"),
        (&["partition-worker", "--wheel", "1", "--partitions", "1"], "--partitions requires an integer >= 2"),
        // A flag the subcommand does not take.
        (&["run", "--trace", "x.json"], "unknown argument '--trace'"),
        (&["run", "--plan", "straggler"], "unknown argument '--plan'"),
        (&["check", "--bench-json", "x.json"], "unknown argument '--bench-json'"),
        (&["check", "--trace", "x.json"], "unknown argument '--trace'"),
        (&["profile", "--bench-json", "x.json"], "unknown argument '--bench-json'"),
        (&["profile", "--wat"], "unknown argument '--wat'"),
        (&["faults", "--plan", "x", "--metrics", "md"], "unknown argument '--metrics'"),
        (&["faults", "--plan", "x", "--trace", "t.json"], "unknown argument '--trace'"),
        (&["crosscheck", "--only", "F10"], "unknown argument '--only'"),
        (&["crosscheck", "--all"], "unknown argument '--all'"),
        (&["crosscheck", "--engine", "des"], "unknown argument '--engine'"),
        (&["crosscheck", "--backend", "process"], "unknown argument '--backend'"),
        (&["crosscheck", "--format", "json"], "unknown argument '--format'"),
        (&["partition-worker", "--jobs", "2"], "unknown argument '--jobs'"),
        (&["partition-worker", "--wheel", "1", "--partitions", "2", "--wat"], "unknown argument '--wat'"),
        (&["list", "run"], "unknown argument 'run' (list takes none)"),
        (&["report", "--only", "F04"], "unknown argument '--only' (report takes none)"),
        (&["help", "--bogus"], "unknown argument '--bogus' (help takes none)"),
        (&["--help", "run"], "unknown argument 'run' (help takes none)"),
        (&["-h", "-h"], "unknown argument '-h' (help takes none)"),
        // A flag given twice, whatever its values.
        (&["run", "--only", "F04", "--only", "T01", "--jobs", "1"], "--only given twice"),
        (&["run", "--all", "--all"], "--all given twice"),
        (&["check", "--jobs", "1", "--jobs", "1"], "--jobs given twice"),
        (&["profile", "--format", "md", "--format", "json"], "--format given twice"),
        (&["profile", "--metrics", "md", "--metrics", "json"], "--metrics given twice"),
        (&["crosscheck", "--out", "a", "--out", "b"], "--out given twice"),
        (&["faults", "--plan", "x", "--plan", "y"], "--plan given twice"),
        (&["run", "--engine", "des", "--engine", "warp"], "--engine given twice"),
        (&["partition-worker", "--wheel", "1", "--wheel", "2"], "--wheel given twice"),
        // Checks on the whole line, in their order; an unknown flag fails first.
        (&["run", "--only", "F04", "--all"], "--all and --only are mutually exclusive"),
        (&["profile", "--all", "--only", "F05"], "--all and --only are mutually exclusive"),
        (&["faults", "--all", "--only", "F04"], "--all and --only are mutually exclusive"),
        (&["run", "--all", "--only", "F04", "--wat"], "unknown argument '--wat'"),
        (&["check", "--format", "csv"], "check reports are md or json, not csv"),
        (&["check", "--format", "csv", "--wat"], "unknown argument '--wat'"),
        (&["check", "--all", "--only", "F04", "--format", "csv"], "--all and --only are mutually exclusive"),
        (&["profile", "--format", "csv"], "profile reports are md or json, not csv"),
        (&["profile", "--format", "csv", "--metrics", "json"], "profile reports are md or json, not csv"),
        (&["faults", "--plan", "x", "--format", "csv"], "faults reports are md or json, not csv"),
        (&["faults", "--format", "csv"], "faults reports are md or json, not csv"),
        (&["faults"], "faults requires --plan NAME|FILE"),
        (&["faults", "--wat"], "unknown argument '--wat'"),
        (&["partition-worker"], "partition-worker requires --wheel"),
        (&["partition-worker", "--partitions", "4"], "partition-worker requires --wheel"),
        (&["partition-worker", "--wheel", "1"], "partition-worker requires --partitions"),
        (&["partition-worker", "--wheel", "0", "--partitions", "4"], "--wheel must be in 1..4 (hub owns wheel 0)"),
        (&["partition-worker", "--wheel", "4", "--partitions", "4"], "--wheel must be in 1..4 (hub owns wheel 0)"),
    ];
    for &(args, message) in table {
        let out = maia_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let want = format!("maia-bench: {message}\n\n{}\n", maia_bench::cli::USAGE);
        assert_eq!(stderr(&out), want, "{args:?}");
    }
}

#[test]
fn conformant_check_exits_zero_with_summary_on_stderr() {
    let out = maia_bench(&["check", "--only", "F17,T01", "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("0 violation(s)"), "summary missing:\n{err}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("| F17 |") && report.contains("| T01 |"));
    assert!(!report.contains("FAIL"));
}

#[test]
fn check_json_payload_is_machine_readable() {
    let out = maia_bench(&["check", "--only", "F27", "--format", "json", "--jobs", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let payload = String::from_utf8_lossy(&out.stdout);
    assert!(payload.trim_start().starts_with('{'));
    assert!(payload.contains("\"violations\": 0"));
    assert!(payload.contains("\"figure\": \"F27\""));
}
