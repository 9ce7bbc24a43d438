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

#[test]
fn bad_flags_and_subcommands_exit_two() {
    for args in [
        &["frobnicate"][..],
        &["run", "--jobs", "0"],
        &["run", "--format", "xml"],
        &["check", "--all", "--only", "F04"],
        &["check", "--wat"],
        &["run", "--only"],
        &["list", "--bogus"],
        &["report", "--bogus"],
    ] {
        let out = maia_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should be a usage error");
        assert!(!stderr(&out).is_empty(), "{args:?} gave no diagnostic");
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
