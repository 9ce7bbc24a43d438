//! Determinism contract of `maia-bench profile`, exercised through real
//! spawned processes: the `virtual` half of the metrics JSON and the
//! non-wall trace events are bit-identical across runs at a fixed
//! `--jobs`, cache totals match the sharing structure of the selection,
//! and the profile subcommand honors the same exit-code contract as
//! `run`/`check` (see `cli_exit_codes.rs`).

use std::process::{Command, Output};

use maia_tests::minijson::{parse, Json};

fn maia_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maia-bench"))
        .args(args)
        .output()
        .expect("failed to spawn maia-bench")
}

fn metrics_json(args: &[&str]) -> Json {
    let out = maia_bench(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(&String::from_utf8_lossy(&out.stdout)).expect("profile payload is not valid JSON")
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric '{key}' in {v:?}"))
}

#[test]
fn fig_05_profile_reports_nonzero_virtual_metrics() {
    let doc = metrics_json(&["profile", "--only", "fig_05", "--metrics", "json", "--jobs", "1"]);
    let virt = doc.get("virtual").expect("no virtual section");
    assert!(num(virt, "events_total") > 0.0, "no events recorded");
    let cache = virt.get("cache").expect("no cache totals");
    assert!(num(cache, "misses") >= 1.0, "profile run missed no keys?");
    let exps = virt.get("experiments").and_then(Json::as_array).unwrap();
    assert_eq!(exps.len(), 1);
    let f05 = &exps[0];
    assert_eq!(f05.get("code").and_then(Json::as_str), Some("F05"));
    assert!(num(f05, "total_vt_ps") > 0.0, "F05 recorded no virtual time");
    assert_eq!(f05.get("dominant").and_then(Json::as_str), Some("memory"));
    // Wall data exists but lives strictly outside the virtual subtree.
    assert!(doc.get("wall").is_some());
    assert!(virt.get("wall_s").is_none() && f05.get("wall_ms").is_none());
}

#[test]
fn virtual_metrics_are_bit_identical_across_runs() {
    let args = &["profile", "--only", "F05,F08,F09", "--metrics", "json", "--jobs", "2"];
    let a = metrics_json(args);
    let b = metrics_json(args);
    assert_eq!(
        a.get("virtual"),
        b.get("virtual"),
        "virtual metrics differ between identical profile runs"
    );
    // Sanity: the comparison covered real content, not two empty objects.
    let virt = a.get("virtual").unwrap();
    assert!(num(virt, "events_total") > 0.0);
    assert_eq!(
        virt.get("experiments").and_then(Json::as_array).unwrap().len(),
        3
    );
}

#[test]
fn trace_event_sequences_are_identical_excluding_wall() {
    let dir = std::env::temp_dir().join("maia-profile-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut traces = Vec::new();
    for run in 0..2 {
        let path = dir.join(format!("trace_{run}.json"));
        let out = maia_bench(&[
            "profile",
            "--only",
            "F07,F09",
            "--jobs",
            "2",
            "--trace",
            path.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = parse(&text).expect("trace is not valid JSON");
        let events = doc.as_array().expect("trace is not an array").to_vec();
        for ev in &events {
            assert!(ev.get("ph").and_then(Json::as_str).is_some(), "no ph: {ev:?}");
            assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "no ts: {ev:?}");
            assert!(ev.get("name").and_then(Json::as_str).is_some(), "no name: {ev:?}");
        }
        let virt: Vec<Json> = events
            .into_iter()
            .filter(|ev| ev.get("cat").and_then(Json::as_str) != Some("wall"))
            .collect();
        assert!(!virt.is_empty(), "trace carries no virtual events");
        traces.push(virt);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        traces[0], traces[1],
        "non-wall trace events differ between identical profile runs"
    );
}

#[test]
fn cache_totals_reflect_shared_submodels() {
    // F09 (update gain) is a ratio over F08's 42-point bandwidth table:
    // selecting both must hit the memo cache at least once per shared
    // (device, ranks, size) key even when the two run concurrently.
    let doc = metrics_json(&["profile", "--only", "F08,F09", "--metrics", "json", "--jobs", "2"]);
    let cache = doc.get("virtual").unwrap().get("cache").unwrap();
    assert!(
        num(cache, "hits") >= 42.0,
        "expected >=42 shared-key hits, got {cache:?}"
    );
    assert!(num(cache, "misses") >= 42.0, "distinct keys missing: {cache:?}");
}

/// The `--backend` promise: the process backend changes where wheels
/// run, not what the virtual side records — engine counts included,
/// which the hub once doubled by fetching its probe twice.
#[test]
fn virtual_metrics_are_identical_across_backends() {
    let profile = |backend| {
        let args = "profile --only C01,C02 --engine des --partitions 2 --jobs 2 --metrics json";
        let mut args: Vec<&str> = args.split(' ').collect();
        args.extend(["--backend", backend]);
        metrics_json(&args)
    };
    let channel = profile("channel");
    let process = profile("process");
    assert_eq!(
        channel.get("virtual"),
        process.get("virtual"),
        "virtual metrics differ between the channel and process backends"
    );
    let shared = channel
        .get("virtual")
        .unwrap()
        .get("shared")
        .and_then(Json::as_array)
        .unwrap();
    let cluster = shared
        .iter()
        .find(|d| d.get("domain").and_then(Json::as_str) == Some("cluster"))
        .expect("no cluster domain");
    assert_eq!(
        num(cluster.get("sim").unwrap(), "engines"),
        24.0,
        "one engine per cluster key"
    );
}

/// The DES's exact work counts, gated at any core count: events pushed
/// and popped per shared domain, blocked processes, partition windows
/// and messages, and cache lookups of every DES-driven cell. Any change
/// to how the engine schedules, wakes or delivers shows up here as a
/// count, long before it would show up as a timing.
#[test]
fn des_work_counters_match_the_golden() {
    let doc = metrics_json(&[
        "profile",
        "--only",
        "F10,F11,F12,F13,F14,C01,C02",
        "--engine",
        "des",
        "--jobs",
        "2",
        "--metrics",
        "json",
    ]);
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/des_counters.json"
    ))
    .expect("golden file");
    let golden = parse(&golden).expect("des_counters.json is not valid JSON");
    assert_eq!(
        doc.get("virtual"),
        Some(&golden),
        "DES work counters differ from tests/golden/des_counters.json"
    );
}

/// The exact work of the default sweep's critical path, gated at any
/// core count: A01's and A02's engines, events pushed and popped,
/// blocked processes, rank spans and per-rank virtual time. Under the
/// profile's probe every layout of both experiments runs live, so an
/// unprobed run's evaluated layouts are pinned by the tables instead
/// (`metrics_leave_every_table_unchanged`).
#[test]
fn sweep_work_counters_match_the_golden() {
    let doc = metrics_json(&[
        "profile", "--only", "A01,A02", "--jobs", "2", "--metrics", "json",
    ]);
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/sweep_counters.json"
    ))
    .expect("golden file");
    let golden = parse(&golden).expect("sweep_counters.json is not valid JSON");
    assert_eq!(
        doc.get("virtual"),
        Some(&golden),
        "sweep work counters differ from tests/golden/sweep_counters.json"
    );
}

/// Observing a run changes no table. `--metrics` installs the probe
/// factory, which runs every A01/A02 layout live where a plain run
/// evaluates all but the first from its op log, and sends F13 and C01 to
/// the DES where a plain run takes their closed forms.
#[test]
fn metrics_leave_every_table_unchanged() {
    let tables = |extra: &[&str]| {
        let mut args = vec!["run", "--only", "A01,A02,F13,C01", "--jobs", "2"];
        args.extend(extra);
        let out = maia_bench(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("tables are UTF-8")
    };
    let plain = tables(&[]);
    assert!(
        plain.contains("## A1 ") && plain.contains("## C1 "),
        "{plain}"
    );
    assert_eq!(plain, tables(&["--metrics", "json"]));
}

#[test]
fn profile_unknown_experiment_is_a_usage_error() {
    let out = maia_bench(&["profile", "--only", "F99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment 'F99'"), "bad message:\n{err}");
    assert!(err.contains("USAGE"), "usage text missing:\n{err}");
}

#[test]
fn run_only_one_figure_emits_csv() {
    let csv = maia_bench(&["run", "--only", "F04", "--format", "csv"]);
    assert_eq!(csv.status.code(), Some(0));
    let payload = String::from_utf8_lossy(&csv.stdout);
    assert!(payload.lines().count() >= 2, "run --only F04 --format csv emitted no rows");
    assert!(payload.lines().next().unwrap().contains(','));
}
