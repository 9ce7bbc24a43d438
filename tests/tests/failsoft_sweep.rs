//! Fail-soft executor tests: a sweep with injected panicking,
//! deadlocking and hanging experiments completes every other
//! experiment, reports each failure with its kind and detail, and still
//! produces correct data for the survivors.
//!
//! Forced failures and the watchdog budget are `MAIA_*` knobs parsed
//! onto each test's own [`RunConfig`], so the tests run concurrently.

use maia_core::{
    all_experiments, run_experiment, run_experiments_parallel, ExperimentId, FailureKind, RunConfig,
};

/// The default config under the knob `pairs`.
fn knobs(pairs: &[(&str, &str)]) -> RunConfig {
    RunConfig::default()
        .with_knobs(pairs.iter().copied())
        .expect("valid knobs")
}

/// Acceptance criterion: with one panicking and one deadlocking
/// experiment injected into the full 29-experiment sweep, the other 27
/// complete with correct data and both failures are reported.
#[test]
fn sweep_isolates_panicking_and_deadlocking_experiments() {
    let panicker = ExperimentId::F17Io;
    let deadlocker = ExperimentId::F21Cart3d;
    let cfg = knobs(&[("MAIA_FAULT_PANIC", "F17"), ("MAIA_FAULT_DEADLOCK", "F21")]);

    let ids = all_experiments();
    let report = run_experiments_parallel(&cfg, &ids, 4);

    assert_eq!(report.runs.len(), ids.len() - 2, "all survivors must complete");
    assert_eq!(report.failures.len(), 2);

    let panic_failure = report
        .failures
        .iter()
        .find(|f| f.id == panicker)
        .expect("panic failure recorded");
    assert_eq!(panic_failure.kind, FailureKind::Panic);
    // Satellite: the panic detail names the originating simulated
    // process and the virtual time it died at (SimError Display).
    assert!(
        panic_failure.detail.contains("rank-0-F17") && panic_failure.detail.contains("panicked at"),
        "panic detail lacks process/virtual-time context: {:?}",
        panic_failure.detail
    );

    let deadlock_failure = report
        .failures
        .iter()
        .find(|f| f.id == deadlocker)
        .expect("deadlock failure recorded");
    assert_eq!(deadlock_failure.kind, FailureKind::Deadlock);
    assert!(
        deadlock_failure.detail.contains("simulation deadlocked at"),
        "deadlock detail: {:?}",
        deadlock_failure.detail
    );

    // Survivors carry correct data: spot-check one engine-driven and
    // one closed-form experiment against a direct run.
    for probe in [ExperimentId::F8PcieBandwidth, ExperimentId::T1Table] {
        let swept = report
            .runs
            .iter()
            .find(|r| r.id == probe)
            .expect("survivor present");
        let direct = run_experiment(probe);
        assert_eq!(swept.data.rows, direct.rows, "{probe:?} data corrupted");
    }

    // The timing summary narrates the partial outcome.
    let summary = report.timing_summary();
    assert!(summary.contains("FAILED F17 [panic]"), "summary: {summary}");
    assert!(summary.contains("FAILED F21 [deadlock]"));
    assert!(summary.contains("2 experiment(s) FAILED; 27 completed"));

    // And the machine-readable record lists both.
    let json = report.to_bench_json();
    assert!(json.contains("\"code\": \"F17\"") && json.contains("\"kind\": \"panic\""));
    assert!(json.contains("\"kind\": \"deadlock\""));
}

/// The watchdog abandons a hung experiment and classifies it as a
/// timeout; the rest of the selection still completes.
#[test]
fn watchdog_times_out_hung_experiment() {
    let hanger = ExperimentId::F5Latency;
    let cfg = knobs(&[("MAIA_FAULT_HANG", "F05"), ("MAIA_EXPERIMENT_TIMEOUT_S", "1")]);

    let report = run_experiments_parallel(&cfg, &[hanger, ExperimentId::T1Table], 2);

    assert_eq!(report.runs.len(), 1);
    assert_eq!(report.runs[0].id, ExperimentId::T1Table);
    assert_eq!(report.failures.len(), 1);
    let f = &report.failures[0];
    assert_eq!(f.id, hanger);
    assert_eq!(f.kind, FailureKind::Timeout);
    assert!(
        f.detail.contains("watchdog"),
        "timeout detail should mention the watchdog: {:?}",
        f.detail
    );
    assert!(f.wall.as_secs_f64() >= 1.0, "watchdog fired early");
}

/// Two consecutive forced-hang experiments must not interleave: each
/// timeout names its own experiment, and each guard thread is cancelled
/// and joined at its own watchdog ("cancelled and reaped"), so neither
/// survives to bleed state into later experiments.
#[test]
fn consecutive_hangs_are_reaped_and_do_not_interleave() {
    let first = ExperimentId::F5Latency;
    let second = ExperimentId::F17Io;
    let cfg = knobs(&[("MAIA_FAULT_HANG", "F05,F17"), ("MAIA_EXPERIMENT_TIMEOUT_S", "1")]);

    // Serial on purpose: the second hang starts only after the first
    // timeout was declared, which is exactly the "abandoned guard runs
    // into the next experiment" shape the old watchdog leaked under.
    let report_a = run_experiments_parallel(&cfg, &[first, ExperimentId::T1Table], 1);
    let report_b = run_experiments_parallel(&cfg, &[second, ExperimentId::F4Stream], 1);

    for (report, hanger, survivor) in [
        (&report_a, first, ExperimentId::T1Table),
        (&report_b, second, ExperimentId::F4Stream),
    ] {
        assert_eq!(report.failures.len(), 1, "{hanger:?} sweep failures");
        let f = &report.failures[0];
        assert_eq!(f.id, hanger, "failure attributed to the wrong experiment");
        assert_eq!(f.kind, FailureKind::Timeout);
        assert!(
            f.detail.contains("cancelled and reaped"),
            "hung guard should be cancelled at the watchdog, got: {:?}",
            f.detail
        );
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].id, survivor);
    }

    // Failure details never mention the *other* hanging experiment.
    assert!(!report_b.failures[0].detail.contains("F5"));
    assert!(!report_a.failures[0].detail.contains("F17"));
}

/// A clean sweep reports no failures.
#[test]
fn clean_sweep_has_no_failures() {
    let report = run_experiments_parallel(
        &RunConfig::default(),
        &[ExperimentId::T1Table, ExperimentId::F4Stream],
        2,
    );
    assert_eq!(report.runs.len(), 2);
    assert!(report.failures.is_empty());
    assert!(!report.timing_summary().contains("FAILED"));
}
