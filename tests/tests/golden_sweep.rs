//! Golden test for the parallel runner: a full `--jobs 4` sweep over the
//! complete registry must reproduce the serial per-experiment output
//! byte for byte, in every emitter format. This is the property that
//! lets `run --only <code>` stand in for a dedicated per-figure binary.

use maia_core::{all_experiments, run_experiment, run_experiments_parallel};

#[test]
fn full_parallel_sweep_is_byte_identical_to_serial() {
    let ids = all_experiments();
    let report = run_experiments_parallel(&ids, 4);
    assert_eq!(report.runs.len(), ids.len());
    for (requested, run) in ids.iter().zip(&report.runs) {
        assert_eq!(*requested, run.id, "runs must come back in request order");
        let serial = run_experiment(run.id);
        assert_eq!(
            run.data.to_markdown(),
            serial.to_markdown(),
            "{:?} markdown diverged",
            run.id
        );
        assert_eq!(run.data.to_csv(), serial.to_csv(), "{:?} csv diverged", run.id);
        assert_eq!(
            run.data.to_json(),
            serial.to_json(),
            "{:?} json diverged",
            run.id
        );
    }
    // The sweep exercises the memo layer: figure 9 alone reuses figure
    // 8's 42 world runs, so a full sweep always records cache hits.
    assert!(
        report.cache.hits >= 42,
        "expected the shared sub-model cache to fire, got {:?}",
        report.cache
    );
}
