//! Fast-path vs DES cross-check oracle.
//!
//! The closed forms in `maia_mpi::fastpath` claim *exact* equality with
//! the discrete-event engine — not approximately, bit for bit. This
//! module makes that claim operational: it regenerates every F10–F14,
//! C01 and C02 cell twice, once with the engine forced to the DES and
//! once forced to the closed forms, and compares the *formatted* tables
//! (the same strings the goldens pin, OOM markers included). `ci.sh`
//! runs it on every push via `maia-bench crosscheck`.
//!
//! The two sweeps run under two explicit [`RunConfig`]s that differ
//! only in the engine. Memo keys carry the config, so the sweeps never
//! share an entry with each other or with a nominal (`--engine auto`)
//! run, and nothing process-wide is flipped. Both configs are healthy:
//! a fault plan reaches only the runs whose config it was armed onto.

use maia_mpi::fastpath::EngineMode;

use crate::config::RunConfig;
use crate::diff::{diff_sweeps, TableDiff};
use crate::executor::ExperimentFailure;
use crate::experiments::ExperimentId;

/// The experiments whose cells have closed-form fast paths. The cluster
/// experiments run their DES side *partitioned* (at the run config's
/// wheel count), so the cross-check also pins closed form ==
/// partitioned DES.
pub const CROSSCHECK_IDS: [ExperimentId; 7] = [
    ExperimentId::F10SendRecv,
    ExperimentId::F11Bcast,
    ExperimentId::F12Allreduce,
    ExperimentId::F13Allgather,
    ExperimentId::F14Alltoall,
    ExperimentId::C1ClusterAllreduce,
    ExperimentId::C2ClusterAlltoall,
];

/// Output of [`run_crosscheck`]: deterministic at fixed jobs.
#[derive(Debug, Clone)]
pub struct CrosscheckReport {
    pub jobs: usize,
    /// Each experiment's DES table (`a`) against its closed-form one.
    pub experiments: Vec<TableDiff>,
    pub des_failures: Vec<ExperimentFailure>,
    pub fast_failures: Vec<ExperimentFailure>,
}

impl CrosscheckReport {
    /// True iff every cell matched and both sweeps completed fully.
    pub fn is_match(&self) -> bool {
        self.experiments.iter().all(TableDiff::is_identical)
            && self.des_failures.is_empty()
            && self.fast_failures.is_empty()
    }

    /// Deterministic Markdown rendering (drives the CLI output).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Engine cross-check — closed forms vs DES\n\n");
        out.push_str(&format!("- jobs: {}\n", self.jobs));
        out.push_str(&format!(
            "- verdict: {}\n\n",
            if self.is_match() { "MATCH" } else { "MISMATCH" }
        ));
        out.push_str("| experiment | cells | mismatched |\n|---|---|---|\n");
        for e in &self.experiments {
            out.push_str(&format!(
                "| {} | {} | {} |{}\n",
                e.code,
                e.cells,
                e.changed,
                e.reshaped
                    .map_or(String::new(), |s| format!(" <!-- {} -->", shape_note(s))),
            ));
        }
        let mismatches: Vec<&TableDiff> = self
            .experiments
            .iter()
            .filter(|e| !e.is_identical())
            .collect();
        if !mismatches.is_empty() {
            out.push_str("\n## Mismatches\n\n");
            for e in mismatches {
                if let Some((at, des, fast)) = &e.first_change {
                    out.push_str(&format!(
                        "- {}: {at}: des {des:?} vs fast {fast:?}\n",
                        e.code
                    ));
                }
                if let Some(shapes) = e.reshaped {
                    out.push_str(&format!("- {}: {}\n", e.code, shape_note(shapes)));
                }
            }
        }
        if !self.des_failures.is_empty() || !self.fast_failures.is_empty() {
            out.push_str("\n## Failures\n\n");
            for (label, failures) in [("des", &self.des_failures), ("fast", &self.fast_failures)] {
                for f in failures {
                    out.push_str(&format!(
                        "- {label} {} [{}]: {}\n",
                        f.id.meta().code,
                        f.kind,
                        f.detail
                    ));
                }
            }
        }
        out
    }
}

/// [`run_crosscheck_under`] the current [`RunConfig`].
pub fn run_crosscheck(jobs: usize) -> CrosscheckReport {
    run_crosscheck_under(&RunConfig::current(), jobs)
}

/// Compute every F10–F14, C01 and C02 cell on both engines, at `cfg`'s
/// wheel count and backend, and diff the rendered tables.
pub fn run_crosscheck_under(cfg: &RunConfig, jobs: usize) -> CrosscheckReport {
    let engine = |engine| RunConfig {
        engine,
        ..cfg.clone()
    };
    let (experiments, [des_failures, fast_failures]) = diff_sweeps(
        &engine(EngineMode::Des),
        &engine(EngineMode::Fast),
        &CROSSCHECK_IDS,
        jobs,
    );
    CrosscheckReport {
        jobs,
        experiments,
        des_failures,
        fast_failures,
    }
}

/// `(rows, headers)` of the DES and the closed-form table, in words.
fn shape_note([(des_rows, des_cols), (fast_rows, fast_cols)]: [(usize, usize); 2]) -> String {
    format!("table shape differs: {des_rows}x{des_cols} des vs {fast_rows}x{fast_cols} fast")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_tables;
    use crate::faults::{FaultPlan, ResilienceReport};
    use crate::figdata::FigureData;

    // The full two-engine sweep runs in the cross-crate suite
    // (tests/tests/fastpath_equivalence.rs) and in ci.sh.

    #[test]
    fn crosscheck_covers_the_collective_figures() {
        let codes: Vec<&str> = CROSSCHECK_IDS.iter().map(|id| id.meta().code).collect();
        assert_eq!(codes, ["F10", "F11", "F12", "F13", "F14", "C01", "C02"]);
    }

    /// An F10-shaped table of `(config, size, MB/s)` rows.
    fn f10(rows: &[[&str; 3]]) -> FigureData {
        let mut t = FigureData::new("F10", "t", &["config", "size", "MB/s"]);
        for row in rows {
            t.push_row(row.map(String::from).to_vec());
        }
        t
    }

    fn report(experiments: Vec<TableDiff>) -> CrosscheckReport {
        CrosscheckReport {
            jobs: 1,
            experiments,
            des_failures: vec![],
            fast_failures: vec![],
        }
    }

    #[test]
    fn mismatches_render_with_coordinates() {
        let des = f10(&[["host-16", "64B", "5.0"], ["host-16", "4KiB", "1.0"]]);
        let fast = f10(&[["host-16", "64B", "5.0"], ["host-16", "4KiB", "2.0"]]);
        let d = diff_tables("F10", &des, &fast);
        assert_eq!((d.cells, d.changed), (6, 1));
        let crosscheck = report(vec![d]);
        assert!(!crosscheck.is_match());
        let md = crosscheck.to_markdown();
        assert!(md.contains("MISMATCH"));
        // The row is named by its cells left of the differing column,
        // not by its first cell alone, which the 64B row shares.
        assert!(
            md.contains("- F10: host-16 4KiB/MB/s: des \"1.0\" vs fast \"2.0\"\n"),
            "{md}"
        );
    }

    #[test]
    fn a_shape_change_renders_in_both_reports() {
        let two = f10(&[["host-16", "64B", "1.0"], ["host-16", "4KiB", "3.0"]]);
        let d = diff_tables("F10", &two, &f10(&[["host-16", "64B", "1.0"]]));
        assert_eq!((d.cells, d.changed), (3, 0));
        let md = report(vec![d.clone()]).to_markdown();
        let note = "table shape differs: 2x3 des vs 1x3 fast";
        assert!(
            md.contains(&format!("| F10 | 3 | 0 | <!-- {note} -->\n")),
            "{md}"
        );
        assert!(md.contains(&format!("- F10: {note}\n")), "{md}");
        let resilience = ResilienceReport {
            plan: FaultPlan::named("straggler").expect("canned plan"),
            jobs: 1,
            deltas: vec![d],
            nominal_failures: vec![],
            degraded_failures: vec![],
            mode_switches: vec![],
            injected_vt_ps: 0,
        };
        let md = resilience.to_markdown();
        let row = "| F10 | 3 | 0 | 0.0000 | <!-- table shape changed: 2x3 -> 1x3 -->\n";
        assert!(md.contains(row), "{md}");
    }
}
