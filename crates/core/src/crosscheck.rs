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
//! Both sweeps run under dedicated cache epochs (`crosscheck/des`,
//! `crosscheck/fast`) so neither seeds the nominal memo namespace, and
//! under the fault-activation gate so an armed fault plan can never
//! interleave with the forced engine modes.

use std::collections::HashMap;

use maia_mpi::fastpath::{self, EngineMode};

use crate::cache;
use crate::executor::{run_experiments_parallel, ExperimentFailure};
use crate::experiments::ExperimentId;
use crate::figdata::FigureData;

/// The experiments whose cells have closed-form fast paths. The cluster
/// experiments run their DES side *partitioned* (at the process-global
/// `maia_mpi::partition::partitions()` count), so the cross-check also
/// pins closed form == partitioned DES.
pub const CROSSCHECK_IDS: [ExperimentId; 7] = [
    ExperimentId::F10SendRecv,
    ExperimentId::F11Bcast,
    ExperimentId::F12Allreduce,
    ExperimentId::F13Allgather,
    ExperimentId::F14Alltoall,
    ExperimentId::C1ClusterAllreduce,
    ExperimentId::C2ClusterAlltoall,
];

/// One experiment's DES-vs-fastpath cell comparison.
#[derive(Debug, Clone)]
pub struct ExperimentCrosscheck {
    /// Paper code (`F10`, ...).
    pub code: String,
    /// Data cells compared.
    pub cells: usize,
    /// Cells whose rendered value differed between the engines.
    pub mismatched: usize,
    /// First differing cell, as `row/column: des vs fast`.
    pub first_mismatch: Option<String>,
    /// Set when the two tables differ in headers or row count.
    pub shape_note: Option<String>,
}

impl ExperimentCrosscheck {
    /// Did this experiment render identically under both engines?
    pub fn is_match(&self) -> bool {
        self.mismatched == 0 && self.shape_note.is_none()
    }
}

/// Output of [`run_crosscheck`]: deterministic at fixed jobs.
#[derive(Debug, Clone)]
pub struct CrosscheckReport {
    pub jobs: usize,
    pub experiments: Vec<ExperimentCrosscheck>,
    pub des_failures: Vec<ExperimentFailure>,
    pub fast_failures: Vec<ExperimentFailure>,
}

impl CrosscheckReport {
    /// True iff every cell matched and both sweeps completed fully.
    pub fn is_match(&self) -> bool {
        self.experiments.iter().all(ExperimentCrosscheck::is_match)
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
                e.mismatched,
                e.shape_note
                    .as_ref()
                    .map_or(String::new(), |n| format!(" <!-- {n} -->")),
            ));
        }
        let mismatches: Vec<&ExperimentCrosscheck> = self
            .experiments
            .iter()
            .filter(|e| !e.is_match())
            .collect();
        if !mismatches.is_empty() {
            out.push_str("\n## Mismatches\n\n");
            for e in mismatches {
                if let Some(first) = &e.first_mismatch {
                    out.push_str(&format!("- {}: {first}\n", e.code));
                }
                if let Some(note) = &e.shape_note {
                    out.push_str(&format!("- {}: {note}\n", e.code));
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

/// Compute every F10–F14, C01 and C02 cell on both engines and diff the
/// rendered tables. Serialized against fault activations (the engine
/// mode is process-global); the mode is always restored to
/// [`EngineMode::Auto`].
pub fn run_crosscheck(jobs: usize) -> CrosscheckReport {
    let _gate = crate::faults::lock_gate();
    let ids: Vec<ExperimentId> = CROSSCHECK_IDS.to_vec();

    let sweep = |mode: EngineMode, epoch: &str| {
        fastpath::set_engine_mode(mode);
        cache::set_epoch(Some(epoch));
        let out = run_experiments_parallel(&ids, jobs);
        cache::set_epoch(None);
        fastpath::set_engine_mode(EngineMode::Auto);
        out
    };
    let des = sweep(EngineMode::Des, "crosscheck/des");
    let fast = sweep(EngineMode::Fast, "crosscheck/fast");

    let fast_by_code: HashMap<&str, &FigureData> = fast
        .runs
        .iter()
        .map(|r| (r.id.meta().code, &r.data))
        .collect();
    let mut experiments = Vec::new();
    for run in &des.runs {
        let code = run.id.meta().code;
        let Some(fast_data) = fast_by_code.get(code) else {
            continue; // failed in the fast sweep; listed under failures
        };
        experiments.push(diff_tables(code, &run.data, fast_data));
    }

    CrosscheckReport {
        jobs,
        experiments,
        des_failures: des.failures,
        fast_failures: fast.failures,
    }
}

fn diff_tables(code: &str, des: &FigureData, fast: &FigureData) -> ExperimentCrosscheck {
    let mut cells = 0usize;
    let mut mismatched = 0usize;
    let mut first_mismatch = None;
    let shape_note = if des.headers != fast.headers || des.rows.len() != fast.rows.len() {
        Some(format!(
            "table shape differs: {}x{} des vs {}x{} fast",
            des.rows.len(),
            des.headers.len(),
            fast.rows.len(),
            fast.headers.len()
        ))
    } else {
        None
    };
    for (d_row, f_row) in des.rows.iter().zip(fast.rows.iter()) {
        for (col, (d_cell, f_cell)) in d_row.iter().zip(f_row.iter()).enumerate() {
            cells += 1;
            if d_cell != f_cell {
                mismatched += 1;
                if first_mismatch.is_none() {
                    let header = des.headers.get(col).map_or("?", String::as_str);
                    let key = d_row.first().map_or("?", String::as_str);
                    first_mismatch =
                        Some(format!("{key}/{header}: des {d_cell:?} vs fast {f_cell:?}"));
                }
            }
        }
    }
    ExperimentCrosscheck {
        code: code.to_string(),
        cells,
        mismatched,
        first_mismatch,
        shape_note,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full two-engine sweep runs in the serialized cross-crate
    // suite (tests/tests/fastpath_equivalence.rs) and in ci.sh; running
    // it here would flip the process-global engine mode under this
    // binary's nominal-value tests.

    #[test]
    fn crosscheck_covers_the_collective_figures() {
        let codes: Vec<&str> = CROSSCHECK_IDS.iter().map(|id| id.meta().code).collect();
        assert_eq!(codes, ["F10", "F11", "F12", "F13", "F14", "C01", "C02"]);
    }

    #[test]
    fn mismatches_render_with_coordinates() {
        let mut des = FigureData::new("F10", "t", &["config", "size", "MB/s"]);
        des.push_row(vec!["host-16".into(), "64B".into(), "1.0".into()]);
        let mut fast = FigureData::new("F10", "t", &["config", "size", "MB/s"]);
        fast.push_row(vec!["host-16".into(), "64B".into(), "2.0".into()]);
        let d = diff_tables("F10", &des, &fast);
        assert!(!d.is_match());
        assert_eq!(d.mismatched, 1);
        assert_eq!(
            d.first_mismatch.as_deref(),
            Some("host-16/MB/s: des \"1.0\" vs fast \"2.0\"")
        );
        let report = CrosscheckReport {
            jobs: 1,
            experiments: vec![d],
            des_failures: vec![],
            fast_failures: vec![],
        };
        assert!(!report.is_match());
        assert!(report.to_markdown().contains("MISMATCH"));
    }
}
