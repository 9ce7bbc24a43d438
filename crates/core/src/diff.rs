//! Two sweeps of one selection, compared cell by cell as rendered: the
//! A/B procedure behind `crosscheck` (DES against closed forms) and
//! `faults` (healthy machine against degraded). Each report words the
//! [`TableDiff`]s in its own terms.

use crate::config::RunConfig;
use crate::executor::{run_experiments_parallel, ExperimentFailure};
use crate::experiments::ExperimentId;
use crate::figdata::FigureData;

/// One experiment's table from sweep `a` against its table from sweep
/// `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDiff {
    /// Paper code (`F10`, ...).
    pub code: &'static str,
    /// Cells compared: those in the rows and columns both tables have.
    pub cells: usize,
    /// Compared cells whose rendered values differ.
    pub changed: usize,
    /// Largest relative change over differing numeric cells,
    /// `|b - a| / max(|a|, 1e-12)`.
    pub max_rel_delta: f64,
    /// The first differing cell as `row/header`, the row named by its
    /// cells left of that column (`row N` in the first column), then its
    /// value in `a` and in `b`.
    pub first_change: Option<(String, String, String)>,
    /// `(rows, headers)` of `a` and of `b`, when the two differ in
    /// headers or row count.
    pub reshaped: Option<[(usize, usize); 2]>,
}

impl TableDiff {
    /// Did the table render identically in both sweeps?
    pub fn is_identical(&self) -> bool {
        self.changed == 0 && self.reshaped.is_none()
    }
}

/// Run `ids` under `a`, then under `b`, and diff each experiment's two
/// tables, in `a`'s run order. Both sweeps are fail-soft: an experiment
/// that failed in either has no diff, and the failures come back per
/// sweep, `a`'s first.
pub(crate) fn diff_sweeps(
    a: &RunConfig,
    b: &RunConfig,
    ids: &[ExperimentId],
    jobs: usize,
) -> (Vec<TableDiff>, [Vec<ExperimentFailure>; 2]) {
    let a = run_experiments_parallel(a, ids, jobs);
    let b = run_experiments_parallel(b, ids, jobs);
    let diffs = a
        .runs
        .iter()
        .filter_map(|run| {
            let other = b.runs.iter().find(|r| r.id == run.id)?;
            Some(diff_tables(run.id.meta().code, &run.data, &other.data))
        })
        .collect();
    (diffs, [a.failures, b.failures])
}

/// Compare `a` and `b` cell by cell, over the rows and columns both have.
pub(crate) fn diff_tables(code: &'static str, a: &FigureData, b: &FigureData) -> TableDiff {
    let shape = |t: &FigureData| (t.rows.len(), t.headers.len());
    let reshaped =
        (a.headers != b.headers || a.rows.len() != b.rows.len()).then(|| [shape(a), shape(b)]);
    let mut diff = TableDiff {
        code,
        cells: 0,
        changed: 0,
        max_rel_delta: 0.0,
        first_change: None,
        reshaped,
    };
    for (row, (a_row, b_row)) in a.rows.iter().zip(&b.rows).enumerate() {
        for (col, (a_cell, b_cell)) in a_row.iter().zip(b_row).enumerate() {
            diff.cells += 1;
            if a_cell == b_cell {
                continue;
            }
            diff.changed += 1;
            if let (Ok(x), Ok(y)) = (a_cell.parse::<f64>(), b_cell.parse::<f64>()) {
                diff.max_rel_delta = diff.max_rel_delta.max((y - x).abs() / x.abs().max(1e-12));
            }
            if diff.first_change.is_none() {
                let key = match col {
                    0 => format!("row {}", row + 1),
                    _ => a_row[..col].join(" "),
                };
                let header = a.headers.get(col).map_or("?", String::as_str);
                let at = format!("{key}/{header}");
                diff.first_change = Some((at, a_cell.clone(), b_cell.clone()));
            }
        }
    }
    diff
}
