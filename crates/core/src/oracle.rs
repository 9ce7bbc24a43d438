//! The paper-conformance oracle: machine-checkable shape predicates over
//! [`FigureData`].
//!
//! DESIGN.md §6 states the validation targets as prose ("STREAM knees at
//! 118 threads", "Allreduce host-over-Phi 2.2–13.4×", "MG is the only
//! kernel faster on Phi"). This module turns each of those shapes into a
//! composable predicate — [`monotone_nondecreasing`], [`plateau_between`],
//! [`step_up_across`], [`crossover_between`], [`ratio_band`],
//! [`peak_in_range`], [`marked_oom`], … — evaluated against the tables the
//! experiment registry regenerates. Violations are *collected*, not
//! fail-fast, into a [`ConformanceReport`] that names the figure, the
//! predicate, the expected band and the observed values, so a model change
//! that silently bends a published shape fails CI with a readable
//! diagnosis instead of a green run.
//!
//! The per-experiment predicate lists live in
//! [`crate::experiments::conformance::checklist`]; [`check`] runs any
//! subset of experiments through the cached parallel executor and applies
//! its checklist to each regenerated table.

use std::sync::Arc;

use crate::executor::run_experiments_parallel;
use crate::experiments::ExperimentId;
use crate::figdata::FigureData;

/// Parse a table cell as a number. Accepts plain floats and the byte
/// renderings produced by [`crate::figdata::fmt_bytes`] (`64B`, `4KiB`,
/// `16MiB`, `1GiB`). Returns `None` for labels and OOM markers.
pub fn parse_cell(cell: &str) -> Option<f64> {
    let t = cell.trim();
    if let Ok(v) = t.parse::<f64>() {
        return Some(v);
    }
    for (suffix, mult) in [
        ("GiB", (1u64 << 30) as f64),
        ("MiB", (1u64 << 20) as f64),
        ("KiB", 1024.0),
        ("B", 1.0),
    ] {
        if let Some(num) = t.strip_suffix(suffix) {
            return num.trim().parse::<f64>().ok().map(|v| v * mult);
        }
    }
    None
}

/// Compact, deterministic number rendering for report cells.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// An (x, y) data series extracted from a figure: `y` column against `x`
/// column, restricted to rows whose filter columns match exactly. When any
/// x cell is non-numeric (layout labels like `16x1`), row order stands in
/// for x.
#[derive(Debug, Clone, Default)]
pub struct Series {
    x: &'static str,
    y: &'static str,
    filters: Vec<(&'static str, &'static str)>,
    x_range: Option<(f64, f64)>,
}

/// Start a series of column `y` against column `x`.
pub fn series(x: &'static str, y: &'static str) -> Series {
    Series {
        x,
        y,
        filters: Vec::new(),
        x_range: None,
    }
}

impl Series {
    /// Keep only rows where column `col` equals `value` exactly.
    pub fn only(mut self, col: &'static str, value: &'static str) -> Self {
        self.filters.push((col, value));
        self
    }

    /// Keep only points with `lo <= x <= hi` (after parsing).
    pub fn x_in(mut self, lo: f64, hi: f64) -> Self {
        self.x_range = Some((lo, hi));
        self
    }

    /// Short label used inside predicate names.
    fn label(&self) -> String {
        let mut s = format!("{}({})", self.y, self.x);
        for (c, v) in &self.filters {
            s.push_str(&format!("; {c}={v}"));
        }
        if let Some((lo, hi)) = self.x_range {
            s.push_str(&format!("; x in [{}, {}]", fmt_num(lo), fmt_num(hi)));
        }
        s
    }

    fn col_index(fig: &FigureData, name: &str) -> Result<usize, String> {
        fig.headers
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("column '{name}' missing"))
    }

    fn matching_rows<'a>(&self, fig: &'a FigureData) -> Result<Vec<&'a Vec<String>>, String> {
        let mut idx = Vec::new();
        for (c, _) in &self.filters {
            idx.push(Self::col_index(fig, c)?);
        }
        let rows: Vec<&Vec<String>> = fig
            .rows
            .iter()
            .filter(|r| {
                self.filters
                    .iter()
                    .zip(&idx)
                    .all(|((_, v), &i)| r[i].trim() == *v)
            })
            .collect();
        if rows.is_empty() {
            return Err(format!("no rows match {}", self.label()));
        }
        Ok(rows)
    }

    /// Extract the numeric points, sorted by x. Rows whose y cell is
    /// non-numeric (OOM markers) are skipped; an all-skipped series is an
    /// error so a column silently turning textual cannot pass.
    fn points(&self, fig: &FigureData) -> Result<Vec<(f64, f64)>, String> {
        let xi = Self::col_index(fig, self.x)?;
        let yi = Self::col_index(fig, self.y)?;
        let rows = self.matching_rows(fig)?;
        let xs: Vec<Option<f64>> = rows.iter().map(|r| parse_cell(&r[xi])).collect();
        let by_index = xs.iter().any(Option::is_none);
        let mut pts = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let x = if by_index { i as f64 } else { xs[i].unwrap() };
            if let Some((lo, hi)) = self.x_range {
                if x < lo || x > hi {
                    continue;
                }
            }
            if let Some(y) = parse_cell(&row[yi]) {
                pts.push((x, y));
            }
        }
        if pts.is_empty() {
            return Err(format!("no numeric points in {}", self.label()));
        }
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        Ok(pts)
    }
}

/// How a [`Scalar`] reduces a series to one number.
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    /// Maximum y.
    Max,
    /// Minimum y.
    Min,
    /// y of the first point (smallest x).
    First,
    /// y of the last point (largest x).
    Last,
    /// y at exactly this x.
    At(f64),
}

/// A single number extracted from a figure.
#[derive(Debug, Clone)]
pub enum Scalar {
    /// A reduction over a [`Series`].
    Reduce(Series, Agg),
    /// The value of `col` in the first row matching every filter.
    Cell {
        /// Equality filters `(column, value)` selecting the row.
        filters: Vec<(&'static str, &'static str)>,
        /// Column whose cell is read.
        col: &'static str,
    },
    /// The maximum over several named columns of the first matching row.
    RowMax {
        /// Equality filters `(column, value)` selecting the row.
        filters: Vec<(&'static str, &'static str)>,
        /// Columns scanned for the maximum.
        cols: Vec<&'static str>,
    },
}

/// Shorthand for [`Scalar::Cell`].
pub fn cell(filters: &[(&'static str, &'static str)], col: &'static str) -> Scalar {
    Scalar::Cell {
        filters: filters.to_vec(),
        col,
    }
}

/// Shorthand for [`Scalar::RowMax`].
pub fn row_max(filters: &[(&'static str, &'static str)], cols: &[&'static str]) -> Scalar {
    Scalar::RowMax {
        filters: filters.to_vec(),
        cols: cols.to_vec(),
    }
}

impl Scalar {
    /// Reduce `series` with `agg`.
    pub fn reduce(series: Series, agg: Agg) -> Scalar {
        Scalar::Reduce(series, agg)
    }

    fn label(&self) -> String {
        match self {
            Scalar::Reduce(s, a) => format!("{:?}[{}]", a, s.label()),
            Scalar::Cell { filters, col } => {
                let f: Vec<String> = filters.iter().map(|(c, v)| format!("{c}={v}")).collect();
                format!("{col}[{}]", f.join("; "))
            }
            Scalar::RowMax { filters, cols } => {
                let f: Vec<String> = filters.iter().map(|(c, v)| format!("{c}={v}")).collect();
                format!("max({})[{}]", cols.join(","), f.join("; "))
            }
        }
    }

    fn eval(&self, fig: &FigureData) -> Result<f64, String> {
        match self {
            Scalar::Reduce(s, agg) => {
                let pts = s.points(fig)?;
                Ok(match agg {
                    Agg::Max => pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max),
                    Agg::Min => pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min),
                    Agg::First => pts[0].1,
                    Agg::Last => pts[pts.len() - 1].1,
                    Agg::At(x) => pts
                        .iter()
                        .find(|p| p.0 == *x)
                        .map(|p| p.1)
                        .ok_or_else(|| format!("no point at x={} in {}", fmt_num(*x), s.label()))?,
                })
            }
            Scalar::Cell { filters, col } => {
                let s = Series {
                    x: col,
                    y: col,
                    filters: filters.clone(),
                    x_range: None,
                };
                let ci = Series::col_index(fig, col)?;
                let rows = s.matching_rows(fig)?;
                parse_cell(&rows[0][ci])
                    .ok_or_else(|| format!("cell {} is not numeric: '{}'", self.label(), rows[0][ci]))
            }
            Scalar::RowMax { filters, cols } => {
                let s = Series {
                    x: cols[0],
                    y: cols[0],
                    filters: filters.clone(),
                    x_range: None,
                };
                let rows = s.matching_rows(fig)?;
                let mut best = f64::NEG_INFINITY;
                for c in cols {
                    let ci = Series::col_index(fig, c)?;
                    if let Some(v) = parse_cell(&rows[0][ci]) {
                        best = best.max(v);
                    }
                }
                if best == f64::NEG_INFINITY {
                    return Err(format!("no numeric cell in {}", self.label()));
                }
                Ok(best)
            }
        }
    }
}

/// Outcome of one predicate against one figure.
struct Outcome {
    pass: bool,
    observed: String,
}

impl Outcome {
    fn pass(observed: String) -> Outcome {
        Outcome {
            pass: true,
            observed,
        }
    }
    fn fail(observed: String) -> Outcome {
        Outcome {
            pass: false,
            observed,
        }
    }
    fn of(pass: bool, observed: String) -> Outcome {
        Outcome { pass, observed }
    }
}

type CheckFn = Arc<dyn Fn(&FigureData) -> Outcome + Send + Sync>;

/// One machine-checkable shape predicate bound to expected-band text.
#[derive(Clone)]
pub struct Check {
    /// Predicate name with its arguments, e.g.
    /// `ratio_band[time us(size; config=phi-59 (1t/c)) / time us(size; config=host-16)]`.
    pub name: String,
    /// Human-readable expected band.
    pub expected: String,
    run: CheckFn,
}

impl std::fmt::Debug for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Check")
            .field("name", &self.name)
            .field("expected", &self.expected)
            .finish()
    }
}

impl Check {
    /// Escape hatch for shapes the primitives do not cover: `f` returns
    /// `Ok(observed)` on pass and `Err(observed)` on violation.
    pub fn custom(
        name: impl Into<String>,
        expected: impl Into<String>,
        f: impl Fn(&FigureData) -> Result<String, String> + Send + Sync + 'static,
    ) -> Check {
        Check {
            name: name.into(),
            expected: expected.into(),
            run: Arc::new(move |fig| match f(fig) {
                Ok(obs) => Outcome::pass(obs),
                Err(obs) => Outcome::fail(obs),
            }),
        }
    }

    fn new(name: String, expected: String, run: CheckFn) -> Check {
        Check {
            name,
            expected,
            run,
        }
    }

    /// Evaluate against a figure, tagging the result with its code.
    pub fn eval(&self, figure: &'static str, fig: &FigureData) -> PredicateResult {
        let outcome = (self.run)(fig);
        PredicateResult {
            figure,
            predicate: self.name.clone(),
            expected: self.expected.clone(),
            observed: outcome.observed,
            pass: outcome.pass,
        }
    }
}

fn extract(series: &Series, fig: &FigureData) -> Result<Vec<(f64, f64)>, String> {
    series.points(fig)
}

/// y never decreases as x grows (ties allowed).
pub fn monotone_nondecreasing(s: Series) -> Check {
    monotone(s, true)
}

/// y never increases as x grows (ties allowed).
pub fn monotone_nonincreasing(s: Series) -> Check {
    monotone(s, false)
}

fn monotone(s: Series, increasing: bool) -> Check {
    let dir = if increasing {
        "monotone_nondecreasing"
    } else {
        "monotone_nonincreasing"
    };
    Check::new(
        format!("{dir}[{}]", s.label()),
        format!(
            "y {} as x grows",
            if increasing {
                "never decreases"
            } else {
                "never increases"
            }
        ),
        Arc::new(move |fig| match extract(&s, fig) {
            Err(e) => Outcome::fail(e),
            Ok(pts) => {
                for w in pts.windows(2) {
                    let ok = if increasing {
                        w[1].1 >= w[0].1
                    } else {
                        w[1].1 <= w[0].1
                    };
                    if !ok {
                        return Outcome::fail(format!(
                            "y({}) = {} vs y({}) = {}",
                            fmt_num(w[0].0),
                            fmt_num(w[0].1),
                            fmt_num(w[1].0),
                            fmt_num(w[1].1)
                        ));
                    }
                }
                Outcome::pass(format!(
                    "{} points, y {}..{}",
                    pts.len(),
                    fmt_num(pts[0].1),
                    fmt_num(pts[pts.len() - 1].1)
                ))
            }
        }),
    )
}

/// Every point with `x_lo <= x <= x_hi` lies within `rel_tol` relative
/// spread of the region mean — a cache-level plateau.
pub fn plateau_between(s: Series, x_lo: f64, x_hi: f64, rel_tol: f64) -> Check {
    Check::new(
        format!(
            "plateau_between[{}; x={}..{}]",
            s.label(),
            fmt_num(x_lo),
            fmt_num(x_hi)
        ),
        format!("relative spread <= {rel_tol}"),
        Arc::new(move |fig| match extract(&s, fig) {
            Err(e) => Outcome::fail(e),
            Ok(pts) => {
                let region: Vec<f64> = pts
                    .iter()
                    .filter(|p| p.0 >= x_lo && p.0 <= x_hi)
                    .map(|p| p.1)
                    .collect();
                if region.len() < 2 {
                    return Outcome::fail(format!("{} points in region", region.len()));
                }
                let mean = region.iter().sum::<f64>() / region.len() as f64;
                let lo = region.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = region.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let spread = (hi - lo) / mean;
                Outcome::of(
                    spread <= rel_tol,
                    format!(
                        "y {}..{} over {} points (spread {:.4})",
                        fmt_num(lo),
                        fmt_num(hi),
                        region.len(),
                        spread
                    ),
                )
            }
        }),
    )
}

/// Crossing the boundary steps the curve *up*: the first y past `boundary`
/// is at least `min_factor` times the last y at or before it. This is the
/// machine form of "a plateau ends at the 32 KB / 256 KB / 20 MB cache
/// boundary".
pub fn step_up_across(s: Series, boundary: f64, min_factor: f64) -> Check {
    step_across(s, boundary, min_factor, true)
}

/// Crossing the boundary steps the curve *down* by at least `min_factor`
/// (the STREAM 180→140 GB/s bank-occupancy knee).
pub fn step_down_across(s: Series, boundary: f64, min_factor: f64) -> Check {
    step_across(s, boundary, min_factor, false)
}

fn step_across(s: Series, boundary: f64, min_factor: f64, up: bool) -> Check {
    let dir = if up { "step_up_across" } else { "step_down_across" };
    Check::new(
        format!("{dir}[{}; x={}]", s.label(), fmt_num(boundary)),
        format!(
            "{} by >= {min_factor}x across the boundary",
            if up { "rises" } else { "falls" }
        ),
        Arc::new(move |fig| match extract(&s, fig) {
            Err(e) => Outcome::fail(e),
            Ok(pts) => {
                let below = pts.iter().rev().find(|p| p.0 <= boundary);
                let above = pts.iter().find(|p| p.0 > boundary);
                match (below, above) {
                    (Some(b), Some(a)) => {
                        let factor = if up { a.1 / b.1 } else { b.1 / a.1 };
                        Outcome::of(
                            factor >= min_factor,
                            format!(
                                "y({}) = {} vs y({}) = {} ({:.2}x)",
                                fmt_num(b.0),
                                fmt_num(b.1),
                                fmt_num(a.0),
                                fmt_num(a.1),
                                factor
                            ),
                        )
                    }
                    _ => Outcome::fail("no points on both sides of the boundary".into()),
                }
            }
        }),
    )
}

/// Series `a` starts below `b` (at each series' last point with
/// `x <= x_lo`) and ends above it (at the first point with `x >= x_hi`,
/// falling back to the final point when the series ends earlier). Encodes
/// e.g. "Phi STREAM overtakes the host once enough threads are active".
pub fn crossover_between(a: Series, b: Series, x_lo: f64, x_hi: f64) -> Check {
    Check::new(
        format!(
            "crossover_between[{} x {}; x={}..{}]",
            a.label(),
            b.label(),
            fmt_num(x_lo),
            fmt_num(x_hi)
        ),
        "a < b before the window, a > b after it".into(),
        Arc::new(move |fig| {
            let pa = match extract(&a, fig) {
                Ok(p) => p,
                Err(e) => return Outcome::fail(e),
            };
            let pb = match extract(&b, fig) {
                Ok(p) => p,
                Err(e) => return Outcome::fail(e),
            };
            let at = |pts: &[(f64, f64)], lo: bool| -> Option<f64> {
                if lo {
                    pts.iter().rev().find(|p| p.0 <= x_lo).map(|p| p.1)
                } else {
                    pts.iter()
                        .find(|p| p.0 >= x_hi)
                        .or_else(|| pts.last())
                        .map(|p| p.1)
                }
            };
            match (at(&pa, true), at(&pb, true), at(&pa, false), at(&pb, false)) {
                (Some(a1), Some(b1), Some(a2), Some(b2)) => Outcome::of(
                    a1 < b1 && a2 > b2,
                    format!(
                        "before: {} vs {}; after: {} vs {}",
                        fmt_num(a1),
                        fmt_num(b1),
                        fmt_num(a2),
                        fmt_num(b2)
                    ),
                ),
                _ => Outcome::fail("series empty around the window".into()),
            }
        }),
    )
}

/// At every common x, `a/b` lies in `[lo, hi]` — the paper's
/// "host-over-Phi by N–M×" bands.
pub fn ratio_band(a: Series, b: Series, lo: f64, hi: f64) -> Check {
    Check::new(
        format!("ratio_band[{} / {}]", a.label(), b.label()),
        format!("every ratio in [{}, {}]", fmt_num(lo), fmt_num(hi)),
        Arc::new(move |fig| {
            let pa = match extract(&a, fig) {
                Ok(p) => p,
                Err(e) => return Outcome::fail(e),
            };
            let pb = match extract(&b, fig) {
                Ok(p) => p,
                Err(e) => return Outcome::fail(e),
            };
            let mut ratios = Vec::new();
            for (x, ya) in &pa {
                if let Some((_, yb)) = pb.iter().find(|p| p.0 == *x) {
                    let r = ya / yb;
                    if r < lo || r > hi {
                        return Outcome::fail(format!("ratio {:.3} at x={}", r, fmt_num(*x)));
                    }
                    ratios.push(r);
                }
            }
            if ratios.is_empty() {
                return Outcome::fail("no common x between the series".into());
            }
            let rmin = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
            let rmax = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            Outcome::pass(format!(
                "{} ratios in {:.3}..{:.3}",
                ratios.len(),
                rmin,
                rmax
            ))
        }),
    )
}

/// Every y of the series lies in `[lo, hi]` (combine with
/// [`Series::x_in`] to band one region of a curve).
pub fn within_band(s: Series, lo: f64, hi: f64) -> Check {
    Check::new(
        format!("within_band[{}]", s.label()),
        format!("every y in [{}, {}]", fmt_num(lo), fmt_num(hi)),
        Arc::new(move |fig| match extract(&s, fig) {
            Err(e) => Outcome::fail(e),
            Ok(pts) => {
                for (x, y) in &pts {
                    if *y < lo || *y > hi {
                        return Outcome::fail(format!("y({}) = {}", fmt_num(*x), fmt_num(*y)));
                    }
                }
                let ymin = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
                let ymax = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
                Outcome::pass(format!(
                    "{} points, y {}..{}",
                    pts.len(),
                    fmt_num(ymin),
                    fmt_num(ymax)
                ))
            }
        }),
    )
}

/// The series attains its maximum at some `x` in `[x_lo, x_hi]` (first
/// maximum on ties) — "Phi STREAM peaks at 59–118 threads".
pub fn peak_in_range(s: Series, x_lo: f64, x_hi: f64) -> Check {
    Check::new(
        format!(
            "peak_in_range[{}; x={}..{}]",
            s.label(),
            fmt_num(x_lo),
            fmt_num(x_hi)
        ),
        "argmax(y) inside the window".into(),
        Arc::new(move |fig| match extract(&s, fig) {
            Err(e) => Outcome::fail(e),
            Ok(pts) => {
                let (px, py) = pts
                    .iter()
                    .fold((f64::NAN, f64::NEG_INFINITY), |(bx, by), &(x, y)| {
                        if y > by {
                            (x, y)
                        } else {
                            (bx, by)
                        }
                    });
                Outcome::of(
                    px >= x_lo && px <= x_hi,
                    format!("peak y = {} at x = {}", fmt_num(py), fmt_num(px)),
                )
            }
        }),
    )
}

/// Every row matching the filters carries an `OOM` marker in `col` — the
/// paper's out-of-memory failures must stay failures.
pub fn marked_oom(filters: &[(&'static str, &'static str)], col: &'static str) -> Check {
    oom(filters, col, true)
}

/// Every row matching the filters is numeric in `col` (did *not* hit OOM).
pub fn not_oom(filters: &[(&'static str, &'static str)], col: &'static str) -> Check {
    oom(filters, col, false)
}

fn oom(filters: &[(&'static str, &'static str)], col: &'static str, want_oom: bool) -> Check {
    let sel = Series {
        x: col,
        y: col,
        filters: filters.to_vec(),
        x_range: None,
    };
    let name = if want_oom { "marked_oom" } else { "not_oom" };
    Check::new(
        format!("{name}[{}]", sel.label()),
        if want_oom {
            "every matching row carries an OOM marker"
        } else {
            "every matching row is numeric"
        }
        .into(),
        Arc::new(move |fig| {
            let ci = match Series::col_index(fig, col) {
                Ok(i) => i,
                Err(e) => return Outcome::fail(e),
            };
            let rows = match sel.matching_rows(fig) {
                Ok(r) => r,
                Err(e) => return Outcome::fail(e),
            };
            for r in &rows {
                let is_oom = r[ci].contains("OOM");
                if is_oom != want_oom {
                    return Outcome::fail(format!("cell '{}'", r[ci]));
                }
            }
            Outcome::pass(format!("{} row(s)", rows.len()))
        }),
    )
}

/// The scalar lies in `[lo, hi]`.
pub fn scalar_band(sc: Scalar, lo: f64, hi: f64) -> Check {
    Check::new(
        format!("scalar_band[{}]", sc.label()),
        format!("in [{}, {}]", fmt_num(lo), fmt_num(hi)),
        Arc::new(move |fig| match sc.eval(fig) {
            Err(e) => Outcome::fail(e),
            Ok(v) => Outcome::of(v >= lo && v <= hi, fmt_num(v)),
        }),
    )
}

/// The ratio of two scalars lies in `[lo, hi]`.
pub fn scalar_ratio_band(a: Scalar, b: Scalar, lo: f64, hi: f64) -> Check {
    Check::new(
        format!("ratio_band[{} / {}]", a.label(), b.label()),
        format!("in [{}, {}]", fmt_num(lo), fmt_num(hi)),
        Arc::new(move |fig| match (a.eval(fig), b.eval(fig)) {
            (Ok(va), Ok(vb)) => {
                let r = va / vb;
                Outcome::of(
                    r >= lo && r <= hi,
                    format!("{} / {} = {:.3}", fmt_num(va), fmt_num(vb), r),
                )
            }
            (Err(e), _) | (_, Err(e)) => Outcome::fail(e),
        }),
    )
}

/// The named scalars are strictly decreasing in the given order —
/// "Reduction > PARALLEL FOR > … > ATOMIC", "whole > subroutine > loop".
pub fn ordered_desc(what: &str, items: Vec<(&'static str, Scalar)>) -> Check {
    let order: Vec<&str> = items.iter().map(|(n, _)| *n).collect();
    Check::new(
        format!("ordered_desc[{what}]"),
        format!("strictly {}", order.join(" > ")),
        Arc::new(move |fig| {
            let mut vals = Vec::new();
            for (n, sc) in &items {
                match sc.eval(fig) {
                    Ok(v) => vals.push((*n, v)),
                    Err(e) => return Outcome::fail(e),
                }
            }
            let obs: Vec<String> = vals
                .iter()
                .map(|(n, v)| format!("{n} = {}", fmt_num(*v)))
                .collect();
            for w in vals.windows(2) {
                if w[0].1 <= w[1].1 {
                    return Outcome::fail(obs.join(", "));
                }
            }
            Outcome::pass(obs.join(", "))
        }),
    )
}

/// Which extremum [`best_label`] looks for.
#[derive(Debug, Clone, Copy)]
pub enum Best {
    /// The row minimizing `y_col` ("fastest layout").
    Min,
    /// The row maximizing `y_col`.
    Max,
}

/// Among the filtered rows, the one with the extreme `y_col` carries
/// `expected` in `label_col` — "the host's best OVERFLOW layout is 16x1".
pub fn best_label(
    filters: &[(&'static str, &'static str)],
    y_col: &'static str,
    best: Best,
    label_col: &'static str,
    expected: &'static str,
) -> Check {
    let sel = Series {
        x: y_col,
        y: y_col,
        filters: filters.to_vec(),
        x_range: None,
    };
    Check::new(
        format!("best_label[{:?} {}; {}]", best, y_col, sel.label()),
        format!("{label_col} = {expected}"),
        Arc::new(move |fig| {
            let yi = match Series::col_index(fig, y_col) {
                Ok(i) => i,
                Err(e) => return Outcome::fail(e),
            };
            let li = match Series::col_index(fig, label_col) {
                Ok(i) => i,
                Err(e) => return Outcome::fail(e),
            };
            let rows = match sel.matching_rows(fig) {
                Ok(r) => r,
                Err(e) => return Outcome::fail(e),
            };
            let mut best_row: Option<(&Vec<String>, f64)> = None;
            for r in rows {
                if let Some(v) = parse_cell(&r[yi]) {
                    let better = match (&best_row, best) {
                        (None, _) => true,
                        (Some((_, bv)), Best::Min) => v < *bv,
                        (Some((_, bv)), Best::Max) => v > *bv,
                    };
                    if better {
                        best_row = Some((r, v));
                    }
                }
            }
            match best_row {
                None => Outcome::fail("no numeric rows".into()),
                Some((r, v)) => Outcome::of(
                    r[li] == expected,
                    format!("{label_col} = {} (y = {})", r[li], fmt_num(v)),
                ),
            }
        }),
    )
}

/// Among the named columns of the first matching row, the maximum sits in
/// `expected_col` — "MG's best Phi thread count is 177 (3 per core)".
pub fn row_argmax(
    filters: &[(&'static str, &'static str)],
    cols: &[&'static str],
    expected_col: &'static str,
) -> Check {
    let sel = Series {
        x: cols[0],
        y: cols[0],
        filters: filters.to_vec(),
        x_range: None,
    };
    let cols: Vec<&'static str> = cols.to_vec();
    Check::new(
        format!("row_argmax[{}; {}]", cols.join(","), sel.label()),
        format!("max in column {expected_col}"),
        Arc::new(move |fig| {
            let rows = match sel.matching_rows(fig) {
                Ok(r) => r,
                Err(e) => return Outcome::fail(e),
            };
            let mut best: Option<(&'static str, f64)> = None;
            for c in &cols {
                let ci = match Series::col_index(fig, c) {
                    Ok(i) => i,
                    Err(e) => return Outcome::fail(e),
                };
                if let Some(v) = parse_cell(&rows[0][ci]) {
                    if best.is_none_or(|(_, bv)| v > bv) {
                        best = Some((c, v));
                    }
                }
            }
            match best {
                None => Outcome::fail("no numeric cell".into()),
                Some((c, v)) => Outcome::of(
                    c == expected_col,
                    format!("max {} in column {c}", fmt_num(v)),
                ),
            }
        }),
    )
}

/// Some cell of the table contains the substring — for prerendered tables
/// like Table 1 where the derived constants must survive.
pub fn contains(needle: &'static str) -> Check {
    Check::new(
        format!("contains[{needle}]"),
        "some cell contains the text".into(),
        Arc::new(move |fig| {
            let hit = fig
                .rows
                .iter()
                .any(|r| r.iter().any(|c| c.contains(needle)));
            Outcome::of(
                hit,
                if hit {
                    format!("found '{needle}'")
                } else {
                    format!("'{needle}' absent")
                },
            )
        }),
    )
}

/// One predicate's verdict against one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateResult {
    /// Canonical experiment code (`"F04"`).
    pub figure: &'static str,
    /// Predicate name with its arguments.
    pub predicate: String,
    /// Expected band, as prose.
    pub expected: String,
    /// What the table actually showed.
    pub observed: String,
    /// Whether the shape held.
    pub pass: bool,
}

/// Collected verdicts of a conformance run — violations are gathered, not
/// fail-fast, so one report names every bent shape at once.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Every predicate evaluated, in registry order.
    pub results: Vec<PredicateResult>,
}

impl ConformanceReport {
    /// The failing predicates.
    pub fn violations(&self) -> Vec<&PredicateResult> {
        self.results.iter().filter(|r| !r.pass).collect()
    }

    /// True when every predicate held.
    pub fn is_conformant(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }

    /// Number of distinct figures checked.
    pub fn figures(&self) -> usize {
        let mut codes: Vec<&str> = self.results.iter().map(|r| r.figure).collect();
        codes.dedup();
        codes.len()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} predicates over {} artifacts; {} violation(s)",
            self.results.len(),
            self.figures(),
            self.violations().len()
        )
    }

    /// GitHub-flavoured Markdown report (also the golden-file format).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Conformance — paper-shape oracle\n\n");
        out.push_str(&format!("{}.\n\n", self.summary()));
        out.push_str("| figure | predicate | expected | observed | status |\n");
        out.push_str("|---|---|---|---|---|\n");
        for r in &self.results {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                r.figure,
                r.predicate,
                r.expected,
                r.observed,
                if r.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }

    /// JSON report for machine consumers.
    pub fn to_json(&self) -> String {
        use crate::figdata::json_escape;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"predicates\": {},\n", self.results.len()));
        out.push_str(&format!("  \"figures\": {},\n", self.figures()));
        out.push_str(&format!("  \"violations\": {},\n", self.violations().len()));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"figure\": {}, \"predicate\": {}, \"expected\": {}, \"observed\": {}, \"pass\": {} }}{}\n",
                json_escape(r.figure),
                json_escape(&r.predicate),
                json_escape(&r.expected),
                json_escape(&r.observed),
                r.pass,
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Evaluate a checklist against one regenerated figure.
pub fn check_figure(
    figure: &'static str,
    fig: &FigureData,
    checks: &[Check],
) -> Vec<PredicateResult> {
    checks.iter().map(|c| c.eval(figure, fig)).collect()
}

/// Run `ids` through the cached parallel executor and apply each
/// experiment's checklist to its regenerated table.
pub fn check(ids: &[ExperimentId], jobs: usize) -> ConformanceReport {
    check_sweep(&run_experiments_parallel(ids, jobs))
}

/// Apply each experiment's checklist to the tables of an already-run
/// sweep (lets the CLI reuse one sweep for both the report and the
/// `--metrics` profile).
pub fn check_sweep(sweep: &crate::SweepReport) -> ConformanceReport {
    let mut results = Vec::new();
    for run in &sweep.runs {
        let checks = crate::experiments::conformance::checklist(run.id);
        results.extend(check_figure(run.id.meta().code, &run.data, &checks));
    }
    ConformanceReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> FigureData {
        let mut f = FigureData::new("F0", "synthetic", &["device", "size", "bw"]);
        for (d, s, b) in [
            ("host", "1KiB", "1.0"),
            ("host", "4KiB", "2.0"),
            ("host", "16KiB", "2.0"),
            ("host", "64KiB", "8.0"),
            ("phi", "1KiB", "0.5"),
            ("phi", "4KiB", "1.0"),
            ("phi", "16KiB", "1.0"),
            ("phi", "64KiB", "OOM (too big)"),
        ] {
            f.push_row(vec![d.into(), s.into(), b.into()]);
        }
        f
    }

    #[test]
    fn cell_parsing_handles_bytes_and_text() {
        assert_eq!(parse_cell("2.5"), Some(2.5));
        assert_eq!(parse_cell("4KiB"), Some(4096.0));
        assert_eq!(parse_cell("16MiB"), Some((16u64 << 20) as f64));
        assert_eq!(parse_cell("64B"), Some(64.0));
        assert_eq!(parse_cell("OOM (1.4 GB needed)"), None);
        assert_eq!(parse_cell("16x1"), None);
    }

    #[test]
    fn primitives_pass_on_matching_shapes() {
        let f = fig();
        let host = || series("size", "bw").only("device", "host");
        let phi = || series("size", "bw").only("device", "phi");
        let checks = vec![
            monotone_nondecreasing(host()),
            plateau_between(host(), 4096.0, 16384.0, 0.01),
            step_up_across(host(), 16384.0, 3.0),
            ratio_band(host(), phi(), 1.9, 2.1),
            within_band(host().x_in(4096.0, 16384.0), 1.9, 2.1),
            peak_in_range(host(), 65536.0, 65536.0),
            marked_oom(&[("device", "phi"), ("size", "64KiB")], "bw"),
            not_oom(&[("device", "host")], "bw"),
            scalar_band(cell(&[("device", "host"), ("size", "64KiB")], "bw"), 8.0, 8.0),
            ordered_desc(
                "host sizes",
                vec![
                    ("64KiB", cell(&[("device", "host"), ("size", "64KiB")], "bw")),
                    ("4KiB", cell(&[("device", "host"), ("size", "4KiB")], "bw")),
                    ("1KiB", cell(&[("device", "host"), ("size", "1KiB")], "bw")),
                ],
            ),
            best_label(&[("device", "host")], "bw", Best::Max, "size", "64KiB"),
        ];
        for r in check_figure("F0", &f, &checks) {
            assert!(r.pass, "{}: {} (expected {})", r.predicate, r.observed, r.expected);
        }
    }

    #[test]
    fn violations_name_the_offending_values() {
        let f = fig();
        let phi = series("size", "bw").only("device", "phi");
        // The phi series plateaus at 1.0; demanding a step up must fail
        // and the observed string must carry the actual values.
        let r = step_up_across(phi, 4096.0, 2.0).eval("F0", &f);
        assert!(!r.pass);
        assert!(r.observed.contains("1"), "observed: {}", r.observed);
    }

    #[test]
    fn missing_columns_fail_instead_of_panicking() {
        let f = fig();
        let r = monotone_nondecreasing(series("size", "nope")).eval("F0", &f);
        assert!(!r.pass);
        assert!(r.observed.contains("missing"));
        let r = scalar_band(cell(&[("device", "none")], "bw"), 0.0, 1.0).eval("F0", &f);
        assert!(!r.pass);
    }

    #[test]
    fn oom_only_rows_cannot_sneak_through_numeric_predicates() {
        let mut f = FigureData::new("F0", "all oom", &["k", "v"]);
        f.push_row(vec!["a".into(), "OOM".into()]);
        let r = monotone_nondecreasing(series("k", "v")).eval("F0", &f);
        assert!(!r.pass, "an all-OOM series must be a violation");
    }

    #[test]
    fn report_collects_and_renders() {
        let f = fig();
        let checks = vec![
            monotone_nondecreasing(series("size", "bw").only("device", "host")),
            within_band(series("size", "bw").only("device", "host"), 100.0, 200.0),
        ];
        let report = ConformanceReport {
            results: check_figure("F0", &f, &checks),
        };
        assert!(!report.is_conformant());
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.figures(), 1);
        let md = report.to_markdown();
        assert!(md.contains("| F0 |"));
        assert!(md.contains("FAIL"));
        assert!(md.contains("1 violation(s)"));
        let json = report.to_json();
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"pass\": false"));
    }
}
