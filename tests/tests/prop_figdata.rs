//! Property tests for the `FigureData` emitters: for generated tables the
//! JSON output actually parses and round-trips, CSV row counts match, and
//! `value(row_key, column)` agrees with what a consumer re-reading the
//! markdown, CSV or JSON rendering would extract.

use std::time::Duration;

use maia_core::{
    ExperimentFailure, ExperimentId, FailureKind, FaultPlan, FigureData, ResilienceReport,
};
use maia_tests::minijson::{self, Json};
use proptest::prelude::*;

/// Deterministic cell text derived from (seed, row, col): mostly numeric
/// (what `value()` consumes), sometimes label-ish, never containing the
/// `,` / `|` / newline separators the md and csv formats reserve.
fn cell_text(seed: u64, row: usize, col: usize) -> String {
    let h = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((row as u64) << 32 ^ col as u64)
        .wrapping_mul(0xBF58476D1CE4E5B9);
    match h % 4 {
        0 => format!("{}", h % 100_000),
        1 => format!("{}.{:03}", h % 1000, (h >> 10) % 1000),
        2 => format!("{}KiB", 1u64 << (h % 20)),
        _ => ["OOM", "n/a", "host", "phi0", "STATIC"][(h >> 8) as usize % 5].to_string(),
    }
}

/// Build a table with unique `r{i}` row keys and palette-derived cells.
fn build(seed: u64, n_rows: usize, n_cols: usize) -> FigureData {
    let headers: Vec<String> = (0..n_cols).map(|c| format!("col{c}")).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut fig = FigureData::new("P0", format!("generated table {seed}"), &header_refs);
    for r in 0..n_rows {
        let mut row = vec![format!("r{r}")];
        for c in 1..n_cols {
            row.push(cell_text(seed, r, c));
        }
        fig.push_row(row);
    }
    if seed.is_multiple_of(3) {
        fig.note(format!("seeded with {seed}"));
    }
    fig
}

/// Pull the string table back out of a parsed JSON document.
fn json_rows(doc: &Json) -> Vec<Vec<String>> {
    doc.get("rows")
        .and_then(Json::as_array)
        .expect("rows array")
        .iter()
        .map(|row| {
            row.as_array()
                .expect("row is array")
                .iter()
                .map(|c| c.as_str().expect("cell is string").to_string())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `to_json` produces a document the strict parser accepts, and every
    /// field round-trips: id, title, headers, all cells, notes.
    #[test]
    fn json_round_trips(seed in any::<u64>(), n_rows in 1usize..12, n_cols in 2usize..6) {
        let fig = build(seed, n_rows, n_cols);
        let doc = minijson::parse(&fig.to_json()).expect("emitted JSON must parse");
        prop_assert_eq!(doc.get("id").and_then(Json::as_str), Some(fig.id));
        prop_assert_eq!(doc.get("title").and_then(Json::as_str), Some(fig.title.as_str()));
        let headers: Vec<String> = doc
            .get("headers").and_then(Json::as_array).expect("headers")
            .iter().map(|h| h.as_str().unwrap().to_string()).collect();
        prop_assert_eq!(&headers, &fig.headers);
        prop_assert_eq!(&json_rows(&doc), &fig.rows);
        let notes = doc.get("notes").and_then(Json::as_array).expect("notes").len();
        prop_assert_eq!(notes, fig.notes.len());
    }

    /// CSV has exactly header + one line per row, with matching widths.
    #[test]
    fn csv_row_counts_match(seed in any::<u64>(), n_rows in 1usize..12, n_cols in 2usize..6) {
        let fig = build(seed, n_rows, n_cols);
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        prop_assert_eq!(lines.len(), fig.rows.len() + 1);
        prop_assert_eq!(lines[0], fig.headers.join(","));
        for (line, row) in lines[1..].iter().zip(&fig.rows) {
            prop_assert_eq!(line.split(',').count(), fig.headers.len());
            prop_assert_eq!(*line, row.join(","));
        }
    }

    /// `value(row_key, column)` agrees with what a consumer re-parsing
    /// each of the three renderings would read from the same cell.
    #[test]
    fn value_agrees_across_formats(seed in any::<u64>(), n_rows in 1usize..10, n_cols in 2usize..5) {
        let fig = build(seed, n_rows, n_cols);
        let doc = minijson::parse(&fig.to_json()).expect("emitted JSON must parse");
        let jrows = json_rows(&doc);
        let csv_text = fig.to_csv();
        let csv: Vec<Vec<&str>> = csv_text.lines().skip(1)
            .map(|l| l.split(',').collect()).collect();
        let md: Vec<Vec<String>> = fig.to_markdown().lines()
            .filter(|l| l.starts_with("| r"))
            .map(|l| l.trim_matches('|').split(" | ").map(|c| c.trim().to_string()).collect())
            .collect();
        prop_assert_eq!(md.len(), fig.rows.len());
        for (r, row) in fig.rows.iter().enumerate() {
            for (c, header) in fig.headers.iter().enumerate() {
                let direct = fig.value(&row[0], header);
                // All three renderings carry the identical cell text, so
                // parsing any of them must give the same number (or the
                // same refusal for label cells).
                for cell in [&jrows[r][c], &md[r][c], &csv[r][c].to_string()] {
                    prop_assert_eq!(
                        direct, cell.parse::<f64>().ok(),
                        "cell ({}, {}) diverged", row[0], header
                    );
                }
            }
        }
    }
}

/// Non-property companion: cells the generator cannot produce (the
/// separator-free constraint) still escape correctly through JSON.
#[test]
fn gnarly_strings_survive_json() {
    let mut fig = FigureData::new(
        "P1",
        "quotes \" backslash \\ newline \n tab \t bell \u{0007}",
        &["k", "naughty"],
    );
    fig.push_row(vec!["r0".into(), "a\"b\\c\nd\te\r\u{0001}é😀".into()]);
    fig.note("note with \"quotes\" and \\u escapes \u{000b}");
    let doc = minijson::parse(&fig.to_json()).expect("escaped JSON must parse");
    assert_eq!(doc.get("title").and_then(Json::as_str), Some(fig.title.as_str()));
    assert_eq!(
        doc.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[1].as_str(),
        Some("a\"b\\c\nd\te\r\u{0001}é😀")
    );
    assert_eq!(
        doc.get("notes").unwrap().as_array().unwrap()[0].as_str(),
        Some("note with \"quotes\" and \\u escapes \u{000b}")
    );
}

/// A resilience failure's detail is an arbitrary panic payload, and
/// `assert_eq!` payloads span lines: the report's JSON must still parse
/// and hand the detail back verbatim.
#[test]
fn resilience_failure_detail_survives_json() {
    let detail = "assertion `left == right` failed\n  left: \"a\\b\"\n right: 2\ttab \u{1}";
    let report = ResilienceReport {
        plan: FaultPlan::named("straggler").expect("canned plan"),
        jobs: 1,
        deltas: Vec::new(),
        nominal_failures: Vec::new(),
        degraded_failures: vec![ExperimentFailure {
            id: ExperimentId::F17Io,
            kind: FailureKind::Panic,
            detail: detail.to_string(),
            wall: Duration::ZERO,
        }],
        mode_switches: vec!["switch\nacross lines".to_string()],
        injected_vt_ps: 0,
    };
    let doc = minijson::parse(&report.to_json()).expect("resilience JSON must parse");
    let failures = doc
        .get("failures")
        .and_then(Json::as_array)
        .expect("failures");
    assert_eq!(
        failures[0].get("detail").and_then(Json::as_str),
        Some(detail)
    );
    let switches = doc
        .get("mode_switches")
        .and_then(Json::as_array)
        .expect("switches");
    assert_eq!(switches[0].as_str(), Some("switch\nacross lines"));
}

/// The conformance report's JSON emitter obeys the same grammar.
#[test]
fn conformance_report_json_parses() {
    let report = maia_core::check(&[maia_core::ExperimentId::F17Io], 1);
    let doc = minijson::parse(&report.to_json()).expect("report JSON must parse");
    assert_eq!(
        doc.get("predicates").and_then(Json::as_f64),
        Some(report.results.len() as f64)
    );
    assert_eq!(doc.get("violations").and_then(Json::as_f64), Some(0.0));
    let results = doc.get("results").and_then(Json::as_array).expect("results");
    assert_eq!(results.len(), report.results.len());
    assert!(results.iter().all(|r| r.get("figure").and_then(Json::as_str) == Some("F17")));
}
