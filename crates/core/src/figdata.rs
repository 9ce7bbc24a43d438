//! The data container produced by every experiment, with Markdown and CSV
//! renderers used by `maia-bench run` and EXPERIMENTS.md.

/// One regenerated table or figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Short id matching the paper ("T1", "F4", ... "F27").
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes: paper-reported values, calibration remarks,
    /// observed shape checks.
    pub notes: Vec<String>,
}

impl FigureData {
    /// Start an empty figure.
    pub fn new(id: &'static str, title: impl Into<String>, headers: &[&str]) -> Self {
        crate::telemetry::count("figdata.figures", 1);
        FigureData {
            id,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "{}: row width {} vs {} headers",
            self.id,
            cells.len(),
            self.headers.len()
        );
        crate::telemetry::count("figdata.rows", 1);
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Find the numeric value of the cell at `(row_key, column)` where
    /// `row_key` matches the first cell of the row.
    pub fn value(&self, row_key: &str, column: &str) -> Option<f64> {
        let col = self.headers.iter().position(|h| h == column)?;
        let row = self.rows.iter().find(|r| r[0] == row_key)?;
        row[col].parse().ok()
    }

    /// GitHub-flavoured Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }

    /// JSON rendering: `{id, title, headers, rows, notes}` with rows as
    /// arrays of strings (cells are pre-formatted, like the other emitters).
    pub fn to_json(&self) -> String {
        fn arr(items: &[String]) -> String {
            let cells: Vec<String> = items.iter().map(|s| json_escape(s)).collect();
            format!("[{}]", cells.join(", "))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| format!("    {}", arr(r))).collect();
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"headers\": {},\n  \"rows\": [\n{}\n  ],\n  \"notes\": {}\n}}\n",
            json_escape(self.id),
            json_escape(&self.title),
            arr(&self.headers),
            rows.join(",\n"),
            arr(&self.notes),
        )
    }

    /// CSV rendering (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Quote and escape a string for JSON output.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format helper: engineering notation for byte counts.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        let mut f = FigureData::new("F0", "sample", &["size", "value"]);
        f.push_row(vec!["64B".into(), "1.5".into()]);
        f.push_row(vec!["128B".into(), "2.5".into()]);
        f.note("a note");
        f
    }

    #[test]
    fn markdown_has_table_and_notes() {
        let md = sample().to_markdown();
        assert!(md.contains("| size | value |"));
        assert!(md.contains("| 64B | 1.5 |"));
        assert!(md.contains("- a note"));
    }

    #[test]
    fn csv_round_trips_values() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("size,value\n"));
        assert!(csv.contains("128B,2.5"));
    }

    #[test]
    fn json_has_every_section_and_escapes() {
        let mut f = sample();
        f.note("quote \" and backslash \\ survive");
        let j = f.to_json();
        assert!(j.contains("\"id\": \"F0\""));
        assert!(j.contains("[\"size\", \"value\"]"));
        assert!(j.contains("[\"64B\", \"1.5\"]"));
        assert!(j.contains("quote \\\" and backslash \\\\ survive"));
    }

    #[test]
    fn value_lookup() {
        let f = sample();
        assert_eq!(f.value("64B", "value"), Some(1.5));
        assert_eq!(f.value("missing", "value"), None);
        assert_eq!(f.value("64B", "nope"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut f = FigureData::new("F0", "x", &["a", "b"]);
        f.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4096), "4KiB");
        assert_eq!(fmt_bytes(4 << 20), "4MiB");
    }
}
