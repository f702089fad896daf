//! Lightweight table rendering for the experiment harness.
//!
//! The benchmark binaries print markdown tables to stdout and write CSV files
//! into `results/`; both come from the same [`Table`] value so the two views
//! cannot drift apart.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A rectangular table of strings with a header row and a title.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Append a row; must match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Render as a GitHub-flavored markdown table (with title as a heading).
    pub fn to_markdown(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        let _ = writeln!(out);
        debug_assert_eq!(ncol, widths.len());
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV form to `path`, creating parent directories as needed.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Format a float with a fixed number of significant decimal places, trimming
/// noise — used by the experiment binaries for consistent table cells.
pub fn fnum(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["layout", "cycles"]);
        t.row(vec!["AoS".into(), "480".into()]);
        t.row(vec!["SoAoaS".into(), "320".into()]);
        t
    }

    #[test]
    fn markdown_contains_all_cells_and_alignment_rule() {
        let md = sample().to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| layout |"));
        assert!(md.contains("AoS"));
        assert!(md.contains("SoAoaS"));
        assert!(md
            .lines()
            .any(|l| l.starts_with("|--") || l.starts_with("| -") || l.contains("---")));
    }

    #[test]
    fn csv_roundtrip_simple() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "layout,cycles");
        assert_eq!(lines.next().unwrap(), "AoS,480");
        assert_eq!(lines.next().unwrap(), "SoAoaS,320");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("q", &["a"]);
        t.row(vec!["has,comma".into()]);
        t.row(vec!["has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("simcore_table_test_{}", std::process::id()));
        let path = dir.join("nested/out.csv");
        sample().write_csv(&path).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(2.0, 0), "2");
    }
}
