//! Minimal aligned-text table and CSV rendering (no dependencies).

use std::fmt::Write;

/// A simple right-aligned numeric table with a header row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: Into<String>>(title: S, headers: Vec<&str>) -> Self {
        Self {
            title: title.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of pre-formatted cells.
    ///
    /// # Panics
    /// Panics when the cell count differs from the header count
    /// (programming error in the harness).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Appends a row of numbers, formatted with `precision` decimals.
    pub fn push_nums(&mut self, values: &[f64], precision: usize) {
        self.push_row(values.iter().map(|v| format!("{v:.precision$}")).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let sep: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        for (i, (h, w)) in self.headers.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{h:>w$}");
        }
        out.push('\n');
        out.extend(std::iter::repeat_n('-', sep));
        out.push('\n');
        for row in &self.rows {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header + rows, comma-separated).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, cell) in line.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(cell);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", vec!["p", "MTCD", "MTSD"]);
        t.push_nums(&[0.1, 86.97, 80.0], 2);
        t.push_nums(&[1.0, 98.0, 80.0], 2);
        t
    }

    #[test]
    fn dimensions() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn render_is_aligned() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "demo");
        assert!(lines[1].contains("MTCD"));
        assert!(lines[2].starts_with('-'));
        // Data rows align on column widths.
        assert!(lines[3].trim_start().starts_with("0.10"));
    }

    #[test]
    fn csv_shape() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "p,MTCD,MTSD");
        assert_eq!(lines.next().unwrap(), "0.10,86.97,80.00");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", vec!["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn empty_title_skipped() {
        let t = Table::new("", vec!["a"]);
        assert!(!t.render().starts_with('\n'));
    }
}
