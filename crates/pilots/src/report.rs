//! Result tables for the experiment harness.
//!
//! Every experiment returns a [`Report`]: a titled table whose `Display`
//! output is exactly what EXPERIMENTS.md records, so paper-style results
//! can be regenerated with one binary run.

use std::fmt;

/// A titled result table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// Experiment id and title (e.g. `"E1: water & energy"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
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

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:width$} |", width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with the given precision (helper for experiment rows).
pub fn fmt_f(value: f64, precision: usize) -> String {
    format!("{value:.precision$}")
}

/// Formats a fraction as a percentage string.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders() {
        let mut r = Report::new("E0: demo", &["policy", "water_m3"]);
        r.push_row(vec!["smart".into(), fmt_f(1234.5, 1)]);
        r.push_row(vec!["fixed".into(), fmt_f(2000.0, 1)]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.rows[0][1], "1234.5");
        let text = r.to_string();
        assert!(text.contains("## E0: demo"));
        assert!(text.contains("| smart"));
        assert!(text.contains("|--"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut r = Report::new("t", &["a", "b"]);
        r.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.256), "25.6%");
    }
}
