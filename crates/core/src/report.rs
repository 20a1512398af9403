//! Paper-style text rendering of experiment results.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An aligned text table (the rendering used for Tables I–V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: Vec<impl Into<String>>) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<impl Into<String>>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>| {
            for width in &w {
                write!(f, "+{}", "-".repeat(width + 2))?;
            }
            writeln!(f, "+")
        };
        line(f)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "| {:width$} ", h, width = w[i])?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                write!(f, "| {:>width$} ", c, width = w[i])?;
            }
            writeln!(f, "|")?;
        }
        line(f)
    }
}

/// PASS/FAIL cell text (survey scoreboard and check lines).
pub fn pass_fail(passed: bool) -> &'static str {
    if passed {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Format a frequency in GHz with the paper's precision.
pub fn ghz(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a power in W with the paper's precision.
pub fn watts(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("Demo", vec!["setting", "GHz"]);
        t.row(vec!["Turbo", "3.0"]);
        t.row(vec!["2.5", "2.2"]);
        let s = t.to_string();
        assert!(s.contains("| setting | GHz |"));
        assert!(s.contains("|   Turbo | 3.0 |"));
        // Every data line has the same width.
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(widths
            .windows(2)
            .all(|w| w[0] == w[1] || w[0] == 4 /* title */));
    }

    #[test]
    fn formatters_match_paper_precision() {
        assert_eq!(ghz(2.345), "2.35");
        assert_eq!(watts(560.44), "560.4");
        assert_eq!(pass_fail(true), "PASS");
        assert_eq!(pass_fail(false), "FAIL");
    }
}
