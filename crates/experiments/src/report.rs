//! Plain-text table rendering for experiment reports.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", c, w = width[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with sensible precision for reports (3 significant
/// decimals below 100, integer-ish above).
pub fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "-".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// What every experiment reports: its rendered text, one labelled
/// digest per underlying run, and every invariant violation (empty =
/// the battery passed, or the experiment has none). `repro --check`
/// compares two outcomes of the same sweep run at different `--jobs`
/// values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// The rendered report.
    pub text: String,
    /// `(run label, RunResults digest)` in run order.
    pub digests: Vec<(String, u64)>,
    /// Invariant violations, each prefixed with its run's label.
    pub violations: Vec<String>,
}

/// Mean of the finite samples (`NaN` if there are none).
pub(crate) fn mean_finite(samples: impl IntoIterator<Item = f64>) -> f64 {
    let finite: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// Relative change of `x` against `base`, in percent.
pub(crate) fn delta_pct(x: f64, base: f64) -> f64 {
    (x - base) / base * 100.0
}

/// Formats a byte count for reports.
pub fn fmt_bytes(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2}MB", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}KB", x / 1e3)
    } else {
        format!("{x:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["policy", "p99"]);
        t.row(vec!["L2BM".into(), "1.20".into()]);
        t.row(vec!["DT".into(), "12.00".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("policy"));
        assert!(lines[2].starts_with("L2BM"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(f64::NAN), "-");
        assert_eq!(fmt_f64(123.4), "123");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(0.01234), "0.0123");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(4_000_000.0), "4.00MB");
        assert_eq!(fmt_bytes(512_000.0), "512.0KB");
        assert_eq!(fmt_bytes(48.0), "48B");
    }
}
