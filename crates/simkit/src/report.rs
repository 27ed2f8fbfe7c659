//! Plain-text report formatting for the bench harness: aligned tables
//! (the per-app comparisons of Figs. 7 and 8) and `time,value` series
//! (the traces of Figs. 1 and 3).

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|&h| h.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

/// Renders multiple aligned series sharing one x axis.
///
/// # Panics
///
/// Panics if the series lengths differ from the x-axis length.
#[must_use]
pub fn render_multi_series(
    name: &str,
    x_label: &str,
    xs: &[f64],
    series: &[(&str, Vec<f64>)],
) -> String {
    for (label, ys) in series {
        assert_eq!(ys.len(), xs.len(), "series '{label}' length mismatch");
    }
    let mut out = String::new();
    let _ = writeln!(out, "# series: {name}");
    let labels: Vec<&str> = series.iter().map(|(l, _)| *l).collect();
    let _ = writeln!(out, "{x_label},{}", labels.join(","));
    for (i, x) in xs.iter().enumerate() {
        let ys: Vec<String> = series.iter().map(|(_, v)| format!("{:.4}", v[i])).collect();
        let _ = writeln!(out, "{x:.3},{}", ys.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Power", &["app", "schedutil (W)", "next (W)"]);
        t.push_row(vec!["facebook".into(), "3.52".into(), "2.04".into()]);
        t.push_row(vec!["pubg".into(), "7.80".into(), "4.61".into()]);
        let s = t.render();
        assert!(s.contains("== Power =="));
        assert!(s.contains("facebook"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Columns aligned: both data lines have the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn multi_series_aligns_columns() {
        let s = render_multi_series(
            "fig3",
            "time_s",
            &[0.0, 1.0],
            &[("pow_sched", vec![3.5, 3.6]), ("pow_next", vec![2.0, 2.1])],
        );
        assert!(s.contains("time_s,pow_sched,pow_next"));
        assert!(s.contains("1.000,3.6000,2.1000"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn multi_series_length_checked() {
        let _ = render_multi_series("x", "t", &[0.0, 1.0], &[("a", vec![1.0])]);
    }
}
