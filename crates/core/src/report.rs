//! Report formatting: the tables and summary statistics the benchmark
//! harness prints for each reproduced figure.

use crate::metrics::{RunMetrics, RunPair};

/// Median of a sample (by value); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fraction of values at or above `threshold`.
pub fn fraction_at_least(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v >= threshold).count() as f64 / values.len() as f64
}

/// A plain-text table with aligned columns.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// The per-pair scatter row used by Figs. 3, 7, 8, 9: label, base value,
/// prefetch value, improvement.
pub fn scatter_table(
    pairs: &[RunPair],
    metric_name: &str,
    base_of: impl Fn(&RunPair) -> f64,
    with_of: impl Fn(&RunPair) -> f64,
) -> Table {
    let mut t = Table::new(&[
        "experiment",
        &format!("{metric_name} (no prefetch)"),
        &format!("{metric_name} (prefetch)"),
        "improvement %",
    ]);
    for p in pairs {
        let base = base_of(p);
        let with = with_of(p);
        let imp = if base != 0.0 {
            (base - with) / base * 100.0
        } else {
            0.0
        };
        t.row(&[
            p.label.clone(),
            format!("{base:.2}"),
            format!("{with:.2}"),
            format!("{imp:+.1}"),
        ]);
    }
    t
}

/// A `p50/p95/p99` cell from one of [`RunMetrics`]' quantile accessors,
/// in milliseconds.
pub fn quantile_cell(m: &RunMetrics, q: fn(&RunMetrics, f64) -> f64) -> String {
    format!("{:.2}/{:.2}/{:.2}", q(m, 0.50), q(m, 0.95), q(m, 0.99))
}

/// Tail-latency table: one row per labeled run, showing p50/p95/p99 of
/// block read time, hit-wait, and disk response time. Means hide the
/// paper's Fig. 1(b) concern — a few slow reads stall everyone at the
/// next barrier — so reports pair every mean with its tail.
pub fn quantile_table(rows: &[(&str, &RunMetrics)]) -> Table {
    let mut t = Table::new(&[
        "run",
        "read p50/p95/p99 (ms)",
        "hit-wait p50/p95/p99 (ms)",
        "disk resp p50/p95/p99 (ms)",
        "hedged p50/p95/p99 (ms)",
    ]);
    for (label, m) in rows {
        t.row(&[
            label.to_string(),
            quantile_cell(m, RunMetrics::read_quantile_ms),
            quantile_cell(m, RunMetrics::hit_wait_quantile_ms),
            quantile_cell(m, RunMetrics::disk_response_quantile_ms),
            quantile_cell(m, RunMetrics::hedged_read_quantile_ms),
        ]);
    }
    t
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fraction_threshold() {
        let v = [0.1, 0.4, 0.5, 0.9];
        assert!((fraction_at_least(&v, 0.4) - 0.75).abs() < 1e-9);
        assert_eq!(fraction_at_least(&[], 0.1), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with(" 1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.4821), "48.2%");
    }

    #[test]
    fn quantile_table_from_run() {
        use rt_patterns::{AccessPattern, SyncStyle, WorkloadParams};
        let mut cfg =
            crate::ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);
        cfg.procs = 4;
        cfg.disks = 4;
        cfg.workload = WorkloadParams {
            procs: 4,
            file_blocks: 100,
            total_reads: 100,
            ..WorkloadParams::paper()
        };
        let m = crate::experiment::run_experiment(&cfg);
        let s = quantile_table(&[("gw", &m)]).render();
        assert!(s.contains("read p50/p95/p99"));
        assert!(s.contains("gw"));
        // Quantiles come from a real reservoir: positive and monotone.
        assert!(m.read_quantile_ms(0.99) > 0.0);
        assert!(m.read_quantile_ms(0.50) <= m.read_quantile_ms(0.99));
        assert!(m.disk_response_quantile_ms(0.50) <= m.disk_response_quantile_ms(0.99));
    }
}
