//! Figures 1–8: the number of distinct dynamic targets per static indirect
//! jump, per benchmark.
//!
//! The paper plots, for each benchmark, the percentage of indirect jumps
//! exhibiting k distinct dynamic targets (k = 1..29, ≥30). Benchmarks with
//! near-monomorphic jumps (compress, ijpeg, vortex, xlisp) are the easy
//! cases for a BTB; gcc and perl spread across many targets.

use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{trace, Scale};
use crate::telemetry::TelemetryCtx;
use sim_workloads::Benchmark;

/// The paper's histogram cap: the last bucket is "≥ 30".
pub const CAP: usize = 30;

/// Fraction of *dynamic* indirect jumps executed at sites with at least
/// `k` distinct targets, from a dynamic-weighted histogram (slot k-1;
/// last slot is the ≥CAP bucket).
pub fn dynamic_fraction_at_least(dynamic_hist: &[u64], k: usize) -> f64 {
    let total: u64 = dynamic_hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let ge: u64 = dynamic_hist[k.saturating_sub(1)..].iter().sum();
    ge as f64 / total as f64
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell. Histogram slots are stored sparsely
/// (`s<k>` static, `d<k>` dynamic, k 1-based; absent slot = zero).
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let stats = trace(ctx, benchmark.workload(), scale).stats();
    let mut d = CellData::new();
    for (prefix, hist) in [
        ("s", stats.targets_per_jump_histogram(CAP)),
        ("d", stats.dynamic_targets_per_jump_histogram(CAP)),
    ] {
        for (k, &n) in hist.iter().enumerate() {
            if n > 0 {
                d.set(format!("{prefix}{}", k + 1), n as f64);
            }
        }
    }
    d
}

/// A cell's histogram, `s` static or `d` dynamic, densely: slot k-1
/// holds the count for k targets.
fn hist_from_cell(d: &CellData, prefix: &str) -> Vec<u64> {
    (1..=CAP)
        .map(|k| d.get(&format!("{prefix}{k}")).unwrap_or(0.0) as u64)
        .collect()
}

/// Renders one benchmark's per-k dynamic histogram as ASCII bars, the
/// shape the paper's figures plot (percentage of dynamic indirect jumps
/// whose site has exactly k distinct targets).
pub fn render_figure(benchmark: Benchmark, dynamic_hist: &[u64]) -> String {
    let total: u64 = dynamic_hist.iter().sum();
    let mut out = format!("Figure: {benchmark} — targets per indirect jump\n");
    if total == 0 {
        out.push_str("  (no indirect jumps)\n");
        return out;
    }
    for (k, &n) in dynamic_hist.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let frac = n as f64 / total as f64;
        let bar = "#".repeat((frac * 50.0).round() as usize);
        let label = if k + 1 == CAP {
            ">=30".to_string()
        } else {
            format!("{:>4}", k + 1)
        };
        out.push_str(&format!("  {label} |{bar:<50} {:5.1}%\n", frac * 100.0));
    }
    out
}

/// Renders a (possibly partial) cell set: failed benchmarks get `ERR`
/// table slots and an explicit marker in place of their figure.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "sites".into(),
        "dyn % 1 target".into(),
        "dyn % 2-4".into(),
        "dyn % 5-15".into(),
        "dyn % >=16".into(),
    ]);
    for &b in &Benchmark::ALL {
        match cells.data(b.name()) {
            Some(d) => {
                let dynamic_hist = hist_from_cell(d, "d");
                let total: u64 = dynamic_hist.iter().sum();
                let frac = |lo: usize, hi: usize| {
                    if total == 0 {
                        0.0
                    } else {
                        dynamic_hist[lo..hi].iter().sum::<u64>() as f64 / total as f64
                    }
                };
                table.row(vec![
                    b.name().into(),
                    hist_from_cell(d, "s").iter().sum::<u64>().to_string(),
                    pct(frac(0, 1)),
                    pct(frac(1, 4)),
                    pct(frac(4, 15)),
                    pct(frac(15, CAP)),
                ]);
            }
            None => {
                let marker =
                    crate::jobs::err_marker(cells.failure(b.name()).unwrap_or("cell missing"));
                table.row(vec![
                    b.name().into(),
                    marker.clone(),
                    marker.clone(),
                    marker.clone(),
                    marker.clone(),
                    marker,
                ]);
            }
        }
    }
    let mut out = format!(
        "Figures 1-8: distinct dynamic targets per static indirect jump\n\
         (dynamic-execution-weighted buckets; per-k bars below)\n\n{}",
        table.render()
    );
    for &b in &Benchmark::ALL {
        out.push('\n');
        match cells.data(b.name()) {
            Some(d) => out.push_str(&render_figure(b, &hist_from_cell(d, "d"))),
            None => out.push_str(&format!(
                "Figure: {b} — {}\n",
                crate::jobs::err_marker(cells.failure(b.name()).unwrap_or("cell missing"))
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick_cells;

    #[test]
    fn easy_benchmarks_are_dominated_by_monomorphic_jumps() {
        let cells = quick_cells("fig_targets");
        let fraction_at_least_5 = |b: Benchmark| {
            dynamic_fraction_at_least(&hist_from_cell(cells.data(b.name()).unwrap(), "d"), 5)
        };
        // perl and gcc: most dynamic indirect jumps run at polymorphic
        // sites (Figures 2 and 6 show wide distributions).
        for hard in [Benchmark::Perl, Benchmark::Gcc] {
            let f = fraction_at_least_5(hard);
            assert!(
                f > 0.5,
                "{hard}: only {f} of dynamic jumps at >=5-target sites"
            );
        }
        // compress and ijpeg: narrow distributions.
        for easy in [Benchmark::Compress, Benchmark::Ijpeg] {
            let f = fraction_at_least_5(easy);
            assert!(f < 0.5, "{easy}: {f} of dynamic jumps at >=5-target sites");
        }
    }

    #[test]
    fn figure_bars_sum_to_one() {
        let cells = quick_cells("fig_targets");
        for b in Benchmark::ALL {
            let fig = render_figure(b, &hist_from_cell(cells.data(b.name()).unwrap(), "d"));
            assert!(fig.contains(b.name()));
            // Every printed percentage is a share of the total; the bars
            // for a benchmark with jumps must mention at least one row.
            assert!(fig.contains('%'), "{fig}");
        }
    }

    #[test]
    fn histogram_mass_is_consistent() {
        let cells = quick_cells("fig_targets");
        for b in Benchmark::ALL {
            let d = cells.data(b.name()).unwrap();
            let (static_hist, dynamic_hist) = (hist_from_cell(d, "s"), hist_from_cell(d, "d"));
            assert_eq!(static_hist.len(), CAP);
            assert_eq!(dynamic_hist.len(), CAP);
            assert!(static_hist.iter().sum::<u64>() > 0, "{b}");
        }
    }
}
