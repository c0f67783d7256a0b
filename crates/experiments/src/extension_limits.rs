//! Extension: limit study — how much performance is left on the table?
//!
//! An *oracle* indirect-target predictor (perfect prediction for every
//! BTB-detected indirect branch) bounds what any target predictor could
//! deliver on this machine. Comparing the target cache's realized
//! execution-time reduction against the oracle's shows how much of the
//! available headroom the paper's mechanism captures — and for which
//! benchmarks residual mispredictions still matter.

use crate::headline::best_tagless_for;
use crate::jobs::{CellData, CellSet};
use crate::report::{pct, TextTable};
use crate::runner::{timings, trace, Scale, ISCA97};
use crate::telemetry::TelemetryCtx;
use hps_uarch::MachineConfig;
use sim_workloads::Benchmark;
use target_cache::harness::FrontEndConfig;

/// Fraction of the oracle's headroom a target cache captures, from the
/// two execution-time reductions.
pub fn capture_ratio(target_cache: f64, oracle: f64) -> f64 {
    if oracle <= 0.0 {
        1.0
    } else {
        (target_cache / oracle).clamp(-1.0, 1.0)
    }
}

/// The benchmark labels this experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    Benchmark::ALL.iter().map(|b| b.name()).collect()
}

/// Computes one benchmark's cell.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let benchmark = crate::jobs::benchmark(label);
    let t = trace(ctx, benchmark.workload(), scale);
    let machines = [
        FrontEndConfig::isca97_baseline(),
        FrontEndConfig::isca97_with(best_tagless_for(benchmark)),
        FrontEndConfig::isca97_oracle(),
    ]
    .map(MachineConfig::isca97);
    let reports = timings(ctx, &t, &machines, ISCA97);
    let (base, tc, oracle) = (&reports[0], &reports[1], &reports[2]);
    let mut d = CellData::new();
    d.set("target_cache", tc.exec_time_reduction_vs(base));
    d.set("oracle", oracle.exec_time_reduction_vs(base));
    d
}

/// Renders a (possibly partial) cell set as the limit-study table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "target cache".into(),
        "oracle".into(),
        "captured".into(),
    ]);
    for &b in &Benchmark::ALL {
        let n = b.name();
        let captured = match cells.data(n) {
            Some(d) => pct(capture_ratio(d.req("target_cache"), d.req("oracle"))),
            None => crate::jobs::err_marker(cells.failure(n).unwrap_or("cell missing")),
        };
        table.row(vec![
            n.into(),
            cells.fmt(n, "target_cache", pct),
            cells.fmt(n, "oracle", pct),
            captured,
        ]);
    }
    format!(
        "Extension: limit study — execution-time reduction vs BTB baseline\n\
         (oracle = perfect target prediction for BTB-detected indirect branches)\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::registry::quick_cells;

    #[test]
    fn oracle_bounds_the_target_cache() {
        let cells = quick_cells("extension_limits");
        for b in Benchmark::ALL {
            let d = cells.data(b.name()).unwrap();
            let (target_cache, oracle) = (d.req("target_cache"), d.req("oracle"));
            assert!(
                target_cache <= oracle + 0.005,
                "{b}: target cache ({target_cache}) cannot beat the oracle ({oracle})"
            );
            assert!(oracle >= -0.005, "{b}: oracle cannot slow the machine");
        }
    }

    #[test]
    fn perl_captures_most_of_its_headroom() {
        let cells = quick_cells("extension_limits");
        let perl = cells.data(Benchmark::Perl.name()).unwrap();
        let captured = capture_ratio(perl.req("target_cache"), perl.req("oracle"));
        assert!(
            captured > 0.8,
            "perl: path-history target cache captures {captured} of the oracle headroom"
        );
    }

    #[test]
    fn headroom_concentrates_in_the_hard_benchmarks() {
        let cells = quick_cells("extension_limits");
        let get = |b: Benchmark| cells.data(b.name()).unwrap().req("oracle");
        assert!(get(Benchmark::Perl) > get(Benchmark::Compress));
        assert!(get(Benchmark::Gcc) > get(Benchmark::Ijpeg));
    }
}
