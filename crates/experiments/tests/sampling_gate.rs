//! The documented phase-sampling error bound, gated at standard scale.
//!
//! Every benchmark's exact-vs-sampled row is built from the sampling
//! primitives (phase map, warmed representative slices, weighted
//! recombination) and the exact functional walk. Every row with enough
//! sampled indirect jumps to resolve the tolerance must be within
//! [`DEFAULT_TOLERANCE_PP`] of the exact Table 1 BTB rate, and perl and
//! gcc, the paper's two indirect-jump-heavy benchmarks, must be among
//! the gated rows so the check is never vacuous. The rows must also
//! equal the `simpoint` experiment's cells: the table `repro_all`
//! prints is the one this test judges.

use experiments::jobs::{benchmark, registry};
use experiments::runner::{functional, trace, Scale};
use experiments::sample::{
    cell_labels, phase_map, rate_from_slices, sampled_ij, sampled_slices, BenchError,
    DEFAULT_TOLERANCE_PP, WARMUP_RECORDS,
};
use experiments::telemetry::TelemetryCtx;
use target_cache::harness::FrontEndConfig;

/// One benchmark's exact-vs-sampled row at standard scale.
fn row(ctx: &TelemetryCtx, label: &str) -> BenchError {
    let t = trace(ctx, benchmark(label).workload(), Scale::Standard);
    let map = phase_map(ctx, &t);
    let frontend = FrontEndConfig::isca97_baseline();
    let slices = sampled_slices(ctx, &t, &map, WARMUP_RECORDS, frontend);
    BenchError {
        bench: label.to_string(),
        exact: functional(ctx, &t, frontend).indirect_jump_misprediction_rate(),
        sampled: rate_from_slices(&slices),
        chunks: map.chunks,
        phases: map.phases.len() as u64,
        slices: slices.len() as u64,
        sampled_ij: sampled_ij(&slices),
    }
}

#[test]
fn gated_benchmarks_stay_within_tolerance_at_standard_scale() {
    let ctx = TelemetryCtx::off();
    let experiment = registry::find("simpoint")
        .expect("simpoint is registered")
        .compute(&ctx, Scale::Standard);

    let mut gated = Vec::new();
    let mut over = Vec::new();
    for label in cell_labels() {
        let row = row(&ctx, label);
        let cell = experiment
            .data(label)
            .unwrap_or_else(|| panic!("{label}: simpoint cell missing"));
        assert_eq!(
            row.sampled,
            cell.req("sampled_mispred"),
            "{label}: sampled rate differs from the simpoint experiment"
        );
        assert_eq!(
            row.exact,
            cell.req("exact_mispred"),
            "{label}: exact rate differs from the simpoint experiment"
        );
        assert!(row.phases >= 1 && row.phases <= row.chunks, "{row:?}");
        if row.gated(DEFAULT_TOLERANCE_PP) {
            gated.push(label);
            if row.abs_err_pp() > DEFAULT_TOLERANCE_PP {
                over.push(format!(
                    "{label}: sampled {} vs exact {} ({:.3} pp)",
                    row.sampled,
                    row.exact,
                    row.abs_err_pp()
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "over the {DEFAULT_TOLERANCE_PP} pp tolerance:\n{}",
        over.join("\n")
    );
    for bench in ["perl", "gcc"] {
        assert!(gated.contains(&bench), "{bench} is not gated: {gated:?}");
    }
}
