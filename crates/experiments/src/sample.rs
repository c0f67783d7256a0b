//! SimPoint-style sampled simulation: phase maps over BBV chunk
//! fingerprints, warmed representative-slice measurement, and weighted
//! recombination into a sampled misprediction rate.
//!
//! The trace is fingerprinted ([`sim_trace::fingerprint_trace`]), the
//! chunk BBVs are clustered ([`simpoint::cluster`]), and each phase is
//! sampled at up to one member chunk per [`REP_SPACING`] members (the
//! SimPoint-3.0 "multiple simulation points" device — a lone
//! 4096-record slice carries too much variance to stand for a whole
//! phase). Each slice is simulated after warming predictor state on the
//! [`WARMUP_RECORDS`] records before it, and the per-slice counts are
//! recombined by slice weight ([`simpoint::recombine`]).
//!
//! This machinery backs the `simpoint` registry experiment, whose cells
//! compute the sampled *and* exact Table 1 BTB indirect-jump
//! misprediction rates per benchmark and report the error columns as a
//! regular table; `simpoint-pack compare` runs the same sequential path
//! against a written phase map. A [`BenchError`] row judges one
//! benchmark against the documented [`DEFAULT_TOLERANCE_PP`] bound. A
//! benchmark whose sampled slices executed too few indirect jumps to
//! resolve the tolerance (one misprediction flip moves the rate by
//! `100/n` pp) is low-signal and not gated: at small scales the
//! sparse-indirect workloads (compress, ijpeg) simply do not carry
//! enough events per slice for a percentage-point bound to be
//! statistically meaningful. The workspace test `sampling_gate` holds
//! every gated benchmark to the bound at standard scale.

use crate::jobs::{CellData, CellSet};
use crate::report::{count, pct, TextTable};
use crate::runner::{functional, trace, Scale};
use crate::table1;
use crate::telemetry::{self, TelemetryCtx};
use branch_predictors::ClassCounters;
use sim_isa::VecTrace;
use sim_trace::CHUNK_RECORDS;
use simpoint::{cluster, recombine, ClusterConfig, PhaseMap, SliceStats};
use std::collections::BTreeMap;
use target_cache::harness::{FrontEndConfig, PredictionHarness};

/// Records of predictor warm-up simulated before each representative
/// slice. 1024 records fill the BTB's hot set at the table sizes the
/// paper studies — a sweep over {4096, 3072, 2048, 1024, 512} records
/// at standard scale shows every signal-bearing benchmark's error flat
/// (or improving) down to 1024, so longer warm-up would only eat into
/// the sampling speedup. Warm-up is priced in records, not chunks: it
/// is predictor state, not a sampling unit.
pub const WARMUP_RECORDS: usize = 1024;

/// Sentinel warm-up meaning "the entire trace prefix": with an
/// exhaustive phase map this makes sampling bit-identical to exact
/// simulation, which is the recombination-identity invariant the tests
/// pin.
pub const FULL_WARMUP: usize = usize::MAX;

/// The documented error bound, in percentage points of indirect-jump
/// misprediction rate: the `sampling_gate` test's tolerance and the
/// default of `simpoint-pack compare --tolerance-pp`.
pub const DEFAULT_TOLERANCE_PP: f64 = 1.0;

/// One representative slice is measured per (up to) this many member
/// chunks of a phase — the accuracy/speed dial. Larger values sample
/// fewer slices (faster, noisier); each phase always gets at least one.
pub const REP_SPACING: usize = 9;

/// Fingerprints a trace and clusters its chunk BBVs into a phase map
/// with the default deterministic configuration. Records the
/// `sampling.chunks` / `sampling.phases` / `sampling.total_instructions`
/// manifest counters when telemetry is on.
pub fn phase_map(ctx: &TelemetryCtx, t: &VecTrace) -> PhaseMap {
    let map = {
        let _g = ctx.hub().map(|h| h.spans().span("phase-cluster"));
        let bbv = sim_trace::fingerprint_trace(t);
        cluster(&bbv.chunks, &ClusterConfig::default())
    };
    if let Some(hub) = ctx.hub() {
        let metrics = hub.registry();
        metrics.counter("sampling.chunks").add(map.chunks);
        metrics
            .counter("sampling.phases")
            .add(map.phases.len() as u64);
        metrics
            .counter("sampling.total_instructions")
            .add(t.len() as u64);
    }
    map
}

/// One slice of the sampling plan: a member chunk measured on behalf of
/// `multiplier` chunks of its phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Representative {
    /// Phase (cluster) the slice belongs to.
    pub cluster: u32,
    /// Chunk index of the slice.
    pub chunk: u64,
    /// Member chunks this slice stands for; multipliers within a phase
    /// sum to the phase size, so plan weights recombine exactly like
    /// the phase weights would.
    pub multiplier: u64,
}

/// Expands a phase map into the sampling plan: each phase's members
/// (from the per-chunk assignments) are split into up to
/// `members / REP_SPACING` (rounded up) equal strata, and the center
/// chunk of each stratum is measured for the whole stratum. A
/// single-member phase yields exactly its one chunk with multiplier 1,
/// so [`PhaseMap::exhaustive`] expands to the identity plan.
pub fn representatives(map: &PhaseMap) -> Vec<Representative> {
    let mut plan = Vec::new();
    for phase in &map.phases {
        let members: Vec<u64> = map
            .assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == phase.cluster)
            .map(|(i, _)| i as u64)
            .collect();
        if members.is_empty() {
            // A map without assignments (hand-written JSON) still
            // samples its canonical representative.
            plan.push(Representative {
                cluster: phase.cluster,
                chunk: phase.representative,
                multiplier: phase.size,
            });
            continue;
        }
        let n = members.len();
        let strata = n.div_ceil(REP_SPACING).max(1);
        let (base, extra) = (n / strata, n % strata);
        for i in 0..strata {
            plan.push(Representative {
                cluster: phase.cluster,
                chunk: members[((2 * i + 1) * n) / (2 * strata)],
                multiplier: (base + usize::from(i < extra)) as u64,
            });
        }
    }
    plan
}

/// Fraction of the trace the plan actually simulates (measured chunks
/// over total; warm-up excluded).
pub fn simulated_fraction(map: &PhaseMap) -> f64 {
    if map.chunks == 0 {
        0.0
    } else {
        representatives(map).len() as f64 / map.chunks as f64
    }
}

/// The record range of chunk `chunk` within a trace of `len` records.
fn chunk_bounds(len: usize, chunk: u64) -> (usize, usize) {
    let records = CHUNK_RECORDS as usize;
    let start = (chunk as usize).saturating_mul(records).min(len);
    let end = (chunk as usize + 1).saturating_mul(records).min(len);
    (start, end)
}

/// Measures one representative chunk: a fresh harness is warmed on the
/// `warmup_records` records before it ([`FULL_WARMUP`] = the whole
/// prefix), then the chunk itself is simulated and the indirect-jump
/// counter delta returned. Warm-up plus measurement instructions are
/// credited to the running cell's instruction account, and to the
/// `sampling.sampled_instructions` counter when telemetry is on.
fn measure_phase(
    ctx: &TelemetryCtx,
    t: &VecTrace,
    chunk: u64,
    warmup_records: usize,
    frontend: FrontEndConfig,
) -> ClassCounters {
    let (start, end) = chunk_bounds(t.len(), chunk);
    let warm_start = if warmup_records == FULL_WARMUP {
        0
    } else {
        start.saturating_sub(warmup_records)
    };
    telemetry::add_instructions((end - warm_start) as u64);
    if let Some(hub) = ctx.hub() {
        hub.registry()
            .counter("sampling.sampled_instructions")
            .add((end - warm_start) as u64);
    }
    let _g = ctx.hub().map(|h| h.spans().span("phase-measure"));
    let mut h = PredictionHarness::new(frontend);
    h.run(t.as_slice()[warm_start..start].iter());
    let before = h.stats().indirect_jump_counters();
    h.run(t.as_slice()[start..end].iter());
    let after = h.stats().indirect_jump_counters();
    ClassCounters {
        executed: after.executed - before.executed,
        correct: after.correct - before.correct,
    }
}

/// Wraps one measured slice as the recombination currency: indirect
/// executions and correct predictions, weighted by cluster size.
fn slice_stats(size: u64, counters: ClassCounters) -> SliceStats {
    SliceStats {
        multiplier: size,
        counts: BTreeMap::from([
            ("ij_executed".to_string(), counters.executed as f64),
            ("ij_correct".to_string(), counters.correct as f64),
        ]),
    }
}

/// Recombines measured slices into the sampled indirect-jump
/// misprediction rate. With an exhaustive phase map and [`FULL_WARMUP`]
/// this is bit-identical to the exact rate: every count is an integer
/// below 2⁵³, so the weighted sums and the final division see exactly
/// the operands exact simulation would.
pub fn rate_from_slices(slices: &[SliceStats]) -> f64 {
    let totals = recombine(slices);
    let executed = totals.get("ij_executed").copied().unwrap_or(0.0);
    let correct = totals.get("ij_correct").copied().unwrap_or(0.0);
    if executed == 0.0 {
        0.0
    } else {
        (executed - correct) / executed
    }
}

/// The full sampled measurement for one trace: measure every slice of
/// the plan ([`representatives`]) and return the weighted slice stats.
/// The path the `simpoint` registry experiment and `simpoint-pack
/// compare` use.
pub fn sampled_slices(
    ctx: &TelemetryCtx,
    t: &VecTrace,
    map: &PhaseMap,
    warmup_records: usize,
    frontend: FrontEndConfig,
) -> Vec<SliceStats> {
    representatives(map)
        .iter()
        .map(|r| {
            slice_stats(
                r.multiplier,
                measure_phase(ctx, t, r.chunk, warmup_records, frontend),
            )
        })
        .collect()
}

/// Raw (unweighted) indirect jumps executed inside measured slices —
/// the signal [`BenchError::gated`] judges resolution by.
pub fn sampled_ij(slices: &[SliceStats]) -> u64 {
    slices
        .iter()
        .map(|s| s.counts.get("ij_executed").copied().unwrap_or(0.0))
        .sum::<f64>() as u64
}

/// Convenience: [`sampled_slices`] recombined into the sampled
/// indirect-jump misprediction rate.
pub fn sampled_indirect_mispred(
    ctx: &TelemetryCtx,
    t: &VecTrace,
    map: &PhaseMap,
    warmup_records: usize,
    frontend: FrontEndConfig,
) -> f64 {
    rate_from_slices(&sampled_slices(ctx, t, map, warmup_records, frontend))
}

/// One benchmark's exact-vs-sampled comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchError {
    /// Benchmark name.
    pub bench: String,
    /// Exact indirect-jump misprediction rate.
    pub exact: f64,
    /// Sampled (recombined) rate.
    pub sampled: f64,
    /// Chunks in the trace.
    pub chunks: u64,
    /// Phases (clusters) the map selected.
    pub phases: u64,
    /// Measured slices the plan expanded to.
    pub slices: u64,
    /// Raw indirect jumps executed inside measured slices.
    pub sampled_ij: u64,
}

impl BenchError {
    /// Absolute error in percentage points.
    pub fn abs_err_pp(&self) -> f64 {
        (self.sampled - self.exact).abs() * 100.0
    }

    /// Relative error against the exact rate (zero when exact is zero).
    pub fn rel_err(&self) -> f64 {
        if self.exact == 0.0 {
            0.0
        } else {
            (self.sampled - self.exact).abs() / self.exact
        }
    }

    /// The smallest rate difference the sampled slices can resolve, in
    /// percentage points: one misprediction flip moves the rate by
    /// `100 / sampled_ij`.
    pub fn resolution_pp(&self) -> f64 {
        if self.sampled_ij == 0 {
            f64::INFINITY
        } else {
            100.0 / self.sampled_ij as f64
        }
    }

    /// Whether the row carries enough indirect-jump signal for the
    /// tolerance to be meaningful (resolution at or below tolerance).
    /// Low-signal rows are reported but not gated.
    pub fn gated(&self, tolerance_pp: f64) -> bool {
        self.resolution_pp() <= tolerance_pp
    }
}

// --- The `simpoint` registry experiment: sampled-vs-exact per benchmark ---

/// The benchmark labels the `simpoint` experiment enumerates cells over.
pub fn cell_labels() -> Vec<&'static str> {
    table1::cell_labels()
}

/// Computes one benchmark's sampled-vs-exact cell.
pub fn cell(ctx: &TelemetryCtx, label: &str, scale: Scale) -> CellData {
    let bench = crate::jobs::benchmark(label);
    let t = trace(ctx, bench.workload(), scale);
    let map = phase_map(ctx, &t);
    let frontend = FrontEndConfig::isca97_baseline();
    let slices = sampled_slices(ctx, &t, &map, WARMUP_RECORDS, frontend);
    let sampled = rate_from_slices(&slices);
    let exact = functional(ctx, &t, frontend).indirect_jump_misprediction_rate();
    let row = BenchError {
        bench: label.to_string(),
        exact,
        sampled,
        chunks: map.chunks,
        phases: map.phases.len() as u64,
        slices: slices.len() as u64,
        sampled_ij: sampled_ij(&slices),
    };
    let mut d = CellData::new();
    d.set("chunks", map.chunks as f64);
    d.set("phases", map.phases.len() as f64);
    d.set("coverage", simulated_fraction(&map));
    d.set("sampled_mispred", sampled);
    d.set("exact_mispred", exact);
    d.set("abs_err_pp", row.abs_err_pp());
    d.set("rel_err", row.rel_err());
    d
}

/// Renders a (possibly partial) cell set as the sampled-vs-exact table.
pub fn render_cells(cells: &CellSet) -> String {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "chunks".into(),
        "phases".into(),
        "coverage".into(),
        "sampled".into(),
        "exact".into(),
        "abs err (pp)".into(),
    ]);
    for &b in &sim_workloads::Benchmark::ALL {
        let n = b.name();
        table.row(vec![
            n.into(),
            cells.fmt(n, "chunks", |v| count(v as u64)),
            cells.fmt(n, "phases", |v| (v as u64).to_string()),
            cells.fmt(n, "coverage", pct),
            cells.fmt(n, "sampled_mispred", pct),
            cells.fmt(n, "exact_mispred", pct),
            cells.fmt(n, "abs_err_pp", |v| format!("{v:.3}")),
        ]);
    }
    format!(
        "SimPoint phase sampling: sampled vs exact BTB indirect misprediction\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_workloads::Benchmark;

    #[test]
    fn representative_plan_covers_every_chunk_exactly_once() {
        // Multipliers across the plan partition the chunk count, each
        // slice belongs to its own phase, and the exhaustive map
        // expands to the identity plan.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Gcc.workload(), Scale::Standard);
        let map = phase_map(&ctx, &t);
        let plan = representatives(&map);
        assert_eq!(
            plan.iter().map(|r| r.multiplier).sum::<u64>(),
            map.chunks,
            "multipliers partition the trace"
        );
        for r in &plan {
            assert_eq!(map.assignments[r.chunk as usize], r.cluster);
        }
        assert!(plan.len() as u64 <= map.chunks);
        assert!(
            plan.len() >= map.chunks.div_ceil(REP_SPACING as u64) as usize,
            "at least one slice per {REP_SPACING} chunks"
        );

        let exhaustive = PhaseMap::exhaustive(9);
        let identity = representatives(&exhaustive);
        assert_eq!(identity.len(), 9);
        for (i, r) in identity.iter().enumerate() {
            assert_eq!((r.chunk, r.multiplier), (i as u64, 1));
        }
    }

    #[test]
    fn exhaustive_sampling_is_bit_identical_to_exact() {
        // The recombination-identity invariant at the experiments level:
        // every chunk its own phase + full-prefix warm-up must reproduce
        // the exact misprediction rate bit for bit.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::M88ksim.workload(), Scale::Quick);
        let chunks = t.len().div_ceil(CHUNK_RECORDS as usize);
        let map = PhaseMap::exhaustive(chunks);
        let frontend = FrontEndConfig::isca97_baseline();
        let sampled = sampled_indirect_mispred(&ctx, &t, &map, FULL_WARMUP, frontend);
        let exact = functional(&ctx, &t, frontend).indirect_jump_misprediction_rate();
        assert_eq!(sampled, exact, "exhaustive sampling must be exact");
    }

    #[test]
    fn slices_recombine_by_multiplier() {
        // A slice standing for 3 chunks outweighs one standing for 1:
        // (3·10 + 1·0) mispredicted of (3·10 + 1·10) executed. Equal
        // weighting would give 0.5.
        let slices = [
            slice_stats(
                3,
                ClassCounters {
                    executed: 10,
                    correct: 0,
                },
            ),
            slice_stats(
                1,
                ClassCounters {
                    executed: 10,
                    correct: 10,
                },
            ),
        ];
        assert_eq!(rate_from_slices(&slices), 0.75);
        assert_eq!(sampled_ij(&slices), 20, "raw counts are unweighted");
    }

    #[test]
    fn sampled_rate_tracks_exact_on_perl() {
        // The real sampled configuration (clustered map, 1024-record
        // warm-up)
        // stays within the documented 1 pp bound on the hardest benchmark.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Perl.workload(), Scale::Quick);
        let map = phase_map(&ctx, &t);
        assert!(!map.phases.is_empty());
        let frontend = FrontEndConfig::isca97_baseline();
        let sampled = sampled_indirect_mispred(&ctx, &t, &map, WARMUP_RECORDS, frontend);
        let exact = functional(&ctx, &t, frontend).indirect_jump_misprediction_rate();
        assert!(
            (sampled - exact).abs() * 100.0 <= DEFAULT_TOLERANCE_PP,
            "sampled {sampled} vs exact {exact}"
        );
    }

    #[test]
    fn only_rows_that_resolve_the_tolerance_are_gated() {
        // gcc: enough sampled indirect jumps to resolve 1 pp, so its
        // 1.5 pp error is judged (and exceeds the bound).
        let gcc = BenchError {
            bench: "gcc".into(),
            exact: 0.66,
            sampled: 0.675,
            chunks: 25,
            phases: 5,
            slices: 7,
            sampled_ij: 500,
        };
        assert!(gcc.gated(DEFAULT_TOLERANCE_PP));
        assert!((gcc.abs_err_pp() - 1.5).abs() < 1e-9);
        assert!((gcc.rel_err() - 0.015 / 0.66).abs() < 1e-12);
        assert!(gcc.abs_err_pp() > DEFAULT_TOLERANCE_PP);

        // compress at small scales: the sampled slices see a handful of
        // indirect jumps, so a single flip overwhelms any pp tolerance.
        let sparse = BenchError {
            bench: "compress".into(),
            exact: 0.054,
            sampled: 0.0,
            chunks: 98,
            phases: 3,
            slices: 7,
            sampled_ij: 20,
        };
        assert_eq!(sparse.resolution_pp(), 5.0);
        assert!(!sparse.gated(DEFAULT_TOLERANCE_PP));
        let silent = BenchError {
            sampled_ij: 0,
            ..sparse
        };
        assert!(!silent.gated(f64::MAX), "no signal never gates");
    }

    #[test]
    fn simpoint_cells_render_with_err_markers() {
        let mut cells = CellSet::new();
        for label in cell_labels() {
            cells.insert(label, Err("synthetic failure".to_string()));
        }
        let out = render_cells(&cells);
        assert!(out.contains("ERR(synthetic failure)"), "{out}");
    }
}
