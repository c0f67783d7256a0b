//! Shared machinery: trace budgets, functional and timing runs.
//!
//! Every entry point takes an explicit [`TelemetryCtx`] and, when it
//! carries a hub, records spans, per-run counters, and mispredict
//! events without changing its results. A [`TelemetryCtx::off`] context
//! runs everything uninstrumented.

use crate::telemetry::{self as hub, TelemetryCtx};
use branch_predictors::BranchClassStats;
use hps_uarch::{simulate, simulate_instrumented, MachineConfig, SimReport};
use sim_isa::VecTrace;
use sim_workloads::Workload;
use std::time::Instant;
use target_cache::harness::{FrontEndConfig, IndirectPredictor, PredictionHarness};
use target_cache::TargetCacheConfig;

/// How much of each workload's canonical run to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scale {
    /// ~100k instructions per benchmark: CI-sized, shapes still hold.
    Quick,
    /// ~400k instructions: the default for the table binaries.
    #[default]
    Standard,
    /// The workloads' full canonical budgets (1–2M instructions).
    Full,
}

impl Scale {
    /// The instruction budget this scale implies for a workload.
    pub fn budget(self, workload: &Workload) -> usize {
        let full = workload.default_budget();
        match self {
            Scale::Quick => full.min(100_000),
            Scale::Standard => full.min(400_000),
            Scale::Full => full,
        }
    }

    /// The values [`Scale::parse`] accepts, for error messages.
    pub const ACCEPTED: &'static str = "quick (alias: ci), standard, full";

    /// Parses a scale name (`quick` / `standard` / `full`,
    /// case-insensitive). `ci` is an alias for `quick`: CI pipelines read
    /// better when they name the intent rather than the size.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value.to_ascii_lowercase().as_str() {
            "quick" | "ci" => Ok(Scale::Quick),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            _ => Err(format!(
                "unrecognized REPRO_SCALE value {value:?}; accepted values: {}",
                Scale::ACCEPTED
            )),
        }
    }

    /// The scale's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }

    /// Reads the scale from the `REPRO_SCALE` environment variable,
    /// defaulting to `Standard` when unset or set to the empty string
    /// (the `REPRO_SCALE= cmd` shell idiom for "unset").
    ///
    /// Returns the parse error (listing the accepted values) if
    /// `REPRO_SCALE` is set to an unrecognized value — a typo like
    /// `REPRO_SCALE=ful` must not silently run a different experiment than
    /// the one asked for.
    pub fn from_env() -> Result<Scale, String> {
        match std::env::var("REPRO_SCALE") {
            Ok(v) if v.is_empty() => Ok(Scale::Standard),
            Ok(v) => Scale::parse(&v),
            Err(_) => Ok(Scale::Standard),
        }
    }

    /// [`Scale::from_env`] for binaries: an unrecognized value prints the
    /// diagnostic to stderr and exits with status 2 instead of returning —
    /// an operator typo produces one clean line, not a panic backtrace.
    pub fn from_env_or_exit() -> Scale {
        Scale::from_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

/// A short description of the front end's indirect predictor for run
/// manifests.
fn config_desc(config: &FrontEndConfig) -> String {
    match config.indirect {
        IndirectPredictor::BtbOnly => "btb-only".to_string(),
        IndirectPredictor::TargetCache(tc) => format!("target-cache {tc:?}"),
        IndirectPredictor::Oracle => "oracle".to_string(),
        IndirectPredictor::Cascade(c) => format!("cascade {c:?}"),
    }
}

/// Produces the canonical trace of a workload (a SPECint95 benchmark's
/// or an OO program's) at the given scale by running its seeded
/// generator in process. This is the only way a campaign obtains a
/// trace: the workloads are deterministic, and regenerating one is
/// faster than decoding it from `.strc` (which stays an interchange and
/// audit format; see `trace-pack record`).
///
/// With telemetry active this also declares the workload as the
/// benchmark subsequent runs are attributed to (the table binaries are
/// sequential: they generate one trace and run every configuration on it
/// before moving to the next benchmark) and times generation under the
/// `workload-gen` span.
///
/// When an installed fault plan (see [`crate::jobs::faults`]) truncates
/// this benchmark, the generated trace is proportionally shorter — the
/// downstream statistics all normalize by actual executed counts, so a
/// truncated trace degrades resolution, not correctness.
pub fn trace(ctx: &TelemetryCtx, workload: Workload, scale: Scale) -> VecTrace {
    let budget = scale.budget(&workload);
    let hub = ctx.hub();
    if let Some(hub) = hub {
        hub.set_benchmark(workload.name());
    }
    let _g = hub.map(|h| h.spans().span("workload-gen"));
    match crate::jobs::faults::active_truncation(workload.name()) {
        Some(fraction) => workload.generate_truncated(budget, fraction),
        None => workload.generate(budget),
    }
}

/// Runs the functional (accuracy-only) front end over a trace.
pub fn functional(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    frontend: FrontEndConfig,
) -> BranchClassStats {
    // Credit the replay to this thread's simulated-instruction account
    // (the jobs runner snapshots it per cell; telemetry or not).
    hub::add_instructions(trace.len() as u64);
    let mut h = PredictionHarness::new(frontend);
    if let Some(hub) = ctx.hub() {
        h.attach_telemetry(hub.harness_telemetry());
        let started = Instant::now();
        {
            let _g = hub.spans().span("harness-replay");
            h.run(trace);
        }
        hub.finish_run(
            "functional",
            ISCA97,
            &config_desc(h.config()),
            trace.len() as u64,
            h.stats(),
            h.target_cache_stats(),
            h.cascade_counts(),
            started.elapsed().as_nanos() as u64,
        );
    } else {
        h.run(trace);
    }
    h.stats().clone()
}

/// The manifest name of the paper's HPS machine,
/// [`MachineConfig::isca97`]: every timing walk outside the
/// machine-scaling study runs on it. Functional walks, which model only
/// the front end, are recorded under it too.
pub const ISCA97: &str = "isca97";

/// Runs the timing model over a trace on `machine`, recorded in the
/// manifest under the short name `machine_name`.
pub fn timing(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    machine: &MachineConfig,
    machine_name: &str,
) -> SimReport {
    let report = if let Some(hub) = ctx.hub() {
        let started = Instant::now();
        let report = {
            let _g = hub.spans().span("uarch-sim");
            simulate_instrumented(trace, machine, Some(hub.harness_telemetry()))
        };
        hub.finish_run(
            "timing",
            machine_name,
            &config_desc(&machine.frontend),
            report.instructions,
            &report.branch_stats,
            None,
            None,
            started.elapsed().as_nanos() as u64,
        );
        report
    } else {
        simulate(trace, machine)
    };
    hub::add_instructions(report.instructions);
    report
}

/// Both runs at once, when the caller wants the reports too.
pub fn baseline_and_tc(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    tc: TargetCacheConfig,
) -> (SimReport, SimReport) {
    let run = |frontend| timing(ctx, trace, &MachineConfig::isca97(frontend), ISCA97);
    (
        run(FrontEndConfig::isca97_baseline()),
        run(FrontEndConfig::isca97_with(tc)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_workloads::Benchmark;

    #[test]
    fn scale_budgets_are_ordered() {
        for bench in [Benchmark::Perl, Benchmark::Compress] {
            let w = bench.workload();
            assert!(Scale::Quick.budget(&w) <= Scale::Standard.budget(&w));
            assert!(Scale::Standard.budget(&w) <= Scale::Full.budget(&w));
        }
    }

    #[test]
    fn functional_and_timing_agree_on_mispredictions() {
        // The timing model embeds the same harness, so per-class stats must
        // be identical.
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::M88ksim.workload(), Scale::Quick);
        let f = functional(&ctx, &t, FrontEndConfig::isca97_baseline());
        let machine = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        let r = timing(&ctx, &t, &machine, ISCA97);
        assert_eq!(&f, &r.branch_stats);
    }

    #[test]
    fn target_cache_reduces_execution_time_on_perl() {
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Perl.workload(), Scale::Quick);
        let (base, with_tc) = baseline_and_tc(&ctx, &t, TargetCacheConfig::isca97_tagless_gshare());
        let red = with_tc.exec_time_reduction_vs(&base);
        assert!(red > 0.0, "target cache must speed up perl, got {red}");
    }
}

/// A path-history scheme axis shared by Tables 5, 6 and 8: per-address, or
/// global under one of the four recording filters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathScheme {
    /// One register per static indirect jump.
    PerAddress,
    /// A single global register with the given filter.
    Global(branch_predictors::PathFilter),
}

impl PathScheme {
    /// All schemes, in the paper's column order (per-addr, then the global
    /// filters).
    pub fn all() -> Vec<PathScheme> {
        use branch_predictors::PathFilter;
        vec![
            PathScheme::PerAddress,
            PathScheme::Global(PathFilter::ConditionalOnly),
            PathScheme::Global(PathFilter::Control),
            PathScheme::Global(PathFilter::IndirectJump),
            PathScheme::Global(PathFilter::CallReturn),
        ]
    }

    /// The paper's column label.
    pub fn label(&self) -> &'static str {
        match self {
            PathScheme::PerAddress => "per-addr",
            PathScheme::Global(f) => f.label(),
        }
    }

    /// Builds the history source for this scheme with the given register
    /// shape.
    pub fn source(
        &self,
        total_bits: u32,
        bits_per_target: u32,
        target_bit_lo: u32,
    ) -> target_cache::HistorySource {
        use branch_predictors::{PathFilter, PathHistoryConfig};
        let config = |filter: PathFilter| PathHistoryConfig {
            total_bits,
            bits_per_target,
            target_bit_lo,
            filter,
        };
        match self {
            PathScheme::PerAddress => {
                target_cache::HistorySource::PerAddressPath(config(PathFilter::IndirectJump))
            }
            PathScheme::Global(f) => target_cache::HistorySource::GlobalPath(config(*f)),
        }
    }
}

/// Execution-time reduction against a precomputed baseline report.
pub fn exec_reduction_with_base(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    base: &SimReport,
    tc: TargetCacheConfig,
) -> f64 {
    let machine = MachineConfig::isca97(FrontEndConfig::isca97_with(tc));
    timing(ctx, trace, &machine, ISCA97).exec_time_reduction_vs(base)
}
