//! Shared machinery: trace budgets, functional and timing runs.
//!
//! Every entry point takes an explicit [`TelemetryCtx`] and, when it
//! carries a hub, records spans, per-run counters, and mispredict
//! events without changing its results. A [`TelemetryCtx::off`] context
//! runs everything uninstrumented.

use crate::telemetry::{self as hub, TelemetryCtx};
use branch_predictors::BranchClassStats;
use hps_uarch::{simulate, simulate_instrumented, MachineConfig, SimReport};
use sim_isa::{DynInstr, VecTrace};
use sim_telemetry::{MemoHit, MemoSection};
use sim_workloads::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

/// What determines a trace within one campaign: the workload, its
/// instruction budget, and the truncation fault applied to it (the bits
/// of the kept fraction). A campaign's scale and
/// [`sim_workloads::GENERATOR_VERSION`] are fixed, so these suffice.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct TraceKey {
    workload: &'static str,
    budget: usize,
    truncation: Option<u64>,
}

/// A slot a trace is generated into at most once.
type TraceSlot = Arc<OnceLock<VecTrace>>;

/// A workload's trace as the runner hands it out. Dereferences to the
/// [`VecTrace`].
///
/// Outside a campaign the trace is generated when the handle is made.
/// Under a campaign's `Memo` it is generated lazily, the first time it
/// is dereferenced or a walk of it misses the memo, and shared with
/// every other handle of the same trace key; a cell whose walks all
/// hit the memo never generates its trace.
pub struct TraceHandle {
    key: TraceKey,
    workload: Workload,
    slot: TraceSlot,
    ctx: TelemetryCtx,
    /// Whether this handle has already obtained its trace (a trace hit
    /// is counted once per handle).
    obtained: AtomicBool,
}

impl TraceHandle {
    /// The trace, generating it on first use.
    pub fn get(&self) -> &VecTrace {
        let mut generated = false;
        let trace = self.slot.get_or_init(|| {
            generated = true;
            self.generate()
        });
        if !self.obtained.swap(true, Ordering::Relaxed) && !generated {
            if let Some(memo) = self.ctx.memo() {
                memo.trace_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        trace
    }

    fn generate(&self) -> VecTrace {
        if let Some(memo) = self.ctx.memo() {
            memo.make_room();
            memo.generations.fetch_add(1, Ordering::Relaxed);
        }
        let _g = self.ctx.hub().map(|h| h.spans().span("workload-gen"));
        match self.key.truncation {
            Some(bits) => self
                .workload
                .generate_truncated(self.key.budget, f64::from_bits(bits)),
            None => self.workload.generate(self.key.budget),
        }
    }
}

impl std::ops::Deref for TraceHandle {
    type Target = VecTrace;

    fn deref(&self) -> &VecTrace {
        self.get()
    }
}

impl<'a> IntoIterator for &'a TraceHandle {
    type Item = &'a DynInstr;
    type IntoIter = <&'a VecTrace as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        self.get().into_iter()
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
/// benchmark the calling thread's subsequent runs are attributed to (a
/// cell obtains one trace and runs every configuration on it, and the
/// hub keeps the label per thread, so parallel cells do not mix), and
/// generation is timed under the `workload-gen` span.
///
/// Under a memoized context the handle is lazy and shared, see
/// [`TraceHandle`].
///
/// When an installed fault plan (see [`crate::jobs::faults`]) truncates
/// this benchmark, the generated trace is proportionally shorter — the
/// downstream statistics all normalize by actual executed counts, so a
/// truncated trace degrades resolution, not correctness.
pub fn trace(ctx: &TelemetryCtx, workload: Workload, scale: Scale) -> TraceHandle {
    if let Some(hub) = ctx.hub() {
        hub.set_benchmark(workload.name());
    }
    let key = TraceKey {
        workload: workload.name(),
        budget: scale.budget(&workload),
        truncation: crate::jobs::faults::active_truncation(workload.name()).map(f64::to_bits),
    };
    let slot = match ctx.memo() {
        Some(memo) => memo.slot(key),
        None => TraceSlot::default(),
    };
    let handle = TraceHandle {
        key,
        workload,
        slot,
        ctx: ctx.clone(),
        obtained: AtomicBool::new(false),
    };
    if ctx.memo().is_none() {
        handle.get();
    }
    handle
}

/// A walk a campaign memoizes: the model and everything it is
/// configured with. A timing walk of [`MachineConfig::isca97`] also
/// answers a functional request for its front end.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Walk {
    Functional(FrontEndConfig),
    Timing(MachineConfig),
}

/// A memoized walk's result and the manifest run that produced it
/// (empty when telemetry is off).
#[derive(Clone)]
struct Walked {
    outcome: Outcome,
    run: String,
}

/// A slot a walk's result is produced into at most once.
type WalkSlot = Arc<OnceLock<Walked>>;

#[derive(Clone)]
enum Outcome {
    Functional(BranchClassStats),
    Timing(SimReport),
}

impl Walked {
    fn stats(&self) -> &BranchClassStats {
        match &self.outcome {
            Outcome::Functional(stats) => stats,
            Outcome::Timing(report) => &report.branch_stats,
        }
    }

    fn report(&self) -> &SimReport {
        match &self.outcome {
            Outcome::Timing(report) => report,
            Outcome::Functional(_) => unreachable!("a timing key holds a timing walk"),
        }
    }
}

/// One campaign's memo: every distinct walk of a distinct trace is
/// simulated once, and every distinct trace is generated once.
///
/// Walks are pure functions of their [`TraceKey`] and [`Walk`], so a
/// repeated request is answered with the first result. Each key has its
/// own `OnceLock`, which makes concurrent requests single-flight: the
/// second worker waits for the first one's result. A walk that panics
/// leaves its slot empty, and the next request walks again; only
/// returned walks enter the memo.
///
/// Traces are shared through the same kind of slot. Before a trace is
/// generated, generated traces that no [`TraceHandle`] holds are dropped,
/// oldest first, until fewer than `workers` remain. The campaign queues
/// its cells benchmark-major, so a dropped trace is not needed again, and
/// no more traces are alive than the pool runs cells at once.
///
/// The memo is scoped to one campaign (it rides on the context the
/// campaign hands its cells), never a process global: library callers,
/// [`crate::jobs::ExperimentDef::compute`] and `repro-bench` walk every
/// request, and are the naive reference the memoized campaign must
/// match.
pub(crate) struct Memo {
    workers: usize,
    traces: Mutex<Vec<(TraceKey, TraceSlot)>>,
    walks: Mutex<HashMap<(TraceKey, Walk), WalkSlot>>,
    hits: Mutex<Vec<MemoHit>>,
    walked: AtomicU64,
    memo_hits: AtomicU64,
    generations: AtomicU64,
    trace_hits: AtomicU64,
}

impl Memo {
    /// An empty memo that keeps at most `workers` generated traces.
    pub(crate) fn new(workers: usize) -> Memo {
        Memo {
            workers: workers.max(1),
            traces: Mutex::default(),
            walks: Mutex::default(),
            hits: Mutex::default(),
            walked: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            generations: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
        }
    }

    /// The counters and hits so far, for the run manifest.
    pub(crate) fn section(&self) -> MemoSection {
        MemoSection {
            walks: self.walked.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            generations: self.generations.load(Ordering::Relaxed),
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            hits: self.hits.lock().expect("memo hits poisoned").clone(),
        }
    }

    /// The shared slot of `key`'s trace. The cache is in creation order,
    /// which is the order [`Memo::make_room`] drops traces in.
    fn slot(&self, key: TraceKey) -> TraceSlot {
        let mut traces = self.traces.lock().expect("memo traces poisoned");
        if let Some((_, slot)) = traces.iter().find(|(k, _)| *k == key) {
            return Arc::clone(slot);
        }
        let slot = TraceSlot::default();
        traces.push((key, Arc::clone(&slot)));
        slot
    }

    /// Drops unheld traces, oldest first, until a new one fits within
    /// the live-trace bound. A slot only the cache refers to is unheld.
    fn make_room(&self) {
        let mut traces = self.traces.lock().expect("memo traces poisoned");
        let mut live = traces.iter().filter(|(_, s)| s.get().is_some()).count();
        traces.retain(|(_, slot)| {
            let drop = live >= self.workers && Arc::strong_count(slot) == 1 && slot.get().is_some();
            live -= usize::from(drop);
            !drop
        });
    }

    /// The result of `walk` over `trace`, produced by `produce` unless an
    /// earlier (or concurrent) request already did.
    fn walk(
        &self,
        ctx: &TelemetryCtx,
        trace: &TraceHandle,
        walk: Walk,
        requested: (&str, &str, &FrontEndConfig),
        produce: impl FnOnce() -> Walked,
    ) -> Walked {
        let slot = Arc::clone(
            self.walks
                .lock()
                .expect("memo walks poisoned")
                .entry((trace.key, walk))
                .or_default(),
        );
        let mut walked = false;
        let result = slot.get_or_init(|| {
            walked = true;
            produce()
        });
        if walked {
            self.walked.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hit(ctx, trace, requested, result);
        }
        result.clone()
    }

    /// Whether `walk` over `trace` was requested before (it may still be
    /// in flight).
    fn requested(&self, trace: &TraceHandle, walk: &Walk) -> bool {
        let walks = self.walks.lock().expect("memo walks poisoned");
        walks.contains_key(&(trace.key, walk.clone()))
    }

    /// Counts a memo hit and, with telemetry on, records it for the
    /// manifest under the requested `(mode, machine, front end)`.
    fn hit(
        &self,
        ctx: &TelemetryCtx,
        trace: &TraceHandle,
        (mode, machine, frontend): (&str, &str, &FrontEndConfig),
        walked: &Walked,
    ) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        if ctx.hub().is_some() {
            self.hits.lock().expect("memo hits poisoned").push(MemoHit {
                cell: ctx.cell().to_string(),
                label: trace.key.workload.to_string(),
                mode: mode.to_string(),
                machine: machine.to_string(),
                config: config_desc(frontend),
                run: walked.run.clone(),
            });
        }
    }
}

/// Runs the functional (accuracy-only) front end over a trace. Under a
/// memoized context a repeated request is served from the memo, and so
/// is a request whose front end a timing walk of the paper's machine was
/// already asked for: that walk's report carries the same statistics.
pub fn functional(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    frontend: FrontEndConfig,
) -> BranchClassStats {
    let Some(memo) = ctx.memo() else {
        return walk_functional(ctx, trace, frontend).stats().clone();
    };
    let requested = ("functional", ISCA97, &frontend);
    let machine = MachineConfig::isca97(frontend);
    let timed = Walk::Timing(machine.clone());
    let walked = if memo.requested(trace, &timed) {
        // Share that walk, waiting if it is in flight (or walking it, if
        // it panicked).
        memo.walk(ctx, trace, timed, requested, || {
            walk_timing(ctx, trace, &machine, ISCA97)
        })
    } else {
        memo.walk(ctx, trace, Walk::Functional(frontend), requested, || {
            walk_functional(ctx, trace, frontend)
        })
    };
    walked.stats().clone()
}

fn walk_functional(ctx: &TelemetryCtx, trace: &VecTrace, frontend: FrontEndConfig) -> Walked {
    // Credit the replay to this thread's simulated-instruction account
    // (the jobs runner snapshots it per cell; telemetry or not).
    hub::add_instructions(trace.len() as u64);
    let mut h = PredictionHarness::new(frontend);
    let mut run = String::new();
    if let Some(hub) = ctx.hub() {
        h.attach_telemetry(hub.harness_telemetry());
        let started = Instant::now();
        {
            let _g = hub.spans().span("harness-replay");
            h.run(trace);
        }
        run = hub.finish_run(
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
    Walked {
        outcome: Outcome::Functional(h.stats().clone()),
        run,
    }
}

/// The manifest name of the paper's HPS machine,
/// [`MachineConfig::isca97`]: every timing walk outside the
/// machine-scaling study runs on it. Functional walks, which model only
/// the front end, are recorded under it too.
pub const ISCA97: &str = "isca97";

/// Runs the timing model over a trace on `machine`, recorded in the
/// manifest under the short name `machine_name`. Under a memoized
/// context a repeated request is served from the memo.
pub fn timing(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    machine: &MachineConfig,
    machine_name: &str,
) -> SimReport {
    let walked = match ctx.memo() {
        Some(memo) => memo.walk(
            ctx,
            trace,
            Walk::Timing(machine.clone()),
            ("timing", machine_name, &machine.frontend),
            || walk_timing(ctx, trace, machine, machine_name),
        ),
        None => walk_timing(ctx, trace, machine, machine_name),
    };
    walked.report().clone()
}

fn walk_timing(
    ctx: &TelemetryCtx,
    trace: &VecTrace,
    machine: &MachineConfig,
    machine_name: &str,
) -> Walked {
    let mut run = String::new();
    let report = if let Some(hub) = ctx.hub() {
        let started = Instant::now();
        let report = {
            let _g = hub.spans().span("uarch-sim");
            simulate_instrumented(trace, machine, Some(hub.harness_telemetry()))
        };
        run = hub.finish_run(
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
    Walked {
        outcome: Outcome::Timing(report),
        run,
    }
}

/// Both runs at once, when the caller wants the reports too.
pub fn baseline_and_tc(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
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

    fn counters(ctx: &TelemetryCtx) -> (u64, u64, u64, u64) {
        let s = ctx.memo().expect("memoized context").section();
        (s.walks, s.memo_hits, s.generations, s.trace_hits)
    }

    #[test]
    fn memo_walks_each_request_once_and_a_timing_walk_answers_functional() {
        let ctx = TelemetryCtx::off().memoized(1);
        let baseline = FrontEndConfig::isca97_baseline();
        let machine = MachineConfig::isca97(baseline);
        let t = trace(&ctx, Benchmark::M88ksim.workload(), Scale::Quick);
        assert_eq!(counters(&ctx), (0, 0, 0, 0), "handles are lazy");
        let report = timing(&ctx, &t, &machine, ISCA97);
        let again = trace(&ctx, Benchmark::M88ksim.workload(), Scale::Quick);
        assert_eq!(timing(&ctx, &again, &machine, ISCA97).cycles, report.cycles);
        assert_eq!(functional(&ctx, &again, baseline), report.branch_stats);
        assert_eq!(
            counters(&ctx),
            (1, 2, 1, 0),
            "both repeats hit, nothing regenerated"
        );
        assert_eq!(again.len(), t.len());
        assert_eq!(
            counters(&ctx).3,
            1,
            "the second handle shares the first trace"
        );
    }

    #[test]
    fn a_request_during_a_walk_waits_for_its_result() {
        let ctx = TelemetryCtx::off().memoized(2);
        let memo = ctx.memo().unwrap();
        let t = trace(&ctx, Benchmark::Go.workload(), Scale::Quick);
        let frontend = FrontEndConfig::isca97_baseline();
        let requested = ("functional", ISCA97, &frontend);
        let (in_flight, first_in_flight) = std::sync::mpsc::channel();
        let (asking, second_asking) = std::sync::mpsc::channel();
        let (first, second) = std::thread::scope(|scope| {
            let (ctx, t) = (&ctx, &t);
            let first = scope.spawn(move || {
                memo.walk(ctx, t, Walk::Functional(frontend), requested, || {
                    in_flight.send(()).unwrap();
                    second_asking.recv().unwrap();
                    walk_functional(ctx, t, frontend)
                })
            });
            first_in_flight.recv().unwrap();
            asking.send(()).unwrap();
            let second = memo.walk(ctx, t, Walk::Functional(frontend), requested, || {
                panic!("a request during the walk walked again")
            });
            (first.join().unwrap(), second)
        });
        assert_eq!(first.stats(), second.stats());
        assert_eq!(counters(&ctx), (1, 1, 1, 0));
    }

    #[test]
    fn a_walk_that_panics_leaves_its_slot_for_the_next_request() {
        let ctx = TelemetryCtx::off().memoized(1);
        let memo = ctx.memo().unwrap();
        let t = trace(&ctx, Benchmark::Go.workload(), Scale::Quick);
        let frontend = FrontEndConfig::isca97_baseline();
        let walk = || Walk::Functional(frontend);
        let requested = ("functional", ISCA97, &frontend);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.walk(&ctx, &t, walk(), requested, || panic!("walk failed"))
        }));
        assert!(failed.is_err());
        let walked = memo.walk(&ctx, &t, walk(), requested, || {
            walk_functional(&ctx, &t, frontend)
        });
        assert_eq!(
            walked.stats(),
            &functional(&TelemetryCtx::off(), &t, frontend)
        );
        assert_eq!(counters(&ctx).0, 1, "only the returned walk is counted");
    }

    #[test]
    fn unheld_traces_are_dropped_before_a_new_one_is_generated() {
        let ctx = TelemetryCtx::off().memoized(1);
        let len = |bench: Benchmark| trace(&ctx, bench.workload(), Scale::Quick).len();
        len(Benchmark::Perl);
        let held = trace(&ctx, Benchmark::Gcc.workload(), Scale::Quick);
        held.get();
        len(Benchmark::Perl);
        assert_eq!(
            counters(&ctx).2,
            3,
            "perl was dropped for gcc, and regenerated"
        );
        len(Benchmark::Gcc);
        assert_eq!(counters(&ctx).2, 3, "gcc was held, so it survived perl");
        let live = ctx.memo().unwrap().traces.lock().unwrap();
        assert_eq!(live.iter().filter(|(_, s)| s.get().is_some()).count(), 2);
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
    trace: &TraceHandle,
    base: &SimReport,
    tc: TargetCacheConfig,
) -> f64 {
    let machine = MachineConfig::isca97(FrontEndConfig::isca97_with(tc));
    timing(ctx, trace, &machine, ISCA97).exec_time_reduction_vs(base)
}
