//! Shared machinery: trace budgets, functional and timing runs.
//!
//! Every entry point takes an explicit [`TelemetryCtx`] and, when it
//! carries a hub, records spans, per-run counters, and mispredict
//! events without changing its results. A [`TelemetryCtx::off`] context
//! runs everything uninstrumented.

use crate::jobs::CellData;
use crate::telemetry::{self as hub, TelemetryCtx};
use branch_predictors::BranchClassStats;
use hps_uarch::{
    prepare, schedule, FrontEndPass, MachineConfig, PrepareKey, PreparedTrace, SimReport,
};
use sim_isa::{DynInstr, VecTrace};
use sim_telemetry::{MemoHit, MemoSection};
use sim_workloads::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
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

/// Where a trace lives: the trace, generated at most once, and, under a
/// memo, its preparations for the timing model.
#[derive(Default)]
struct TraceSlot {
    trace: OnceLock<VecTrace>,
    prepared: Mutex<Vec<Arc<PreparedTrace>>>,
}

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
    slot: Arc<TraceSlot>,
    ctx: TelemetryCtx,
    /// Whether this handle has already obtained its trace (a trace hit
    /// is counted once per handle).
    obtained: AtomicBool,
}

impl TraceHandle {
    /// The trace, generating it on first use.
    pub fn get(&self) -> &VecTrace {
        let mut generated = false;
        let trace = self.slot.trace.get_or_init(|| {
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

    /// The trace prepared for `machine`'s class latencies and data cache
    /// ([`PrepareKey`]). Under a memo the preparation lives beside the
    /// trace, shared by every handle of it, and is made once per key;
    /// otherwise every request prepares.
    fn prepared(&self, machine: &MachineConfig) -> Arc<PreparedTrace> {
        let trace = self.get();
        let Some(memo) = self.ctx.memo() else {
            return Arc::new(prepare(trace, machine));
        };
        let key = PrepareKey::of(machine);
        // Held while preparing: a concurrent request for the same trace
        // waits for this preparation instead of repeating it. A panicking
        // preparation pushes nothing, so the list stays valid.
        let mut prepared = self
            .slot
            .prepared
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(done) = prepared.iter().find(|p| *p.key() == key) {
            return Arc::clone(done);
        }
        let done = Arc::new(prepare(trace, machine));
        memo.preparations.fetch_add(1, Ordering::Relaxed);
        prepared.push(Arc::clone(&done));
        done
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
        None => Arc::default(),
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

/// A walk a campaign memoizes, besides the trace it walks.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Walk {
    /// A harness pass: the front end replayed over the trace. It answers
    /// a functional request for the front end, and supplies the branch
    /// outcomes of every timing walk with it.
    Harness(FrontEndConfig),
    /// A schedule: the machine timed over the prepared trace.
    Schedule(MachineConfig),
}

/// A request for a walk: the walk, and the mode and machine name a memo
/// hit on it is recorded under. A timing walk's own harness pass is part
/// of that walk, not a request, and records no hit.
struct Request<'a> {
    walk: Walk,
    asked: Option<(&'a str, &'a str)>,
}

/// A walk's result and the manifest run that produced it (empty when
/// telemetry is off).
#[derive(Clone)]
struct Walked {
    outcome: Outcome,
    run: String,
}

#[derive(Clone)]
enum Outcome {
    Harness(Arc<FrontEndPass>),
    Schedule(SimReport),
}

impl Walked {
    fn pass(&self) -> &FrontEndPass {
        match &self.outcome {
            Outcome::Harness(pass) => pass,
            Outcome::Schedule(_) => unreachable!("a harness key holds a harness pass"),
        }
    }

    fn report(self) -> SimReport {
        match self.outcome {
            Outcome::Schedule(report) => report,
            Outcome::Harness(_) => unreachable!("a schedule key holds a schedule"),
        }
    }
}

/// One memo key's slot: free, claimed by the worker walking it, or
/// walked.
#[derive(Default)]
struct WalkSlot {
    state: Mutex<SlotState>,
    settled: Condvar,
}

#[derive(Default)]
enum SlotState {
    #[default]
    Free,
    Walking,
    Walked(Walked),
}

impl WalkSlot {
    /// Called from [`Claim`]'s `Drop`, so it must not panic: the state
    /// is valid whatever a poisoning thread did, as every update is one
    /// assignment.
    fn settle(&self, state: SlotState) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = state;
        self.settled.notify_all();
    }

    /// Waits while another worker walks the slot: its result, or `None`
    /// if that walk panicked and the slot is free again.
    fn wait(&self) -> Option<Walked> {
        let mut state = self.state.lock().expect("memo slot poisoned");
        while matches!(*state, SlotState::Walking) {
            state = self.settled.wait(state).expect("memo slot poisoned");
        }
        match &*state {
            SlotState::Walked(walked) => Some(walked.clone()),
            _ => None,
        }
    }
}

/// A worker's claim on a slot it walks. Dropped unfulfilled (the walk
/// panicked), it frees the slot and wakes the waiters, one of which then
/// walks it.
struct Claim(Option<Arc<WalkSlot>>);

impl Claim {
    fn fulfil(mut self, walked: Walked) {
        if let Some(slot) = self.0.take() {
            slot.settle(SlotState::Walked(walked));
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.settle(SlotState::Free);
        }
    }
}

/// One campaign's memo: every distinct walk of a distinct trace is
/// simulated once, every distinct trace is generated once, and prepared
/// for the timing model once per distinct [`PrepareKey`].
///
/// Walks are pure functions of their [`TraceKey`] and [`Walk`], so a
/// repeated request is answered with the first result. A timing walk is
/// a harness pass of its front end plus a schedule of its machine, each
/// memoized under its own key, so a functional request and a timing walk
/// of the same front end share one harness pass whichever comes first.
///
/// A request for several walks (a cell's lockstep batch) claims the keys
/// nobody has walked, walks them together, and then waits for the keys
/// other workers are walking: requests are single-flight, and a worker
/// never waits while it holds a claim, so two batches cannot wait on
/// each other. A walk that panics frees its keys and the next request
/// walks them; only returned walks enter the memo.
///
/// Traces are shared through [`TraceSlot`]s. Before a trace is
/// generated, generated traces that no [`TraceHandle`] holds are
/// dropped, with their preparations, oldest first, until fewer than
/// `workers` remain. The campaign queues its cells benchmark-major, so a
/// dropped trace is not needed again, and no more traces are alive than
/// the pool runs cells at once.
///
/// The memo is scoped to one campaign (it rides on the context the
/// campaign hands its cells), never a process global: library callers,
/// [`crate::jobs::ExperimentDef::compute`] and `repro-bench` walk every
/// request, and are the naive reference the memoized campaign must
/// match.
pub(crate) struct Memo {
    workers: usize,
    traces: Mutex<Vec<(TraceKey, Arc<TraceSlot>)>>,
    walks: Mutex<HashMap<(TraceKey, Walk), Arc<WalkSlot>>>,
    hits: Mutex<Vec<MemoHit>>,
    harness_passes: AtomicU64,
    schedules: AtomicU64,
    preparations: AtomicU64,
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
            harness_passes: AtomicU64::new(0),
            schedules: AtomicU64::new(0),
            preparations: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            generations: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
        }
    }

    /// The counters and hits so far, for the run manifest.
    pub(crate) fn section(&self) -> MemoSection {
        let harness_passes = self.harness_passes.load(Ordering::Relaxed);
        let schedules = self.schedules.load(Ordering::Relaxed);
        MemoSection {
            walks: harness_passes + schedules,
            harness_passes,
            schedules,
            preparations: self.preparations.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            generations: self.generations.load(Ordering::Relaxed),
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            hits: self.hits.lock().expect("memo hits poisoned").clone(),
        }
    }

    /// The shared slot of `key`'s trace. The cache is in creation order,
    /// which is the order [`Memo::make_room`] drops traces in.
    fn slot(&self, key: TraceKey) -> Arc<TraceSlot> {
        let mut traces = self.traces.lock().expect("memo traces poisoned");
        if let Some((_, slot)) = traces.iter().find(|(k, _)| *k == key) {
            return Arc::clone(slot);
        }
        let slot = Arc::<TraceSlot>::default();
        traces.push((key, Arc::clone(&slot)));
        slot
    }

    /// Drops unheld traces, oldest first, until a new one fits within
    /// the live-trace bound. A slot only the cache refers to is unheld.
    /// The walks of a dropped trace are forgotten with it, so everything
    /// derived from a trace is freed together.
    fn make_room(&self) {
        let mut traces = self.traces.lock().expect("memo traces poisoned");
        let generated = |slot: &TraceSlot| slot.trace.get().is_some();
        let mut live = traces.iter().filter(|(_, s)| generated(s)).count();
        let mut dropped = Vec::new();
        traces.retain(|(key, slot)| {
            let drop = live >= self.workers && Arc::strong_count(slot) == 1 && generated(slot);
            if drop {
                live -= 1;
                dropped.push(*key);
            }
            !drop
        });
        if !dropped.is_empty() {
            let mut walks = self.walks.lock().expect("memo walks poisoned");
            walks.retain(|(key, _), _| !dropped.contains(key));
        }
    }

    /// The results of `requests` over `trace`, in order. `produce` walks
    /// the requests (given by index) this worker claims, all in one go,
    /// and returns their results in the same order.
    fn walks(
        &self,
        ctx: &TelemetryCtx,
        trace: &TraceHandle,
        requests: &[Request],
        mut produce: impl FnMut(&[usize]) -> Vec<Walked>,
    ) -> Vec<Walked> {
        let mut results: Vec<Option<Walked>> = vec![None; requests.len()];
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        while !pending.is_empty() {
            let mut claims = Vec::new();
            let mut busy = Vec::new();
            for i in pending.drain(..) {
                let slot = Arc::clone(
                    self.walks
                        .lock()
                        .expect("memo walks poisoned")
                        .entry((trace.key, requests[i].walk.clone()))
                        .or_default(),
                );
                let mut state = slot.state.lock().expect("memo slot poisoned");
                let walked = match &*state {
                    SlotState::Walked(walked) => Some(walked.clone()),
                    _ => None,
                };
                let free = matches!(*state, SlotState::Free);
                if free {
                    *state = SlotState::Walking;
                }
                drop(state);
                match walked {
                    Some(walked) => {
                        self.hit(ctx, trace, &requests[i], &walked);
                        results[i] = Some(walked);
                    }
                    None if free => claims.push((i, Claim(Some(slot)))),
                    None => busy.push((i, slot)),
                }
            }
            // Claimed schedules are walked as one lockstep batch. Harness
            // passes are independent, so each is published as soon as it
            // is walked, and a worker waiting for one of them does not wait
            // for the rest.
            let batch = match claims.first() {
                Some(&(i, _)) if matches!(requests[i].walk, Walk::Harness(_)) => 1,
                _ => claims.len(),
            };
            while !claims.is_empty() {
                let rest = claims.split_off(batch.min(claims.len()));
                let walking = std::mem::replace(&mut claims, rest);
                let claimed: Vec<usize> = walking.iter().map(|(i, _)| *i).collect();
                for ((i, claim), walked) in walking.into_iter().zip(produce(&claimed)) {
                    match requests[i].walk {
                        Walk::Harness(_) => &self.harness_passes,
                        Walk::Schedule(_) => &self.schedules,
                    }
                    .fetch_add(1, Ordering::Relaxed);
                    claim.fulfil(walked.clone());
                    results[i] = Some(walked);
                }
            }
            for (i, slot) in busy {
                match slot.wait() {
                    Some(walked) => {
                        self.hit(ctx, trace, &requests[i], &walked);
                        results[i] = Some(walked);
                    }
                    None => pending.push(i),
                }
            }
        }
        results
            .into_iter()
            .map(|walked| walked.expect("every request is answered"))
            .collect()
    }

    /// Counts a memo hit on a request and, with telemetry on, records it
    /// for the manifest under the requested `(mode, machine, front end)`.
    fn hit(&self, ctx: &TelemetryCtx, trace: &TraceHandle, request: &Request, walked: &Walked) {
        let Some((mode, machine)) = request.asked else {
            return;
        };
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        if ctx.hub().is_some() {
            let frontend = match &request.walk {
                Walk::Harness(frontend) => frontend,
                Walk::Schedule(machine) => &machine.frontend,
            };
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

/// Runs the functional (accuracy-only) front end over a trace: one
/// harness pass. Under a memoized context a repeated request is served
/// from the memo, and so is a request whose front end a timing walk
/// already replayed.
pub fn functional(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    frontend: FrontEndConfig,
) -> BranchClassStats {
    let walked = harness_passes(ctx, trace, &[frontend], Some(("functional", ISCA97)));
    walked[0].pass().stats().clone()
}

/// The harness passes of `frontends` over `trace`, from the memo when
/// the context has one; memo hits are recorded as `asked`.
fn harness_passes(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    frontends: &[FrontEndConfig],
    asked: Option<(&str, &str)>,
) -> Vec<Walked> {
    let walk = |i: usize| walk_harness(ctx, trace, frontends[i]);
    let Some(memo) = ctx.memo() else {
        return (0..frontends.len()).map(walk).collect();
    };
    let requests: Vec<Request> = frontends
        .iter()
        .map(|&frontend| Request {
            walk: Walk::Harness(frontend),
            asked,
        })
        .collect();
    memo.walks(ctx, trace, &requests, |claimed| {
        claimed.iter().map(|&i| walk(i)).collect()
    })
}

/// One harness pass, timed under the `harness-replay` span and recorded
/// as a `functional` run.
fn walk_harness(ctx: &TelemetryCtx, trace: &VecTrace, frontend: FrontEndConfig) -> Walked {
    // Credit the replay to this thread's simulated-instruction account
    // (the jobs runner snapshots it per cell; telemetry or not).
    hub::add_instructions(trace.len() as u64);
    let mut h = PredictionHarness::new(frontend);
    let mut run = String::new();
    let pass = if let Some(hub) = ctx.hub() {
        h.attach_telemetry(hub.harness_telemetry());
        let started = Instant::now();
        let pass = {
            let _g = hub.spans().span("harness-replay");
            FrontEndPass::replay(&mut h, trace)
        };
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
        pass
    } else {
        FrontEndPass::replay(&mut h, trace)
    };
    Walked {
        outcome: Outcome::Harness(Arc::new(pass)),
        run,
    }
}

/// The manifest name of the paper's HPS machine,
/// [`MachineConfig::isca97`]: every timing walk outside the
/// machine-scaling study runs on it. Functional walks, which model only
/// the front end, are recorded under it too.
pub const ISCA97: &str = "isca97";

/// Runs the timing model over a trace on one machine: a batch of one
/// (see [`timings`]).
pub fn timing(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    machine: &MachineConfig,
    machine_name: &str,
) -> SimReport {
    let mut reports = timings(ctx, trace, std::slice::from_ref(machine), machine_name);
    reports.pop().expect("one report per machine")
}

/// Runs the timing model over a trace on each of `machines`, recorded in
/// the manifest under the short name `machine_name`, and returns the
/// reports in order.
///
/// Each timing walk is a harness pass of its front end (shared by the
/// machines with that front end) and a schedule of its machine; the
/// schedules run as one lockstep batch over the trace prepared once for
/// the machines' latencies and data cache. Under a memoized context a
/// repeated request is served from the memo, and only the walks nobody
/// has made are scheduled.
pub fn timings(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    machines: &[MachineConfig],
    machine_name: &str,
) -> Vec<SimReport> {
    let walked = match ctx.memo() {
        Some(memo) => {
            let requests: Vec<Request> = machines
                .iter()
                .map(|machine| Request {
                    walk: Walk::Schedule(machine.clone()),
                    asked: Some(("timing", machine_name)),
                })
                .collect();
            memo.walks(ctx, trace, &requests, |claimed| {
                let claimed: Vec<&MachineConfig> = claimed.iter().map(|&i| &machines[i]).collect();
                walk_schedules(ctx, trace, &claimed, machine_name)
            })
        }
        None => walk_schedules(
            ctx,
            trace,
            &machines.iter().collect::<Vec<_>>(),
            machine_name,
        ),
    };
    walked.into_iter().map(Walked::report).collect()
}

/// Schedules `trace` on `machines` in lockstep, one batch per
/// preparation they need, and records one `timing` run per machine. The
/// batch is timed under one `uarch-sim` span counted once per machine,
/// and its wall time is split evenly across their runs.
fn walk_schedules(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    machines: &[&MachineConfig],
    machine_name: &str,
) -> Vec<Walked> {
    let mut frontends: Vec<FrontEndConfig> = Vec::new();
    for machine in machines {
        if !frontends.contains(&machine.frontend) {
            frontends.push(machine.frontend);
        }
    }
    let passes = harness_passes(ctx, trace, &frontends, None);
    let pass_of = |machine: &MachineConfig| {
        let i = frontends.iter().position(|fe| *fe == machine.frontend);
        passes[i.expect("every front end was replayed")].pass()
    };

    let started = Instant::now();
    let span = ctx
        .hub()
        .map(|h| h.spans().span_of("uarch-sim", machines.len() as u64));
    let mut reports: Vec<Option<SimReport>> = vec![None; machines.len()];
    let mut rest: Vec<usize> = (0..machines.len()).collect();
    while let Some(&first) = rest.first() {
        let key = PrepareKey::of(machines[first]);
        let (batch, others): (Vec<usize>, Vec<usize>) = rest
            .iter()
            .partition(|&&i| PrepareKey::of(machines[i]) == key);
        let prepared = trace.prepared(machines[first]);
        let walks: Vec<(&MachineConfig, &FrontEndPass)> = batch
            .iter()
            .map(|&i| (machines[i], pass_of(machines[i])))
            .collect();
        for (&i, report) in batch.iter().zip(schedule(&prepared, &walks)) {
            reports[i] = Some(report);
        }
        rest = others;
    }
    drop(span);
    let wall_ns = started.elapsed().as_nanos() as u64 / machines.len().max(1) as u64;

    reports
        .into_iter()
        .zip(machines)
        .map(|(report, machine)| {
            let report = report.expect("every machine was scheduled");
            hub::add_instructions(report.instructions);
            let run = ctx.hub().map_or_else(String::new, |hub| {
                hub.finish_run(
                    "timing",
                    machine_name,
                    &config_desc(&machine.frontend),
                    report.instructions,
                    &report.branch_stats,
                    None,
                    None,
                    wall_ns,
                )
            });
            Walked {
                outcome: Outcome::Schedule(report),
                run,
            }
        })
        .collect()
}

/// Both runs at once, when the caller wants the reports too.
pub fn baseline_and_tc(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    tc: TargetCacheConfig,
) -> (SimReport, SimReport) {
    let machines = [
        MachineConfig::isca97(FrontEndConfig::isca97_baseline()),
        MachineConfig::isca97(FrontEndConfig::isca97_with(tc)),
    ];
    let mut reports = timings(ctx, trace, &machines, ISCA97).into_iter();
    let mut next = || reports.next().expect("one report per machine");
    (next(), next())
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

    #[test]
    fn a_batch_reports_what_the_reference_engine_does() {
        let ctx = TelemetryCtx::off();
        let t = trace(&ctx, Benchmark::Gcc.workload(), Scale::Quick);
        let mut machines: Vec<MachineConfig> = [
            FrontEndConfig::isca97_baseline(),
            FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
            FrontEndConfig::isca97_oracle(),
        ]
        .into_iter()
        .map(MachineConfig::isca97)
        .collect();
        // A second preparation: same front end, another data cache.
        let mut small_cache = machines[0].clone();
        small_cache.dcache.size_bytes = 1024;
        machines.push(small_cache);
        let reports = timings(&ctx, &t, &machines, ISCA97);
        for (machine, report) in machines.iter().zip(&reports) {
            assert_eq!(report, &hps_uarch::simulate(&t, machine));
        }
    }

    /// `(walks, memo hits, generations, trace hits)`.
    fn counters(ctx: &TelemetryCtx) -> (u64, u64, u64, u64) {
        let s = ctx.memo().expect("memoized context").section();
        (s.walks, s.memo_hits, s.generations, s.trace_hits)
    }

    /// `(harness passes, schedules, preparations)`.
    fn passes(ctx: &TelemetryCtx) -> (u64, u64, u64) {
        let s = ctx.memo().expect("memoized context").section();
        (s.harness_passes, s.schedules, s.preparations)
    }

    #[test]
    fn memo_walks_each_request_once_and_shares_harness_passes() {
        let ctx = TelemetryCtx::off().memoized(1);
        let baseline = FrontEndConfig::isca97_baseline();
        let machine = MachineConfig::isca97(baseline);
        let t = trace(&ctx, Benchmark::M88ksim.workload(), Scale::Quick);
        assert_eq!(counters(&ctx), (0, 0, 0, 0), "handles are lazy");
        let report = timing(&ctx, &t, &machine, ISCA97);
        assert_eq!(
            passes(&ctx),
            (1, 1, 1),
            "a timing walk: a pass and a schedule"
        );
        let again = trace(&ctx, Benchmark::M88ksim.workload(), Scale::Quick);
        assert_eq!(timing(&ctx, &again, &machine, ISCA97), report);
        assert_eq!(functional(&ctx, &again, baseline), report.branch_stats);
        assert_eq!(
            counters(&ctx),
            (2, 2, 1, 0),
            "both repeats hit, nothing regenerated"
        );
        assert_eq!(again.len(), t.len());
        assert_eq!(
            counters(&ctx).3,
            1,
            "the second handle shares the first trace"
        );

        // The other order: a functional walk first, then timing walks of
        // its front end on two machines.
        let tc = FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare());
        let stats = functional(&ctx, &t, tc);
        let mut narrow = MachineConfig::isca97(tc);
        narrow.fetch_width = 2;
        let reports = timings(&ctx, &t, &[MachineConfig::isca97(tc), narrow], "mixed");
        assert!(reports.iter().all(|r| r.branch_stats == stats));
        assert_eq!(
            passes(&ctx),
            (2, 3, 1),
            "one pass per front end, one preparation"
        );
        assert_eq!(counters(&ctx).1, 2, "a timing walk's own pass is not a hit");
    }

    #[test]
    fn a_batch_schedules_only_the_walks_nobody_made() {
        let ctx = TelemetryCtx::off().memoized(1);
        let t = trace(&ctx, Benchmark::Perl.workload(), Scale::Quick);
        let declared = vec![
            (
                "tagless".to_string(),
                TargetCacheConfig::isca97_tagless_gshare(),
            ),
            ("tagged".to_string(), TargetCacheConfig::isca97_tagged(4)),
        ];
        let first = reduction_cell(&ctx, &t, declared[..1].to_vec());
        assert_eq!(passes(&ctx), (2, 2, 1));
        let both = reduction_cell(&ctx, &t, declared.clone());
        assert_eq!(both.req("tagless"), first.req("tagless"));
        assert_eq!(passes(&ctx), (3, 3, 1));
        assert_eq!(counters(&ctx).1, 2, "the baseline and the first config hit");
        let naive = reduction_cell(&TelemetryCtx::off(), &t, declared);
        assert_eq!(both, naive);
    }

    /// A request whose harness pass `release` holds until it is told
    /// that a second request is waiting.
    fn held_request(
        ctx: &TelemetryCtx,
        t: &TraceHandle,
        frontend: FrontEndConfig,
        in_flight: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    ) -> Walked {
        let memo = ctx.memo().unwrap();
        let request = Request {
            walk: Walk::Harness(frontend),
            asked: Some(("functional", ISCA97)),
        };
        let mut walked = memo.walks(ctx, t, &[request], |_| {
            in_flight.send(()).unwrap();
            release.recv().unwrap();
            vec![walk_harness(ctx, t, frontend)]
        });
        walked.pop().unwrap()
    }

    #[test]
    fn a_request_during_a_walk_waits_for_its_result() {
        let ctx = TelemetryCtx::off().memoized(2);
        let t = trace(&ctx, Benchmark::Go.workload(), Scale::Quick);
        let frontend = FrontEndConfig::isca97_baseline();
        let (in_flight, first_in_flight) = std::sync::mpsc::channel();
        let (asking, second_asking) = std::sync::mpsc::channel();
        let (first, second) = std::thread::scope(|scope| {
            let (ctx, t) = (&ctx, &t);
            let first =
                scope.spawn(move || held_request(ctx, t, frontend, in_flight, second_asking));
            first_in_flight.recv().unwrap();
            asking.send(()).unwrap();
            let second = functional(ctx, t, frontend);
            (first.join().unwrap(), second)
        });
        assert_eq!(first.pass().stats(), &second);
        assert_eq!(counters(&ctx), (1, 1, 1, 0));
    }

    #[test]
    fn a_walk_that_panics_leaves_its_slot_for_the_next_request() {
        let ctx = TelemetryCtx::off().memoized(1);
        let memo = ctx.memo().unwrap();
        let t = trace(&ctx, Benchmark::Go.workload(), Scale::Quick);
        let frontend = FrontEndConfig::isca97_baseline();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let request = Request {
                walk: Walk::Harness(frontend),
                asked: None,
            };
            memo.walks(&ctx, &t, &[request], |_| panic!("walk failed"))
        }));
        assert!(failed.is_err());
        assert_eq!(
            functional(&ctx, &t, frontend),
            functional(&TelemetryCtx::off(), &t, frontend)
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
        let generated = live.iter().filter(|(_, s)| s.trace.get().is_some());
        assert_eq!(generated.count(), 2);
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

/// A cell of execution-time reductions against the BTB-only baseline on
/// the paper's machine: each `(key, target-cache configuration)` the cell
/// declares, timed in one lockstep batch with the baseline.
pub fn reduction_cell(
    ctx: &TelemetryCtx,
    trace: &TraceHandle,
    declared: Vec<(String, TargetCacheConfig)>,
) -> CellData {
    let machines: Vec<MachineConfig> = std::iter::once(FrontEndConfig::isca97_baseline())
        .chain(
            declared
                .iter()
                .map(|&(_, tc)| FrontEndConfig::isca97_with(tc)),
        )
        .map(MachineConfig::isca97)
        .collect();
    let reports = timings(ctx, trace, &machines, ISCA97);
    let mut d = CellData::new();
    for ((key, _), report) in declared.into_iter().zip(&reports[1..]) {
        d.set(key, report.exec_time_reduction_vs(&reports[0]));
    }
    d
}
