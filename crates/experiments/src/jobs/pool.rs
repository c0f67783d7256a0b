//! The fault-tolerant worker pool: panic isolation, deadlines, retry,
//! and cancellation.
//!
//! [`run_campaign`] executes a list of [`CellTask`]s on `REPRO_JOBS`
//! worker threads. Every attempt runs inside `catch_unwind` on its own
//! named thread, so a panicking cell is contained and reported rather
//! than tearing the campaign down. The single-threaded scheduler tracks
//! a per-attempt deadline inline (waking on `recv_timeout`) — Rust
//! threads cannot be killed, so a timed-out attempt is *detached* (its
//! eventual result is discarded by an attempt-id staleness check) and
//! the cell is retried or failed. Failed attempts retry with jittered
//! exponential backoff up to `REPRO_RETRIES` total attempts; a cell
//! that exhausts them becomes an `Err` report, never an abort. Each
//! cell's final outcome is journaled atomically the moment it resolves,
//! which is what makes a `kill -9` resumable.
//!
//! [`RunControls`] makes the pool observable and stoppable. The
//! scheduler emits exactly one [`CampaignEvent`] per lifecycle
//! transition to every sink it holds (the progress stream, the flight
//! recorder, the Chrome trace), always after journaling the outcome the
//! event reports. A [`CancelToken`] stops the campaign at the next cell
//! boundary: in-flight cells finish and are journaled, and pending cells
//! are reported `cancelled` *without* journaling, so a resumed run
//! re-executes exactly those.

use super::faults::FaultPlan;
use super::journal::{Journal, JournalRecord};
use super::CellData;
use crate::telemetry::TelemetryCtx;
use sim_telemetry::{flight, CampaignEvent, CampaignSink, CellTally};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// How often the scheduler wakes up even without messages, to poll the
/// cancellation token and sweep expired deadlines. Bounds cancellation
/// latency for idle campaigns.
const SCHED_POLL: Duration = Duration::from_millis(25);

/// One schedulable unit of work: a cell id plus the computation that
/// produces its data. The closure is re-invoked on every retry attempt.
#[derive(Clone)]
pub struct CellTask {
    /// Cell id (`table4/perl`).
    pub id: String,
    work: Arc<dyn Fn() -> CellData + Send + Sync>,
}

impl CellTask {
    /// Wraps a computation as a cell task.
    pub fn new(
        id: impl Into<String>,
        work: impl Fn() -> CellData + Send + Sync + 'static,
    ) -> CellTask {
        CellTask {
            id: id.into(),
            work: Arc::new(work),
        }
    }
}

/// Pool configuration, normally read from the environment.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Concurrent workers (`REPRO_JOBS`, default 1: deterministic order).
    pub workers: usize,
    /// Total attempts per cell (`REPRO_RETRIES`, default 3).
    pub attempts: u32,
    /// Per-cell deadline (`REPRO_DEADLINE_MS`, default 600000).
    pub deadline: Duration,
    /// First retry delay; doubles per retry (`REPRO_BACKOFF_MS`, default 100).
    pub backoff: Duration,
    /// Deterministic fault plan (`REPRO_FAULTS`, default none).
    pub faults: FaultPlan,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            workers: 1,
            attempts: 3,
            deadline: Duration::from_millis(600_000),
            backoff: Duration::from_millis(100),
            faults: FaultPlan::none(),
        }
    }
}

impl RunnerConfig {
    /// Reads the configuration from the environment. Every variable is
    /// parsed strictly; a typo is an error, not a silent default.
    pub fn from_env() -> Result<RunnerConfig, String> {
        let mut config = RunnerConfig::default();
        if let Some(v) = env_nonempty("REPRO_JOBS") {
            config.workers = v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or(format!("REPRO_JOBS must be a worker count >= 1, got {v:?}"))?;
        }
        if let Some(v) = env_nonempty("REPRO_RETRIES") {
            config.attempts = v.parse().ok().filter(|&n| n >= 1).ok_or(format!(
                "REPRO_RETRIES must be an attempt count >= 1, got {v:?}"
            ))?;
        }
        if let Some(v) = env_nonempty("REPRO_DEADLINE_MS") {
            let ms: u64 = v.parse().ok().filter(|&n| n >= 1).ok_or(format!(
                "REPRO_DEADLINE_MS must be a duration in ms >= 1, got {v:?}"
            ))?;
            config.deadline = Duration::from_millis(ms);
        }
        if let Some(v) = env_nonempty("REPRO_BACKOFF_MS") {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("REPRO_BACKOFF_MS must be a duration in ms, got {v:?}"))?;
            config.backoff = Duration::from_millis(ms);
        }
        config.faults = FaultPlan::from_env()?;
        Ok(config)
    }
}

fn env_nonempty(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// A cooperative cancellation flag shared between a campaign and
/// whoever may want to stop it (a cell's own work, a lifecycle sink).
/// Cancellation is observed at cell boundaries: the scheduler stops
/// launching attempts, lets in-flight cells finish (journaling their
/// outcomes as usual), and reports every cell that never resolved as
/// `cancelled: <reason>` without journaling it — so a resumed run
/// re-executes exactly the unfinished cells.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    reason: Mutex<String>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. The first caller's reason wins; later
    /// calls are idempotent no-ops.
    pub fn cancel(&self, reason: &str) {
        {
            let mut slot = self.inner.reason.lock().expect("cancel reason lock");
            if slot.is_empty() {
                *slot = reason.to_string();
            }
        }
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::SeqCst)
    }

    /// The reason given by the first `cancel` call (empty if none yet).
    pub fn reason(&self) -> String {
        self.inner
            .reason
            .lock()
            .expect("cancel reason lock")
            .clone()
    }
}

/// Cancellation and lifecycle observers for [`run_campaign`].
/// `Default` (no cancellation, no sinks) is plain batch behaviour.
#[derive(Clone, Default)]
pub struct RunControls {
    /// Cooperative cancellation, observed at cell boundaries.
    pub cancel: Option<CancelToken>,
    /// Renderers of the campaign's lifecycle stream; each sees every
    /// event, in order, from the scheduler thread.
    pub sinks: Vec<Arc<dyn CampaignSink>>,
    /// Heartbeat period: one `Heartbeat` event per tick. `None` emits
    /// only the closing heartbeat.
    pub heartbeat: Option<Duration>,
}

impl RunControls {
    fn emit(&self, event: CampaignEvent<'_>) {
        for sink in &self.sinks {
            sink.on_event(&event);
        }
    }
}

/// The final report for one cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Cell id.
    pub cell: String,
    /// The data, or the last failure reason.
    pub outcome: Result<CellData, String>,
    /// Attempts executed this run (0 when restored from the journal).
    pub attempts: u32,
    /// Attempts killed by the deadline watchdog.
    pub deadline_kills: u32,
    /// Whether the outcome was restored from a resumed journal.
    pub resumed: bool,
    /// Wall-clock ms spent across this run's attempts.
    pub wall_ms: u64,
    /// Simulated instructions processed across this run's attempts (for
    /// a resumed cell: the count its journal record carried).
    pub instructions: u64,
}

impl CellReport {
    fn tally(&self) -> CellTally<'_> {
        CellTally {
            cell: &self.cell,
            attempts: self.attempts,
            wall_ms: self.wall_ms,
            instructions: self.instructions,
        }
    }
}

/// Everything a campaign produced, reports in task order.
pub struct CampaignOutcome {
    /// Per-cell reports, in the order the tasks were given.
    pub reports: Vec<CellReport>,
    /// Whether the campaign was stopped by a [`CancelToken`] before
    /// every cell resolved. Cancelled cells carry `Err` outcomes whose
    /// reason starts with `cancelled:` and are *not* journaled.
    pub cancelled: bool,
}

impl CampaignOutcome {
    /// Whether every cell succeeded.
    pub fn all_ok(&self) -> bool {
        self.reports.iter().all(|r| r.outcome.is_ok())
    }

    /// The failed cells, in task order.
    pub fn failures(&self) -> impl Iterator<Item = &CellReport> {
        self.reports.iter().filter(|r| r.outcome.is_err())
    }

    /// The report for `cell`, if it was part of the campaign.
    pub fn report(&self, cell: &str) -> Option<&CellReport> {
        self.reports.iter().find(|r| r.cell == cell)
    }
}

/// Messages worker and backoff threads send the scheduler.
enum Msg {
    /// An attempt finished (possibly a stale, deadline-detached one).
    Finished {
        task: usize,
        attempt: u32,
        result: Result<CellData, String>,
        wall_ms: u64,
        instructions: u64,
    },
    /// A backoff delay elapsed; the task may be rescheduled.
    Ready { task: usize },
}

/// Scheduler-side state for one task.
#[derive(Default)]
struct TaskState {
    attempts_used: u32,
    deadline_kills: u32,
    wall_ms: u64,
    instructions: u64,
    /// The attempt id currently in flight, if any — results from any
    /// other attempt (i.e. from a detached, timed-out thread) are stale
    /// and dropped.
    live_attempt: Option<u32>,
    /// When the in-flight attempt's deadline expires. Tracked by the
    /// scheduler itself (no watchdog thread: one sleeping thread per
    /// attempt would outlive the attempt for the full deadline, 10
    /// minutes by default).
    deadline_at: Option<Instant>,
    last_error: String,
    done: bool,
}

impl TaskState {
    /// This run's report for the cell, with the given final outcome.
    fn report(&self, cell: &str, outcome: Result<CellData, String>) -> CellReport {
        CellReport {
            cell: cell.to_string(),
            outcome,
            attempts: self.attempts_used,
            deadline_kills: self.deadline_kills,
            resumed: false,
            wall_ms: self.wall_ms,
            instructions: self.instructions,
        }
    }
}

/// Runs `tasks` to completion under `config`, journaling every final
/// outcome. Cells with an `ok` record already in `journal` are restored
/// and skipped (`resumed: true`); journaled failures are re-run.
///
/// Telemetry flows through `ctx` (pass [`TelemetryCtx::off`] for an
/// uninstrumented run). Every lifecycle transition goes to the sinks in
/// `controls` as one [`CampaignEvent`]: `Started` first (tool, scale and
/// trace id from the journal header), `Finished` last, and a
/// `Heartbeat` per `controls.heartbeat` tick in between.
///
/// Returns `Err` only for infrastructure faults (a journal write
/// failing); cell failures are ordinary `CellReport` outcomes.
pub fn run_campaign(
    tasks: Vec<CellTask>,
    config: &RunnerConfig,
    journal: &mut Journal,
    ctx: &TelemetryCtx,
    controls: &RunControls,
) -> Result<CampaignOutcome, String> {
    install_quiet_panic_hook();
    let total = tasks.len();
    controls.emit(CampaignEvent::Started {
        tool: journal.tool(),
        scale: journal.scale(),
        trace_id: journal.trace_id().unwrap_or_default(),
        total: total as u64,
        workers: config.workers as u64,
    });
    let mut reports: Vec<Option<CellReport>> = Vec::new();
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut states: Vec<TaskState> = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        let restored = journal
            .record(&task.id)
            .filter(|r| r.ok)
            .map(|r| CellReport {
                cell: task.id.clone(),
                outcome: Ok(r.data.clone().expect("ok journal record has data")),
                attempts: 0,
                deadline_kills: 0,
                resumed: true,
                wall_ms: 0,
                instructions: r.instructions,
            });
        match &restored {
            // A resumed cell is a final outcome too: announce it up front
            // so the stream reconciles with the journal from the start.
            Some(report) => controls.emit(CampaignEvent::CellResumed(report.tally())),
            None => ready.push_back(i),
        }
        reports.push(restored);
        states.push(TaskState::default());
    }

    let mut completed = reports.iter().filter(|r| r.is_some()).count();
    let mut running = 0usize;
    let (tx, rx) = mpsc::channel::<Msg>();
    let started = Instant::now();
    let tick = controls.heartbeat.map(|t| t.max(Duration::from_millis(1)));
    let mut next_beat = tick.map(|t| started + t);

    let mut cancelled = false;
    loop {
        if completed >= total {
            break;
        }
        cancelled = cancelled
            || controls
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled);
        if cancelled && running == 0 {
            // Every in-flight cell reached its boundary; stop here.
            break;
        }
        if !cancelled {
            while running < config.workers.max(1) {
                let Some(i) = ready.pop_front() else { break };
                let state = &mut states[i];
                state.attempts_used += 1;
                let attempt = state.attempts_used;
                state.live_attempt = Some(attempt);
                state.deadline_at = Some(Instant::now() + config.deadline);
                controls.emit(CampaignEvent::AttemptStarted {
                    cell: &tasks[i].id,
                    attempt,
                    reason: &state.last_error,
                });
                spawn_attempt(&tasks[i], i, attempt, config, ctx, &tx);
                running += 1;
            }
        }

        // The heartbeat ticks from the scheduler itself, so it shares
        // the one ordered event path with every other transition. Missed
        // ticks are skipped, not burst.
        let now = Instant::now();
        if let (Some(tick), Some(at)) = (tick, next_beat.as_mut()) {
            if now >= *at {
                controls.emit(CampaignEvent::Heartbeat {
                    active: running as u64,
                    done: completed as u64,
                    total: total as u64,
                });
                *at += tick;
                if *at < now {
                    *at = now + tick;
                }
            }
        }

        // Sleep until the next message, but no longer than the nearest
        // in-flight deadline or heartbeat (and never past the poll tick,
        // which bounds cancellation latency).
        let mut wait = SCHED_POLL;
        for at in states
            .iter()
            .filter(|s| s.live_attempt.is_some())
            .filter_map(|s| s.deadline_at)
            .chain(next_beat)
        {
            wait = wait.min(at.saturating_duration_since(now));
        }
        match rx.recv_timeout(wait) {
            Ok(Msg::Finished {
                task,
                attempt,
                result,
                wall_ms,
                instructions,
            }) => {
                let state = &mut states[task];
                if state.done || state.live_attempt != Some(attempt) {
                    continue; // stale result from a deadline-detached thread
                }
                state.live_attempt = None;
                state.deadline_at = None;
                state.wall_ms += wall_ms;
                state.instructions += instructions;
                running -= 1;
                let cell = &tasks[task].id;
                let report = match result {
                    Ok(data) => {
                        state.done = true;
                        Some(state.report(cell, Ok(data)))
                    }
                    Err(reason) => {
                        controls.emit(CampaignEvent::AttemptFailed {
                            cell,
                            attempt,
                            reason: &reason,
                        });
                        state.last_error = reason;
                        retry_or_fail(task, cell, state, config, &tx)
                    }
                };
                if let Some(report) = report {
                    completed += 1;
                    resolve(journal, controls, report, &mut reports[task])?;
                }
            }
            Ok(Msg::Ready { task }) => {
                if !states[task].done {
                    ready.push_back(task);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("cell scheduler channel closed unexpectedly".to_string());
            }
        }

        // Sweep expired deadlines. Detach each overrunning thread: mark
        // its attempt stale so whatever it eventually sends is dropped.
        let now = Instant::now();
        let deadline_ms = config.deadline.as_millis() as u64;
        for (task, state) in states.iter_mut().enumerate() {
            if state.live_attempt.is_none() || state.deadline_at.is_none_or(|at| at > now) {
                continue;
            }
            state.live_attempt = None;
            state.deadline_at = None;
            state.deadline_kills += 1;
            state.wall_ms += deadline_ms;
            state.last_error = format!("deadline exceeded ({deadline_ms} ms)");
            running -= 1;
            let cell = &tasks[task].id;
            controls.emit(CampaignEvent::DeadlineKill { cell, deadline_ms });
            if let Some(report) = retry_or_fail(task, cell, state, config, &tx) {
                completed += 1;
                resolve(journal, controls, report, &mut reports[task])?;
            }
        }
    }

    // A cancelled campaign still reports every cell: the ones that never
    // resolved become `cancelled` errors. They are NOT journaled — a
    // resumed run must re-execute exactly these.
    if cancelled {
        let reason = controls
            .cancel
            .as_ref()
            .map(CancelToken::reason)
            .filter(|r| !r.is_empty())
            .unwrap_or_else(|| "no reason given".to_string());
        let unresolved: Vec<CellTally> = (0..total)
            .filter(|&i| reports[i].is_none() && states[i].attempts_used > 0)
            .map(|i| CellTally {
                cell: &tasks[i].id,
                attempts: states[i].attempts_used,
                wall_ms: states[i].wall_ms,
                instructions: states[i].instructions,
            })
            .collect();
        controls.emit(CampaignEvent::Cancelled {
            reason: &reason,
            unresolved: &unresolved,
        });
        for (i, slot) in reports.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(states[i].report(&tasks[i].id, Err(format!("cancelled: {reason}"))));
            }
        }
    }

    let outcome = CampaignOutcome {
        reports: reports.into_iter().map(Option::unwrap).collect(),
        cancelled,
    };
    // The closing beat reports the final count (`done == total` for a
    // completed campaign) and is the stream's last heartbeat.
    controls.emit(CampaignEvent::Heartbeat {
        active: 0,
        done: completed as u64,
        total: total as u64,
    });
    let failed = outcome.failures().count() as u64;
    controls.emit(CampaignEvent::Finished {
        done: total as u64 - failed,
        failed,
        total: total as u64,
    });
    Ok(outcome)
}

/// Handles a failed attempt: schedules a backoff retry if attempts
/// remain, otherwise marks the cell done and returns its final failure.
fn retry_or_fail(
    task: usize,
    cell: &str,
    state: &mut TaskState,
    config: &RunnerConfig,
    tx: &mpsc::Sender<Msg>,
) -> Option<CellReport> {
    if state.attempts_used < config.attempts {
        // Exponential backoff (backoff, 2*backoff, 4*backoff, ...) with
        // ±50% decorrelation jitter: exact powers of two make every cell
        // failed by one shared fault re-collide on each retry wave. The
        // jitter is a pure function of (cell id, attempt), so chaos runs
        // stay bit-for-bit reproducible.
        let shift = (state.attempts_used - 1).min(10);
        let base = config.backoff * (1u32 << shift);
        let delay = base.mul_f64(backoff_jitter(cell, state.attempts_used));
        let tx = tx.clone();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            let _ = tx.send(Msg::Ready { task });
        });
        return None;
    }
    state.done = true;
    Some(state.report(cell, Err(state.last_error.clone())))
}

/// Deterministic backoff jitter factor in `[0.5, 1.5)` for a retry of
/// `cell` on attempt `attempt` — the fault planner's SplitMix64 recipe
/// under a fixed salt, so the schedule is reproducible across runs.
fn backoff_jitter(cell: &str, attempt: u32) -> f64 {
    0.5 + super::faults::split_mix_unit(0x6a17_7e2d_b0ff_0ff5, cell, attempt)
}

/// Resolves a cell: journals its final outcome, then reports it to the
/// sinks. The journal comes first, and its failure is the campaign's:
/// whatever a sink renders (a flight dump's tail included) is already
/// durable.
fn resolve(
    journal: &mut Journal,
    controls: &RunControls,
    report: CellReport,
    slot: &mut Option<CellReport>,
) -> Result<(), String> {
    let record = JournalRecord {
        cell: report.cell.clone(),
        ok: report.outcome.is_ok(),
        attempts: report.attempts,
        deadline_kills: report.deadline_kills,
        wall_ms: report.wall_ms,
        instructions: report.instructions,
        data: report.outcome.as_ref().ok().cloned(),
        reason: report.outcome.as_ref().err().cloned(),
    };
    journal
        .append(record)
        .map_err(|e| format!("cannot write journal {}: {e}", journal.path().display()))?;
    controls.emit(match &report.outcome {
        Ok(_) => CampaignEvent::CellFinished(report.tally()),
        Err(reason) => CampaignEvent::CellFailed(report.tally(), reason),
    });
    *slot = Some(report);
    Ok(())
}

/// Spawns one attempt. The attempt thread is named
/// `repro-cell-<id>#<attempt>` so the quiet panic hook can tell
/// isolated cell panics from real ones. Its deadline is tracked by the
/// scheduler (no per-attempt watchdog thread).
fn spawn_attempt(
    task: &CellTask,
    index: usize,
    attempt: u32,
    config: &RunnerConfig,
    ctx: &TelemetryCtx,
    tx: &mpsc::Sender<Msg>,
) {
    let id = task.id.clone();
    let work = Arc::clone(&task.work);
    let faults = config.faults.clone();
    let hub = ctx.hub().cloned();
    let tx_work = tx.clone();
    std::thread::Builder::new()
        .name(format!("repro-cell-{id}#{attempt}"))
        .spawn(move || {
            let started = Instant::now();
            // Fresh instruction account for this attempt (worker threads
            // are per-attempt, but be explicit rather than rely on that).
            let _ = crate::telemetry::take_instructions();
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Group this cell's phase spans (workload-gen, replay,
                // uarch-sim) under a per-experiment parent, so manifests
                // show e.g. `cell:table4;workload-gen`. Keyed by the
                // experiment, not the full cell id, to bound cardinality.
                let experiment = id.split('/').next().unwrap_or(&id);
                let _span = hub
                    .as_ref()
                    .map(|hub| hub.spans().span(&format!("cell:{experiment}")));
                faults.apply(&id, attempt);
                work()
            }))
            .map_err(panic_reason);
            let _ = tx_work.send(Msg::Finished {
                task: index,
                attempt,
                result,
                wall_ms: started.elapsed().as_millis() as u64,
                instructions: crate::telemetry::take_instructions(),
            });
        })
        .expect("spawn cell worker thread");
}

/// Renders a panic payload as a failure reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: (non-string payload)".to_string()
    }
}

/// Silences the default "thread panicked" stderr spew for isolated cell
/// attempts (their panics are *reported*, as ERR table slots) while
/// leaving every other thread's panics as loud as ever. A panic outside
/// the cell fence is about to take the process down, so every armed
/// flight recorder dumps first — the post-mortem must not depend on the
/// dying process reaching its normal shutdown path.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let isolated = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("repro-cell-"));
            if !isolated {
                flight::dump_armed("panic");
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;
    use sim_telemetry::{FlightRecorder, Json, ProgressEvent, ProgressWriter, TraceCollector};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("repro-pool-{}-{name}", std::process::id()))
    }

    fn fast(faults: &str) -> RunnerConfig {
        RunnerConfig {
            workers: 1,
            attempts: 3,
            deadline: Duration::from_millis(60_000),
            backoff: Duration::from_millis(1),
            faults: FaultPlan::parse(faults).unwrap(),
        }
    }

    fn value_task(id: &str, v: f64) -> CellTask {
        CellTask::new(id, move || {
            let mut d = CellData::new();
            d.set("v", v);
            d
        })
    }

    #[test]
    fn panicking_cell_fails_alone_and_campaign_continues() {
        let dir = scratch("isolate");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 3).unwrap();
        let tasks = vec![
            value_task("t/a", 1.0),
            value_task("t/boom", 2.0),
            value_task("t/c", 3.0),
        ];
        let outcome = run_campaign(
            tasks,
            &fast("panic:t/boom"),
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();

        assert_eq!(outcome.reports.len(), 3);
        assert!(!outcome.all_ok());
        assert_eq!(outcome.failures().count(), 1);
        let failed = outcome.report("t/boom").unwrap();
        assert_eq!(failed.attempts, 3, "panic cell must exhaust retries");
        assert!(failed.outcome.as_ref().unwrap_err().contains("injected"));
        assert!(outcome.report("t/a").unwrap().outcome.is_ok());
        assert!(outcome.report("t/c").unwrap().outcome.is_ok());
        // The journal captured all three final outcomes.
        assert_eq!(journal.records().count(), 3);
        assert!(!journal.record("t/boom").unwrap().ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flaky_cell_recovers_via_retry() {
        let dir = scratch("flaky");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 1).unwrap();
        let outcome = run_campaign(
            vec![value_task("t/x", 7.0)],
            &fast("flaky:t/x:2"),
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();
        let report = outcome.report("t/x").unwrap();
        assert!(report.outcome.is_ok());
        assert_eq!(report.attempts, 3, "two injected failures, then success");
        assert_eq!(journal.record("t/x").unwrap().attempts, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_kills_overrunning_cell() {
        let dir = scratch("deadline");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 1).unwrap();
        let config = RunnerConfig {
            attempts: 2,
            deadline: Duration::from_millis(25),
            ..fast("delay:t/slow:60000")
        };
        let outcome = run_campaign(
            vec![value_task("t/slow", 1.0)],
            &config,
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();
        let report = outcome.report("t/slow").unwrap();
        let reason = report.outcome.as_ref().unwrap_err();
        assert!(reason.contains("deadline"), "{reason}");
        assert_eq!(report.deadline_kills, 2, "both attempts timed out");
        assert_eq!(journal.record("t/slow").unwrap().deadline_kills, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_restores_ok_cells_and_reruns_failures() {
        let dir = scratch("resume");
        let _ = std::fs::remove_dir_all(&dir);

        // First run: `t/a` succeeds, `t/b` fails all attempts.
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 2).unwrap();
        let first = run_campaign(
            vec![value_task("t/a", 5.0), value_task("t/b", 6.0)],
            &fast("panic:t/b"),
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();
        assert!(!first.all_ok());
        drop(journal);

        // Second run resumes: `t/a` must be restored WITHOUT executing
        // (its closure now counts invocations), `t/b` re-runs cleanly.
        let a_runs = Arc::new(AtomicU32::new(0));
        let a_counter = Arc::clone(&a_runs);
        let task_a = CellTask::new("t/a", move || {
            a_counter.fetch_add(1, Ordering::SeqCst);
            CellData::new()
        });
        let mut journal = Journal::resume(&dir, "r", "t", Scale::Quick).unwrap();
        let second = run_campaign(
            vec![task_a, value_task("t/b", 6.0)],
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();

        assert_eq!(
            a_runs.load(Ordering::SeqCst),
            0,
            "journaled cell must not re-run"
        );
        let a = second.report("t/a").unwrap();
        assert!(a.resumed && a.outcome.is_ok());
        assert_eq!(a.outcome.as_ref().unwrap().get("v"), Some(5.0));
        let b = second.report("t/b").unwrap();
        assert!(!b.resumed && b.outcome.is_ok());
        assert!(second.all_ok());
        assert!(
            journal.record("t/b").unwrap().ok,
            "journal updated in place"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_workers_complete_every_cell() {
        let dir = scratch("parallel");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 8).unwrap();
        let config = RunnerConfig {
            workers: 4,
            ..fast("")
        };
        let tasks: Vec<CellTask> = (0..8)
            .map(|i| {
                CellTask::new(format!("t/c{i}"), move || {
                    std::thread::sleep(Duration::from_millis(5));
                    let mut d = CellData::new();
                    d.set("i", i as f64);
                    d
                })
            })
            .collect();
        let outcome = run_campaign(
            tasks,
            &config,
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();
        assert!(outcome.all_ok());
        assert_eq!(outcome.reports.len(), 8);
        // Reports stay in task order regardless of completion order.
        for (i, r) in outcome.reports.iter().enumerate() {
            assert_eq!(r.cell, format!("t/c{i}"));
            assert_eq!(r.outcome.as_ref().unwrap().get("i"), Some(i as f64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_stream_reconciles_with_outcomes() {
        use std::collections::BTreeSet;

        let dir = scratch("progress");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 3).unwrap();
        let controls = RunControls {
            sinks: vec![Arc::new(ProgressWriter::create(&dir, "r").unwrap())],
            heartbeat: Some(Duration::from_millis(5)),
            ..RunControls::default()
        };
        let tasks = vec![
            value_task("t/a", 1.0),
            value_task("t/boom", 2.0),
            value_task("t/c", 3.0),
        ];
        let config = RunnerConfig {
            workers: 2,
            ..fast("flaky:t/boom:1")
        };
        let outcome = run_campaign(
            tasks,
            &config,
            &mut journal,
            &TelemetryCtx::off(),
            &controls,
        )
        .unwrap();
        assert!(outcome.all_ok());

        let path = sim_telemetry::progress_path(&dir, "r");
        let stream = sim_telemetry::read_events(&path).unwrap();
        assert!(!stream.torn_tail);
        let mut started = BTreeSet::new();
        let mut finished = BTreeSet::new();
        let mut retried = BTreeSet::new();
        let mut beats: Vec<(u64, u64)> = Vec::new();
        // The pool brackets its stream with the campaign bookends.
        let n = stream.events.len();
        assert_eq!(stream.events[0].name(), "campaign-started");
        assert_eq!(stream.events[n - 1].name(), "campaign-finished");
        for e in &stream.events[1..n - 1] {
            match e {
                ProgressEvent::CellStarted { cell, .. } => {
                    assert!(started.insert(cell.clone()), "{cell} started twice");
                }
                ProgressEvent::CellFinished { cell, outcome, .. } => {
                    assert_eq!(outcome, "ok");
                    assert!(finished.insert(cell.clone()), "{cell} finished twice");
                }
                ProgressEvent::CellRetry { cell, attempt, .. } => {
                    assert!(*attempt >= 2);
                    retried.insert(cell.clone());
                }
                ProgressEvent::Heartbeat { done, t_ms, .. } => beats.push((*t_ms, *done)),
                other => panic!("pool never emits {:?}", other.name()),
            }
        }
        // Every scheduled cell appears exactly once on each side and the
        // stream reconciles with the journal.
        let ids: BTreeSet<String> = ["t/a", "t/boom", "t/c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(started, ids);
        assert_eq!(finished, ids);
        assert!(
            retried.contains("t/boom"),
            "injected flake must surface as a retry"
        );
        assert_eq!(journal.records().count(), 3);
        // Heartbeats come from the scheduler thread (ticks, then the
        // closing beat): time and completion are monotone, and the final
        // beat reports a finished campaign.
        assert!(!beats.is_empty(), "closing heartbeat is unconditional");
        assert!(beats
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(beats.last().unwrap().1, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_cells_are_announced_in_the_stream() {
        let dir = scratch("progress-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 1).unwrap();
        let first = run_campaign(
            vec![value_task("t/a", 5.0)],
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();
        assert!(first.all_ok());
        drop(journal);

        let mut journal = Journal::resume(&dir, "r", "t", Scale::Quick).unwrap();
        let controls = RunControls {
            sinks: vec![Arc::new(ProgressWriter::create(&dir, "r2").unwrap())],
            heartbeat: Some(Duration::from_millis(1000)),
            ..RunControls::default()
        };
        let second = run_campaign(
            vec![value_task("t/a", 5.0)],
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            &controls,
        )
        .unwrap();
        assert!(second.report("t/a").unwrap().resumed);

        let stream = sim_telemetry::read_events(&sim_telemetry::progress_path(&dir, "r2")).unwrap();
        let resumed = stream.events.iter().any(|e| {
            matches!(e, ProgressEvent::CellFinished { cell, outcome, attempts, .. }
                if cell == "t/a" && outcome == "resumed" && *attempts == 0)
        });
        assert!(resumed, "restored cell must appear as outcome=resumed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let mut distinct = std::collections::BTreeSet::new();
        for cell in ["t/a", "t/b", "table4/perl", "table4/gcc"] {
            for attempt in 1..=5u32 {
                let j = backoff_jitter(cell, attempt);
                assert!((0.5..1.5).contains(&j), "{cell}#{attempt}: {j}");
                assert_eq!(j, backoff_jitter(cell, attempt), "must be deterministic");
                distinct.insert((j * 1e12) as u64);
            }
        }
        assert!(
            distinct.len() > 10,
            "jitter must decorrelate cells/attempts, got {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn cancel_stops_at_cell_boundary_and_skips_journaling_pending_cells() {
        let dir = scratch("cancel");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 3).unwrap();
        let token = CancelToken::new();
        // The first cell cancels the campaign from *inside* its work
        // closure, then completes normally: it must be journaled, while
        // the two cells behind it never start.
        let inner = token.clone();
        let tasks = vec![
            CellTask::new("t/a", move || {
                inner.cancel("test cancel");
                let mut d = CellData::new();
                d.set("v", 1.0);
                d
            }),
            value_task("t/b", 2.0),
            value_task("t/c", 3.0),
        ];
        let controls = RunControls {
            cancel: Some(token.clone()),
            ..RunControls::default()
        };
        let outcome = run_campaign(
            tasks,
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            &controls,
        )
        .unwrap();
        assert!(outcome.cancelled);
        assert!(outcome.report("t/a").unwrap().outcome.is_ok());
        for cell in ["t/b", "t/c"] {
            let r = outcome.report(cell).unwrap();
            let reason = r.outcome.as_ref().unwrap_err();
            assert!(reason.starts_with("cancelled: test cancel"), "{reason}");
            assert_eq!(r.attempts, 0, "{cell} must never have started");
        }
        // Only the completed cell reached the journal; a resume re-runs
        // exactly the cancelled ones.
        assert_eq!(journal.records().count(), 1);
        assert!(journal.record("t/a").unwrap().ok);
        drop(journal);

        // Resume without a token: the journaled cell is restored, not
        // re-run, and every cancelled cell now runs to completion.
        let mut journal = Journal::resume(&dir, "r", "t", Scale::Quick).unwrap();
        let tasks = vec![
            value_task("t/a", 1.0),
            value_task("t/b", 2.0),
            value_task("t/c", 3.0),
        ];
        let resumed = run_campaign(
            tasks,
            &fast(""),
            &mut journal,
            &TelemetryCtx::off(),
            &RunControls::default(),
        )
        .unwrap();
        assert!(!resumed.cancelled);
        let a = resumed.report("t/a").unwrap();
        assert!(a.resumed, "journaled cell must be restored");
        assert_eq!(a.attempts, 0, "journaled cell must not re-run");
        for cell in ["t/b", "t/c"] {
            let r = resumed.report(cell).unwrap();
            assert!(!r.resumed && r.attempts >= 1, "{cell} must run");
            assert!(r.outcome.is_ok(), "{cell}: {:?}", r.outcome);
        }
        assert_eq!(journal.records().count(), 3);
        assert!(journal.records().all(|r| r.ok));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_and_trace_taps_observe_a_faulted_campaign() {
        let dir = scratch("flight-trace");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 2).unwrap();
        let flight = FlightRecorder::new(&dir, "r", "tr-00000000000000f1", 64);
        let trace = TraceCollector::new("r", "tr-00000000000000f1");
        let controls = RunControls {
            sinks: vec![Arc::new(flight.clone()), Arc::new(trace.clone())],
            ..RunControls::default()
        };
        let outcome = run_campaign(
            vec![value_task("t/ok", 1.0), value_task("t/boom", 2.0)],
            &fast("panic:t/boom"),
            &mut journal,
            &TelemetryCtx::off(),
            &controls,
        )
        .unwrap();
        assert_eq!(outcome.failures().count(), 1);

        // Exactly one flight dump exists (every trigger rewrote the same
        // path), and its trailing cell-failed event matches the journal.
        let dump = sim_telemetry::flight_path(&dir, "r");
        assert!(dump.exists(), "failure-after-retries must dump");
        assert!(flight.dumps() >= 1);
        let text = std::fs::read_to_string(&dump).unwrap();
        let last = sim_telemetry::json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("kind").and_then(Json::as_str), Some("cell-failed"));
        assert_eq!(last.get("cell").and_then(Json::as_str), Some("t/boom"));
        assert!(!journal.record("t/boom").unwrap().ok);

        // The trace validates: 4 attempt slices (1 ok + 3 failed), 2
        // retry instants, monotone ts per lane.
        let summary = sim_telemetry::traceviz::validate(&trace.to_json()).unwrap();
        assert_eq!(summary.complete, 4);
        assert_eq!(summary.instants, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records every cell-level event as `(kind, cell, attempts)`. It
    /// releases `t/slow`'s first attempt only once the deadline sweep has
    /// killed it, and cancels the campaign the moment `t/flaky` and
    /// `t/slow` have both finished while `t/boom` waits out a retry
    /// backoff.
    struct Recording {
        events: Mutex<Vec<(&'static str, String, u32)>>,
        release_slow: Mutex<mpsc::Sender<()>>,
        cancel: CancelToken,
    }

    impl CampaignSink for Recording {
        fn on_event(&self, event: &CampaignEvent<'_>) {
            let mut events = self.events.lock().unwrap();
            let (kind, cell, attempts) = match *event {
                CampaignEvent::AttemptStarted { cell, attempt, .. } => ("started", cell, attempt),
                CampaignEvent::AttemptFailed { cell, attempt, .. } => ("failed", cell, attempt),
                CampaignEvent::DeadlineKill { cell, .. } => {
                    let _ = self.release_slow.lock().unwrap().send(());
                    ("killed", cell, 0)
                }
                CampaignEvent::CellFinished(t) => ("finished", t.cell, t.attempts),
                CampaignEvent::CellFailed(t, _) => ("exhausted", t.cell, t.attempts),
                CampaignEvent::Cancelled { unresolved, .. } => {
                    for t in unresolved {
                        events.push(("unresolved", t.cell.to_string(), t.attempts));
                    }
                    return;
                }
                _ => return,
            };
            events.push((kind, cell.to_string(), attempts));
            let finished = events.iter().filter(|e| e.0 == "finished").count();
            let boom_waiting = events
                .iter()
                .rev()
                .find(|e| e.1 == "t/boom")
                .is_some_and(|e| e.0 == "failed");
            if finished == 2 && boom_waiting {
                self.cancel.cancel("test cancel");
            }
        }
    }

    #[test]
    fn every_renderer_reconciles_with_the_journal_through_kill_retry_and_cancel() {
        let dir = scratch("reconcile");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 3).unwrap();
        let token = CancelToken::new();
        let (release_slow, slow_released) = mpsc::channel();
        let recording = Arc::new(Recording {
            events: Mutex::new(Vec::new()),
            release_slow: Mutex::new(release_slow),
            cancel: token.clone(),
        });
        let progress = Arc::new(ProgressWriter::create(&dir, "r").unwrap());
        let flight = FlightRecorder::new(&dir, "r", "tr-00000000000000f2", 256);
        let trace = TraceCollector::new("r", "tr-00000000000000f2");
        // `t/slow`'s first attempt blocks until the sweep has killed it,
        // then returns a result the pool must drop as stale; its retry
        // succeeds.
        let slow_released = Mutex::new(slow_released);
        let calls = AtomicU32::new(0);
        let slow = CellTask::new("t/slow", move || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = slow_released.lock().unwrap().recv();
            }
            CellData::new()
        });
        // `t/boom` fails every attempt, and its doubling backoff outlasts
        // the other cells long before its attempts run out.
        let config = RunnerConfig {
            workers: 3,
            attempts: 10,
            deadline: Duration::from_millis(50),
            backoff: Duration::from_millis(20),
            ..fast("flaky:t/flaky:1,panic:t/boom")
        };
        let controls = RunControls {
            cancel: Some(token),
            sinks: vec![
                Arc::clone(&recording) as Arc<dyn CampaignSink>,
                Arc::clone(&progress) as Arc<dyn CampaignSink>,
                Arc::new(flight.clone()),
                Arc::new(trace.clone()),
            ],
            ..RunControls::default()
        };
        let outcome = run_campaign(
            vec![value_task("t/flaky", 1.0), slow, value_task("t/boom", 3.0)],
            &config,
            &mut journal,
            &TelemetryCtx::off(),
            &controls,
        )
        .unwrap();

        // The campaign took every path: a retried flake, a deadline kill,
        // and a cancel with `t/boom` mid-backoff (unresolved, unjournaled).
        assert!(outcome.cancelled);
        let events = recording.events.lock().unwrap().clone();
        let saw = |kind: &str, cell: &str| events.iter().any(|e| e.0 == kind && e.1 == cell);
        assert!(
            saw("failed", "t/flaky") && saw("finished", "t/flaky"),
            "{events:?}"
        );
        assert!(
            saw("killed", "t/slow") && saw("finished", "t/slow"),
            "{events:?}"
        );
        assert!(saw("unresolved", "t/boom"), "{events:?}");
        assert_eq!(journal.record("t/slow").unwrap().deadline_kills, 1);
        assert!(journal.record("t/boom").is_none());

        let stream = sim_telemetry::read_events(progress.path()).unwrap();
        let doc = trace.to_json();
        let slices: Vec<&Json> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        let ring = flight.events();
        for cell in ["t/flaky", "t/slow", "t/boom"] {
            let attempts = journal
                .record(cell)
                .map_or_else(|| outcome.report(cell).unwrap().attempts, |r| r.attempts);
            assert!(attempts >= 1, "{cell}");
            let recorded = events
                .iter()
                .filter(|e| e.0 == "started" && e.1 == cell)
                .count();
            let streamed = stream
                .events
                .iter()
                .filter(|e| match e {
                    ProgressEvent::CellStarted { cell: c, .. }
                    | ProgressEvent::CellRetry { cell: c, .. } => c == cell,
                    _ => false,
                })
                .count();
            let traced = slices
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(cell))
                .count();
            let flown = ring
                .iter()
                .filter(|e| e.kind == "cell-started" || e.kind == "cell-retry")
                .filter(|e| {
                    e.fields
                        .iter()
                        .any(|(k, v)| k == "cell" && v.as_str() == Some(cell))
                })
                .count();
            let n = attempts as usize;
            assert_eq!((recorded, streamed, traced, flown), (n, n, n, n), "{cell}");
            // Exactly one final outcome per cell in the stream, the
            // cancelled one included.
            let finals: Vec<&ProgressEvent> = stream
                .events
                .iter()
                .filter(|e| matches!(e, ProgressEvent::CellFinished { cell: c, .. } if c == cell))
                .collect();
            assert_eq!(finals.len(), 1, "{cell}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runner_config_from_env_rejects_bad_values() {
        // Exercised via parse helpers on a clean env: defaults hold.
        let config = RunnerConfig::default();
        assert_eq!(config.workers, 1);
        assert_eq!(config.attempts, 3);
        assert_eq!(config.deadline, Duration::from_millis(600_000));
    }
}
