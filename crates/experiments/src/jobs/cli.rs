//! The shared campaign driver behind every reproduction binary.
//!
//! `repro_all` and each per-table tool funnel through [`run_tool`]: read
//! the operator environment, enumerate one `(experiment × benchmark)`
//! cell task per registry entry, execute them on the fault-tolerant pool
//! ([`super::pool`]), render everything that succeeded — failed cells
//! appear as `ERR(reason)` markers inside otherwise-complete tables —
//! and exit with a status that distinguishes data loss from operator
//! error:
//!
//! * `0` — every cell produced data,
//! * `1` — the campaign finished but some cells failed after retries,
//! * `2` — the invocation itself was unusable (bad env, unreadable
//!   journal, journal write failure).
//!
//! Environment:
//!
//! * `REPRO_RUN_ID` — journal name for a fresh run (default
//!   `<tool>-<unix-secs>-<pid>`).
//! * `REPRO_RESUME` — run id of an existing journal; finished-ok cells
//!   are restored from it and only the rest execute.
//! * `REPRO_JOURNAL_DIR` — journal directory (default
//!   [`DEFAULT_JOURNAL_DIR`]).
//! * `REPRO_JOBS`, `REPRO_RETRIES`, `REPRO_DEADLINE_MS`,
//!   `REPRO_BACKOFF_MS`, `REPRO_FAULTS` — see
//!   [`super::pool::RunnerConfig`] and [`super::faults`].
//!
//! Every campaign simulates its cells exactly. The sampled estimate of
//! Table 1 is an experiment of its own (`simpoint`, see
//! [`crate::sample`]), not a mode of this driver; the variables of the
//! retired sharded sampling driver are ignored.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use sim_telemetry::flight::{self, ArmedGuard};
use sim_telemetry::{
    progress_path, CellRecord, FlightRecorder, ProgressWriter, TraceCollector, TraceId,
};

use super::journal::{journal_path, Journal};
use super::pool::{run_campaign, CampaignOutcome, CellTask, RunControls, RunnerConfig};
use super::registry::ExperimentDef;
use super::{cell_id, faults, CellSet};
use crate::runner::Scale;
use crate::telemetry::{self, Session, TelemetryCtx};

/// Where campaign journals live unless `REPRO_JOURNAL_DIR` says otherwise.
pub const DEFAULT_JOURNAL_DIR: &str = "results/journal";

fn env_nonempty(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

fn default_run_id(tool: &str) -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!("{tool}-{secs}-{}", std::process::id())
}

fn operator_error(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(2)
}

/// Runs a full campaign over `defs` and exits the process.
pub fn run_tool(tool: &str, defs: &[ExperimentDef]) -> ! {
    exit(drive(tool, defs))
}

/// Runs the single registry experiment `name` — the body of every
/// per-table binary.
pub fn run_single(name: &str) -> ! {
    match super::registry::find(name) {
        Some(def) => run_tool(name, &[def]),
        None => operator_error(&format!("unknown experiment {name:?}")),
    }
}

fn drive(tool: &str, defs: &[ExperimentDef]) -> i32 {
    let scale = Scale::from_env_or_exit();
    // The session parses the telemetry/progress knob surface (the one
    // env read) and must outlive the campaign so cell records land in
    // the manifest. Every cell task carries a clone of its context.
    let session = telemetry::session_or_exit(tool, scale);
    let ctx = session.ctx();
    let config = RunnerConfig::from_env().unwrap_or_else(|e| operator_error(&e));
    let journal_dir = PathBuf::from(
        env_nonempty("REPRO_JOURNAL_DIR").unwrap_or_else(|| DEFAULT_JOURNAL_DIR.into()),
    );
    let resume = env_nonempty("REPRO_RESUME");
    let run_id = resume
        .clone()
        .unwrap_or_else(|| env_nonempty("REPRO_RUN_ID").unwrap_or_else(|| default_run_id(tool)));

    let tasks = cell_tasks(defs, &ctx.memoized(config.workers), scale);

    let campaign = Campaign::open(
        &session,
        &run_id,
        &journal_dir,
        resume.as_deref(),
        tasks.len(),
    )
    .unwrap_or_else(|e| operator_error(&e));

    // The fault guard must outlive the campaign so workload truncation
    // faults stay visible to trace generation on worker threads.
    let _faults = faults::install(config.faults.clone());

    println!(
        "run: {run_id}  trace: {}  scale: {}  cells: {}  workers: {}  journal: {}\n",
        campaign.trace_id,
        scale.name(),
        tasks.len(),
        config.workers,
        campaign.journal.path().display()
    );

    let outcome = campaign
        .run(tasks, &config)
        .unwrap_or_else(|e| operator_error(&e));

    for def in defs {
        let mut cells = CellSet::new();
        for label in (def.labels)() {
            let report = outcome
                .report(&cell_id(def.name, label))
                .expect("every enumerated cell was scheduled");
            cells.insert(label, report.outcome.clone());
        }
        println!("{}", (def.render)(&cells));
    }

    epilogue(tool, &run_id, scale, &journal_dir, &outcome)
}

/// One task per `(experiment × label)` cell of `defs`, queued
/// benchmark-major: every cell of a label, in registry order, before the
/// first cell of the next label. Each task hands its cell `ctx` for that
/// cell, so under a memoized context the cells of one benchmark share its
/// trace and walks while it is live (see `runner::Memo`).
/// Rendering reads cells by id, so output does not depend on this order.
pub fn cell_tasks(defs: &[ExperimentDef], ctx: &TelemetryCtx, scale: Scale) -> Vec<CellTask> {
    let mut cells: Vec<(&'static str, &ExperimentDef)> = defs
        .iter()
        .flat_map(|def| (def.labels)().into_iter().map(move |label| (label, def)))
        .collect();
    let mut labels: Vec<&str> = Vec::new();
    for &(label, _) in &cells {
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    cells.sort_by_key(|&(label, _)| labels.iter().position(|&l| l == label));
    cells
        .into_iter()
        .map(|(label, def)| {
            let id = cell_id(def.name, label);
            let (ctx, cell) = (ctx.for_cell(&id), def.cell);
            CellTask::new(id, move || cell(&ctx, label, scale))
        })
        .collect()
}

/// An open campaign: its journal, correlation id, and armed lifecycle
/// sinks, built once from the session's [`sim_telemetry::TelemetryConfig`].
pub(crate) struct Campaign {
    /// The campaign journal (created, or resumed with its records).
    pub journal: Journal,
    /// The trace id every artifact of the campaign carries.
    pub trace_id: String,
    ctx: TelemetryCtx,
    controls: RunControls,
    trace: Option<(TraceCollector, PathBuf)>,
    _armed: ArmedGuard,
}

impl Campaign {
    /// Opens the session's campaign (its tool and scale) as `run_id`,
    /// the name of its progress stream, flight dump, and trace export.
    /// Resumes the journal `resume` under `journal_dir`, or creates
    /// `<journal_dir>/<run_id>.jsonl` for `cells` cells; either way the
    /// journal settles the trace id (a resumed one keeps its own). Then
    /// builds the sinks: the always-on flight recorder (armed for the
    /// panic hook until the campaign drops), the progress stream when
    /// `REPRO_PROGRESS` is on, and the Chrome trace collector when an
    /// export is requested.
    pub fn open(
        session: &Session,
        run_id: &str,
        journal_dir: &Path,
        resume: Option<&str>,
        cells: usize,
    ) -> Result<Campaign, String> {
        let (tool, scale) = (session.tool.as_str(), session.scale);
        let journal = match resume {
            Some(id) => Journal::resume(journal_dir, id, tool, scale)?,
            None => {
                // Bake the resume command into the header at create time:
                // whoever finds this journal after a crash can surface it
                // verbatim.
                let command = resume_command(tool, run_id, scale, journal_dir);
                Journal::create_with_meta(
                    journal_dir,
                    run_id,
                    tool,
                    scale,
                    cells,
                    Some(&command),
                    Some(&TraceId::mint().to_string()),
                )
                .map_err(|e| {
                    let path = journal_path(journal_dir, run_id);
                    format!("cannot create journal {}: {e}", path.display())
                })?
            }
        };
        let trace_id = journal.trace_id().unwrap_or_default().to_string();
        let ctx = session.ctx();
        if let Some(hub) = ctx.hub() {
            hub.set_trace_id(&trace_id);
        }

        let config = session.config();
        let recorder = FlightRecorder::new(
            &config.flight_dir,
            run_id,
            &trace_id,
            config.flight_capacity,
        );
        let armed = flight::arm(&recorder);
        let mut controls = RunControls {
            sinks: vec![Arc::new(recorder)],
            ..RunControls::default()
        };
        if config.progress {
            let writer = ProgressWriter::create(&config.progress_dir, run_id).map_err(|e| {
                let path = progress_path(&config.progress_dir, run_id);
                format!("cannot create progress stream {}: {e}", path.display())
            })?;
            controls.sinks.push(Arc::new(writer));
            controls.heartbeat = Some(config.progress_tick);
        }
        let trace = config.trace_export.enabled().then(|| {
            let collector = TraceCollector::new(run_id, &trace_id);
            controls.sinks.push(Arc::new(collector.clone()));
            (collector, config.traceviz_dir.clone())
        });
        Ok(Campaign {
            journal,
            trace_id,
            ctx,
            controls,
            trace,
            _armed: armed,
        })
    }

    /// Runs `tasks` on the pool, then mirrors every cell outcome into the
    /// telemetry manifest and writes the trace export.
    pub fn run(
        mut self,
        tasks: Vec<CellTask>,
        config: &RunnerConfig,
    ) -> Result<CampaignOutcome, String> {
        let outcome = run_campaign(tasks, config, &mut self.journal, &self.ctx, &self.controls)?;
        if let Some(hub) = self.ctx.hub() {
            for r in &outcome.reports {
                hub.record_cell(CellRecord {
                    cell: r.cell.clone(),
                    ok: r.outcome.is_ok(),
                    attempts: r.attempts,
                    deadline_kills: r.deadline_kills,
                    resumed: r.resumed,
                    reason: r.outcome.as_ref().err().cloned(),
                    wall_ms: r.wall_ms,
                    instructions: r.instructions,
                });
            }
        }
        if let Some((trace, dir)) = &self.trace {
            if let Some(hub) = self.ctx.hub() {
                trace.add_spans(hub.spans());
            }
            match trace.write(dir) {
                Ok(path) => println!("trace export: {}", path.display()),
                Err(e) => eprintln!("warning: cannot write trace export: {e}"),
            }
        }
        Ok(outcome)
    }
}

/// The full, copy-pasteable resume command for a failed campaign: the
/// scale is pinned (a resume from a different shell must not silently
/// run at another scale, which the journal would reject anyway) and a
/// non-default journal directory rides along. Written into every fresh
/// journal header and printed by the failure epilogue.
pub(crate) fn resume_command(tool: &str, run_id: &str, scale: Scale, journal_dir: &Path) -> String {
    let mut cmd = format!("REPRO_SCALE={}", scale.name());
    if journal_dir != Path::new(DEFAULT_JOURNAL_DIR) {
        cmd.push_str(&format!(" REPRO_JOURNAL_DIR={}", journal_dir.display()));
    }
    cmd.push_str(&format!(" REPRO_RESUME={run_id} {tool}"));
    cmd
}

fn epilogue(
    tool: &str,
    run_id: &str,
    scale: Scale,
    journal_dir: &Path,
    outcome: &CampaignOutcome,
) -> i32 {
    let total = outcome.reports.len();
    let failed = outcome.failures().count();
    let resumed = outcome.reports.iter().filter(|r| r.resumed).count();
    let retried = outcome.reports.iter().filter(|r| r.attempts > 1).count();
    let mut line = format!("campaign: {}/{} cells ok", total - failed, total);
    if resumed > 0 {
        line.push_str(&format!(", {resumed} restored from journal"));
    }
    if retried > 0 {
        line.push_str(&format!(", {retried} needed retries"));
    }
    println!("{line}");
    if failed == 0 {
        return 0;
    }
    eprintln!("error: {failed} cell(s) failed after retries:");
    for r in outcome.failures() {
        let reason = r.outcome.as_ref().err().map(String::as_str).unwrap_or("?");
        eprintln!("  {}: {}", r.cell, reason.lines().next().unwrap_or(reason));
    }
    eprintln!(
        "re-run only the failed cells with: {}",
        resume_command(tool, run_id, scale, journal_dir)
    );
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_command_is_complete_and_copy_pasteable() {
        // Default journal dir: scale + resume id only.
        let cmd = resume_command(
            "table4",
            "run-7",
            Scale::Standard,
            Path::new(DEFAULT_JOURNAL_DIR),
        );
        assert_eq!(cmd, "REPRO_SCALE=standard REPRO_RESUME=run-7 table4");
        // A custom journal dir must ride along or the resume cannot find
        // the journal.
        let cmd = resume_command("repro_all", "r1", Scale::Quick, Path::new("/tmp/j"));
        assert_eq!(
            cmd,
            "REPRO_SCALE=quick REPRO_JOURNAL_DIR=/tmp/j REPRO_RESUME=r1 repro_all"
        );
    }
}
