//! Campaign status reconstruction from a progress stream.
//!
//! `repro-top` (live) and `telemetry-report --progress` (post-mortem)
//! share this one reader: [`CampaignStatus::from_stream`] folds the
//! event list from [`sim_telemetry::read_events`] into per-cell state,
//! and the render functions turn that into an operator table, a JSON
//! document, or a timeline report. Keeping the fold in one place means
//! the live view and the post-mortem can never disagree about what a
//! stream says. A cell is known by its id alone (`table4/perl`); the
//! table's detail column carries its most recent failure reason.

use crate::report::TextTable;
use sim_telemetry::json::{obj, Json};
use sim_telemetry::{eta_ms, ProgressEvent, ProgressStreamContents};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where a cell currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellState {
    /// An attempt is in flight.
    Running,
    /// A retry attempt is in flight after at least one failure.
    Retrying,
    /// Final outcome: produced data.
    Ok,
    /// Final outcome: failed after retries.
    Err,
    /// Final outcome: restored from a resume journal without running.
    Resumed,
}

impl CellState {
    /// The state's display name.
    pub fn name(self) -> &'static str {
        match self {
            CellState::Running => "running",
            CellState::Retrying => "retrying",
            CellState::Ok => "ok",
            CellState::Err => "err",
            CellState::Resumed => "resumed",
        }
    }

    /// Whether the cell has reached a final outcome.
    pub fn is_final(self) -> bool {
        matches!(self, CellState::Ok | CellState::Err | CellState::Resumed)
    }
}

/// Everything the stream knows about one cell.
#[derive(Clone, Debug)]
pub struct CellView {
    /// Cell id (`table4/perl`).
    pub cell: String,
    /// Current lifecycle state.
    pub state: CellState,
    /// `t_ms` of the first attempt (absent for resumed cells).
    pub started_ms: Option<u64>,
    /// `t_ms` of the final outcome (absent while running).
    pub finished_ms: Option<u64>,
    /// Attempts executed (0 for resumed cells; for a running cell, the
    /// attempt number currently in flight).
    pub attempts: u64,
    /// Wall milliseconds across attempts (final outcome only).
    pub wall_ms: u64,
    /// Simulated instructions (final outcome only).
    pub instructions: u64,
    /// Throughput at the final outcome.
    pub instr_per_sec: f64,
    /// Most recent failure reason (retry or final `err`).
    pub reason: Option<String>,
}

impl CellView {
    fn new(cell: &str) -> CellView {
        CellView {
            cell: cell.to_string(),
            state: CellState::Running,
            started_ms: None,
            finished_ms: None,
            attempts: 0,
            wall_ms: 0,
            instructions: 0,
            instr_per_sec: 0.0,
            reason: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = match obj([
            ("cell", Json::from(self.cell.as_str())),
            ("state", Json::from(self.state.name())),
            ("attempts", Json::from(self.attempts)),
            ("wall_ms", Json::from(self.wall_ms)),
            ("instructions", Json::from(self.instructions)),
            ("instr_per_sec", Json::from(self.instr_per_sec)),
        ]) {
            Json::Obj(fields) => fields,
            _ => unreachable!("obj() builds an object"),
        };
        if let Some(t) = self.started_ms {
            fields.insert("started_ms".to_string(), Json::from(t));
        }
        if let Some(t) = self.finished_ms {
            fields.insert("finished_ms".to_string(), Json::from(t));
        }
        if let Some(reason) = &self.reason {
            fields.insert("reason".to_string(), Json::from(reason.as_str()));
        }
        Json::Obj(fields)
    }
}

/// A campaign's reconstructed status: the fold of a progress stream.
#[derive(Clone, Debug, Default)]
pub struct CampaignStatus {
    /// Run id (empty when the stream has no `campaign-started`).
    pub run: String,
    /// Tool name.
    pub tool: String,
    /// Scale name.
    pub scale: String,
    /// Correlation id from `campaign-started` (empty for streams
    /// written before correlation ids existed).
    pub trace_id: String,
    /// Worker threads.
    pub workers: u64,
    /// Cells scheduled.
    pub total: u64,
    /// Per-cell views, sorted by cell id.
    pub cells: Vec<CellView>,
    /// Latest ETA estimate in milliseconds, if any.
    pub eta_ms: Option<u64>,
    /// The largest `t_ms` seen — how far into the campaign the stream
    /// reaches.
    pub last_t_ms: u64,
    /// Whether `campaign-finished` was seen.
    pub finished: bool,
    /// Failed-cell count from `campaign-finished` (derived from cell
    /// states while the campaign is live).
    pub failed: u64,
    /// Whether the stream ended in a torn (skipped) trailing line.
    pub torn_tail: bool,
    /// The interval between the stream's last two heartbeats, if it has
    /// at least two — the measured tick a stall detector should expect
    /// the next beat within.
    pub heartbeat_interval_ms: Option<u64>,
}

/// How many heartbeat intervals may pass without the stream growing
/// before an unfinished campaign is declared stalled.
pub const STALL_MISSED_BEATS: u64 = 3;

impl CampaignStatus {
    /// Folds a parsed stream into campaign status.
    pub fn from_stream(stream: &ProgressStreamContents) -> CampaignStatus {
        let mut status = CampaignStatus {
            torn_tail: stream.torn_tail,
            ..CampaignStatus::default()
        };
        let mut cells: BTreeMap<String, CellView> = BTreeMap::new();
        let mut prev_beat_ms: Option<u64> = None;
        for event in &stream.events {
            match event {
                ProgressEvent::CampaignStarted {
                    run,
                    tool,
                    scale,
                    total,
                    workers,
                    trace_id,
                    ..
                } => {
                    status.run = run.clone();
                    status.tool = tool.clone();
                    status.scale = scale.clone();
                    status.total = *total;
                    status.workers = *workers;
                    status.trace_id = trace_id.clone();
                }
                ProgressEvent::CellStarted { cell, t_ms } => {
                    let view = cells
                        .entry(cell.clone())
                        .or_insert_with(|| CellView::new(cell));
                    view.state = CellState::Running;
                    view.started_ms = Some(*t_ms);
                    view.attempts = 1;
                    status.last_t_ms = status.last_t_ms.max(*t_ms);
                }
                ProgressEvent::CellRetry {
                    cell,
                    attempt,
                    reason,
                    t_ms,
                } => {
                    let view = cells
                        .entry(cell.clone())
                        .or_insert_with(|| CellView::new(cell));
                    view.state = CellState::Retrying;
                    view.attempts = *attempt;
                    view.reason = Some(reason.clone());
                    status.last_t_ms = status.last_t_ms.max(*t_ms);
                }
                ProgressEvent::CellFinished {
                    cell,
                    outcome,
                    attempts,
                    wall_ms,
                    instructions,
                    instr_per_sec,
                    reason,
                    t_ms,
                } => {
                    let view = cells
                        .entry(cell.clone())
                        .or_insert_with(|| CellView::new(cell));
                    view.state = match outcome.as_str() {
                        "ok" => CellState::Ok,
                        "resumed" => CellState::Resumed,
                        _ => CellState::Err,
                    };
                    view.finished_ms = Some(*t_ms);
                    view.attempts = *attempts;
                    view.wall_ms = *wall_ms;
                    view.instructions = *instructions;
                    view.instr_per_sec = *instr_per_sec;
                    if let Some(reason) = reason {
                        view.reason = Some(reason.clone());
                    }
                    status.last_t_ms = status.last_t_ms.max(*t_ms);
                }
                ProgressEvent::Heartbeat { eta_ms, t_ms, .. } => {
                    if eta_ms.is_some() {
                        status.eta_ms = *eta_ms;
                    }
                    if let Some(prev) = prev_beat_ms {
                        let delta = t_ms.saturating_sub(prev);
                        if delta > 0 {
                            status.heartbeat_interval_ms = Some(delta);
                        }
                    }
                    prev_beat_ms = Some(*t_ms);
                    status.last_t_ms = status.last_t_ms.max(*t_ms);
                }
                ProgressEvent::CampaignFinished {
                    failed,
                    total,
                    t_ms,
                    ..
                } => {
                    status.finished = true;
                    status.failed = *failed;
                    if status.total == 0 {
                        status.total = *total;
                    }
                    status.eta_ms = Some(0);
                    status.last_t_ms = status.last_t_ms.max(*t_ms);
                }
            }
        }
        status.cells = cells.into_values().collect();
        if status.total == 0 {
            status.total = status.cells.len() as u64;
        }
        if !status.finished {
            status.failed = status.count(CellState::Err);
            // No heartbeat yet (stream caught between events): derive
            // the same linear estimate a heartbeat would carry.
            if status.eta_ms.is_none() {
                status.eta_ms = eta_ms(status.done(), status.total, status.last_t_ms);
            }
        }
        status
    }

    fn count(&self, state: CellState) -> u64 {
        self.cells.iter().filter(|c| c.state == state).count() as u64
    }

    /// The heartbeat period a stall detector should expect: measured
    /// from the stream's last two beats, else the configured default
    /// tick.
    pub fn expected_beat_ms(&self) -> u64 {
        self.heartbeat_interval_ms
            .unwrap_or(sim_telemetry::DEFAULT_PROGRESS_TICK_MS)
            .max(1)
    }

    /// Whether an unfinished campaign whose stream has not grown for
    /// `idle_ms` wall milliseconds should be declared `STALLED`: more
    /// than [`STALL_MISSED_BEATS`] expected heartbeats have been
    /// missed. A finished campaign never stalls, however stale its
    /// file — there is no producer left to expect beats from.
    pub fn stalled(&self, idle_ms: u64) -> bool {
        !self.finished && idle_ms > STALL_MISSED_BEATS * self.expected_beat_ms()
    }

    /// Cells with a final outcome (including failed and resumed).
    pub fn done(&self) -> u64 {
        self.cells.iter().filter(|c| c.state.is_final()).count() as u64
    }

    /// Cells with an attempt currently in flight.
    pub fn active(&self) -> u64 {
        self.cells.iter().filter(|c| !c.state.is_final()).count() as u64
    }

    /// One-line summary: `run r1 (table4, quick): 5/8 done, ...`.
    pub fn headline(&self) -> String {
        let identity = if self.run.is_empty() {
            "campaign".to_string()
        } else if self.trace_id.is_empty() {
            format!("run {} ({}, {} scale)", self.run, self.tool, self.scale)
        } else {
            format!(
                "run {} [{}] ({}, {} scale)",
                self.run, self.trace_id, self.tool, self.scale
            )
        };
        let tail = if self.finished {
            format!("finished in {}", fmt_ms(self.last_t_ms))
        } else {
            let eta = match self.eta_ms {
                Some(ms) => format!("eta {}", fmt_ms(ms)),
                None => "eta —".to_string(),
            };
            format!("{} active, {eta}", self.active())
        };
        format!(
            "{identity}: {}/{} cells done, {} failed, {tail}{}",
            self.done(),
            self.total,
            self.failed,
            if self.torn_tail { "  [torn tail]" } else { "" }
        )
    }

    /// The operator table `repro-top` prints.
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "cell".into(),
            "state".into(),
            "attempts".into(),
            "wall".into(),
            "instr/s".into(),
            "detail".into(),
        ]);
        for c in &self.cells {
            let (wall, rate) = if c.state.is_final() {
                (fmt_ms(c.wall_ms), fmt_rate(c.instr_per_sec))
            } else {
                ("…".to_string(), "…".to_string())
            };
            table.row(vec![
                c.cell.clone(),
                c.state.name().to_string(),
                c.attempts.to_string(),
                wall,
                rate,
                c.reason.clone().unwrap_or_default(),
            ]);
        }
        format!("{}\n\n{}", self.headline(), table.render())
    }

    /// Machine-readable status (`repro-top --json`).
    pub fn to_json(&self) -> Json {
        let mut fields = match obj([
            ("run", Json::from(self.run.as_str())),
            ("tool", Json::from(self.tool.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("workers", Json::from(self.workers)),
            ("total", Json::from(self.total)),
            ("done", Json::from(self.done())),
            ("failed", Json::from(self.failed)),
            ("active", Json::from(self.active())),
            ("finished", Json::from(self.finished)),
            ("torn_tail", Json::from(self.torn_tail)),
            ("last_t_ms", Json::from(self.last_t_ms)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellView::to_json).collect()),
            ),
        ]) {
            Json::Obj(fields) => fields,
            _ => unreachable!("obj() builds an object"),
        };
        if let Some(eta) = self.eta_ms {
            fields.insert("eta_ms".to_string(), Json::from(eta));
        }
        if !self.trace_id.is_empty() {
            fields.insert("trace_id".to_string(), Json::from(self.trace_id.as_str()));
        }
        Json::Obj(fields)
    }

    /// The post-mortem report (`telemetry-report --progress`): per-cell
    /// timeline, the slowest cells, and a retry histogram.
    pub fn render_timeline(&self, top_n: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.headline());
        out.push_str("\n\ntimeline (ms since campaign start):\n");
        let mut by_start: Vec<&CellView> = self.cells.iter().collect();
        by_start.sort_by_key(|c| (c.started_ms.unwrap_or(0), c.cell.clone()));
        let mut timeline = TextTable::new(vec![
            "cell".into(),
            "started".into(),
            "finished".into(),
            "state".into(),
            "wall".into(),
        ]);
        for c in &by_start {
            timeline.row(vec![
                c.cell.clone(),
                c.started_ms.map_or("—".to_string(), |t| t.to_string()),
                c.finished_ms.map_or("…".to_string(), |t| t.to_string()),
                c.state.name().to_string(),
                if c.state.is_final() {
                    fmt_ms(c.wall_ms)
                } else {
                    "…".to_string()
                },
            ]);
        }
        out.push_str(&timeline.render());

        let mut slowest: Vec<&CellView> =
            self.cells.iter().filter(|c| c.state.is_final()).collect();
        slowest.sort_by(|a, b| b.wall_ms.cmp(&a.wall_ms).then(a.cell.cmp(&b.cell)));
        slowest.truncate(top_n);
        if !slowest.is_empty() {
            out.push_str(&format!("\nslowest {} cell(s):\n", slowest.len()));
            for c in &slowest {
                out.push_str(&format!(
                    "  {:<28} {:>9}  {:>10}  {}\n",
                    c.cell,
                    fmt_ms(c.wall_ms),
                    fmt_rate(c.instr_per_sec),
                    c.state.name()
                ));
            }
        }

        let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
        for c in &self.cells {
            *histogram.entry(c.attempts).or_insert(0) += 1;
        }
        out.push_str("\nattempts histogram:\n");
        for (attempts, count) in &histogram {
            out.push_str(&format!("  {attempts} attempt(s): {count} cell(s)\n"));
        }
        out
    }
}

/// Milliseconds as a human duration (`450ms`, `12.3s`, `4m08s`).
pub fn fmt_ms(ms: u64) -> String {
    if ms < 1_000 {
        format!("{ms}ms")
    } else if ms < 120_000 {
        format!("{:.1}s", ms as f64 / 1_000.0)
    } else {
        format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1_000)
    }
}

/// Instructions/sec as a compact rate (`12.4M/s`).
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.1}M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1}k/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0}/s")
    }
}

/// The most recently modified `*.progress.jsonl` under `dir`.
pub fn newest_progress_file(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".progress.jsonl"))
        })
        .max_by_key(|e| {
            e.metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH)
        })
        .map(|e| e.path())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_telemetry::parse_events;

    fn stream(events: &[ProgressEvent]) -> ProgressStreamContents {
        let mut text = String::new();
        for e in events {
            text.push_str(&e.to_json().to_string());
            text.push('\n');
        }
        parse_events(&text).unwrap()
    }

    fn started(total: u64) -> ProgressEvent {
        ProgressEvent::CampaignStarted {
            run: "r1".into(),
            tool: "table4".into(),
            scale: "quick".into(),
            total,
            workers: 2,
            unix_ms: 1_700_000_000_000,
            trace_id: "tr-00000000deadbeef".into(),
        }
    }

    fn finished(cell: &str, outcome: &str, wall_ms: u64, t_ms: u64) -> ProgressEvent {
        ProgressEvent::CellFinished {
            cell: cell.into(),
            outcome: outcome.into(),
            attempts: 1,
            wall_ms,
            instructions: 1_000,
            instr_per_sec: 5e6,
            reason: (outcome == "err").then(|| "boom".to_string()),
            t_ms,
        }
    }

    #[test]
    fn fold_reconstructs_live_state_and_counts() {
        let status = CampaignStatus::from_stream(&stream(&[
            started(3),
            ProgressEvent::CellStarted {
                cell: "t/a".into(),
                t_ms: 1,
            },
            ProgressEvent::CellStarted {
                cell: "t/b".into(),
                t_ms: 2,
            },
            finished("t/a", "ok", 40, 41),
            ProgressEvent::CellRetry {
                cell: "t/b".into(),
                attempt: 2,
                reason: "panicked".into(),
                t_ms: 50,
            },
            ProgressEvent::Heartbeat {
                active_cells: 1,
                done: 1,
                total: 3,
                eta_ms: Some(100),
                t_ms: 60,
            },
        ]));
        assert_eq!(status.run, "r1");
        assert_eq!(status.total, 3);
        assert_eq!(status.done(), 1);
        assert_eq!(status.active(), 1);
        assert_eq!(status.failed, 0);
        assert_eq!(status.eta_ms, Some(100));
        assert!(!status.finished);
        let b = status.cells.iter().find(|c| c.cell == "t/b").unwrap();
        assert_eq!(b.state, CellState::Retrying);
        assert_eq!(b.attempts, 2);
        assert_eq!(b.reason.as_deref(), Some("panicked"));
        // Only started cells appear; the third is still pending.
        assert_eq!(status.cells.len(), 2);
    }

    #[test]
    fn fold_reaches_the_finished_state() {
        let status = CampaignStatus::from_stream(&stream(&[
            started(2),
            ProgressEvent::CellStarted {
                cell: "t/a".into(),
                t_ms: 1,
            },
            finished("t/a", "ok", 10, 11),
            finished("t/b", "resumed", 0, 12),
            ProgressEvent::CampaignFinished {
                done: 2,
                failed: 0,
                total: 2,
                wall_ms: 13,
                t_ms: 13,
            },
        ]));
        assert!(status.finished);
        assert_eq!(status.done(), 2);
        assert_eq!(status.active(), 0);
        assert_eq!(status.eta_ms, Some(0));
        let resumed = status.cells.iter().find(|c| c.cell == "t/b").unwrap();
        assert_eq!(resumed.state, CellState::Resumed);
        assert_eq!(resumed.started_ms, None);
        let json = status.to_json();
        assert_eq!(json.get("done").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("finished").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("cells").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn failed_cells_are_counted_with_their_reason() {
        let status = CampaignStatus::from_stream(&stream(&[
            started(1),
            ProgressEvent::CellStarted {
                cell: "t/x".into(),
                t_ms: 1,
            },
            finished("t/x", "err", 30, 31),
        ]));
        assert_eq!(status.failed, 1);
        assert_eq!(status.done(), 1);
        let x = &status.cells[0];
        assert_eq!(x.state, CellState::Err);
        assert_eq!(x.reason.as_deref(), Some("boom"));
        let table = status.render_table();
        assert!(table.contains("boom"), "{table}");
        let timeline = status.render_timeline(5);
        assert!(timeline.contains("attempts histogram"), "{timeline}");
    }

    #[test]
    fn stall_detection_uses_measured_heartbeat_interval() {
        let beat = |t_ms| ProgressEvent::Heartbeat {
            active_cells: 1,
            done: 0,
            total: 2,
            eta_ms: None,
            t_ms,
        };
        // Two beats 250ms apart: the measured interval wins over the
        // 1000ms default, so 3 missed beats is 750ms, not 3s.
        let live = CampaignStatus::from_stream(&stream(&[started(2), beat(100), beat(350)]));
        assert_eq!(live.heartbeat_interval_ms, Some(250));
        assert_eq!(live.expected_beat_ms(), 250);
        assert!(!live.stalled(700));
        assert!(live.stalled(751));

        // No measurable interval yet: fall back to the default tick.
        let fresh = CampaignStatus::from_stream(&stream(&[started(2), beat(100)]));
        assert_eq!(fresh.heartbeat_interval_ms, None);
        assert_eq!(
            fresh.expected_beat_ms(),
            sim_telemetry::DEFAULT_PROGRESS_TICK_MS
        );
        assert!(!fresh.stalled(3_000));
        assert!(fresh.stalled(3_001));

        // A finished campaign never stalls: no producer is expected.
        let done = CampaignStatus::from_stream(&stream(&[
            started(1),
            ProgressEvent::CellStarted {
                cell: "t/a".into(),
                t_ms: 1,
            },
            finished("t/a", "ok", 10, 11),
            ProgressEvent::CampaignFinished {
                done: 1,
                failed: 0,
                total: 1,
                wall_ms: 12,
                t_ms: 12,
            },
        ]));
        assert!(!done.stalled(u64::MAX / (STALL_MISSED_BEATS * 2)));
    }

    #[test]
    fn newest_progress_file_picks_the_latest() {
        let dir = std::env::temp_dir().join(format!("repro-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("old.progress.jsonl"), "").unwrap();
        std::fs::write(dir.join("ignored.txt"), "").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(dir.join("new.progress.jsonl"), "").unwrap();
        let newest = newest_progress_file(&dir).unwrap();
        assert!(newest.ends_with("new.progress.jsonl"), "{newest:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durations_and_rates_format_compactly() {
        assert_eq!(fmt_ms(450), "450ms");
        assert_eq!(fmt_ms(12_340), "12.3s");
        assert_eq!(fmt_ms(248_000), "4m08s");
        assert_eq!(fmt_rate(12_400_000.0), "12.4M/s");
        assert_eq!(fmt_rate(9_500.0), "9.5k/s");
        assert_eq!(fmt_rate(42.0), "42/s");
    }
}
