//! The live campaign progress stream.
//!
//! A running campaign is observable through one append-only JSONL file,
//! `<dir>/<run-id>.progress.jsonl`. The writer ([`ProgressWriter`])
//! appends exactly one complete line per event; the reader
//! ([`read_events`]) tolerates a torn trailing line (a crash or a
//! concurrent append caught mid-write) by skipping it, so `repro-top`
//! can tail a stream that is still being written.
//!
//! Event vocabulary, in the order a campaign emits them:
//!
//! | event | fields |
//! |-------|--------|
//! | `campaign-started` | `run`, `tool`, `scale`, `total`, `workers`, `unix_ms`, `trace_id` |
//! | `cell-started` | `cell`, `t_ms` |
//! | `cell-retry` | `cell`, `attempt`, `reason`, `t_ms` |
//! | `cell-finished` | `cell`, `outcome` (`ok`/`err`/`resumed`), `attempts`, `wall_ms`, `instructions`, `instr_per_sec`, `reason?`, `t_ms` |
//! | `heartbeat` | `active_cells`, `done`, `total`, `eta_ms?`, `t_ms` |
//! | `campaign-finished` | `done`, `failed`, `total`, `wall_ms`, `t_ms` |
//!
//! `t_ms` is milliseconds since `campaign-started` (monotonic clock), so
//! two events from the same stream can always be ordered and diffed
//! without trusting the wall clock.
//!
//! A campaign writes the stream by rendering its lifecycle events
//! ([`CampaignEvent`]) through the writer's [`CampaignSink`] impl: every
//! final cell outcome (resumed, ok, failed, cancelled) becomes one
//! `cell-finished` line, and per-attempt failures, deadline kills, and
//! the cancellation itself are left to the flight recorder and trace.

use crate::json::{obj, parse, Json};
use crate::lifecycle::{first_line, CampaignEvent, CampaignSink, CellTally};
use crate::manifest::per_sec;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One progress event, as written to (and parsed from) the stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgressEvent {
    /// The campaign was scheduled: identity plus the cell count.
    CampaignStarted {
        /// Run id (journal name).
        run: String,
        /// Tool name (`repro_all`, `table4`, …).
        tool: String,
        /// Scale name (`quick`, `standard`, `full`).
        scale: String,
        /// Cells scheduled (including any later restored from journal).
        total: u64,
        /// Worker threads.
        workers: u64,
        /// Wall-clock milliseconds since the unix epoch at start.
        unix_ms: u64,
        /// The campaign's correlation id (`tr-…`; empty in streams
        /// written before correlation ids existed).
        trace_id: String,
    },
    /// A cell's first attempt was spawned.
    CellStarted {
        /// Cell id (`table4/perl`).
        cell: String,
        /// Milliseconds since campaign start.
        t_ms: u64,
    },
    /// A retry attempt was spawned after a failure.
    CellRetry {
        /// Cell id.
        cell: String,
        /// The attempt number being started (2 = first retry).
        attempt: u64,
        /// The failure that triggered the retry (first line).
        reason: String,
        /// Milliseconds since campaign start.
        t_ms: u64,
    },
    /// A cell reached its final outcome.
    CellFinished {
        /// Cell id.
        cell: String,
        /// `ok`, `err`, or `resumed` (restored from a journal).
        outcome: String,
        /// Attempts executed (0 when resumed).
        attempts: u64,
        /// Wall-clock milliseconds across the attempts.
        wall_ms: u64,
        /// Simulated instructions processed.
        instructions: u64,
        /// Throughput at the final outcome.
        instr_per_sec: f64,
        /// Failure reason when `outcome` is `err`.
        reason: Option<String>,
        /// Milliseconds since campaign start.
        t_ms: u64,
    },
    /// A heartbeat tick: how the campaign is doing right now.
    Heartbeat {
        /// Cells with an attempt currently in flight.
        active_cells: u64,
        /// Cells with a final outcome (including resumed).
        done: u64,
        /// Cells scheduled.
        total: u64,
        /// Estimated milliseconds to completion (absent before any
        /// cell finishes).
        eta_ms: Option<u64>,
        /// Milliseconds since campaign start.
        t_ms: u64,
    },
    /// The campaign resolved every cell.
    CampaignFinished {
        /// Cells that produced data.
        done: u64,
        /// Cells that failed after retries.
        failed: u64,
        /// Cells scheduled.
        total: u64,
        /// Campaign wall-clock milliseconds.
        wall_ms: u64,
        /// Milliseconds since campaign start.
        t_ms: u64,
    },
}

impl ProgressEvent {
    /// The event's tag, as written in the `event` field.
    pub fn name(&self) -> &'static str {
        match self {
            ProgressEvent::CampaignStarted { .. } => "campaign-started",
            ProgressEvent::CellStarted { .. } => "cell-started",
            ProgressEvent::CellRetry { .. } => "cell-retry",
            ProgressEvent::CellFinished { .. } => "cell-finished",
            ProgressEvent::Heartbeat { .. } => "heartbeat",
            ProgressEvent::CampaignFinished { .. } => "campaign-finished",
        }
    }

    /// The event as a single-line JSON object.
    pub fn to_json(&self) -> Json {
        let tag = ("event", Json::from(self.name()));
        match self {
            ProgressEvent::CampaignStarted {
                run,
                tool,
                scale,
                total,
                workers,
                unix_ms,
                trace_id,
            } => obj([
                tag,
                ("run", Json::from(run.as_str())),
                ("tool", Json::from(tool.as_str())),
                ("scale", Json::from(scale.as_str())),
                ("total", Json::from(*total)),
                ("workers", Json::from(*workers)),
                ("unix_ms", Json::from(*unix_ms)),
                ("trace_id", Json::from(trace_id.as_str())),
            ]),
            ProgressEvent::CellStarted { cell, t_ms } => obj([
                tag,
                ("cell", Json::from(cell.as_str())),
                ("t_ms", Json::from(*t_ms)),
            ]),
            ProgressEvent::CellRetry {
                cell,
                attempt,
                reason,
                t_ms,
            } => obj([
                tag,
                ("cell", Json::from(cell.as_str())),
                ("attempt", Json::from(*attempt)),
                ("reason", Json::from(reason.as_str())),
                ("t_ms", Json::from(*t_ms)),
            ]),
            ProgressEvent::CellFinished {
                cell,
                outcome,
                attempts,
                wall_ms,
                instructions,
                instr_per_sec,
                reason,
                t_ms,
            } => with_optional(
                obj([
                    tag,
                    ("cell", Json::from(cell.as_str())),
                    ("outcome", Json::from(outcome.as_str())),
                    ("attempts", Json::from(*attempts)),
                    ("wall_ms", Json::from(*wall_ms)),
                    ("instructions", Json::from(*instructions)),
                    ("instr_per_sec", Json::from(*instr_per_sec)),
                    ("t_ms", Json::from(*t_ms)),
                ]),
                "reason",
                reason.as_deref().map(Json::from),
            ),
            ProgressEvent::Heartbeat {
                active_cells,
                done,
                total,
                eta_ms,
                t_ms,
            } => with_optional(
                obj([
                    tag,
                    ("active_cells", Json::from(*active_cells)),
                    ("done", Json::from(*done)),
                    ("total", Json::from(*total)),
                    ("t_ms", Json::from(*t_ms)),
                ]),
                "eta_ms",
                eta_ms.map(Json::from),
            ),
            ProgressEvent::CampaignFinished {
                done,
                failed,
                total,
                wall_ms,
                t_ms,
            } => obj([
                tag,
                ("done", Json::from(*done)),
                ("failed", Json::from(*failed)),
                ("total", Json::from(*total)),
                ("wall_ms", Json::from(*wall_ms)),
                ("t_ms", Json::from(*t_ms)),
            ]),
        }
    }

    /// Parses one event back out of its JSON object form.
    pub fn from_json(v: &Json) -> Result<ProgressEvent, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("event missing string {k:?}"))
        };
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event missing numeric {k:?}"))
        };
        match v
            .get("event")
            .and_then(Json::as_str)
            .ok_or("line has no \"event\" field")?
        {
            "campaign-started" => Ok(ProgressEvent::CampaignStarted {
                run: s("run")?,
                tool: s("tool")?,
                scale: s("scale")?,
                total: u("total")?,
                workers: u("workers")?,
                unix_ms: u("unix_ms")?,
                // Lenient: streams written before correlation ids
                // existed parse with an empty trace id.
                trace_id: v
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            "cell-started" => Ok(ProgressEvent::CellStarted {
                cell: s("cell")?,
                t_ms: u("t_ms")?,
            }),
            "cell-retry" => Ok(ProgressEvent::CellRetry {
                cell: s("cell")?,
                attempt: u("attempt")?,
                reason: s("reason")?,
                t_ms: u("t_ms")?,
            }),
            "cell-finished" => Ok(ProgressEvent::CellFinished {
                cell: s("cell")?,
                outcome: s("outcome")?,
                attempts: u("attempts")?,
                wall_ms: u("wall_ms")?,
                instructions: u("instructions")?,
                instr_per_sec: v.get("instr_per_sec").and_then(Json::as_f64).unwrap_or(0.0),
                reason: v.get("reason").and_then(Json::as_str).map(String::from),
                t_ms: u("t_ms")?,
            }),
            "heartbeat" => Ok(ProgressEvent::Heartbeat {
                active_cells: u("active_cells")?,
                done: u("done")?,
                total: u("total")?,
                eta_ms: v.get("eta_ms").and_then(Json::as_u64),
                t_ms: u("t_ms")?,
            }),
            "campaign-finished" => Ok(ProgressEvent::CampaignFinished {
                done: u("done")?,
                failed: u("failed")?,
                total: u("total")?,
                wall_ms: u("wall_ms")?,
                t_ms: u("t_ms")?,
            }),
            other => Err(format!("unrecognized event {other:?}")),
        }
    }
}

/// `doc` with `key` added when `value` is present.
fn with_optional(mut doc: Json, key: &str, value: Option<Json>) -> Json {
    if let (Json::Obj(fields), Some(value)) = (&mut doc, value) {
        fields.insert(key.to_string(), value);
    }
    doc
}

/// The progress file path for a run id.
pub fn progress_path(dir: &Path, run_id: &str) -> PathBuf {
    dir.join(format!("{run_id}.progress.jsonl"))
}

/// An open progress stream: line-atomic appends to one JSONL file.
///
/// Every event is serialized to a complete `line + '\n'` buffer first
/// and appended with a single `write` syscall under a mutex, so
/// concurrent emitters never interleave partial lines. A crash can
/// still tear the *final* line — which is exactly the case
/// [`read_events`] tolerates.
///
/// The writer's clock starts at [`ProgressWriter::create`]; as a
/// [`CampaignSink`] it stamps every rendered event's `t_ms` from it.
#[derive(Debug)]
pub struct ProgressWriter {
    path: PathBuf,
    run: String,
    started: Instant,
    file: Mutex<File>,
    /// Set by the first failed append, so each stream warns once.
    failed: AtomicBool,
}

impl ProgressWriter {
    /// Creates (truncating) the progress file for `run_id` under `dir`.
    pub fn create(dir: &Path, run_id: &str) -> std::io::Result<ProgressWriter> {
        std::fs::create_dir_all(dir)?;
        let path = progress_path(dir, run_id);
        // One mutex-serialized handle does all the writing, so plain
        // write mode suffices; O_APPEND is only needed for multiple
        // handles (and cannot be combined with truncate anyway).
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(ProgressWriter {
            path,
            run: run_id.to_string(),
            started: Instant::now(),
            file: Mutex::new(file),
            failed: AtomicBool::new(false),
        })
    }

    /// The stream's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event as a complete line. Errors are returned, not
    /// panicked: a full disk must degrade observability, never the
    /// campaign itself (callers log and carry on).
    pub fn emit(&self, event: &ProgressEvent) -> std::io::Result<()> {
        let mut line = event.to_json().to_string();
        line.push('\n');
        let mut file = self.file.lock().expect("progress writer poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Whether an append to this stream has failed (and been reported).
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// [`ProgressWriter::emit`] for the campaign path: a write failure
    /// (full disk, yanked volume) is reported on stderr once per stream
    /// and otherwise dropped.
    fn append(&self, event: &ProgressEvent) {
        if let Err(e) = self.emit(event) {
            if !self.failed.swap(true, Ordering::Relaxed) {
                eprintln!("progress: cannot append to {}: {e}", self.path.display());
            }
        }
    }

    fn finished(&self, tally: &CellTally, outcome: &str, reason: Option<String>) -> ProgressEvent {
        ProgressEvent::CellFinished {
            cell: tally.cell.to_string(),
            outcome: outcome.to_string(),
            attempts: u64::from(tally.attempts),
            wall_ms: tally.wall_ms,
            instructions: tally.instructions,
            instr_per_sec: per_sec(tally.instructions, tally.wall_ms.saturating_mul(1_000_000)),
            reason,
            t_ms: self.t_ms(),
        }
    }

    fn t_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

impl CampaignSink for ProgressWriter {
    fn on_event(&self, event: &CampaignEvent<'_>) {
        let t_ms = self.t_ms();
        let line = match *event {
            CampaignEvent::Started {
                tool,
                scale,
                trace_id,
                total,
                workers,
            } => ProgressEvent::CampaignStarted {
                run: self.run.clone(),
                tool: tool.to_string(),
                scale: scale.to_string(),
                total,
                workers,
                trace_id: trace_id.to_string(),
                unix_ms: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
            },
            CampaignEvent::CellResumed(tally) => self.finished(&tally, "resumed", None),
            CampaignEvent::AttemptStarted {
                cell, attempt: 1, ..
            } => ProgressEvent::CellStarted {
                cell: cell.to_string(),
                t_ms,
            },
            CampaignEvent::AttemptStarted {
                cell,
                attempt,
                reason,
            } => ProgressEvent::CellRetry {
                cell: cell.to_string(),
                attempt: u64::from(attempt),
                reason: first_line(reason).to_string(),
                t_ms,
            },
            CampaignEvent::CellFinished(tally) => self.finished(&tally, "ok", None),
            CampaignEvent::CellFailed(tally, reason) => {
                self.finished(&tally, "err", Some(first_line(reason).to_string()))
            }
            CampaignEvent::Cancelled { reason, unresolved } => {
                // Close every announced start so the stream's
                // started/finished sets stay reconciled.
                for tally in unresolved {
                    let reason = format!("cancelled: {}", first_line(reason));
                    self.append(&self.finished(tally, "err", Some(reason)));
                }
                return;
            }
            CampaignEvent::Heartbeat {
                active,
                done,
                total,
            } => ProgressEvent::Heartbeat {
                active_cells: active,
                done,
                total,
                eta_ms: eta_ms(done, total, t_ms),
                t_ms,
            },
            CampaignEvent::Finished {
                done,
                failed,
                total,
            } => ProgressEvent::CampaignFinished {
                done,
                failed,
                total,
                wall_ms: t_ms,
                t_ms,
            },
            CampaignEvent::AttemptFailed { .. } | CampaignEvent::DeadlineKill { .. } => return,
        };
        self.append(&line);
    }
}

/// A parsed progress stream: the events plus whether a torn trailing
/// line was skipped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgressStreamContents {
    /// Events in stream order.
    pub events: Vec<ProgressEvent>,
    /// Whether the file ended in a partial (torn) line that was skipped.
    pub torn_tail: bool,
}

/// Parses a progress stream's text.
///
/// The final line is allowed to be torn — unterminated, or terminated
/// but unparseable (a crash mid-append) — and is skipped with
/// `torn_tail: true`. Corruption anywhere *else* is a loud error naming
/// the line: only the tail can legitimately be mid-write.
pub fn parse_events(text: &str) -> Result<ProgressStreamContents, String> {
    let mut events = Vec::new();
    let mut torn_tail = false;
    let ends_complete = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        if line.trim().is_empty() {
            continue;
        }
        let parsed = parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| ProgressEvent::from_json(&v));
        match parsed {
            Ok(event) => events.push(event),
            Err(_) if last && !ends_complete => {
                torn_tail = true;
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(ProgressStreamContents { events, torn_tail })
}

/// Reads and parses a progress file. See [`parse_events`].
pub fn read_events(path: &Path) -> Result<ProgressStreamContents, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_events(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Estimated milliseconds to completion, from completed work so far.
///
/// `None` until the first cell finishes (no rate to extrapolate), and
/// `Some(0)` once everything is done. The estimate is the classic
/// linear one — elapsed time scaled by remaining/done — which is exact
/// for uniform cells and conservative early in a heterogeneous
/// campaign.
pub fn eta_ms(done: u64, total: u64, elapsed_ms: u64) -> Option<u64> {
    if done == 0 {
        return None;
    }
    if done >= total {
        return Some(0);
    }
    let remaining = total - done;
    // u128 keeps the multiply exact for any realistic campaign length.
    Some((elapsed_ms as u128 * remaining as u128 / done as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ProgressEvent> {
        vec![
            ProgressEvent::CampaignStarted {
                run: "r1".into(),
                tool: "table4".into(),
                scale: "quick".into(),
                total: 2,
                workers: 4,
                unix_ms: 1_700_000_000_000,
                trace_id: "tr-9f2ab04c71d3e586".into(),
            },
            ProgressEvent::CellStarted {
                cell: "table4/gcc".into(),
                t_ms: 1,
            },
            ProgressEvent::CellRetry {
                cell: "table4/gcc".into(),
                attempt: 2,
                reason: "panicked: injected".into(),
                t_ms: 40,
            },
            ProgressEvent::Heartbeat {
                active_cells: 1,
                done: 0,
                total: 2,
                eta_ms: None,
                t_ms: 50,
            },
            ProgressEvent::CellFinished {
                cell: "table4/gcc".into(),
                outcome: "ok".into(),
                attempts: 2,
                wall_ms: 80,
                instructions: 100_000,
                instr_per_sec: 1_250_000.0,
                reason: None,
                t_ms: 81,
            },
            ProgressEvent::CampaignFinished {
                done: 2,
                failed: 0,
                total: 2,
                wall_ms: 95,
                t_ms: 95,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json_lines() {
        let mut text = String::new();
        for e in sample_events() {
            text.push_str(&e.to_json().to_string());
            text.push('\n');
        }
        let parsed = parse_events(&text).unwrap();
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.events, sample_events());
    }

    #[test]
    fn writer_appends_line_atomic_events() {
        let dir = std::env::temp_dir().join(format!("sim-progress-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = ProgressWriter::create(&dir, "w1").unwrap();
        for e in sample_events() {
            w.emit(&e).unwrap();
        }
        let read = read_events(&progress_path(&dir, "w1")).unwrap();
        assert_eq!(read.events.len(), sample_events().len());
        assert_eq!(read.events, sample_events());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn every_failing_stream_reports_its_own_write_failure() {
        // Two streams on a full device in one process: the first one's
        // warning must not silence the second's, and heartbeats take the
        // same reporting path.
        let dir = std::env::temp_dir().join(format!("sim-progress-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for run in ["full-a", "full-b"] {
            std::os::unix::fs::symlink("/dev/full", progress_path(&dir, run)).unwrap();
            let stream = ProgressWriter::create(&dir, run).unwrap();
            assert!(!stream.failed());
            stream.on_event(&CampaignEvent::Heartbeat {
                active: 1,
                done: 0,
                total: 2,
            });
            assert!(stream.failed(), "{run} must report its own failure");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let mut text = String::new();
        for e in sample_events() {
            text.push_str(&e.to_json().to_string());
            text.push('\n');
        }
        // A crash mid-append: the final line is incomplete JSON with no
        // terminating newline.
        text.push_str("{\"event\":\"heartbeat\",\"done\":1,");
        let parsed = parse_events(&text).unwrap();
        assert!(parsed.torn_tail);
        assert_eq!(parsed.events, sample_events());
    }

    #[test]
    fn mid_stream_corruption_is_a_loud_error() {
        let good = sample_events()[0].to_json().to_string();
        let text = format!("{good}\n{{broken\n{good}\n");
        let err = parse_events(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn pre_trace_id_streams_still_parse() {
        // Streams written before correlation ids existed have no
        // trace_id field; they must parse with an empty one.
        let text = "{\"event\":\"campaign-started\",\"run\":\"old\",\"tool\":\"table4\",\
                    \"scale\":\"quick\",\"total\":2,\"workers\":1,\"unix_ms\":5}\n";
        let parsed = parse_events(text).unwrap();
        match &parsed.events[0] {
            ProgressEvent::CampaignStarted { trace_id, .. } => assert!(trace_id.is_empty()),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn unknown_event_names_are_rejected() {
        let text = "{\"event\":\"time-travel\",\"t_ms\":1}\n";
        assert!(parse_events(text).is_err());
    }

    #[test]
    fn eta_math_covers_the_edges() {
        // No completed work: no estimate.
        assert_eq!(eta_ms(0, 77, 10_000), None);
        // Half done in 10s: 10s to go.
        assert_eq!(eta_ms(5, 10, 10_000), Some(10_000));
        // 1 of 4 done in 3s: 9s to go.
        assert_eq!(eta_ms(1, 4, 3_000), Some(9_000));
        // Done (or over-done): zero.
        assert_eq!(eta_ms(10, 10, 5_000), Some(0));
        assert_eq!(eta_ms(12, 10, 5_000), Some(0));
        // Huge campaigns don't overflow the intermediate multiply.
        assert_eq!(eta_ms(2, u64::MAX / 2 + 1, 2), Some(u64::MAX / 2 - 1));
    }
}
