//! The always-on flight recorder: a fixed-size in-memory ring of recent
//! structured events, dumped to disk only when something goes wrong.
//!
//! Every campaign keeps one [`FlightRecorder`] rendering its lifecycle
//! stream ([`CampaignSink`]): cell starts, retries, attempt failures,
//! deadline kills, and outcomes go into a bounded ring. In steady state
//! the recorder costs one short mutex acquisition per event and writes
//! nothing; on a triggering condition — panic, cell failure after
//! retries, or a deadline sweep — [`FlightRecorder::dump`] writes the
//! ring's contents atomically to `results/flightrec/<run-id>.flight.jsonl`,
//! so post-mortems no longer depend on having enabled `REPRO_PROGRESS`
//! beforehand.
//!
//! The dump is single-writer by construction: every trigger rewrites the
//! same per-run path through [`crate::fsio::atomic_write_str`] (tmp +
//! rename), so concurrent triggers cannot interleave lines and the file
//! on disk is always the complete, most recent dump — one flight file
//! per run, not one per trigger.
//!
//! Recorders can also be *armed* into a process-global registry so the
//! panic hook can dump every live recorder when a thread dies outside
//! the pool's `catch_unwind` fence; the [`ArmedGuard`] disarms on drop.

use crate::fsio::atomic_write_str;
use crate::json::{obj, Json};
use crate::lifecycle::{first_line, CampaignEvent, CampaignSink};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (`REPRO_FLIGHT_CAP`). A clean `repro_all` run
/// (93 cells) records 1 + 93 × 2 = 187 events: `campaign-started`, then
/// `cell-started` and `cell-finished` per cell. Each retry adds two more
/// (`attempt-failed`, `cell-retry`), so from the 35th retry on the ring
/// overwrites its oldest events, `campaign-started` first.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One structured event in the ring.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number since the recorder was created; never
    /// reset, so wraparound is visible as a gap from 0.
    pub seq: u64,
    /// Milliseconds since the recorder was created.
    pub t_ms: u64,
    /// Event kind (`cell-started`, `cell-retry`, `admission`, …).
    pub kind: String,
    /// Free-form detail fields, kept sorted for byte-stable dumps.
    pub fields: Vec<(String, Json)>,
}

impl FlightEvent {
    fn to_json(&self) -> Json {
        let mut doc = vec![
            ("seq".to_string(), Json::from(self.seq)),
            ("t_ms".to_string(), Json::from(self.t_ms)),
            ("kind".to_string(), Json::from(self.kind.as_str())),
        ];
        doc.extend(self.fields.iter().cloned());
        Json::Obj(doc.into_iter().collect())
    }
}

#[derive(Debug)]
struct RecorderInner {
    ring: VecDeque<FlightEvent>,
    seq: u64,
    dumps: u64,
}

/// A bounded ring of recent events plus the dump path it drains to.
///
/// Clones share the same ring (`Arc`-backed), so the jobs pool and the
/// panic hook can both reach one recorder.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
    started: Instant,
    capacity: usize,
    run_id: String,
    trace_id: String,
    path: PathBuf,
}

impl FlightRecorder {
    /// A recorder for `run_id` dumping to `<dir>/<run-id>.flight.jsonl`.
    /// `capacity` is clamped to at least 1.
    pub fn new(dir: &Path, run_id: &str, trace_id: &str, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                ring: VecDeque::new(),
                seq: 0,
                dumps: 0,
            })),
            started: Instant::now(),
            capacity: capacity.max(1),
            run_id: run_id.to_string(),
            trace_id: trace_id.to_string(),
            path: flight_path(dir, run_id),
        }
    }

    /// Records one event, overwriting the oldest when the ring is full.
    pub fn record<I>(&self, kind: &str, fields: I)
    where
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let seq = inner.seq;
        inner.seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(FlightEvent {
            seq,
            t_ms: self.started.elapsed().as_millis() as u64,
            kind: kind.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        });
    }

    /// A copy of the ring's current contents, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// Total events ever recorded (events beyond the ring capacity were
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("flight recorder poisoned").seq
    }

    /// How many times this recorder has dumped.
    pub fn dumps(&self) -> u64 {
        self.inner.lock().expect("flight recorder poisoned").dumps
    }

    /// Dumps the ring to the recorder's path: one header line naming the
    /// run, trace id, and trigger, then one line per event, oldest
    /// first. Atomic (tmp + rename) and idempotent — a later trigger
    /// rewrites the same file with the newer ring, so exactly one
    /// `<run-id>.flight.jsonl` exists per run regardless of how many
    /// triggers fired. Returns the dump path.
    ///
    /// A dump failure degrades observability, never the run: the error
    /// is reported to stderr and swallowed.
    pub fn dump(&self, reason: &str) -> PathBuf {
        let (events, recorded) = {
            let mut inner = self.inner.lock().expect("flight recorder poisoned");
            inner.dumps += 1;
            (inner.ring.iter().cloned().collect::<Vec<_>>(), inner.seq)
        };
        let mut text = String::new();
        let header = obj([
            ("flight", Json::from(1u64)),
            ("run", Json::from(self.run_id.as_str())),
            ("trace_id", Json::from(self.trace_id.as_str())),
            ("reason", Json::from(reason)),
            ("recorded", Json::from(recorded)),
            ("dropped", Json::from(recorded - events.len() as u64)),
        ]);
        let _ = writeln!(text, "{header}");
        for event in &events {
            let _ = writeln!(text, "{}", event.to_json());
        }
        if let Err(e) = atomic_write_str(&self.path, &text) {
            eprintln!(
                "warning: flight recorder dump to {} failed: {e}",
                self.path.display()
            );
        }
        self.path.clone()
    }
}

/// The flight ring keeps every cell transition and dumps on the two
/// campaign-level triggers: a cell failing after retries and a deadline
/// sweep. The journal is written before either event reaches the ring,
/// so a dump's trailing event always reconciles with journaled state.
impl CampaignSink for FlightRecorder {
    fn on_event(&self, event: &CampaignEvent<'_>) {
        match *event {
            CampaignEvent::Started {
                tool, scale, total, ..
            } => self.record(
                "campaign-started",
                [
                    ("run", Json::from(self.run_id.as_str())),
                    ("tool", Json::from(tool)),
                    ("scale", Json::from(scale)),
                    ("cells", Json::from(total)),
                ],
            ),
            CampaignEvent::CellResumed(tally) => {
                self.record("cell-resumed", [("cell", Json::from(tally.cell))])
            }
            CampaignEvent::AttemptStarted { cell, attempt, .. } => self.record(
                if attempt == 1 {
                    "cell-started"
                } else {
                    "cell-retry"
                },
                [
                    ("cell", Json::from(cell)),
                    ("attempt", Json::from(u64::from(attempt))),
                ],
            ),
            CampaignEvent::AttemptFailed {
                cell,
                attempt,
                reason,
            } => self.record(
                "attempt-failed",
                [
                    ("cell", Json::from(cell)),
                    ("attempt", Json::from(u64::from(attempt))),
                    ("reason", Json::from(first_line(reason))),
                ],
            ),
            CampaignEvent::DeadlineKill { cell, deadline_ms } => {
                self.record(
                    "deadline-kill",
                    [
                        ("cell", Json::from(cell)),
                        ("deadline_ms", Json::from(deadline_ms)),
                    ],
                );
                self.dump("deadline-sweep");
            }
            CampaignEvent::CellFinished(tally) => self.record(
                "cell-finished",
                [
                    ("cell", Json::from(tally.cell)),
                    ("attempts", Json::from(u64::from(tally.attempts))),
                    ("wall_ms", Json::from(tally.wall_ms)),
                ],
            ),
            CampaignEvent::CellFailed(tally, reason) => {
                self.record(
                    "cell-failed",
                    [
                        ("cell", Json::from(tally.cell)),
                        ("attempts", Json::from(u64::from(tally.attempts))),
                        ("reason", Json::from(first_line(reason))),
                    ],
                );
                self.dump("cell-failed");
            }
            CampaignEvent::Cancelled { reason, .. } => {
                self.record("campaign-cancelled", [("reason", Json::from(reason))])
            }
            CampaignEvent::Heartbeat { .. } | CampaignEvent::Finished { .. } => {}
        }
    }
}

/// The flight dump path for a run id.
pub fn flight_path(dir: &Path, run_id: &str) -> PathBuf {
    dir.join(format!("{run_id}.flight.jsonl"))
}

/// Recorders armed for the panic hook, keyed by an opaque token so a
/// guard removes exactly the recorder it armed.
fn armed() -> &'static Mutex<Vec<(u64, FlightRecorder)>> {
    static ARMED: OnceLock<Mutex<Vec<(u64, FlightRecorder)>>> = OnceLock::new();
    ARMED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Disarms its recorder when dropped.
#[derive(Debug)]
pub struct ArmedGuard(u64);

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        if let Ok(mut list) = armed().lock() {
            list.retain(|(token, _)| *token != self.0);
        }
    }
}

/// Arms `recorder` into the process-global registry the panic hook
/// drains; the returned guard disarms it on drop (normal campaign end).
pub fn arm(recorder: &FlightRecorder) -> ArmedGuard {
    static TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let token = TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    if let Ok(mut list) = armed().lock() {
        list.push((token, recorder.clone()));
    }
    ArmedGuard(token)
}

/// Dumps every armed recorder (the pool's panic hook calls this when a
/// thread outside the cell fence panics). Returns the paths written.
pub fn dump_armed(reason: &str) -> Vec<PathBuf> {
    let recorders: Vec<FlightRecorder> = match armed().lock() {
        Ok(list) => list.iter().map(|(_, r)| r.clone()).collect(),
        Err(_) => Vec::new(),
    };
    recorders.iter().map(|r| r.dump(reason)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("repro-flight-{tag}-{}", std::process::id()))
    }

    fn recorder(tag: &str, capacity: usize) -> FlightRecorder {
        FlightRecorder::new(&scratch(tag), "r1", "tr-0000000000000001", capacity)
    }

    #[test]
    fn ring_overwrites_oldest_and_preserves_order() {
        let rec = recorder("wrap", 3);
        for i in 0..5u64 {
            rec.record("tick", [("i", Json::from(i))]);
        }
        let events = rec.events();
        // Capacity 3, 5 recorded: events 0 and 1 were overwritten and
        // the survivors appear oldest-first with their original seqs.
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(rec.recorded(), 5);
        let is: Vec<u64> = events
            .iter()
            .map(|e| e.fields[0].1.as_u64().unwrap())
            .collect();
        assert_eq!(is, vec![2, 3, 4]);
    }

    #[test]
    fn dump_writes_header_then_events_and_is_idempotent() {
        let dir = scratch("dump");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(&dir, "r7", "tr-00000000000000ab", 8);
        rec.record("cell-started", [("cell", Json::from("table4/perl"))]);
        rec.record("cell-retry", [("attempt", Json::from(2u64))]);

        let path = rec.dump("cell-failed");
        assert_eq!(path, flight_path(&dir, "r7"));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = parse(lines[0]).unwrap();
        assert_eq!(header.get("flight").unwrap().as_u64(), Some(1));
        assert_eq!(header.get("run").unwrap().as_str(), Some("r7"));
        assert_eq!(
            header.get("trace_id").unwrap().as_str(),
            Some("tr-00000000000000ab")
        );
        assert_eq!(header.get("reason").unwrap().as_str(), Some("cell-failed"));
        assert_eq!(header.get("dropped").unwrap().as_u64(), Some(0));
        let first = parse(lines[1]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str(), Some("cell-started"));
        assert_eq!(first.get("cell").unwrap().as_str(), Some("table4/perl"));

        // A second trigger rewrites the same file (single-writer path):
        // still exactly one flight file for the run, with the newer ring.
        rec.record("deadline-kill", [("cell", Json::from("table4/gcc"))]);
        let path2 = rec.dump("deadline-sweep");
        assert_eq!(path, path2);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "one flight file per run");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("deadline-sweep"));
        assert!(text.contains("deadline-kill"));
        assert_eq!(rec.dumps(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_reports_overwritten_events_as_dropped() {
        let dir = scratch("dropped");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(&dir, "r8", "tr-0000000000000002", 2);
        for _ in 0..5 {
            rec.record("tick", []);
        }
        let path = rec.dump("panic");
        let text = std::fs::read_to_string(&path).unwrap();
        let header = parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("recorded").unwrap().as_u64(), Some(5));
        assert_eq!(header.get("dropped").unwrap().as_u64(), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_recorders_dump_and_guards_disarm() {
        let dir = scratch("armed");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(&dir, "r9", "tr-0000000000000003", 4);
        rec.record("cell-started", [("cell", Json::from("t/a"))]);
        {
            let _guard = arm(&rec);
            let paths = dump_armed("panic");
            assert!(paths.contains(&flight_path(&dir, "r9")));
        }
        // Guard dropped → disarmed → later sweeps skip it.
        let before = rec.dumps();
        let paths = dump_armed("panic");
        assert!(!paths.contains(&flight_path(&dir, "r9")));
        assert_eq!(rec.dumps(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
