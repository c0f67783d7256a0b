//! The crash-safe campaign journal.
//!
//! One JSONL file per run, `<dir>/<run-id>.jsonl`. The first line is a
//! header identifying the run (tool, scale, cell count); every further
//! line is the final outcome of one cell, data included, so a resumed
//! run can render completed table slots without recomputing them:
//!
//! ```json
//! {"journal":1,"run":"chaos","tool":"repro_all","scale":"quick","cells":69}
//! {"cell":"table1/compress","status":"ok","attempts":1,"deadline_kills":0,"wall_ms":154,"data":{"btb_mispred":0.139,...}}
//! {"cell":"table4/perl","status":"err","attempts":3,"deadline_kills":0,"wall_ms":12,"reason":"panicked: injected fault"}
//! ```
//!
//! Every record is persisted by rewriting the whole file through
//! [`sim_telemetry::fsio::atomic_write`] (the file is at most a few
//! dozen lines), so a `kill -9` at any instant leaves a parseable
//! journal describing exactly the cells that finished. On resume, `ok`
//! cells are restored and skipped; `err` cells are re-run.

use super::{json_header, CellData};
use crate::runner::Scale;
use sim_telemetry::fsio::atomic_write_str;
use sim_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The final outcome of one cell, as journaled.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    /// Cell id (`table4/perl`).
    pub cell: String,
    /// Whether the cell produced data.
    pub ok: bool,
    /// Attempts executed.
    pub attempts: u32,
    /// Attempts killed by the deadline watchdog.
    pub deadline_kills: u32,
    /// Wall-clock milliseconds across all attempts.
    pub wall_ms: u64,
    /// Simulated instructions processed across this run's attempts (0 in
    /// journals written before this field existed).
    pub instructions: u64,
    /// The cell's data (present iff `ok`).
    pub data: Option<CellData>,
    /// The failure reason (present iff not `ok`).
    pub reason: Option<String>,
}

impl JournalRecord {
    fn to_json(&self) -> Json {
        let mut fields = std::collections::BTreeMap::from([
            ("cell".to_string(), Json::from(self.cell.as_str())),
            (
                "status".to_string(),
                Json::from(if self.ok { "ok" } else { "err" }),
            ),
            ("attempts".to_string(), Json::from(self.attempts as u64)),
            (
                "deadline_kills".to_string(),
                Json::from(self.deadline_kills as u64),
            ),
            ("wall_ms".to_string(), Json::from(self.wall_ms)),
            ("instructions".to_string(), Json::from(self.instructions)),
        ]);
        if let Some(data) = &self.data {
            fields.insert("data".to_string(), data.to_json());
        }
        if let Some(reason) = &self.reason {
            fields.insert("reason".to_string(), Json::from(reason.as_str()));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<JournalRecord, String> {
        let cell = v
            .get("cell")
            .and_then(Json::as_str)
            .ok_or("record missing \"cell\"")?
            .to_string();
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or("record missing \"status\"")?;
        let ok = match status {
            "ok" => true,
            "err" => false,
            other => return Err(format!("unrecognized status {other:?}")),
        };
        let data = match v.get("data") {
            Some(d) => Some(CellData::from_json(d)?),
            None => None,
        };
        if ok && data.is_none() {
            return Err(format!("ok record for {cell:?} has no data"));
        }
        Ok(JournalRecord {
            cell,
            ok,
            attempts: v.get("attempts").and_then(Json::as_u64).unwrap_or(0) as u32,
            deadline_kills: v.get("deadline_kills").and_then(Json::as_u64).unwrap_or(0) as u32,
            wall_ms: v.get("wall_ms").and_then(Json::as_u64).unwrap_or(0),
            instructions: v.get("instructions").and_then(Json::as_u64).unwrap_or(0),
            data,
            reason: v.get("reason").and_then(Json::as_str).map(String::from),
        })
    }
}

/// An open campaign journal: in-memory records plus the crash-safe file
/// they are mirrored to.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    header: Json,
    records: BTreeMap<String, JournalRecord>,
}

/// The journal file path for a run id.
pub fn journal_path(dir: &Path, run_id: &str) -> PathBuf {
    dir.join(format!("{run_id}.jsonl"))
}

impl Journal {
    /// Starts a fresh journal for `run_id`, writing the header line
    /// immediately (and discarding any previous journal of the same id).
    pub fn create(
        dir: &Path,
        run_id: &str,
        tool: &str,
        scale: Scale,
        cells: usize,
    ) -> std::io::Result<Journal> {
        Journal::create_with_resume(dir, run_id, tool, scale, cells, None)
    }

    /// [`Journal::create`] with the copy-pasteable resume command baked
    /// into the header, so whoever finds the journal after a crash can
    /// re-run the unfinished cells without recomputing the command from
    /// the run's environment.
    pub fn create_with_resume(
        dir: &Path,
        run_id: &str,
        tool: &str,
        scale: Scale,
        cells: usize,
        resume_command: Option<&str>,
    ) -> std::io::Result<Journal> {
        Journal::create_with_meta(dir, run_id, tool, scale, cells, resume_command, None)
    }

    /// [`Journal::create_with_resume`] with the campaign's correlation
    /// trace id baked into the header too, so the journal joins the
    /// progress stream, manifest, flight dump, and trace export on one
    /// grep-able key.
    #[allow(clippy::too_many_arguments)]
    pub fn create_with_meta(
        dir: &Path,
        run_id: &str,
        tool: &str,
        scale: Scale,
        cells: usize,
        resume_command: Option<&str>,
        trace_id: Option<&str>,
    ) -> std::io::Result<Journal> {
        let journal = Journal {
            path: journal_path(dir, run_id),
            header: json_header(run_id, tool, scale, cells, resume_command, trace_id),
            records: BTreeMap::new(),
        };
        journal.flush()?;
        Ok(journal)
    }

    /// Opens an existing journal for resumption. Fails with an
    /// operator-friendly message if the file is missing, a line is
    /// corrupt, or the journal belongs to a different tool or scale
    /// (mixing scales would splice incomparable numbers into one table).
    pub fn resume(dir: &Path, run_id: &str, tool: &str, scale: Scale) -> Result<Journal, String> {
        let path = journal_path(dir, run_id);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "cannot resume run {run_id:?}: {} is unreadable ({e}); \
                 start a fresh run or check REPRO_JOURNAL_DIR",
                path.display()
            )
        })?;
        let mut lines = text.lines().enumerate();
        let (_, header_line) = lines
            .next()
            .ok_or_else(|| format!("{}: journal is empty", path.display()))?;
        let mut header = parse(header_line)
            .map_err(|e| format!("{}:1: corrupt journal header: {e}", path.display()))?;
        for (field, want) in [("tool", tool), ("scale", scale.name())] {
            let got = header.get(field).and_then(Json::as_str).unwrap_or("?");
            if got != want {
                return Err(format!(
                    "cannot resume run {run_id:?}: journal was written by {field}={got}, \
                     this invocation is {field}={want}"
                ));
            }
        }
        // One logical campaign keeps one trace id across resumes; a
        // journal written before ids existed gets one here, persisted
        // with the next append.
        if let Json::Obj(fields) = &mut header {
            fields
                .entry("trace_id".to_string())
                .or_insert_with(|| Json::from(sim_telemetry::TraceId::mint().to_string()));
        }
        let mut records = BTreeMap::new();
        for (i, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let v = parse(line)
                .map_err(|e| format!("{}:{}: corrupt journal line: {e}", path.display(), i + 1))?;
            let record = JournalRecord::from_json(&v)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            records.insert(record.cell.clone(), record);
        }
        Ok(Journal {
            path,
            header,
            records,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The tool that wrote the journal (header `tool`).
    pub fn tool(&self) -> &str {
        self.header.get("tool").and_then(Json::as_str).unwrap_or("")
    }

    /// The scale the journal was written at (header `scale`).
    pub fn scale(&self) -> &str {
        self.header
            .get("scale")
            .and_then(Json::as_str)
            .unwrap_or("")
    }

    /// The copy-pasteable resume command recorded in the header, if the
    /// journal was created with one (journals from older runs have
    /// none).
    pub fn resume_command(&self) -> Option<&str> {
        self.header.get("resume_command").and_then(Json::as_str)
    }

    /// The campaign correlation trace id recorded in the header, if the
    /// journal was created with one; a resumed journal always has one.
    /// Resumed runs reuse this id so all artifacts of a logical
    /// campaign — across resumes — correlate.
    pub fn trace_id(&self) -> Option<&str> {
        self.header.get("trace_id").and_then(Json::as_str)
    }

    /// The journaled record for `cell`, if any.
    pub fn record(&self, cell: &str) -> Option<&JournalRecord> {
        self.records.get(cell)
    }

    /// All journaled records, in cell order.
    pub fn records(&self) -> impl Iterator<Item = &JournalRecord> {
        self.records.values()
    }

    /// Appends (or replaces) one cell's final outcome and persists the
    /// journal atomically.
    pub fn append(&mut self, record: JournalRecord) -> std::io::Result<()> {
        self.records.insert(record.cell.clone(), record);
        self.flush()
    }

    fn flush(&self) -> std::io::Result<()> {
        let mut text = String::new();
        let _ = writeln!(text, "{}", self.header);
        for record in self.records.values() {
            let _ = writeln!(text, "{}", record.to_json());
        }
        atomic_write_str(&self.path, &text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("repro-journal-{}-{name}", std::process::id()))
    }

    fn ok_record(cell: &str, value: f64) -> JournalRecord {
        let mut data = CellData::new();
        data.set("v", value);
        JournalRecord {
            cell: cell.to_string(),
            ok: true,
            attempts: 1,
            deadline_kills: 0,
            wall_ms: 5,
            instructions: 100_000,
            data: Some(data),
            reason: None,
        }
    }

    #[test]
    fn round_trips_ok_and_err_records() {
        let dir = scratch("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);

        let mut journal = Journal::create(&dir, "r1", "repro_all", Scale::Quick, 3).unwrap();
        journal.append(ok_record("table4/gcc", 0.31)).unwrap();
        journal
            .append(JournalRecord {
                cell: "table4/perl".into(),
                ok: false,
                attempts: 3,
                deadline_kills: 1,
                wall_ms: 99,
                instructions: 0,
                data: None,
                reason: Some("panicked: injected".into()),
            })
            .unwrap();

        let resumed = Journal::resume(&dir, "r1", "repro_all", Scale::Quick).unwrap();
        assert_eq!(resumed.records().count(), 2);
        let ok = resumed.record("table4/gcc").unwrap();
        assert!(ok.ok);
        assert_eq!(ok.data.as_ref().unwrap().get("v"), Some(0.31));
        assert_eq!(ok.instructions, 100_000, "instruction count round-trips");
        let err = resumed.record("table4/perl").unwrap();
        assert!(!err.ok);
        assert_eq!(err.reason.as_deref(), Some("panicked: injected"));
        assert_eq!(err.deadline_kills, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_missing_corrupt_and_mismatched_journals() {
        let dir = scratch("reject");
        let _ = std::fs::remove_dir_all(&dir);

        // Missing.
        let err = Journal::resume(&dir, "absent", "repro_all", Scale::Quick).unwrap_err();
        assert!(err.contains("absent"), "{err}");

        // Corrupt record line: the error names the file and line number.
        let mut journal = Journal::create(&dir, "bad", "repro_all", Scale::Quick, 1).unwrap();
        journal.append(ok_record("a/b", 1.0)).unwrap();
        let path = journal.path().to_path_buf();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{not json\n");
        std::fs::write(&path, text).unwrap();
        let err = Journal::resume(&dir, "bad", "repro_all", Scale::Quick).unwrap_err();
        assert!(err.contains(":3:"), "line number in {err}");
        assert!(err.contains("bad.jsonl"), "file name in {err}");

        // Scale mismatch.
        let _ = Journal::create(&dir, "s", "repro_all", Scale::Quick, 1).unwrap();
        let err = Journal::resume(&dir, "s", "repro_all", Scale::Full).unwrap_err();
        assert!(err.contains("scale"), "{err}");

        // Tool mismatch.
        let err = Journal::resume(&dir, "s", "table1", Scale::Quick).unwrap_err();
        assert!(err.contains("tool"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_without_instructions_parse_as_zero() {
        // Journals written before the per-cell instruction accounting
        // existed must still resume cleanly.
        let v = parse(
            r#"{"cell":"t/old","status":"ok","attempts":1,"deadline_kills":0,"wall_ms":3,"data":{"v":1.0}}"#,
        )
        .unwrap();
        let record = JournalRecord::from_json(&v).unwrap();
        assert_eq!(record.instructions, 0);
        assert!(record.ok);
    }

    #[test]
    fn resume_command_round_trips_through_the_header() {
        let dir = scratch("resume-cmd");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = "REPRO_SCALE=quick REPRO_RESUME=r9 table4";
        let journal =
            Journal::create_with_resume(&dir, "r9", "table4", Scale::Quick, 8, Some(cmd)).unwrap();
        assert_eq!(journal.resume_command(), Some(cmd));
        drop(journal);
        let resumed = Journal::resume(&dir, "r9", "table4", Scale::Quick).unwrap();
        assert_eq!(resumed.resume_command(), Some(cmd));

        // Journals created without one (older runs) report none.
        let plain = Journal::create(&dir, "r10", "table4", Scale::Quick, 8).unwrap();
        assert_eq!(plain.resume_command(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_id_round_trips_through_the_header() {
        let dir = scratch("trace-id");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::create_with_meta(
            &dir,
            "r11",
            "table4",
            Scale::Quick,
            8,
            Some("table4"),
            Some("tr-9f2ab04c71d3e586"),
        )
        .unwrap();
        assert_eq!(journal.trace_id(), Some("tr-9f2ab04c71d3e586"));
        drop(journal);
        let resumed = Journal::resume(&dir, "r11", "table4", Scale::Quick).unwrap();
        assert_eq!(resumed.trace_id(), Some("tr-9f2ab04c71d3e586"));
        assert_eq!(resumed.resume_command(), Some("table4"));

        // Journals created without one (older runs) report none.
        let plain = Journal::create(&dir, "r12", "table4", Scale::Quick, 8).unwrap();
        assert_eq!(plain.trace_id(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_stage_file_survives_a_flush() {
        let dir = scratch("stage");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir, "r", "t", Scale::Quick, 1).unwrap();
        journal.append(ok_record("x/y", 2.0)).unwrap();
        assert!(journal.path().exists());
        assert!(!sim_telemetry::fsio::tmp_path(journal.path()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
