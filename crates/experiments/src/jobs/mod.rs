//! repro-jobs: the fault-tolerant, resumable experiment runner.
//!
//! A full reproduction campaign is a long sequence of independent
//! **cells** — one `(experiment × benchmark)` unit of work each, e.g.
//! `table4/perl`. This module decomposes every experiment into cells
//! (see [`registry`]), executes them on a worker pool with per-cell
//! panic isolation, watchdog-enforced deadlines, and bounded
//! exponential-backoff retry ([`pool`]), and records each completed
//! cell in a crash-safe journal ([`journal`]) so a killed run resumes
//! from what it already finished instead of restarting.
//!
//! Failure is a first-class outcome: a cell that exhausts its retries
//! does **not** abort the campaign. Its slot in the rendered table
//! shows an explicit `ERR(reason)` marker, everything that did succeed
//! is printed, and only then does the process exit nonzero.
//!
//! A deterministic fault-injection layer ([`faults`], driven by the
//! `REPRO_FAULTS` environment variable) exercises every one of those
//! paths end-to-end: injected panics, delays, flaky-then-recovering
//! cells, truncated workload traces, and a seeded random mode.
//!
//! Environment variables (all parsed strictly; binaries print a clean
//! diagnostic and exit 2 on a typo):
//!
//! | variable | meaning |
//! |----------|---------|
//! | `REPRO_JOBS` | worker threads (default 1 — deterministic order) |
//! | `REPRO_RESUME=<run-id>` | resume from `results/journal/<run-id>.jsonl` |
//! | `REPRO_RUN_ID=<id>` | name a fresh run's journal (default `<tool>-<timestamp>`) |
//! | `REPRO_FAULTS=<spec>` | deterministic fault injection, see [`faults`] |
//! | `REPRO_RETRIES=<n>` | attempts per cell (default 3) |
//! | `REPRO_DEADLINE_MS=<ms>` | per-cell deadline (default 600000) |
//! | `REPRO_JOURNAL_DIR=<dir>` | journal directory (default `results/journal`) |

pub mod cli;
pub mod faults;
pub mod journal;
pub mod pool;
pub mod registry;

pub use faults::FaultPlan;
pub use journal::{Journal, JournalRecord};
pub use pool::{
    run_campaign, CampaignOutcome, CancelToken, CellReport, RunControls, RunnerConfig, WorkerSlots,
};
pub use registry::ExperimentDef;

use crate::runner::Scale;
use sim_telemetry::json::{obj, Json};
use std::collections::BTreeMap;

/// The named scalar results of one cell: everything a table slot needs,
/// as an ordered `key → f64` map that round-trips exactly through the
/// journal's JSON (counts up to 2⁵³ and all rates/reductions are exact).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellData(pub BTreeMap<String, f64>);

impl CellData {
    /// An empty cell result.
    pub fn new() -> CellData {
        CellData::default()
    }

    /// Sets `key` to `value`.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.0.insert(key.into(), value);
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }

    /// The value of `key`, panicking with a diagnostic if absent — used
    /// where the producing cell and the consuming renderer are compiled
    /// from the same module and a miss is a bug.
    pub fn req(&self, key: &str) -> f64 {
        self.get(key)
            .unwrap_or_else(|| panic!("cell data missing key {key:?}"))
    }

    /// The cell as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, &v)| (k.clone(), Json::from(v)))
                .collect(),
        )
    }

    /// Parses a cell back out of its JSON object form.
    pub fn from_json(v: &Json) -> Result<CellData, String> {
        let Json::Obj(fields) = v else {
            return Err("cell data must be a JSON object".to_string());
        };
        let mut data = CellData::new();
        for (k, v) in fields {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("cell data key {k:?} is not a number"))?;
            data.set(k.clone(), n);
        }
        Ok(data)
    }
}

/// A cell identifier, `experiment/benchmark` (e.g. `table4/perl`).
/// Benchmark-less experiments use a fixed pseudo-label (`costs/model`).
pub fn cell_id(experiment: &str, bench: &str) -> String {
    format!("{experiment}/{bench}")
}

/// Resolves a cell's benchmark label back to the benchmark. Panics on an
/// unknown label: labels come from the same module's `cell_labels`, so a
/// miss is a registry bug, and inside a cell the panic becomes an
/// isolated `ERR` outcome rather than a crash.
pub fn benchmark(label: &str) -> sim_workloads::Benchmark {
    sim_workloads::Benchmark::from_name(label)
        .unwrap_or_else(|| panic!("unknown benchmark label {label:?}"))
}

/// Per-benchmark cell outcomes for one experiment: the input to every
/// module's `render_cells`, with `ERR(reason)` substitution for slots
/// whose cell failed.
#[derive(Clone, Debug, Default)]
pub struct CellSet {
    cells: BTreeMap<String, Result<CellData, String>>,
}

/// How many characters of a failure reason survive into a table slot.
const ERR_REASON_WIDTH: usize = 44;

impl CellSet {
    /// An empty set.
    pub fn new() -> CellSet {
        CellSet::default()
    }

    /// Records one cell's outcome.
    pub fn insert(&mut self, bench: &str, outcome: Result<CellData, String>) {
        self.cells.insert(bench.to_string(), outcome);
    }

    /// The outcome for `bench`, if any cell ran (or was journaled).
    pub fn outcome(&self, bench: &str) -> Option<&Result<CellData, String>> {
        self.cells.get(bench)
    }

    /// The data for `bench`, when its cell succeeded.
    pub fn data(&self, bench: &str) -> Option<&CellData> {
        match self.cells.get(bench) {
            Some(Ok(data)) => Some(data),
            _ => None,
        }
    }

    /// The failure reason for `bench`, when its cell failed (a missing
    /// cell — never enumerated or scheduled — reads as failed too).
    pub fn failure(&self, bench: &str) -> Option<&str> {
        match self.cells.get(bench) {
            Some(Err(reason)) => Some(reason),
            Some(Ok(_)) => None,
            None => Some("cell missing"),
        }
    }

    /// Whether every cell in the set succeeded.
    pub fn all_ok(&self) -> bool {
        self.cells.values().all(Result::is_ok)
    }

    /// Benchmarks whose cells failed, with reasons.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &str)> {
        self.cells
            .iter()
            .filter_map(|(bench, outcome)| match outcome {
                Err(reason) => Some((bench.as_str(), reason.as_str())),
                Ok(_) => None,
            })
    }

    /// Formats the slot `bench/key`: the formatted value when the cell
    /// succeeded and recorded `key`, an `ERR(reason)` marker otherwise.
    pub fn fmt(&self, bench: &str, key: &str, fmt: impl Fn(f64) -> String) -> String {
        match self.cells.get(bench) {
            Some(Ok(data)) => match data.get(key) {
                Some(v) => fmt(v),
                None => err_marker(&format!("missing {key}")),
            },
            Some(Err(reason)) => err_marker(reason),
            None => err_marker("cell missing"),
        }
    }
}

/// Renders a failure reason as the `ERR(...)` table-slot marker, first
/// line only, truncated so one pathological panic message cannot blow a
/// whole table's alignment out.
pub fn err_marker(reason: &str) -> String {
    let line = reason.lines().next().unwrap_or("").trim();
    let short: String = if line.chars().count() > ERR_REASON_WIDTH {
        let mut s: String = line.chars().take(ERR_REASON_WIDTH - 1).collect();
        s.push('…');
        s
    } else {
        line.to_string()
    };
    format!("ERR({short})")
}

/// Builds the JSON header object shared by journal files. When a
/// resume command is given it rides along so journal readers (the
/// failure epilogue, `repro-serve`'s status endpoint) can surface it
/// after a crash.
pub(crate) fn json_header(
    run_id: &str,
    tool: &str,
    scale: Scale,
    cells: usize,
    resume_command: Option<&str>,
    trace_id: Option<&str>,
) -> Json {
    let mut header = vec![
        ("journal", Json::from(1u64)),
        ("run", Json::from(run_id)),
        ("tool", Json::from(tool)),
        ("scale", Json::from(scale.name())),
        ("cells", Json::from(cells as u64)),
    ];
    if let Some(cmd) = resume_command {
        header.push(("resume_command", Json::from(cmd)));
    }
    if let Some(id) = trace_id {
        header.push(("trace_id", Json::from(id)));
    }
    obj(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_data_round_trips_through_json() {
        let mut data = CellData::new();
        data.set("btb_mispred", 0.7619047619047619);
        data.set("instructions", 1_234_567.0);
        data.set("zero", 0.0);
        let json = data.to_json().to_string();
        let parsed = CellData::from_json(&sim_telemetry::json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, data, "f64 values must round-trip exactly");
    }

    #[test]
    fn cell_set_formats_values_and_errors() {
        let mut set = CellSet::new();
        let mut data = CellData::new();
        data.set("rate", 0.5);
        set.insert("gcc", Ok(data));
        set.insert("perl", Err("panicked: injected fault".to_string()));

        assert_eq!(set.fmt("gcc", "rate", |v| format!("{v:.1}")), "0.5");
        assert_eq!(
            set.fmt("perl", "rate", |v| format!("{v:.1}")),
            "ERR(panicked: injected fault)"
        );
        assert!(set
            .fmt("gcc", "absent", |v| format!("{v}"))
            .starts_with("ERR("));
        assert!(set
            .fmt("compress", "rate", |v| format!("{v}"))
            .starts_with("ERR("));
        assert!(!set.all_ok());
        assert_eq!(set.failures().count(), 1);
        assert_eq!(set.failure("perl"), Some("panicked: injected fault"));
        assert_eq!(set.failure("gcc"), None);
    }

    #[test]
    fn err_marker_truncates_long_reasons() {
        let long = "x".repeat(300);
        let marker = err_marker(&long);
        assert!(marker.starts_with("ERR("));
        assert!(marker.chars().count() < 60, "{marker}");
        assert!(marker.ends_with("…)"));
        assert_eq!(err_marker("simple"), "ERR(simple)");
        assert_eq!(err_marker("first\nsecond"), "ERR(first)");
    }
}
