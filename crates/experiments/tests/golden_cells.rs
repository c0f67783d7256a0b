//! Golden cell digests: every registry experiment's cells at quick and
//! at standard scale, pinned bit for bit.
//!
//! Each cell reduces to one FNV-1a-64 digest over its keys (in their
//! sorted order) and the IEEE-754 bits of their values, and the digests
//! are compared against `tests/golden/<scale>_cells.txt`, one line per
//! cell: `<experiment>/<label> <hex digest>`. Any change to a reported
//! number — a table value, a figure bucket, a cost — fails this test by
//! name.
//!
//! At each scale both the naive per-cell computation and a memoized
//! two-worker campaign are pinned to the same file. The standard file
//! was generated with the reference timing engine (`hps_uarch::simulate`
//! walked once per request), so it also pins the campaign's prepared,
//! lockstep timing path to the reference engine's numbers at the scale
//! the table binaries report.
//!
//! On a mismatch the test writes the digests it computed to
//! `target/tmp/<scale>_cells[.memoized].actual.txt`. When a change to the
//! numbers is intended, review the failing cells and copy that file over
//! the golden one by hand.

use experiments::jobs::cli::cell_tasks;
use experiments::jobs::{
    cell_id, registry, run_campaign, CellData, Journal, RunControls, RunnerConfig,
};
use experiments::runner::Scale;
use experiments::telemetry::{self, TelemetryConfig, TelemetryCtx, TelemetryMode};
use sim_telemetry::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The digest of one cell: each key's bytes, then its value's bits.
fn digest(data: &CellData) -> u64 {
    data.0.iter().fold(FNV_OFFSET, |h, (key, value)| {
        let h = fnv1a(h, key.as_bytes());
        fnv1a(h, &value.to_bits().to_le_bytes())
    })
}

/// Parses a digest file into `cell id → line`.
fn lines_by_id(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .map(|line| (line.split(' ').next().unwrap_or(line), line))
        .collect()
}

/// Every registry experiment's cells at `scale`, computed one cell at a
/// time without a memo, as digest lines.
fn naive_digests(scale: Scale) -> String {
    let ctx = TelemetryCtx::off();
    let mut actual = String::new();
    for def in registry::all() {
        let cells = def.compute(&ctx, scale);
        for label in (def.labels)() {
            let data = cells.data(label).expect("computed cells all succeed");
            actual.push_str(&format!("{}/{label} {:016x}\n", def.name, digest(data)));
        }
    }
    actual
}

#[test]
fn quick_cells_match_the_golden_digest() {
    assert_golden(&naive_digests(Scale::Quick), Scale::Quick, "");
}

#[test]
fn standard_cells_match_the_golden_digest() {
    assert_golden(&naive_digests(Scale::Standard), Scale::Standard, "");
}

/// Compares `actual` digests with the golden file of `scale`; on a
/// mismatch writes them to `<target tmp>/<scale>_cells<variant>.actual.txt`
/// and fails naming the moved cells.
fn assert_golden(actual: &str, scale: Scale, variant: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_cells.txt", scale.name()));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    if actual == golden {
        return;
    }

    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}_cells{variant}.actual.txt", scale.name()));
    std::fs::write(&out, actual).expect("write actual digests");
    let (want, got) = (lines_by_id(&golden), lines_by_id(actual));
    let mut differing: Vec<&str> = want
        .iter()
        .filter(|(id, line)| got.get(*id) != Some(*line))
        .map(|(id, _)| *id)
        .collect();
    differing.extend(got.keys().filter(|id| !want.contains_key(*id)));
    panic!(
        "{} cell(s) differ from {}: {}\nactual digests written to {}",
        differing.len(),
        golden_path.display(),
        differing.join(", "),
        out.display()
    );
}

/// Runs every registry experiment at `scale` as one memoized campaign
/// on `workers` workers, with summary telemetry; returns the cells'
/// digest lines and the parsed run manifest.
fn memoized_campaign(scale: Scale, workers: usize) -> (String, Json) {
    let dir = std::env::temp_dir().join(format!(
        "repro-golden-memo-{}-{}",
        scale.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = TelemetryConfig {
        mode: TelemetryMode::Summary,
        dir: dir.clone(),
        ..TelemetryConfig::off()
    };
    let session = telemetry::session_with_config("memo-golden", scale, config);
    let manifest_path = session.manifest_path();
    let ctx = session.ctx().memoized(workers);
    let defs = registry::all();
    let tasks = cell_tasks(&defs, &ctx, scale);
    let mut journal =
        Journal::create(&dir, "memo", "memo-golden", scale, tasks.len()).expect("create journal");
    let runner = RunnerConfig {
        workers,
        ..RunnerConfig::default()
    };
    let outcome = run_campaign(tasks, &runner, &mut journal, &ctx, &RunControls::default())
        .expect("campaign runs");

    let mut actual = String::new();
    for def in &defs {
        for label in (def.labels)() {
            let id = cell_id(def.name, label);
            let report = outcome.report(&id).expect("every cell was scheduled");
            let data = report.outcome.as_ref().expect("campaign cells all succeed");
            actual.push_str(&format!("{id} {:016x}\n", digest(data)));
        }
    }
    drop(ctx);
    drop(session);
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = parse(text.trim()).expect("manifest parses");
    let _ = std::fs::remove_dir_all(&dir);
    (actual, manifest)
}

/// Checks a memoized campaign's manifest: no walk of the same trace
/// under the same configuration runs twice, each of the ten traces
/// (eight SPECint95 benchmarks plus the two OO programs) is generated
/// once, and the memo's counters reconcile with the runs: one
/// `functional` run per harness pass, one `timing` run per schedule, and
/// one preparation per trace with timing walks.
fn assert_walked_once(manifest: &Json) {
    let runs = manifest.get("runs").and_then(Json::as_arr).expect("runs");
    // A walk is identified by what it simulated and everything it
    // counted: the manifest's config name leaves out the BTB and
    // direction-predictor geometry, which the counters reflect.
    let mut walked = BTreeSet::new();
    for run in runs {
        let key = [
            "label",
            "mode",
            "machine",
            "config",
            "instructions",
            "counters",
        ]
        .map(|field| run.get(field).map(ToString::to_string));
        assert!(walked.insert(key), "walked twice: {run}");
    }
    let memo = manifest.get("memo").expect("memo section");
    let count = |field: &str| memo.get(field).and_then(Json::as_u64).unwrap();
    assert_eq!(count("walks"), runs.len() as u64);
    let labels = |mode: Option<&str>| -> BTreeSet<String> {
        runs.iter()
            .filter(|r| mode.is_none() || r.get("mode").and_then(Json::as_str) == mode)
            .filter_map(|r| r.get("label"))
            .map(ToString::to_string)
            .collect()
    };
    let of_mode = |mode: &str| {
        runs.iter()
            .filter(|r| r.get("mode").and_then(Json::as_str) == Some(mode))
            .count() as u64
    };
    assert_eq!(count("harness_passes"), of_mode("functional"));
    assert_eq!(count("schedules"), of_mode("timing"));
    assert_eq!(count("preparations"), labels(Some("timing")).len() as u64);
    assert_eq!(labels(None).len(), 10, "{:?}", labels(None));
    assert_eq!(count("generations"), 10);
}

/// The memoized campaign (two workers sharing walks and traces through
/// one memo) reports exactly what the naive per-cell computation does,
/// and it shares every walk and trace.
#[test]
fn memoized_campaign_matches_the_golden_digest() {
    let (actual, manifest) = memoized_campaign(Scale::Quick, 2);
    assert_golden(&actual, Scale::Quick, ".memoized");
    assert_walked_once(&manifest);
}

/// The memoized two-worker campaign at standard scale, the scale the
/// table binaries report, matches the reference engine's digests.
#[test]
fn memoized_standard_campaign_matches_the_golden_digest() {
    let (actual, manifest) = memoized_campaign(Scale::Standard, 2);
    assert_golden(&actual, Scale::Standard, ".memoized");
    assert_walked_once(&manifest);
}
