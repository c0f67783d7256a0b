//! Golden cell digest: every registry experiment's cells at quick scale,
//! pinned bit for bit.
//!
//! Each cell reduces to one FNV-1a-64 digest over its keys (in their
//! sorted order) and the IEEE-754 bits of their values, and the digests
//! are compared against `tests/golden/quick_cells.txt`, one line per cell:
//! `<experiment>/<label> <hex digest>`. Any change to a reported number —
//! a table value, a figure bucket, a cost — fails this test by name.
//!
//! Both the naive per-cell computation and a memoized two-worker
//! campaign are pinned to the same file.
//!
//! On a mismatch the test writes the digests it computed to
//! `target/tmp/quick_cells.actual.txt`. When a change to the numbers is
//! intended, review the failing cells and copy that file over the golden
//! one by hand.

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

#[test]
fn quick_cells_match_the_golden_digest() {
    let ctx = TelemetryCtx::off();
    let mut actual = String::new();
    for def in registry::all() {
        let cells = def.compute(&ctx, Scale::Quick);
        for label in (def.labels)() {
            let data = cells.data(label).expect("computed cells all succeed");
            actual.push_str(&format!("{}/{label} {:016x}\n", def.name, digest(data)));
        }
    }

    assert_golden(&actual, "quick_cells.actual.txt");
}

/// Compares `actual` digests with the golden file; on a mismatch writes
/// them to `<target tmp>/<out_name>` and fails naming the moved cells.
fn assert_golden(actual: &str, out_name: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_cells.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    if actual == golden {
        return;
    }

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(out_name);
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

/// The memoized campaign (two workers sharing walks and traces through
/// one memo) reports exactly what the naive per-cell computation does,
/// and it shares: no walk of the same trace under the same configuration
/// runs twice, and each of the ten traces (eight SPECint95 benchmarks
/// plus the two OO programs) is generated once.
#[test]
fn memoized_campaign_matches_the_golden_digest() {
    let dir = std::env::temp_dir().join(format!("repro-golden-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = TelemetryConfig {
        mode: TelemetryMode::Summary,
        dir: dir.clone(),
        ..TelemetryConfig::off()
    };
    let session = telemetry::session_with_config("memo-golden", Scale::Quick, config);
    let manifest_path = session.manifest_path();
    let ctx = session.ctx().memoized(2);
    let defs = registry::all();
    let tasks = cell_tasks(&defs, &ctx, Scale::Quick);
    let mut journal = Journal::create(&dir, "memo", "memo-golden", Scale::Quick, tasks.len())
        .expect("create journal");
    let runner = RunnerConfig {
        workers: 2,
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
    assert_golden(&actual, "quick_cells.memoized.actual.txt");

    drop(ctx);
    drop(session);
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = parse(text.trim()).expect("manifest parses");
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
    let traces: BTreeSet<_> = runs
        .iter()
        .filter_map(|r| r.get("label"))
        .map(ToString::to_string)
        .collect();
    assert_eq!(traces.len(), 10, "{traces:?}");
    assert_eq!(count("generations"), 10);
    let _ = std::fs::remove_dir_all(&dir);
}
