//! Golden cell digest: every registry experiment's cells at quick scale,
//! pinned bit for bit.
//!
//! Each cell reduces to one FNV-1a-64 digest over its keys (in their
//! sorted order) and the IEEE-754 bits of their values, and the digests
//! are compared against `tests/golden/quick_cells.txt`, one line per cell:
//! `<experiment>/<label> <hex digest>`. Any change to a reported number —
//! a table value, a figure bucket, a cost — fails this test by name.
//!
//! On a mismatch the test writes the digests it computed to
//! `target/tmp/quick_cells.actual.txt`. When a change to the numbers is
//! intended, review the failing cells and copy that file over the golden
//! one by hand.

use experiments::jobs::{registry, CellData};
use experiments::runner::Scale;
use experiments::telemetry::TelemetryCtx;
use std::collections::BTreeMap;
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

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_cells.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    if actual == golden {
        return;
    }

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick_cells.actual.txt");
    std::fs::write(&out, &actual).expect("write actual digests");
    let (want, got) = (lines_by_id(&golden), lines_by_id(&actual));
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
