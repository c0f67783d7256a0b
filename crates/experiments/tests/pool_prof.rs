//! End-to-end profiling through the fault-tolerant pool: with more than
//! one worker (the `REPRO_JOBS>1` configuration) and an active telemetry
//! session, worker threads must record nested `cell:<experiment>` spans
//! into the shared registry without cross-thread interleaving, and every
//! cell's simulated-instruction count must survive into the campaign
//! journal.

use experiments::jobs::pool::CellTask;
use experiments::jobs::{run_campaign, CellData, Journal, RunControls, RunnerConfig};
use experiments::runner::{self, Scale};
use experiments::telemetry::{self, ProfMode, TelemetryMode};
use sim_workloads::Benchmark;
use std::path::PathBuf;
use target_cache::harness::FrontEndConfig;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro-pool-prof-{}-{name}", std::process::id()))
}

#[test]
fn parallel_pool_records_nested_spans_and_instruction_counts() {
    let journal_dir = scratch("journal");
    let out_dir = scratch("telemetry");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&out_dir);

    let session = telemetry::session_with_prof(
        "pool-prof-test",
        Scale::Quick,
        TelemetryMode::Summary,
        ProfMode::Spans,
        &out_dir,
    );
    let ctx = session.ctx();
    let hub = ctx.hub().cloned().expect("summary session installs a hub");

    let benches = [
        Benchmark::Perl,
        Benchmark::Gcc,
        Benchmark::Go,
        Benchmark::Xlisp,
    ];
    let tasks: Vec<CellTask> = benches
        .iter()
        .map(|&bench| {
            let ctx = ctx.clone();
            CellTask::new(format!("prof/{bench}"), move || {
                let trace = runner::trace(&ctx, bench.workload(), Scale::Quick);
                runner::functional(&ctx, &trace, FrontEndConfig::isca97_baseline());
                let mut data = CellData::new();
                data.set("instructions", trace.len() as f64);
                data
            })
        })
        .collect();

    let config = RunnerConfig {
        workers: 3,
        ..RunnerConfig::default()
    };
    let mut journal = Journal::create(
        &journal_dir,
        "r1",
        "pool-prof-test",
        Scale::Quick,
        tasks.len(),
    )
    .unwrap();
    let outcome =
        run_campaign(tasks, &config, &mut journal, &ctx, &RunControls::default()).unwrap();

    // Every cell succeeded and carries its replayed instruction count.
    assert_eq!(outcome.reports.len(), benches.len());
    for report in &outcome.reports {
        assert!(
            report.outcome.is_ok(),
            "{}: {:?}",
            report.cell,
            report.outcome
        );
        assert!(
            report.instructions >= 50_000,
            "{} counted only {} instructions",
            report.cell,
            report.instructions
        );
    }

    // The counts were journaled, so a resumed run restores them.
    let resumed = Journal::resume(&journal_dir, "r1", "pool-prof-test", Scale::Quick).unwrap();
    for record in resumed.records() {
        assert!(record.ok);
        assert!(record.instructions >= 50_000, "{}", record.cell);
    }

    // Concurrent workers nested their phases under the cell span: the
    // registry holds `cell:prof` roots with `workload-gen` and
    // `harness-replay` children, each entered once per benchmark, and no
    // cross-thread path like `workload-gen;harness-replay`.
    let spans = hub.spans().snapshot();
    let count_of = |path: &str| {
        spans
            .iter()
            .find(|s| s.path == path)
            .map(|s| s.count)
            .unwrap_or(0)
    };
    let n = benches.len() as u64;
    assert_eq!(count_of("cell:prof"), n, "{spans:?}");
    assert_eq!(count_of("cell:prof;workload-gen"), n, "{spans:?}");
    assert_eq!(count_of("cell:prof;harness-replay"), n, "{spans:?}");
    assert!(
        spans.iter().all(|s| s.path.starts_with("cell:prof")),
        "unexpected span paths: {spans:?}"
    );

    // The session's folded dump (flamegraph input) reflects the same
    // hierarchy once the session closes.
    drop(session);
    let folded = std::fs::read_to_string(out_dir.join("pool-prof-test.folded.txt")).unwrap();
    assert!(folded.contains("cell:prof;workload-gen"), "{folded}");
    assert!(folded.contains("cell:prof;harness-replay"), "{folded}");

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}
