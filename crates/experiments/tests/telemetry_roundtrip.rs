//! End-to-end telemetry check: a short instrumented run must emit a
//! parseable manifest and JSONL event stream whose counters reconcile
//! exactly with the simulator's own statistics.

use experiments::runner::{functional, trace, Scale};
use experiments::telemetry::{session_with, TelemetryCtx, TelemetryMode};
use sim_telemetry::json::{parse, Json};
use sim_workloads::Benchmark;
use target_cache::harness::{FrontEndConfig, PredictionHarness};
use target_cache::TargetCacheConfig;

#[test]
fn events_run_writes_reconcilable_manifest_and_jsonl() {
    let dir = std::env::temp_dir().join(format!("repro-telemetry-itest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let bench = Benchmark::Perl;
    let frontend = FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare());

    let (manifest_path, events_path);
    {
        let session = session_with("itest", Scale::Quick, TelemetryMode::Events, &dir);
        manifest_path = session.manifest_path();
        events_path = session.events_path();
        let ctx = session.ctx();
        let t = trace(&ctx, bench.workload(), Scale::Quick);
        functional(&ctx, &t, frontend);
    } // drop writes the files

    // Independent reference run: same trace, same config, no telemetry.
    let t = trace(&TelemetryCtx::off(), bench.workload(), Scale::Quick);
    let mut reference = PredictionHarness::new(frontend);
    reference.run(&t);
    let ref_stats = reference.stats();
    let ref_tc = reference.target_cache_stats().expect("tc configured");

    // --- Manifest parses and reconciles ------------------------------
    let manifest_text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = parse(manifest_text.trim()).expect("manifest is valid JSON");
    assert_eq!(manifest.get("tool").unwrap().as_str(), Some("itest"));
    assert_eq!(manifest.get("scale").unwrap().as_str(), Some("quick"));
    assert_eq!(
        manifest.get("telemetry_mode").unwrap().as_str(),
        Some("events")
    );

    let runs = manifest.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 1, "one functional run was recorded");
    let run = &runs[0];
    assert_eq!(run.get("label").unwrap().as_str(), Some(bench.name()));
    assert_eq!(run.get("mode").unwrap().as_str(), Some("functional"));
    let counters = run.get("counters").unwrap();
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };

    // The acceptance invariant: manifest counters are copies of the
    // simulator's own statistics, and lookups = hits + misses.
    assert_eq!(counter("branches"), ref_stats.total_executed());
    assert_eq!(counter("mispredicts"), ref_stats.total_mispredicted());
    assert_eq!(counter("tc.lookups"), ref_tc.lookups());
    assert_eq!(counter("tc.hits"), ref_tc.hits());
    assert_eq!(counter("tc.misses"), ref_tc.misses());
    assert_eq!(counter("tc.updates"), ref_tc.updates());
    assert_eq!(
        counter("tc.hits") + counter("tc.misses"),
        counter("tc.lookups")
    );

    // The metrics snapshot agrees with the per-run counters.
    let metrics = manifest.get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(
        metrics.get("harness.branches").unwrap().as_u64(),
        Some(ref_stats.total_executed())
    );
    assert_eq!(
        metrics.get("harness.mispredicts").unwrap().as_u64(),
        Some(ref_stats.total_mispredicted())
    );

    // Spans were recorded for every phase the run exercised.
    let spans = manifest.get("spans").unwrap();
    for phase in ["workload-gen", "harness-replay"] {
        assert_eq!(
            spans.get(phase).unwrap().get("count").unwrap().as_u64(),
            Some(1),
            "span {phase}"
        );
    }

    // --- Event stream parses line-by-line and reconciles -------------
    let events_text = std::fs::read_to_string(&events_path).expect("events written");
    let mut mispredicts = 0u64;
    for line in events_text.lines() {
        let v = parse(line).expect("every JSONL line is valid JSON");
        assert_eq!(v.get("run").unwrap().as_str(), Some(bench.name()));
        if v.get("event").unwrap().as_str() == Some("mispredict") {
            mispredicts += 1;
            assert_ne!(
                v.get("predicted").unwrap().as_u64(),
                v.get("actual").unwrap().as_u64(),
                "a mispredict event must disagree with the actual target"
            );
        }
    }
    assert_eq!(
        mispredicts,
        ref_stats.total_mispredicted(),
        "one event per mispredicted branch"
    );
    assert_eq!(
        manifest.get("events_recorded").unwrap().as_u64(),
        Some(mispredicts)
    );
    assert_eq!(manifest.get("events_dropped").unwrap().as_u64(), Some(0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Computes one registered experiment at quick scale under a summary
/// session and returns its manifest's `runs` and `spans`.
fn manifest_of(experiment: &str) -> (Vec<Json>, Json) {
    let dir = std::env::temp_dir().join(format!(
        "repro-telemetry-{experiment}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let def = experiments::jobs::registry::find(experiment).expect("registered");
    let manifest_path;
    {
        let session = session_with(experiment, Scale::Quick, TelemetryMode::Summary, &dir);
        manifest_path = session.manifest_path();
        def.compute(&session.ctx(), Scale::Quick);
    }
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = parse(text.trim()).expect("manifest is valid JSON");
    let _ = std::fs::remove_dir_all(&dir);
    let runs = manifest
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap()
        .to_vec();
    (runs, manifest.get("spans").unwrap().clone())
}

fn str_field<'a>(run: &'a Json, key: &str) -> &'a str {
    run.get(key).and_then(Json::as_str).unwrap()
}

/// The runs of one mode.
fn of_mode<'a>(runs: &'a [Json], mode: &str) -> Vec<&'a Json> {
    runs.iter()
        .filter(|r| str_field(r, "mode") == mode)
        .collect()
}

/// How many times a span leaf was entered.
fn span_count(spans: &Json, name: &str) -> Option<u64> {
    spans.get(name)?.get("count")?.as_u64()
}

#[test]
fn oo_walks_are_attributed_to_their_benchmark() {
    let (runs, spans) = manifest_of("extension_oo");
    // One timing walk per configuration per OO benchmark, each a harness
    // pass of its front end (a functional run) and a schedule (a timing
    // run).
    assert_eq!(of_mode(&runs, "timing").len(), 8);
    assert_eq!(of_mode(&runs, "functional").len(), 8);
    assert_eq!(runs.len(), 16);
    for run in &runs {
        assert!(
            ["ixx", "deltablue"].contains(&str_field(run, "label")),
            "{run:?}"
        );
        assert_eq!(str_field(run, "machine"), "isca97");
    }
    assert_eq!(
        span_count(&spans, "workload-gen"),
        Some(2),
        "each OO trace is generated under the workload-gen span"
    );
}

#[test]
fn scaling_walks_are_recorded_under_their_machine() {
    let (runs, spans) = manifest_of("extension_scaling");
    let machines: Vec<&str> = experiments::extension_scaling::machines()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    // Baseline and target cache on each machine, per focus benchmark.
    let timing = of_mode(&runs, "timing");
    assert_eq!(timing.len(), 2 * machines.len() * Benchmark::FOCUS.len());
    for run in &timing {
        assert!(machines.contains(&str_field(run, "machine")), "{run:?}");
    }
    assert_eq!(
        span_count(&spans, "uarch-sim"),
        Some(timing.len() as u64),
        "every schedule is timed under the uarch-sim span"
    );
    // Outside a campaign every batch replays its own front ends.
    let functional = of_mode(&runs, "functional");
    assert_eq!(functional.len(), timing.len());
    assert_eq!(
        span_count(&spans, "harness-replay"),
        Some(functional.len() as u64),
        "every harness pass is timed under the harness-replay span"
    );
}
