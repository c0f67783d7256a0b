//! End-to-end contract of the `simlint` binary, plus the full-scale
//! static/dynamic reconciliation the linter exists to guarantee.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simlint-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `simlint` with a hermetic REPRO_* environment at ci (= quick)
/// scale.
fn run_simlint(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simlint"));
    for var in [
        "REPRO_SCALE",
        "REPRO_TELEMETRY",
        "REPRO_TELEMETRY_DIR",
        "REPRO_FAULTS",
        "REPRO_RUN_ID",
        "REPRO_RESUME",
        "REPRO_JOURNAL_DIR",
        "REPRO_JOBS",
        "REPRO_RETRIES",
        "REPRO_DEADLINE_MS",
        "REPRO_BACKOFF_MS",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_SCALE", "ci").env("REPRO_TELEMETRY", "off");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.args(args);
    cmd.output().expect("spawn simlint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn all_benchmarks_lint_clean_at_ci_scale() {
    let dir = scratch("clean");
    let out_flag = dir.to_str().unwrap();
    let out = run_simlint(&["--conformance", "--out", out_flag], &[]);
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{text}\nstderr:\n{}",
        stderr(&out)
    );
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
    for bench in sim_workloads::Benchmark::ALL {
        assert!(text.contains(bench.name()), "missing {bench}:\n{text}");
    }

    // Both reports exist and parse; the SARIF log is structurally valid.
    let json = fs::read_to_string(dir.join("simlint.json")).expect("json written");
    let parsed = sim_telemetry::json::parse(&json).expect("simlint.json parses");
    let benches = parsed.get("benchmarks").unwrap().as_arr().unwrap();
    assert_eq!(benches.len(), 8);

    let sarif = fs::read_to_string(dir.join("simlint.sarif")).expect("sarif written");
    let parsed = sim_telemetry::json::parse(&sarif).expect("simlint.sarif parses");
    assert_eq!(parsed.get("version").unwrap().as_str(), Some("2.1.0"));
    let runs = parsed.get("runs").unwrap().as_arr().unwrap();
    let driver = runs[0].get("tool").unwrap().get("driver").unwrap();
    assert_eq!(driver.get("name").unwrap().as_str(), Some("simlint"));
    assert!(runs[0].get("results").unwrap().as_arr().unwrap().is_empty());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_fault_is_found_and_gated_by_deny_level() {
    let fault = [("REPRO_FAULTS", "truncate:perl:0.5")];

    // --deny warn: the SL011 warning fails the run.
    let denied = run_simlint(
        &["--conformance", "--deny", "warn", "--no-output", "perl"],
        &fault,
    );
    let text = stdout(&denied);
    assert_eq!(denied.status.code(), Some(1), "{text}\n{}", stderr(&denied));
    assert!(text.contains("SL011"), "{text}");
    assert!(
        stderr(&denied).contains("warning gate"),
        "{}",
        stderr(&denied)
    );

    // Default gate (--deny error): a warning alone does not fail the run.
    let tolerated = run_simlint(&["--conformance", "--no-output", "perl"], &fault);
    assert_eq!(
        tolerated.status.code(),
        Some(0),
        "{}\n{}",
        stdout(&tolerated),
        stderr(&tolerated)
    );
    assert!(
        stdout(&tolerated).contains("SL011"),
        "{}",
        stdout(&tolerated)
    );

    // --deny none never gates.
    let ungated = run_simlint(
        &["--conformance", "--deny", "none", "--no-output", "perl"],
        &fault,
    );
    assert_eq!(ungated.status.code(), Some(0));

    // Without --conformance the trace is never generated, so the fault
    // cannot surface.
    let static_only = run_simlint(&["--deny", "warn", "--no-output", "perl"], &fault);
    assert_eq!(static_only.status.code(), Some(0));
    assert!(!stdout(&static_only).contains("SL011"));
}

#[test]
fn usage_and_environment_errors_exit_two() {
    let bad_flag = run_simlint(&["--explode"], &[]);
    assert_eq!(bad_flag.status.code(), Some(2));
    assert!(
        stderr(&bad_flag).contains("--explode"),
        "{}",
        stderr(&bad_flag)
    );

    let bad_bench = run_simlint(&["nachos"], &[]);
    assert_eq!(bad_bench.status.code(), Some(2));
    assert!(
        stderr(&bad_bench).contains("nachos"),
        "{}",
        stderr(&bad_bench)
    );

    let bad_deny = run_simlint(&["--deny", "harshly"], &[]);
    assert_eq!(bad_deny.status.code(), Some(2));

    let bad_scale = run_simlint(&["--no-output"], &[("REPRO_SCALE", "enormous")]);
    assert_eq!(bad_scale.status.code(), Some(2));
    assert!(
        stderr(&bad_scale).contains("REPRO_SCALE"),
        "{}",
        stderr(&bad_scale)
    );

    let bad_faults = run_simlint(&["--no-output"], &[("REPRO_FAULTS", "explode:everything")]);
    assert_eq!(bad_faults.status.code(), Some(2));
}

#[test]
fn list_rules_prints_the_whole_catalogue() {
    let out = run_simlint(&["--list-rules"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for rule in sim_analysis::Rule::ALL {
        assert!(text.contains(rule.id()), "missing {}:\n{text}", rule.id());
    }
}

#[test]
fn predictability_pass_reports_census_and_envelope() {
    let dir = scratch("pred");
    let out_flag = dir.to_str().unwrap();
    let out = run_simlint(
        &[
            "--predictability",
            "--deny",
            "warn",
            "--out",
            out_flag,
            "perl",
            "gcc",
        ],
        &[],
    );
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{text}\nstderr:\n{}",
        stderr(&out)
    );
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
    assert!(text.contains("predictability:"), "{text}");
    assert!(text.contains("envelope: floor"), "{text}");
    for config in ["oracle", "tagless", "tagged"] {
        assert!(text.contains(config), "missing {config}:\n{text}");
    }

    // The JSON report carries the census and per-config accuracies.
    let json = fs::read_to_string(dir.join("simlint.json")).expect("json written");
    let parsed = sim_telemetry::json::parse(&json).expect("simlint.json parses");
    let benches = parsed.get("benchmarks").unwrap().as_arr().unwrap();
    assert_eq!(benches.len(), 2);
    for bench in benches {
        let p = bench.get("predictability").expect("predictability block");
        let census = p.get("census").expect("census");
        for class in ["mono", "duo", "poly", "mega"] {
            assert!(census.get(class).is_some(), "census class {class}");
        }
        let configs = p.get("configs").unwrap().as_arr().unwrap();
        assert_eq!(configs.len(), 3);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wrong_target_fault_fails_the_predictability_gate() {
    let fault = [("REPRO_FAULTS", "wrong-target:gcc")];

    // The injected wrong-target fault must surface as SL013 and fail
    // the run at the default error gate.
    let denied = run_simlint(&["--predictability", "--no-output", "gcc"], &fault);
    let text = stdout(&denied);
    assert_eq!(denied.status.code(), Some(1), "{text}\n{}", stderr(&denied));
    assert!(text.contains("SL013"), "{text}");
    assert!(
        text.contains("not the fall-through"),
        "SL013 must name the oracle clause:\n{text}"
    );

    // The same run without the fault is clean.
    let clean = run_simlint(&["--predictability", "--no-output", "gcc"], &[]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}\n{}",
        stdout(&clean),
        stderr(&clean)
    );
    assert!(!stdout(&clean).contains("SL013"), "{}", stdout(&clean));

    // Without --predictability the measurement never runs, so the fault
    // cannot surface.
    let static_only = run_simlint(&["--no-output", "gcc"], &fault);
    assert_eq!(static_only.status.code(), Some(0));
    assert!(!stdout(&static_only).contains("SL013"));
}

#[test]
fn max_per_rule_bounds_retention_but_not_counts() {
    // A half-truncated perl trace produces one SL011 warning; the flag
    // must parse, accept 0 as unlimited, and reject garbage.
    let fault = [("REPRO_FAULTS", "truncate:perl:0.5")];
    let capped = run_simlint(
        &[
            "--conformance",
            "--max-per-rule",
            "1",
            "--no-output",
            "perl",
        ],
        &fault,
    );
    assert_eq!(capped.status.code(), Some(0), "{}", stderr(&capped));
    assert!(stdout(&capped).contains("SL011"), "{}", stdout(&capped));

    let unlimited = run_simlint(
        &[
            "--conformance",
            "--max-per-rule",
            "0",
            "--no-output",
            "perl",
        ],
        &fault,
    );
    assert_eq!(unlimited.status.code(), Some(0), "{}", stderr(&unlimited));
    assert!(stdout(&unlimited).contains("SL011"));

    let bad = run_simlint(&["--max-per-rule", "lots", "--no-output"], &[]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("--max-per-rule"), "{}", stderr(&bad));
}

/// The acceptance criterion behind SL012–SL016: at the workloads' full
/// canonical budgets, the measured oracle accuracy for the paper's two
/// hard benchmarks must sit inside the static envelope, with zero
/// reconciliation findings.
#[test]
fn full_scale_perl_and_gcc_stay_inside_the_static_envelope() {
    use experiments::predictability::analyze;
    use experiments::runner::Scale;
    use experiments::telemetry::TelemetryCtx;
    use sim_workloads::Benchmark;

    for bench in [Benchmark::Perl, Benchmark::Gcc] {
        let report = analyze(&TelemetryCtx::off(), bench, Scale::Full);
        assert!(
            report.findings.is_clean(),
            "{bench}: {:?}",
            report.findings.iter().collect::<Vec<_>>()
        );
        let p = report.predictability.expect("predictability pass ran");
        assert!(p.sites > 0, "{bench}");
        assert!(p.executed_sites > 0, "{bench}");
        let oracle = p
            .configs
            .iter()
            .find(|c| c.name == "oracle")
            .expect("oracle config measured");
        assert!(
            oracle.accuracy <= p.ceiling + 1e-12,
            "{bench}: oracle {} above static ceiling {}",
            oracle.accuracy,
            p.ceiling
        );
        assert!(
            oracle.accuracy >= p.floor - 1e-12,
            "{bench}: the oracle cannot do worse than the zero-history floor \
             (oracle {}, floor {})",
            oracle.accuracy,
            p.floor
        );
        for c in &p.configs {
            assert!(
                c.accuracy <= oracle.accuracy + 1e-12,
                "{bench}: {} ({}) cannot beat the oracle ({})",
                c.name,
                c.accuracy,
                oracle.accuracy
            );
        }
    }
}

/// The acceptance criterion behind SL010: at the workloads' full
/// canonical budgets, the per-class instruction counts reconstructed
/// from the *static* image must reconcile exactly with the dynamic
/// `TraceStats` for the paper's two hard benchmarks.
#[test]
fn full_scale_perl_and_gcc_counts_reconcile() {
    use experiments::lint::analyze;
    use experiments::runner::Scale;
    use experiments::telemetry::TelemetryCtx;
    use sim_workloads::Benchmark;

    for bench in [Benchmark::Perl, Benchmark::Gcc] {
        let outcome = analyze(&TelemetryCtx::off(), bench, Scale::Full, true);
        assert!(
            outcome.report.findings.is_clean(),
            "{bench}: {:?}",
            outcome.report.findings.iter().collect::<Vec<_>>()
        );
        let conf = outcome.conformance.expect("conformance ran");
        let workload = bench.workload();
        let budget = Scale::Full.budget(&workload);
        assert_eq!(conf.instructions, budget, "{bench}");

        // Re-derive the dynamic stats independently and compare exactly.
        let trace = workload.generate(budget);
        let stats = trace.stats();
        assert_eq!(
            conf.static_class_counts,
            stats.class_counts(),
            "{bench}: per-class counts must reconcile exactly"
        );
        assert_eq!(
            conf.static_branch_counts,
            stats.branch_class_counts(),
            "{bench}: per-branch-class counts must reconcile exactly"
        );
    }
}
