//! End-to-end contract of trace acquisition under the campaign driver,
//! exercised through a real table binary (`table4`: two focus-benchmark
//! cells, fast at quick scale).
//!
//! Campaigns generate every trace in process from `(benchmark, scale)`
//! and write no trace files: `.strc` is made only on request, by
//! `trace-pack record`. The variables of the retired on-disk trace store
//! and of the retired sharded sampling driver are ignored rather than
//! rejected, so older scripts that still set them keep working. A
//! `truncate:` fault shortens the generated trace and the campaign still
//! succeeds on the degraded trace.

use experiments::runner::Scale;
use sim_telemetry::json::{parse, Json};
use sim_workloads::Benchmark;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-traces-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `table4` binary at quick scale in working directory `cwd`
/// with a hermetic REPRO_* environment plus `envs`.
fn run_table4(cwd: &Path, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table4"));
    for (var, _) in std::env::vars() {
        if var.starts_with("REPRO_") {
            cmd.env_remove(var);
        }
    }
    cmd.current_dir(cwd)
        .env("REPRO_SCALE", "quick")
        .env("REPRO_TELEMETRY", "off")
        .env("REPRO_BACKOFF_MS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn table4")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Stdout without the `run:` banner, which carries the generated run id.
fn tables(out: &Output) -> String {
    stdout(out)
        .lines()
        .filter(|l| !l.starts_with("run:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every trace or phase-map file under `dir`, recursively.
fn trace_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                pending.push(path);
            } else if name.ends_with(".strc") || name.ends_with(".phases.json") {
                found.push(path);
            }
        }
    }
    found
}

#[test]
fn retired_store_variables_are_ignored_and_no_trace_file_is_written() {
    let cwd = scratch("store-vars");
    let store_dir = scratch("store-dir");
    let sample_dir = scratch("sample-dir");
    let with_vars = run_table4(
        &cwd,
        &[
            ("REPRO_TRACE_STORE", "rw"),
            ("REPRO_TRACE_STORE_DIR", store_dir.to_str().unwrap()),
            ("REPRO_SAMPLE", "simpoint"),
            ("REPRO_SAMPLE_EXACT", "off"),
            ("REPRO_SAMPLE_TOLERANCE_PP", "0.5"),
            ("REPRO_SAMPLE_DIR", sample_dir.to_str().unwrap()),
        ],
    );
    assert_eq!(
        with_vars.status.code(),
        Some(0),
        "stderr:\n{}",
        stderr(&with_vars)
    );

    let plain_cwd = scratch("plain");
    let plain = run_table4(&plain_cwd, &[]);
    assert_eq!(plain.status.code(), Some(0), "stderr:\n{}", stderr(&plain));
    assert_eq!(
        tables(&with_vars),
        tables(&plain),
        "the retired store and sampling variables changed the table output"
    );

    for dir in [&cwd, &store_dir, &plain_cwd] {
        let files = trace_files(dir);
        assert!(files.is_empty(), "a campaign wrote trace files: {files:?}");
    }
    let written: Vec<_> = fs::read_dir(&sample_dir)
        .expect("sampling dir readable")
        .collect();
    assert!(
        written.is_empty(),
        "a campaign wrote into the retired sampling dir: {written:?}"
    );
    for dir in [cwd, store_dir, sample_dir, plain_cwd] {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn retired_store_fault_kind_is_an_operator_error() {
    let cwd = scratch("store-fault");
    let out = run_table4(&cwd, &[("REPRO_FAULTS", "truncate-store:perl:0.5")]);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{}", stderr(&out));
    assert!(stderr(&out).contains("REPRO_FAULTS"), "{}", stderr(&out));
    let _ = fs::remove_dir_all(cwd);
}

#[test]
fn generation_truncation_shortens_the_trace_and_the_cell_succeeds() {
    let cwd = scratch("truncate");
    let telemetry_dir = cwd.join("telemetry");
    let out = run_table4(
        &cwd,
        &[
            ("REPRO_FAULTS", "truncate:perl:0.5"),
            ("REPRO_TELEMETRY", "summary"),
            ("REPRO_TELEMETRY_DIR", telemetry_dir.to_str().unwrap()),
        ],
    );
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{text}\nstderr:\n{}",
        stderr(&out)
    );
    assert!(!text.contains("ERR("), "{text}");

    // Every walk of perl saw half its budget; gcc was untouched.
    let manifest =
        fs::read_to_string(telemetry_dir.join("table4.manifest.json")).expect("manifest written");
    let manifest = parse(manifest.trim()).expect("manifest parses");
    let runs = manifest.get("runs").and_then(Json::as_arr).expect("runs");
    let instructions = |bench: Benchmark| -> Vec<u64> {
        runs.iter()
            .filter(|r| r.get("label").and_then(Json::as_str) == Some(bench.name()))
            .map(|r| r.get("instructions").and_then(Json::as_u64).unwrap())
            .collect()
    };
    let (perl, gcc) = (instructions(Benchmark::Perl), instructions(Benchmark::Gcc));
    assert!(!perl.is_empty() && !gcc.is_empty(), "{runs:?}");
    let half = Scale::Quick.budget(&Benchmark::Perl.workload()) as u64 / 2;
    assert!(perl.iter().all(|&n| n == half), "perl walks: {perl:?}");
    let full = Scale::Quick.budget(&Benchmark::Gcc.workload()) as u64;
    assert!(gcc.iter().all(|&n| n == full), "gcc walks: {gcc:?}");
    assert!(trace_files(&cwd).is_empty());
    let _ = fs::remove_dir_all(cwd);
}
