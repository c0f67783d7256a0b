//! `repro-top --follow --strict` stall detection: a progress stream
//! whose producer died (a hung process, `kill -9`) stops growing, and the
//! follower must fail fast with exit 3 instead of redrawing forever.

use sim_telemetry::{ProgressEvent, ProgressWriter};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-top-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A plausible unfinished stream from a producer that heartbeat every
/// 50ms and then died: the follower must measure the 50ms interval from
/// the stream and declare a stall after ~3 missed beats, not after 3 ×
/// the 1000ms default.
fn write_dead_stream(dir: &std::path::Path) -> PathBuf {
    let writer = ProgressWriter::create(dir, "dead-run").expect("create stream");
    writer
        .emit(&ProgressEvent::CampaignStarted {
            run: "dead-run".into(),
            tool: "table2".into(),
            scale: "quick".into(),
            total: 4,
            workers: 1,
            unix_ms: 0,
            trace_id: "tr-00000000feedface".into(),
        })
        .unwrap();
    writer
        .emit(&ProgressEvent::CellStarted {
            cell: "table2/perl".into(),
            t_ms: 1,
        })
        .unwrap();
    for beat in 1..=2u64 {
        writer
            .emit(&ProgressEvent::Heartbeat {
                active_cells: 1,
                done: 0,
                total: 4,
                eta_ms: None,
                t_ms: beat * 50,
            })
            .unwrap();
    }
    writer.path().to_path_buf()
}

#[test]
fn strict_follow_exits_3_on_a_stalled_stream() {
    let dir = scratch("strict");
    let stream = write_dead_stream(&dir);

    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args([
            "--follow",
            "--strict",
            "--interval",
            "25",
            stream.to_str().unwrap(),
        ])
        .output()
        .expect("spawn repro-top");
    let elapsed = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(out.status.code(), Some(3), "stderr:\n{stderr}");
    assert!(stderr.contains("stalled"), "{stderr}");
    // 3 missed 50ms beats ≈ 150ms idle; well under the 3s it would take
    // if the follower fell back to the 1000ms default interval.
    assert!(
        elapsed < Duration::from_secs(3),
        "stall detection took {elapsed:?} — measured heartbeat interval ignored?"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_strict_follow_reports_the_stall_but_keeps_watching() {
    let dir = scratch("lenient");
    let stream = write_dead_stream(&dir);

    // Without --strict the follower must NOT exit on a stall; give it
    // ample time to (wrongly) do so, then kill it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro-top"))
        .args(["--follow", "--interval", "25", stream.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro-top");
    std::thread::sleep(Duration::from_millis(800));
    let still_running = child.try_wait().expect("try_wait").is_none();
    let _ = child.kill();
    let out = child.wait_with_output().expect("collect output");
    assert!(
        still_running,
        "without --strict the follower must keep watching a stalled stream"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("STALLED"),
        "the live view must carry the STALLED banner"
    );
    assert!(
        stdout.contains("[tr-00000000feedface]"),
        "the header must carry the campaign's trace id:\n{stdout}"
    );
    assert!(
        stdout.contains("flight dump") && stdout.contains("dead-run.flight.jsonl"),
        "the STALLED banner must point at the flight dump path:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
