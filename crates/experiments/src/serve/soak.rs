//! The soak harness: N synthetic clients abuse a `repro-serve` daemon
//! and every robustness claim is checked, not eyeballed.
//!
//! The storm mixes well-behaved requests with the misbehaviour the
//! daemon advertises surviving: mid-campaign cancels, slow-loris
//! connections that trickle half a request line, and mid-body
//! disconnects that announce a `Content-Length` and vanish. Afterwards
//! the harness asserts the daemon is still *correct*, not merely alive:
//!
//! * every admitted request reached a terminal state, and its results
//!   stayed in its own namespace (no cross-request contamination);
//! * load-shedding fired when the storm outran the queue (when the
//!   scenario expects it);
//! * the daemon leaked no threads or file descriptors (via `/proc`);
//! * SIGTERM drains cleanly: exit 0, manifests on disk.
//!
//! Violations are collected, not panicked, so one report shows every
//! broken invariant at once.

use crate::jobs::faults::split_mix_unit;
use crate::runner::Scale;
use sim_telemetry::json::{obj, Json};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What the soak run does and against what.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Concurrent synthetic clients.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Campaign scale for every request.
    pub scale: Scale,
    /// Experiment every request runs.
    pub experiment: String,
    /// Benchmark subset (keeps soak cells cheap).
    pub benchmarks: Vec<String>,
    /// Attach to a daemon already listening here…
    pub addr: Option<String>,
    /// …or spawn this `repro-serve` binary on an ephemeral port.
    pub serve_bin: Option<PathBuf>,
    /// Queue depth for a spawned daemon (small queues exercise 429s).
    pub queue: usize,
    /// `REPRO_FAULTS` plan for a spawned daemon.
    pub faults: Option<String>,
    /// Where to write the JSON report.
    pub report: Option<PathBuf>,
    /// Scratch root for a spawned daemon (default: a temp directory).
    pub root: Option<PathBuf>,
    /// Behaviour-mix seed: same seed, same storm.
    pub seed: u64,
    /// Whether the scenario is expected to trip 429 load-shedding.
    pub expect_shed: bool,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            clients: 4,
            requests: 16,
            scale: Scale::Quick,
            experiment: "table2".into(),
            benchmarks: vec!["perl".into()],
            addr: None,
            serve_bin: None,
            queue: 4,
            faults: None,
            report: None,
            root: None,
            seed: 7,
            expect_shed: true,
        }
    }
}

/// What happened, and which invariants broke.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Requests successfully admitted (202).
    pub admitted: usize,
    /// Requests that reached `done`.
    pub done: usize,
    /// Requests that reached `failed`.
    pub failed: usize,
    /// Requests that reached `cancelled`.
    pub cancelled: usize,
    /// 429 responses observed.
    pub shed_429: usize,
    /// Slow-loris connections attempted.
    pub loris: usize,
    /// Mid-body disconnects attempted.
    pub midbody: usize,
    /// Broken invariants; empty means the soak passed.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report as JSON (written to `--report`).
    pub fn to_json(&self) -> Json {
        obj([
            ("admitted", Json::from(self.admitted)),
            ("done", Json::from(self.done)),
            ("failed", Json::from(self.failed)),
            ("cancelled", Json::from(self.cancelled)),
            ("shed_429", Json::from(self.shed_429)),
            ("loris", Json::from(self.loris)),
            ("midbody", Json::from(self.midbody)),
            ("passed", Json::from(self.passed())),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::from(v.as_str()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A minimal HTTP reply.
struct Reply {
    status: u16,
    body: String,
}

/// One `Connection: close` HTTP exchange.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: soak\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: unparseable reply {:?}", text.get(..40)))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

fn parse_json(reply: &Reply) -> Result<Json, String> {
    sim_telemetry::json::parse(&reply.body).map_err(|e| format!("bad JSON body: {e}"))
}

/// What one storm slot does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Behaviour {
    Normal,
    Cancel,
    SlowLoris,
    MidBodyDisconnect,
}

fn behaviour_for(seed: u64, client: usize, i: usize) -> Behaviour {
    let r = split_mix_unit(seed, &format!("soak/{client}/{i}"), 0);
    if r < 0.15 {
        Behaviour::Cancel
    } else if r < 0.25 {
        Behaviour::SlowLoris
    } else if r < 0.35 {
        Behaviour::MidBodyDisconnect
    } else {
        Behaviour::Normal
    }
}

/// The terminal state of one admitted request, plus its final status doc.
struct Settled {
    id: String,
    state: String,
    status: Json,
    behaviour: Behaviour,
}

/// Outcome of a client's slot: either an admitted-and-settled request,
/// a shed (429) count, or a connection-abuse attempt.
enum SlotOutcome {
    Settled(Settled),
    Shed,
    Abuse(Behaviour),
    Error(String),
}

fn run_body(config: &SoakConfig, client: usize) -> String {
    let benches: Vec<Json> = config
        .benchmarks
        .iter()
        .map(|b| Json::from(b.as_str()))
        .collect();
    obj([
        ("experiment", Json::from(config.experiment.as_str())),
        ("benchmarks", Json::Arr(benches)),
        ("scale", Json::from(config.scale.name())),
        ("client", Json::from(format!("client-{client}"))),
        ("seed", Json::from(config.seed)),
    ])
    .to_pretty_string()
}

fn submit(addr: &str, body: &str) -> Result<Option<String>, String> {
    // Retry a bounded number of sheds: the storm is supposed to
    // overrun the queue, and a 429 tells us to come back.
    let reply = http(addr, "POST", "/run", Some(body))?;
    match reply.status {
        202 => {
            let doc = parse_json(&reply)?;
            let id = doc
                .get("id")
                .and_then(Json::as_str)
                .ok_or("202 without an id")?;
            Ok(Some(id.to_string()))
        }
        429 => Ok(None),
        other => Err(format!("POST /run -> {other}: {}", reply.body.trim())),
    }
}

fn wait_terminal(addr: &str, id: &str, timeout: Duration) -> Result<(String, Json), String> {
    let start = Instant::now();
    loop {
        let reply = http(addr, "GET", &format!("/status/{id}"), None)?;
        if reply.status != 200 {
            return Err(format!("GET /status/{id} -> {}", reply.status));
        }
        let doc = parse_json(&reply)?;
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return Ok((state, doc));
        }
        if start.elapsed() > timeout {
            return Err(format!("{id} still {state} after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn slow_loris(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    // Half a request line, then silence: the daemon's read timeout must
    // reclaim the connection (408 or a plain close are both fine).
    stream
        .write_all(b"POST /ru")
        .map_err(|e| format!("loris write: {e}"))?;
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    Ok(())
}

fn mid_body_disconnect(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Announce 400 body bytes, send 10, vanish.
    stream
        .write_all(b"POST /run HTTP/1.1\r\nHost: soak\r\nContent-Length: 400\r\n\r\n{\"experime")
        .map_err(|e| format!("midbody write: {e}"))?;
    let _ = stream.shutdown(std::net::Shutdown::Both);
    Ok(())
}

fn client_storm(config: &SoakConfig, addr: &str, client: usize, slots: usize) -> Vec<SlotOutcome> {
    let mut outcomes = Vec::new();
    for i in 0..slots {
        let behaviour = behaviour_for(config.seed, client, i);
        let outcome = match behaviour {
            Behaviour::SlowLoris => slow_loris(addr)
                .map(|()| SlotOutcome::Abuse(behaviour))
                .unwrap_or_else(SlotOutcome::Error),
            Behaviour::MidBodyDisconnect => mid_body_disconnect(addr)
                .map(|()| SlotOutcome::Abuse(behaviour))
                .unwrap_or_else(SlotOutcome::Error),
            Behaviour::Normal | Behaviour::Cancel => {
                match submit(addr, &run_body(config, client)) {
                    Err(e) => SlotOutcome::Error(e),
                    Ok(None) => SlotOutcome::Shed,
                    Ok(Some(id)) => {
                        if behaviour == Behaviour::Cancel {
                            std::thread::sleep(Duration::from_millis(20));
                            match http(addr, "DELETE", &format!("/run/{id}"), None) {
                                Err(e) => SlotOutcome::Error(e),
                                // 409 = it already finished; that's a race
                                // the daemon is allowed to win.
                                Ok(r) if r.status == 200 || r.status == 409 => {
                                    settle(addr, id, behaviour)
                                }
                                Ok(r) => {
                                    SlotOutcome::Error(format!("DELETE /run/{id} -> {}", r.status))
                                }
                            }
                        } else {
                            settle(addr, id, behaviour)
                        }
                    }
                }
            }
        };
        outcomes.push(outcome);
    }
    outcomes
}

fn settle(addr: &str, id: String, behaviour: Behaviour) -> SlotOutcome {
    match wait_terminal(addr, &id, Duration::from_secs(120)) {
        Ok((state, status)) => SlotOutcome::Settled(Settled {
            id,
            state,
            status,
            behaviour,
        }),
        Err(e) => SlotOutcome::Error(e),
    }
}

/// `/proc/<pid>` thread and fd counts, when procfs exists.
fn proc_usage(pid: u32) -> Option<(usize, usize)> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse::<usize>().ok())?;
    let fds = std::fs::read_dir(format!("/proc/{pid}/fd")).ok()?.count();
    Some((threads, fds))
}

/// A spawned daemon, killed on drop unless already drained.
struct Daemon {
    child: std::process::Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(config: &SoakConfig, scratch: &std::path::Path) -> Result<Daemon, String> {
    let bin = config.serve_bin.as_ref().expect("caller checked serve_bin");
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch {e}"))?;
    let addr_file = scratch.join("addr");
    let mut cmd = std::process::Command::new(bin);
    cmd.env("REPRO_SERVE_ADDR", "127.0.0.1:0")
        .env("REPRO_SERVE_ADDR_FILE", &addr_file)
        .env("REPRO_SERVE_ROOT", scratch.join("serve"))
        .env("REPRO_SERVE_QUEUE", config.queue.to_string())
        .env("REPRO_SERVE_READ_TIMEOUT_MS", "300")
        .env("REPRO_JOBS", "4")
        .env("REPRO_BACKOFF_MS", "5")
        .stdout(
            std::fs::File::create(scratch.join("serve.stdout"))
                .map_err(|e| format!("stdout log: {e}"))?,
        )
        .stderr(
            std::fs::File::create(scratch.join("serve.stderr"))
                .map_err(|e| format!("stderr log: {e}"))?,
        );
    match &config.faults {
        Some(plan) => cmd.env("REPRO_FAULTS", plan),
        None => cmd.env_remove("REPRO_FAULTS"),
    };
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    // The daemon writes its ephemeral address once bound.
    let start = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if !text.trim().is_empty() {
                break text.trim().to_string();
            }
        }
        if start.elapsed() > Duration::from_secs(10) {
            return Err("daemon never wrote its address file".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    Ok(Daemon { child, addr })
}

/// Runs the full soak scenario and returns the report.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, String> {
    let scratch = config
        .root
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("repro-soak-{}", std::process::id())));
    let mut report = SoakReport::default();

    let daemon = match (&config.addr, &config.serve_bin) {
        (Some(_), _) => None,
        (None, Some(_)) => Some(spawn_daemon(config, &scratch)?),
        (None, None) => return Err("need --addr or --serve-bin".into()),
    };
    let addr = config
        .addr
        .clone()
        .unwrap_or_else(|| daemon.as_ref().expect("spawned above").addr.clone());

    // Liveness, then one request that must finish on the idle daemon
    // before the storm starts.
    let health = http(&addr, "GET", "/healthz", None)?;
    if health.status != 200 {
        return Err(format!("healthz -> {}", health.status));
    }
    let baseline = daemon.as_ref().and_then(|d| proc_usage(d.child.id()));
    match submit(&addr, &run_body(config, 0))? {
        Some(id) => {
            let (state, _) = wait_terminal(&addr, &id, Duration::from_secs(120))?;
            if state != "done" {
                return Err(format!("warmup request {id} ended {state}"));
            }
        }
        None => return Err("warmup request was shed from an empty queue".into()),
    }

    // The storm.
    let per_client = config.requests.div_ceil(config.clients.max(1));
    let outcomes: Vec<SlotOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client| {
                let addr = addr.clone();
                scope.spawn(move || client_storm(config, &addr, client, per_client))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("soak client panicked"))
            .collect()
    });

    // Tally and per-request invariants.
    let mut settled: Vec<Settled> = Vec::new();
    for outcome in outcomes {
        match outcome {
            SlotOutcome::Settled(s) => {
                report.admitted += 1;
                settled.push(s);
            }
            SlotOutcome::Shed => report.shed_429 += 1,
            SlotOutcome::Abuse(Behaviour::SlowLoris) => report.loris += 1,
            SlotOutcome::Abuse(_) => report.midbody += 1,
            SlotOutcome::Error(e) => report.violations.push(format!("client error: {e}")),
        }
    }
    let mut namespaces: BTreeMap<String, String> = BTreeMap::new();
    for s in &settled {
        match s.state.as_str() {
            "done" => report.done += 1,
            "failed" => report.failed += 1,
            "cancelled" => report.cancelled += 1,
            other => report
                .violations
                .push(format!("{}: non-terminal final state {other:?}", s.id)),
        }
        if s.behaviour == Behaviour::Normal && s.state != "done" {
            report.violations.push(format!(
                "{}: well-behaved request ended {} ({})",
                s.id,
                s.state,
                s.status
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no error detail")
            ));
        }
        // Contamination: the request's namespace must be private and its
        // progress stream must identify *this* request.
        let ns = s
            .status
            .get("namespace")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if !ns.ends_with(&s.id) {
            report
                .violations
                .push(format!("{}: namespace {ns:?} not request-private", s.id));
        }
        if let Some(previous) = namespaces.insert(ns.clone(), s.id.clone()) {
            report.violations.push(format!(
                "namespace {ns:?} shared by {} and {previous}",
                s.id
            ));
        }
        if let Some(run) = s.status.get("progress").and_then(|p| p.get("run")) {
            if run.as_str() != Some(s.id.as_str()) {
                report.violations.push(format!(
                    "{}: progress stream belongs to {run:?} — cross-request contamination",
                    s.id
                ));
            }
        }
    }
    if config.expect_shed && report.shed_429 == 0 {
        report
            .violations
            .push("expected the storm to overrun the queue, but no 429 was observed".into());
    }

    // The daemon must still be healthy after the abuse.
    let health = http(&addr, "GET", "/healthz", None)?;
    if health.status != 200 {
        report
            .violations
            .push(format!("healthz after storm -> {}", health.status));
    }

    // Leak check: thread/fd counts settle back near the baseline.
    if let (Some(daemon), Some((threads0, fds0))) = (&daemon, baseline) {
        std::thread::sleep(Duration::from_millis(500));
        if let Some((threads, fds)) = proc_usage(daemon.child.id()) {
            if threads > threads0 + 4 {
                report.violations.push(format!(
                    "thread leak: {threads0} threads before storm, {threads} after"
                ));
            }
            if fds > fds0 + 8 {
                report
                    .violations
                    .push(format!("fd leak: {fds0} fds before storm, {fds} after"));
            }
        }
    }

    // Clean drain: SIGTERM, exit 0, manifests on disk.
    if let Some(mut daemon) = daemon {
        let pid = daemon.child.id();
        let killed = std::process::Command::new("/bin/sh")
            .args(["-c", &format!("kill -TERM {pid}")])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !killed {
            report.violations.push("could not deliver SIGTERM".into());
        } else {
            let start = Instant::now();
            loop {
                match daemon.child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            report
                                .violations
                                .push(format!("daemon drain exited {status}"));
                        }
                        break;
                    }
                    Ok(None) if start.elapsed() > Duration::from_secs(30) => {
                        report
                            .violations
                            .push("daemon did not exit within 30s of SIGTERM".into());
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                    Err(e) => {
                        report.violations.push(format!("wait on daemon: {e}"));
                        break;
                    }
                }
            }
        }
        for s in settled.iter().filter(|s| s.state == "done") {
            let manifest = PathBuf::from(
                s.status
                    .get("manifest")
                    .and_then(Json::as_str)
                    .unwrap_or_default(),
            );
            if manifest.as_os_str().is_empty() || !manifest.exists() {
                report.violations.push(format!(
                    "{}: manifest missing after drain ({})",
                    s.id,
                    manifest.display()
                ));
            }
        }
    }

    if let Some(path) = &config.report {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        let mut text = report.to_json().to_pretty_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("write report: {e}"))?;
    }
    Ok(report)
}
