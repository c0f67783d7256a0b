//! The benchmark's in-process half, driven by `perfbench/run.py`.
//!
//! * `sweep --seed S [--budget N] [--spans]` — the `predictor-sweep`
//!   workload: generates perl and gcc with `Workload::generate_seeded(S, …)`
//!   at their full budgets (or `N` instructions), then walks each trace
//!   with the BTB baseline and the 63-point target-cache grid of
//!   `examples/predictor_explorer.rs`. `--spans` adds a timer around every
//!   walk.
//! * `probes --seed S --held-out H` — times one direct call into each
//!   layer's public entry point on perl and gcc at seed `S`, and checks
//!   codec round-trip and generated-vs-decoded prediction identity at
//!   both `S` and `H`.
//!
//! Each prints one JSON object on stdout. A failed integrity check is
//! listed under `"errors"` and turns the exit status to 1; bad arguments
//! exit 2.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use branch_predictors::{BranchClassStats, PathFilter, PathHistoryConfig};
use hps_uarch::MachineConfig;
use sim_analysis::predictability::DEFAULT_PATH_DEPTH;
use sim_analysis::{analyze_program, Findings, StaticPredictability};
use sim_isa::VecTrace;
use sim_trace::{encode_to_vec, fingerprint_trace, TraceMeta, TraceReader};
use sim_workloads::{Benchmark, GENERATOR_VERSION};
use target_cache::harness::{FrontEndConfig, PredictionHarness};
use target_cache::{
    HistorySource, IndexScheme, Organization, TaggedIndexScheme, TargetCacheConfig,
};

/// The two indirect-jump-heavy benchmarks the paper concentrates on.
const BENCHES: [Benchmark; 2] = [Benchmark::Perl, Benchmark::Gcc];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-probe sweep --seed <n> [--budget <instrs>] [--spans]\n       \
         perfbench-probe probes --seed <n> --held-out <n>"
    );
    std::process::exit(2)
}

struct Args {
    seed: Option<u64>,
    held_out: Option<u64>,
    budget: Option<usize>,
    spans: bool,
}

fn parse_args(rest: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        seed: None,
        held_out: None,
        budget: None,
        spans: false,
    };
    let mut rest = rest;
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--seed" => args.seed = Some(value()),
            "--held-out" => args.held_out = Some(value()),
            "--budget" => args.budget = Some(value() as usize),
            "--spans" => args.spans = true,
            _ => usage(),
        }
    }
    args
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    let args = parse_args(argv);
    let seed = args.seed.unwrap_or_else(|| usage());
    let (json, errors) = match cmd.as_str() {
        "sweep" => (sweep(seed, args.budget, args.spans), Vec::new()),
        "probes" => probes(seed, args.held_out.unwrap_or_else(|| usage())),
        _ => usage(),
    };
    let errors: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    println!("{{{json}, \"errors\": [{}]}}", errors.join(", "));
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list<T: ToString>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// User + system CPU of this process in clock ticks (`/proc/self/stat`
/// fields 14 and 15); the caller divides by `SC_CLK_TCK`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may hold spaces; fields after it are
    // counted from its closing parenthesis.
    let after = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after.split(' ').collect();
    let field = |n: usize| fields[n - 3].parse::<u64>().expect("numeric stat field");
    field(14) + field(15)
}

/// The explorer's history sources: two pattern widths, global path
/// history under every filter, and per-address path history.
fn history_sources() -> Vec<(String, HistorySource)> {
    let mut sources = vec![
        ("pattern(9)".to_string(), HistorySource::Pattern { bits: 9 }),
        (
            "pattern(16)".to_string(),
            HistorySource::Pattern { bits: 16 },
        ),
    ];
    for filter in PathFilter::ALL {
        sources.push((
            format!("path-{}", filter.label().replace(' ', "-")),
            HistorySource::GlobalPath(PathHistoryConfig::isca97_default(filter)),
        ));
    }
    sources.push((
        "path-per-addr".to_string(),
        HistorySource::PerAddressPath(PathHistoryConfig::isca97_default(PathFilter::IndirectJump)),
    ));
    sources
}

/// The explorer's organizations: three tagless sizes under two index
/// schemes, and a 256-entry tagged cache at three associativities.
fn organizations() -> Vec<(String, Organization)> {
    let mut orgs = Vec::new();
    for entries in [256usize, 512, 1024] {
        for scheme in [IndexScheme::GAg, IndexScheme::Gshare] {
            orgs.push((
                format!(
                    "tagless-{entries}-{}",
                    scheme.label(entries.trailing_zeros())
                ),
                Organization::Tagless { entries, scheme },
            ));
        }
    }
    for assoc in [1usize, 4, 16] {
        orgs.push((
            format!("tagged-256/{assoc}-way-xor"),
            Organization::Tagged {
                entries: 256,
                assoc,
                scheme: TaggedIndexScheme::HistoryXor,
            },
        ));
    }
    orgs
}

/// The sweep grid: the BTB baseline first, then every organization ×
/// history source.
fn sweep_configs() -> Vec<(String, FrontEndConfig)> {
    let mut configs = vec![(
        "btb-baseline".to_string(),
        FrontEndConfig::isca97_baseline(),
    )];
    for (org_name, org) in organizations() {
        for (src_name, src) in history_sources() {
            configs.push((
                format!("{org_name}:{src_name}"),
                FrontEndConfig::isca97_with(TargetCacheConfig::new(org, src)),
            ));
        }
    }
    configs
}

fn walk(config: FrontEndConfig, trace: &VecTrace) -> BranchClassStats {
    let mut h = PredictionHarness::new(config);
    h.run(trace);
    h.stats().clone()
}

/// One table row per walk; the runner checks and digests these.
fn row(bench: Benchmark, config: &str, stats: &BranchClassStats) -> String {
    let ind = stats.indirect_jump_counters();
    format!(
        "{} {config} {} {} {} {}",
        bench.name(),
        ind.executed,
        ind.mispredicted(),
        stats.total_executed(),
        stats.total_mispredicted()
    )
}

fn sweep(seed: u64, budget: Option<usize>, spans: bool) -> String {
    let mut gen_ns = Vec::new();
    let mut traces = Vec::new();
    for bench in BENCHES {
        let workload = bench.workload();
        let budget = budget.unwrap_or(workload.default_budget());
        let t = Instant::now();
        traces.push((bench, workload.generate_seeded(seed, budget)));
        gen_ns.push(t.elapsed().as_nanos());
    }

    let configs = sweep_configs();
    let mut rows = Vec::new();
    let mut walk_ns = Vec::new();
    let ticks = cpu_ticks();
    let t = Instant::now();
    for (bench, trace) in &traces {
        for (name, config) in &configs {
            let w = spans.then(Instant::now);
            let stats = walk(*config, trace);
            if let Some(w) = w {
                walk_ns.push(w.elapsed().as_nanos());
            }
            rows.push(row(*bench, name, &stats));
        }
    }
    let sweep_ns = t.elapsed().as_nanos();
    let sweep_ticks = cpu_ticks() - ticks;

    let instructions: Vec<usize> = traces.iter().map(|(_, t)| t.len()).collect();
    let rows: Vec<String> = rows.iter().map(|r| json_str(r)).collect();
    format!(
        "\"gen_ns\": {}, \"sweep_ns\": {sweep_ns}, \"sweep_cpu_ticks\": {sweep_ticks}, \
         \"instructions\": {}, \"walk_ns\": {}, \"rows\": [{}]",
        json_list(&gen_ns),
        json_list(&instructions),
        json_list(&walk_ns),
        rows.join(", ")
    )
}

/// Accumulated nanoseconds and instructions of one probe over both
/// benchmarks.
#[derive(Default)]
struct Probe {
    ns: u128,
    instructions: u64,
}

impl Probe {
    fn time<T>(&mut self, instructions: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.ns += t.elapsed().as_nanos();
        self.instructions += instructions as u64;
        out
    }

    fn ns_per_instr(&self) -> f64 {
        self.ns as f64 / self.instructions.max(1) as f64
    }
}

/// Codec round-trip and generated-vs-decoded prediction identity for one
/// trace; returns the encoded size in bytes.
fn check_integrity(
    bench: Benchmark,
    seed: u64,
    trace: &VecTrace,
    encode: &mut Probe,
    decode: &mut Probe,
    errors: &mut Vec<String>,
) -> usize {
    let meta = TraceMeta {
        benchmark: bench.name().to_string(),
        scale: "full".to_string(),
        seed,
        generator_version: GENERATOR_VERSION,
    };
    let bytes = encode.time(trace.len(), || {
        encode_to_vec(meta, trace).expect("Vec sink")
    });
    let decoded = decode.time(trace.len(), || {
        TraceReader::new(bytes.as_slice()).and_then(|r| r.read_to_end())
    });
    let decoded = match decoded {
        Ok(d) => d,
        Err(e) => {
            errors.push(format!("{} seed {seed}: decode failed: {e}", bench.name()));
            return bytes.len();
        }
    };
    if decoded.len() != trace.len() {
        errors.push(format!(
            "{} seed {seed}: decoded {} records, generated {}",
            bench.name(),
            decoded.len(),
            trace.len()
        ));
    } else if let Some(i) = trace.iter().zip(decoded.iter()).position(|(a, b)| a != b) {
        errors.push(format!(
            "{} seed {seed}: record {i} differs after decode",
            bench.name()
        ));
    }
    let generated = walk(FrontEndConfig::isca97_baseline(), trace);
    if generated != walk(FrontEndConfig::isca97_baseline(), &decoded) {
        errors.push(format!(
            "{} seed {seed}: BranchClassStats differ between generated and decoded trace",
            bench.name()
        ));
    }
    bytes.len()
}

fn probes(seed: u64, held_out: u64) -> (String, Vec<String>) {
    let mut errors = Vec::new();
    let mut gen = Probe::default();
    let mut encode = Probe::default();
    let mut decode = Probe::default();
    let mut bbv = Probe::default();
    let mut stats = Probe::default();
    let mut btb = Probe::default();
    let mut tagless = Probe::default();
    let mut tagged = Probe::default();
    let mut path = Probe::default();
    let mut uarch = Probe::default();
    let mut cluster = Probe::default();
    let mut bytes = 0usize;

    for bench in BENCHES {
        let workload = bench.workload();
        let budget = workload.default_budget();
        let trace = gen.time(budget, || workload.generate_seeded(seed, budget));
        let n = trace.len();
        bytes += check_integrity(bench, seed, &trace, &mut encode, &mut decode, &mut errors);
        let section = bbv.time(n, || fingerprint_trace(&trace));
        stats.time(n, || trace.stats());
        btb.time(n, || walk(FrontEndConfig::isca97_baseline(), &trace));
        let cfg = TargetCacheConfig::isca97_tagless_gshare();
        tagless.time(n, || walk(FrontEndConfig::isca97_with(cfg), &trace));
        let cfg = TargetCacheConfig::isca97_tagged(4);
        tagged.time(n, || walk(FrontEndConfig::isca97_with(cfg), &trace));
        let cfg = TargetCacheConfig::isca97_tagless_path(PathFilter::IndirectJump);
        path.time(n, || walk(FrontEndConfig::isca97_with(cfg), &trace));
        let machine = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        uarch.time(n, || hps_uarch::simulate(trace.iter(), &machine));
        cluster.time(n, || {
            simpoint::cluster(&section.chunks, &Default::default())
        });

        // The held-out seed is checked, not timed.
        let held = workload.generate_seeded(held_out, budget);
        let (mut e, mut d) = (Probe::default(), Probe::default());
        check_integrity(bench, held_out, &held, &mut e, &mut d, &mut errors);
    }

    let t = Instant::now();
    for bench in Benchmark::ALL {
        let workload = bench.workload();
        let mut findings = Findings::new();
        match analyze_program(workload.program(), &mut findings) {
            Some(a) => {
                black_box(StaticPredictability::compute(
                    workload.program(),
                    &a.cfg,
                    &a.image,
                    DEFAULT_PATH_DEPTH,
                ));
            }
            None => errors.push(format!(
                "{}: static analysis refused the model",
                bench.name()
            )),
        }
    }
    let static_ms = t.elapsed().as_secs_f64() * 1e3;

    let metrics = [
        ("workloads.gen_ns_per_instr", gen.ns_per_instr()),
        ("trace.encode_ns_per_instr", encode.ns_per_instr()),
        ("trace.decode_probe_ns_per_instr", decode.ns_per_instr()),
        ("trace.bbv_ns_per_instr", bbv.ns_per_instr()),
        (
            "trace.bytes_per_instr",
            bytes as f64 / gen.instructions.max(1) as f64,
        ),
        ("isa.stats_ns_per_instr", stats.ns_per_instr()),
        ("core.btb_ns_per_instr", btb.ns_per_instr()),
        ("core.tagless_ns_per_instr", tagless.ns_per_instr()),
        ("core.tagged_ns_per_instr", tagged.ns_per_instr()),
        ("core.path_ns_per_instr", path.ns_per_instr()),
        ("uarch.ns_per_instr", uarch.ns_per_instr()),
        ("simpoint.cluster_ms", cluster.ns as f64 / 1e6),
        ("analysis.static_ms", static_ms),
    ];
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    (format!("\"probes\": {{{}}}", metrics.join(", ")), errors)
}
