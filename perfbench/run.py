#!/usr/bin/env python3
"""The repository benchmark: campaign wall-clock with per-layer attribution.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/README.md for why each was chosen):

  paper-standard   `repro_all` at REPRO_SCALE=standard, REPRO_JOBS=2
  table1-full      `table1` at REPRO_SCALE=full, REPRO_JOBS=1
  predictor-sweep  `perfbench-probe sweep`: perl and gcc at their full
                   budgets from the seed argument, BTB baseline plus the
                   63-point target-cache grid, one thread

The benchmark builds the campaign binaries and its own probe package
(perfbench/probe) into $CARGO_TARGET_DIR (default .bench_build), then runs
one closed loop: one campaign process at a time, each into a work
directory of its own under .bench_work/ that is removed at exit.

--trace 0 measures the end-to-end metrics, untraced: several cold passes
into empty trace stores (setup_s is their median), then warm passes over
the last store for --seconds (campaign_s and cpu_s are their medians,
peak_rss_mb their largest). --trace 1 runs the same commands with the
program's existing REPRO_PROF=spans REPRO_TELEMETRY=summary, alternated
with untraced warm passes, plus direct probes into each layer, and prints
the per-layer metrics after reconciling them against the journal and
manifest.

Every pass is checked: campaign stdout (less its `run:` and `campaign:`
lines) against the digest pinned in perfbench/expected.json, sweep tables
against internal consistency, against each other, and against pinned
digests for the default and held-out seeds. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# Cold passes per run; setup_s is their median.
SETUP_PASSES = 3
# Fewest warm passes a run measures, however short --seconds is.
MIN_WARM_PASSES = 3
# Fewest untraced/traced warm-pass pairs in a --trace 1 run.
TRACED_PAIRS = 2
# A pass that runs longer than this is killed and counts as failed.
PASS_TIMEOUT_S = 150

# The sweep seed the pinned full-budget table is for, and the seed held out
# from tuning; both are also re-checked every sweep run at PIN_CHECK_BUDGET.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
PIN_CHECK_BUDGET = 100_000

CAMPAIGNS = {
    "paper-standard": {"binary": "repro_all", "scale": "standard", "workers": 2},
    "table1-full": {"binary": "table1", "scale": "full", "workers": 1},
}
SWEEP = "predictor-sweep"
WORKLOADS = list(CAMPAIGNS) + [SWEEP]

END_TO_END_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer metric -> unit. Every workload reports every one; a layer that
# does no work on a workload reports 0.
PER_LAYER_UNITS = {
    "workloads.gen_s": "s",
    "workloads.gen_ns_per_instr": "ns/instr",
    "trace.store_s": "s",
    "trace.decodes": "count",
    "trace.decode_useful_ratio": "ratio",
    "trace.decode_ns_per_instr": "ns/instr",
    "trace.decode_probe_ns_per_instr": "ns/instr",
    "trace.encode_ns_per_instr": "ns/instr",
    "trace.bbv_ns_per_instr": "ns/instr",
    "trace.bytes_per_instr": "B/instr",
    "trace.records": "count",
    "trace.bytes_written": "B",
    "isa.stats_ns_per_instr": "ns/instr",
    "core.replay_s": "s",
    "core.walks": "count",
    "core.ns_per_instr": "ns/instr",
    "core.btb_ns_per_instr": "ns/instr",
    "core.tagless_ns_per_instr": "ns/instr",
    "core.tagged_ns_per_instr": "ns/instr",
    "core.path_ns_per_instr": "ns/instr",
    "uarch.sim_s": "s",
    "uarch.walks": "count",
    "uarch.ns_per_instr": "ns/instr",
    "experiments.cells": "count",
    "experiments.retries": "count",
    "experiments.failed_ratio": "ratio",
    "experiments.walks": "count",
    "experiments.distinct_walks": "count",
    "experiments.walk_useful_ratio": "ratio",
    "experiments.cell_self_s": "s",
    "experiments.cell_p50_ms": "ms",
    "experiments.cell_p90_ms": "ms",
    "experiments.cell_max_ms": "ms",
    "experiments.worker_idle_s": "s",
    "experiments.unattributed_s": "s",
    "analysis.cells_s": "s",
    "analysis.static_ms": "ms",
    "simpoint.cells_s": "s",
    "simpoint.cluster_ms": "ms",
    "telemetry.overhead_pct": "%",
}

# Span leaves the per-layer metrics attribute: workload-gen (workloads),
# trace-store (trace), harness-replay (core), uarch-sim (uarch) and the
# phase-* spans of the simpoint cells. Cell roots are `cell:<experiment>`.
LAYER_SPANS = {"workload-gen", "trace-store", "harness-replay", "uarch-sim",
               "phase-measure", "phase-cluster"}


class BenchError(Exception):
    """The benchmark itself cannot run; exits non-zero without a result."""


class Pass:
    """One process the benchmark spawned and timed from outside."""

    def __init__(self, wall, cpu, rss_mb, code, stdout):
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.attempted = 0
        self.failed = 0
        self.correct = False


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env(extra):
    """The caller's environment without any REPRO_* knob, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra)
    return env


def spawn(cmd, env, cwd, tag):
    """Runs `cmd` to completion; wall, CPU and peak RSS come from wait4."""
    out_path = os.path.join(cwd, tag + ".stdout")
    err_path = os.path.join(cwd, tag + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0
    log("%-10s exit %d  wall %.3f s  cpu %.3f s  rss %.1f MB"
        % (tag, proc.returncode, wall, cpu, rss_mb))
    return Pass(wall, cpu, rss_mb, proc.returncode, stdout)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "experiments",
         "--bin", "repro_all", "--bin", "table1"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for cmd in commands:
        manifest = cmd[cmd.index("--manifest-path") + 1]
        if not os.path.exists(manifest):
            raise BenchError("no %s here: run from the root of a checkout" % manifest)
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def binary(name):
    return os.path.join(target_dir(), "release", name)


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def read_jsonl(path):
    """The records of a JSONL file; a torn line from a crashed writer is
    skipped (the crash itself fails the pass through its exit status)."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as f:
        for line in f:
            try:
                records.append(json.loads(line))
            except ValueError:
                pass
    return records


# ---------------------------------------------------------------- campaigns


class Campaign:
    """One campaign workload: its passes share a work directory."""

    def __init__(self, name, work, faults, expected):
        self.name = name
        self.spec = CAMPAIGNS[name]
        self.work = work
        self.faults = faults
        self.expected = expected[name]
        self.store = None
        self.count = 0

    def fresh_store(self):
        if self.store and os.path.isdir(self.store):
            shutil.rmtree(self.store)
        self.count += 1
        self.store = os.path.join(self.work, "store-%d" % self.count)
        os.makedirs(self.store)

    def run(self, kind, traced=False):
        """One pass over the current store; returns the checked Pass."""
        self.count += 1
        tag = "%s-%d" % (kind, self.count)
        env = {
            "REPRO_SCALE": self.spec["scale"],
            "REPRO_JOBS": str(self.spec["workers"]),
            "REPRO_TRACE_STORE_DIR": self.store,
            "REPRO_JOURNAL_DIR": os.path.join(self.work, "journal"),
            "REPRO_RUN_ID": tag,
        }
        if self.faults:
            env["REPRO_FAULTS"] = self.faults
        if traced:
            env.update({
                "REPRO_TELEMETRY": "summary",
                "REPRO_PROF": "spans",
                "REPRO_TELEMETRY_DIR": os.path.join(self.work, "telemetry-" + tag),
            })
        p = spawn([binary(self.spec["binary"])], clean_env(env), self.work, tag)
        p.journal = read_jsonl(os.path.join(self.work, "journal", tag + ".jsonl"))
        p.manifest_path = os.path.join(
            self.work, "telemetry-" + tag, self.spec["binary"] + ".manifest.json")
        self.check(p)
        return p

    def check(self, p):
        """Output check and failure accounting for one pass.

        A pass whose cells all finished ok must print exactly the pinned
        output; if it does not, every cell counts as failed. When cells
        failed (exit 1) the output cannot match, and the failed cells are
        the ones the journal does not record as ok.
        """
        cells = [r for r in p.journal if "cell" in r]
        ok = len({r["cell"] for r in cells if r.get("status") == "ok"})
        p.attempted = self.expected["cells"]
        # The `run:` banner carries run id, trace id, worker count and
        # journal path; the `campaign:` epilogue counts retries, which the
        # journal accounts for. Everything else is simulated output.
        lines = p.stdout.decode(errors="replace").splitlines(keepends=True)
        body = "".join(l for l in lines if not l.startswith(("run: ", "campaign: ")))
        matches = sha256(body) == self.expected["stdout_sha256"]
        if p.code == 0 and matches:
            p.failed = p.attempted - ok
        elif p.code != 1:
            p.failed = p.attempted
        else:
            p.failed = max(p.attempted - ok, 1)
        p.correct = p.code == 0 and matches and p.failed == 0
        if not p.correct:
            log("%s: pass exit %d, output %s, %d/%d cells failed"
                % (self.name, p.code, "matches" if matches else "DIFFERS",
                   p.failed, p.attempted))


def campaign_end_to_end(c, seconds):
    passes = []
    for _ in range(SETUP_PASSES):
        c.fresh_store()
        passes.append(c.run("cold"))
    cold = list(passes)
    warm = measure(lambda: c.run("warm"), seconds)
    passes += warm
    return passes, {
        "campaign_s": statistics.median(p.wall for p in warm),
        "setup_s": statistics.median(p.wall for p in cold),
        "cpu_s": statistics.median(p.cpu for p in warm),
        "peak_rss_mb": max(p.rss_mb for p in warm),
    }


def measure(one_pass, seconds):
    """Warm passes for `seconds`: another starts only while a pass of the
    median length so far still fits, and there are at least MIN_WARM_PASSES."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_WARM_PASSES or (
            time.perf_counter() - start
            + statistics.median(p.wall for p in passes) <= seconds):
        passes.append(one_pass())
    return passes


def alternate(one_pass, seconds):
    """Untraced and traced warm passes in pairs for `seconds`, at least
    TRACED_PAIRS pairs; returns (untraced, traced)."""
    runs = {False: [], True: []}
    start = time.perf_counter()
    while len(runs[True]) < TRACED_PAIRS or (
            time.perf_counter() - start
            + 2 * statistics.median(p.wall for p in runs[False] + runs[True])
            <= seconds):
        # Alternate which goes first so drift does not bias the overhead.
        first = len(runs[True]) % 2 == 1
        for traced in (first, not first):
            runs[traced].append(one_pass(traced))
    return runs[False], runs[True]


def span_totals(manifest):
    """Self seconds and call counts per span leaf, and the tree's own sums."""
    self_s, counts = {}, {}
    self_sum = root_total = 0
    for path, v in manifest.get("spans", {}).items():
        leaf = path.split(";")[-1]
        key = "cell" if leaf.startswith("cell:") else leaf
        self_s[key] = self_s.get(key, 0.0) + v["self_ns"] / 1e9
        counts[key] = counts.get(key, 0) + v["count"]
        self_sum += v["self_ns"]
        if ";" not in path:
            root_total += v["total_ns"]
    return self_s, counts, self_sum, root_total


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def campaign_layers(c, seconds):
    """The traced run: per-layer metrics, reconciled, for one campaign."""
    passes = []
    c.fresh_store()
    cold = c.run("cold", traced=True)
    passes.append(cold)
    untraced, traced = alternate(lambda t: c.run("warm", traced=t), seconds)
    passes += untraced + traced
    warm = traced[-1]
    try:
        with open(cold.manifest_path) as f:
            cold_m = json.load(f)
        with open(warm.manifest_path) as f:
            warm_m = json.load(f)
    except (OSError, ValueError):
        log("%s: a traced pass left no readable manifest" % c.name)
        return passes, None

    workers = c.spec["workers"]
    cold_self, _, _, _ = span_totals(cold_m)
    self_s, counts, self_sum, root_total = span_totals(warm_m)
    store = warm_m.get("trace_store", {})
    cold_store = cold_m.get("trace_store", {})
    runs = warm_m.get("runs", [])
    cells = [r for r in warm.journal if "cell" in r]
    cell_ms = [r["wall_ms"] for r in cells]

    def journal_s(prefixes):
        return sum(r["wall_ms"] for r in cells if r["cell"].startswith(prefixes)) / 1e3

    capacity = workers * warm.wall
    named = self_sum / 1e9
    core_walks = counts.get("harness-replay", 0)
    uarch_walks = counts.get("uarch-sim", 0)
    decodes = counts.get("trace-store", 0)
    # Every walk at one scale covers a whole trace, so the mean run length
    # apportions the walked instructions between functional and timing walks.
    walk_len = sum(r["instructions"] for r in runs) / max(len(runs), 1)
    distinct = len({(r["label"], r["config"]) for r in runs})
    untraced_s = statistics.median(p.wall for p in untraced)
    traced_s = statistics.median(p.wall for p in traced)

    problems = []
    if self_sum != root_total:
        problems.append("span self times sum to %d ns, root spans to %d ns"
                        % (self_sum, root_total))
    if named > capacity:
        problems.append("named span self time %.3f s exceeds workers x wall %.3f s"
                        % (named, capacity))
    if len(cells) != len(warm_m.get("cells", [])):
        problems.append("journal has %d cells, manifest %d"
                        % (len(cells), len(warm_m.get("cells", []))))
    if decodes != store.get("hits", 0):
        problems.append("%d trace-store spans, manifest trace_store.hits %d"
                        % (decodes, store.get("hits", 0)))
    if core_walks + uarch_walks != len(runs):
        problems.append("core.walks %d + uarch.walks %d != manifest runs %d"
                        % (core_walks, uarch_walks, len(runs)))
    if problems:
        raise BenchError("%s: attribution does not reconcile: %s"
                         % (c.name, "; ".join(problems)))

    metrics = {
        "workloads.gen_s": cold_self.get("workload-gen", 0.0),
        "trace.store_s": self_s.get("trace-store", 0.0),
        "trace.decodes": decodes,
        "trace.decode_useful_ratio": cold_store.get("records", 0) / max(decodes, 1),
        "trace.decode_ns_per_instr":
            store.get("decode_ns", 0) / max(store.get("decoded_instructions", 0), 1),
        "trace.records": cold_store.get("records", 0),
        "trace.bytes_written": cold_store.get("bytes_written", 0),
        "core.replay_s": self_s.get("harness-replay", 0.0),
        "core.walks": core_walks,
        "core.ns_per_instr":
            self_s.get("harness-replay", 0.0) * 1e9 / max(core_walks * walk_len, 1),
        "uarch.sim_s": self_s.get("uarch-sim", 0.0),
        "uarch.walks": uarch_walks,
        "experiments.cells": len(cells),
        "experiments.retries": sum(r.get("attempts", 1) - 1 for r in cells),
        "experiments.failed_ratio": warm.failed / warm.attempted,
        "experiments.walks": len(runs),
        "experiments.distinct_walks": distinct,
        "experiments.walk_useful_ratio": distinct / max(len(runs), 1),
        "experiments.cell_self_s": self_s.get("cell", 0.0),
        "experiments.cell_p50_ms": quantile(cell_ms, 0.5),
        "experiments.cell_p90_ms": quantile(cell_ms, 0.9),
        "experiments.cell_max_ms": max(cell_ms),
        "experiments.worker_idle_s": capacity - sum(cell_ms) / 1e3,
        "experiments.unattributed_s": capacity - named,
        "analysis.cells_s": journal_s(("lint/", "predictability/")),
        "simpoint.cells_s": journal_s(("simpoint/",)),
        "telemetry.overhead_pct": (traced_s - untraced_s) / untraced_s * 100.0,
    }
    other = sorted(k for k in self_s if k != "cell" and k not in LAYER_SPANS)
    if other:
        log("%s: spans outside the named layers: %s" % (c.name, ", ".join(other)))
    return passes, metrics


# ------------------------------------------------------------------- sweep


class Sweep:
    """The predictor-sweep workload: one `perfbench-probe sweep` per pass."""

    def __init__(self, work, expected):
        self.work = work
        self.expected = expected[SWEEP]
        self.count = 0
        self.rows = None

    def run(self, seed, budget=None, spans=False):
        self.count += 1
        cmd = [binary("perfbench-probe"), "sweep", "--seed", str(seed)]
        if budget is not None:
            cmd += ["--budget", str(budget)]
        if spans:
            cmd.append("--spans")
        p = spawn(cmd, clean_env({}), self.work, "sweep-%d" % self.count)
        try:
            p.result = json.loads(p.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            p.result = None
        return p

    def check(self, p, pinned, same_as=None):
        """Each config is one attempt. The table must be self-consistent,
        equal to `pinned` if given, and to `same_as` (an earlier pass of
        the run at the same seed) if given."""
        p.attempted = self.expected["configs"]
        rows = p.result["rows"] if p.code == 0 and p.result else None
        if rows is None or len(rows) != p.attempted:
            p.failed = p.attempted
            log("%s: sweep pass exit %d without a full table" % (SWEEP, p.code))
            return p
        fields = [r.split() for r in rows]
        first = {}
        for f in fields:
            first.setdefault(f[0], f)
        # Every config walks the same trace, so executed counts agree.
        p.failed = sum(
            1 for f in fields
            if (f[-4], f[-2]) != (first[f[0]][-4], first[f[0]][-2])
            or int(f[-3]) > int(f[-4]) or int(f[-1]) > int(f[-2]))
        digest = sha256("\n".join(rows))
        if pinned is not None and digest != pinned:
            log("%s: table digest %s differs from the pinned %s" % (SWEEP, digest, pinned))
            p.failed = p.attempted
        if same_as is not None and rows != same_as:
            log("%s: table differs between passes of one run" % SWEEP)
            p.failed = p.attempted
        p.correct = p.failed == 0
        return p

    def pinned_passes(self):
        """Short sweeps at the default and held-out seeds against pins."""
        return [self.check(self.run(seed, budget=PIN_CHECK_BUDGET),
                           self.expected["short_sha256"][str(seed)])
                for seed in (DEFAULT_SEED, HELD_OUT_SEED)]

    def timed(self, seed, spans=False):
        p = self.run(seed, spans=spans)
        self.check(p, self.expected["full_sha256"].get(str(seed)), self.rows)
        if p.result:
            r = p.result
            self.rows = self.rows or r["rows"]
            p.gen_s = sum(r["gen_ns"]) / 1e9
            p.sweep_s = r["sweep_ns"] / 1e9
            p.sweep_cpu = r["sweep_cpu_ticks"] / os.sysconf("SC_CLK_TCK")
        return p


def sweep_end_to_end(s, seed, seconds):
    passes = s.pinned_passes()
    timed = measure(lambda: s.timed(seed), seconds)
    passes += timed
    if not all(p.result for p in timed):
        return passes, None
    return passes, {
        "campaign_s": statistics.median(p.sweep_s for p in timed),
        "setup_s": statistics.median(p.gen_s for p in timed),
        "cpu_s": statistics.median(p.sweep_cpu for p in timed),
        "peak_rss_mb": max(p.rss_mb for p in timed),
    }


def sweep_layers(s, seed, seconds):
    passes = s.pinned_passes()
    untraced, traced = alternate(lambda t: s.timed(seed, spans=t), seconds)
    passes += untraced + traced
    if not all(p.result for p in untraced + traced):
        return passes, None
    warm = traced[-1]
    r = warm.result
    walks = len(r["walk_ns"])
    replay_s = sum(r["walk_ns"]) / 1e9
    named = warm.gen_s + replay_s
    if walks != len(r["rows"]) or named > warm.wall:
        raise BenchError("%s: %d walk spans for %d rows, %.3f s of spans in a %.3f s process"
                         % (SWEEP, walks, len(r["rows"]), named, warm.wall))
    untraced_s = statistics.median(p.sweep_s for p in untraced)
    traced_s = statistics.median(p.sweep_s for p in traced)
    configs_per_bench = walks // len(r["instructions"])
    metrics = {
        "workloads.gen_s": warm.gen_s,
        "core.replay_s": replay_s,
        "core.walks": walks,
        "core.ns_per_instr": replay_s * 1e9 / (sum(r["instructions"]) * configs_per_bench),
        "experiments.failed_ratio": warm.failed / warm.attempted,
        "experiments.unattributed_s": warm.wall - named,
        "telemetry.overhead_pct": (traced_s - untraced_s) / untraced_s * 100.0,
    }
    return passes, metrics


# ------------------------------------------------------------------ probes


def probes(work, seed):
    held_out = DEFAULT_SEED if seed == HELD_OUT_SEED else HELD_OUT_SEED
    cmd = [binary("perfbench-probe"), "probes", "--seed", str(seed),
           "--held-out", str(held_out)]
    p = spawn(cmd, clean_env({}), work, "probes")
    try:
        result = json.loads(p.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError("probes exited %d without a result" % p.code)
    if p.code != 0 or result["errors"]:
        raise BenchError("probe integrity: " + "; ".join(result["errors"]))
    return result["probes"]


# -------------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--faults", default="",
                    help="REPRO_FAULTS for campaign passes (failure-accounting tests)")
    return ap.parse_args(argv)


def report(workload, trace, passes, metrics, units):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = metrics is not None and all(p.correct for p in passes)
    if trace == 0 and metrics is not None:
        metrics["ok_ratio"] = 1.0 - failed / attempted
    metrics = metrics or {}
    print("workload %s (trace %d): %d passes, %d/%d attempts failed, failed_ratio %s"
          % (workload, trace, len(passes), failed, attempted, failed / attempted))
    for name, unit in units.items():
        if name in metrics:
            print("  %-34s %16.6f %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }))


def main(argv):
    args = parse_args(argv)
    expected = load_expected()
    build()
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        if args.workload in CAMPAIGNS:
            c = Campaign(args.workload, work, args.faults, expected)
            if args.trace:
                passes, metrics = campaign_layers(c, args.seconds)
            else:
                passes, metrics = campaign_end_to_end(c, args.seconds)
        else:
            s = Sweep(work, expected)
            if args.trace:
                passes, metrics = sweep_layers(s, args.seed, args.seconds)
            else:
                passes, metrics = sweep_end_to_end(s, args.seed, args.seconds)
        if args.trace and metrics is not None:
            layers = {k: 0 for k in PER_LAYER_UNITS}
            layers.update(probes(work, args.seed))
            layers.update(metrics)
            metrics = layers
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args.workload, args.trace, passes, metrics,
           PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log("perfbench: error: %s" % e)
        sys.exit(1)
