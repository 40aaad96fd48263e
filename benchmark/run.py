#!/usr/bin/env python3
"""The repository benchmark: one command that builds the simulator in
Release, runs four multi-second workloads, checks that their outputs are
correct, and prints every metric by name with its unit.

    python3 benchmark/run.py [--seed S]
        Full set: 5 rounds, round-robin over the workloads, of one
        traced and 4 untraced reps each; then the layer drills and one
        held-out-seed rep per workload. Writes build-bench/result.json
        and exits 1 naming any failed check.

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
        One measured run of one workload for about T seconds. The last
        stdout line is one JSON object: {"correct", "attempted",
        "failed", "metrics"}. --trace 0 reports the end-to-end metrics
        of BENCHMARK.json, --trace 1 its per-layer metrics.

    python3 benchmark/run.py --agree A.json B.json
        Compare two result.json files under the BENCHMARK.json bounds.

Each rep is one `machbench` process (benchmark/machbench.cc), so peak
RSS is per rep and a crash costs one rep, not the run. Host noise on a
shared machine only ever slows a rep down, so a run reports the fastest
of its reps' times, and divides wall time by the fastest reference loop
of the run to follow the host's slow drift (benchmark/README.md).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "machbench"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper_apps", "serving_numa", "serving_elide_dev",
             "checker_campaign")
DEFAULT_SEED = 1989
HELD_OUT_SEED = 7
SUITE_ROUNDS = 5
REPS_PER_ROUND = 4
MIN_REPS = 3
# Every run must end within 180 s; leave room for the result line.
RUN_DEADLINE_S = 170
# The fastest `machbench ref` loop on the host the benchmark was defined
# on (4-core Xeon at 2.1 GHz, GCC 12.2 -O3). wall_ref_s is the fastest
# rep's wall time x this / the run's fastest loop: seconds at that
# host's speed.
REFERENCE_LOOP_S = 0.025

# Metrics read off the host clock. Every other metric is simulator
# output: deterministic for a seed, so two sets must agree exactly.
HOST_METRICS = {"wall_ref_s", "wall_s", "setup_s", "peak_rss_mb",
                "trials_per_s", "sim.host_ns_per_event",
                "chk.host_ms_per_trial", "obs.stats_overhead_pct",
                "residual_host_share"}

# (share metric, op count, host ns per op from the drills). Most events
# wake a fiber, and a fiber switch includes its schedule and fire. The
# vm and pmap drills also dispatch events, so the shares overlap.
ESTIMATES = (
    ("sim.est_host_share", "sim.events",
     lambda d: d["sim.drill_fiber_switch_ns"]),
    ("hw.est_host_share", "hw.tlb_lookups",
     lambda d: d["hw.drill_tlb_lookup_ns"]),
    ("vm.est_host_share", "vm.faults",
     lambda d: 1e3 * d["vm.drill_fault_host_us"]),
    ("pmap.est_host_share", "pmap.shootdowns",
     lambda d: 1e3 * d["pmap.drill_shootdown_host_us"]),
)

# Traced-rep span means: metric -> span stem recorded by machbench.
SPAN_MEANS = {
    "kern.irq_deliver_us_mean": "irq.post_to_deliver",
    "vm.fault_us_mean": "vm.fault",
    "pmap.sync_us_mean": "shoot.sync",
    "pmap.responder_us_mean": "shoot.responder",
    "dev.sync_us_mean": "shoot.device_sync",
}


class BenchError(Exception):
    """A build or rep failed; the message names what."""


def is_host_metric(name):
    return (name in HOST_METRICS or ".drill_" in name
            or name.endswith("est_host_share"))


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


# ---- statistics -----------------------------------------------------------

median = statistics.median


def iqr_share(values):
    """Quartile distance over the median, as statistics.quantiles gives it."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    m = median(values)
    return (q[2] - q[0]) / m if m else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ---- building and running reps -------------------------------------------

def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def parse_rep_line(stdout):
    """The last non-empty stdout line of a machbench process, as JSON."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("machbench printed nothing")
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"machbench printed malformed JSON: {e}")
    if not isinstance(rep, dict) or "mode" not in rep:
        raise BenchError("machbench line has no mode")
    return rep


def machbench(args, deadline=None):
    """Run one machbench process and return its JSON line."""
    timeout = (None if deadline is None
               else max(1.0, deadline - time.monotonic()))
    what = "machbench " + " ".join(args)
    try:
        proc = subprocess.run([str(BINARY), *args], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError(f"{what} exited {proc.returncode}")
    return parse_rep_line(proc.stdout)


def run_rep(mode, workload, seed, deadline=None):
    """One rep and the reference loop right after it (rep["ref_s"])."""
    rep = machbench([mode, workload, str(seed)], deadline)
    rep["ref_s"] = machbench(["ref"], deadline)["ref_s"]
    return rep


def untraced(reps):
    return [rep for rep in reps if rep["mode"] == "rep"]


def traced(reps):
    return [rep for rep in reps if rep["mode"] == "traced"]


# ---- correctness ----------------------------------------------------------

def check_reps(reps):
    """Failed-check names and the failed-op count over @p reps.

    Every op of a rep counts as failed when the rep failed a check or its
    digest differs from the first rep's; traced reps must match too,
    because recording is timing-neutral. Failed checker trials count one
    by one.
    """
    checks = []
    failed = 0
    reference = reps[0]["digest"]
    for rep in reps:
        rep_failed = rep["failed"]
        if rep["failed_checks"]:
            checks.extend(rep["failed_checks"].split(","))
            rep_failed = rep["attempted"]
        if rep["digest"] != reference:
            checks.append("digest_traced" if rep["mode"] == "traced"
                          else "digest_across_reps")
            rep_failed = rep["attempted"]
        failed += rep_failed
    return sorted(set(checks)), failed


# ---- metrics --------------------------------------------------------------

def e2e_values(reps):
    """Every end-to-end metric over untraced reps: the fastest rep's
    times (see the module docstring), wall time rescaled to the
    reference host's speed by the fastest reference loop, and the
    median peak RSS."""
    wall = min(rep["wall_s"] for rep in reps)
    ref = min(rep["ref_s"] for rep in reps)
    return {"wall_ref_s": wall / ref * REFERENCE_LOOP_S,
            "setup_s": min(rep["setup_s"] for rep in reps),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps])}


def layer_values(reps, drills):
    """Per-layer metrics from traced and untraced reps and the drills.
    Simulated values are identical in every rep of a seed."""
    first = traced(reps)[0]
    out = {}
    for name in ("sim_runtime_s", "shootdown_p50_us", "shootdown_p99_us",
                 "shootdown_p999_us", "shootdown_overhead_pct",
                 "request_mean_us"):
        out[name] = first[name]
    out["coverage_buckets"] = first["chk.coverage_buckets"]
    for name, value in first.items():
        if name.split(".")[0] in ("sim", "hw", "kern", "vm", "pmap", "numa",
                                  "dev", "serve", "chk"):
            out[name] = value
    del out["chk.coverage_buckets"]
    for name, stem in SPAN_MEANS.items():
        out[name] = ratio(first[f"span.{stem}.sum_us"],
                          first[f"span.{stem}.count"])

    wall = min(rep["wall_s"] for rep in untraced(reps))
    out["wall_s"] = wall
    out["trials_per_s"] = ratio(first["chk.trials"], wall)
    out["sim.host_ns_per_event"] = ratio(wall * 1e9, first["sim.events"])
    out["chk.host_ms_per_trial"] = ratio(wall * 1e3, first["chk.trials"])
    traced_wall = min(rep["wall_s"] for rep in traced(reps))
    out["obs.stats_overhead_pct"] = 100.0 * (traced_wall / wall - 1)

    for name, value in drills.items():
        if ".drill_" in name:
            out[name] = value
    explained = 0.0
    for share, count, ns_per_op in ESTIMATES:
        out[share] = ratio(ns_per_op(drills) * out[count], wall * 1e9)
        explained += out[share]
    out["residual_host_share"] = 1.0 - explained
    return out


# ---- driver mode ----------------------------------------------------------

def driver_run(workload, seed, seconds, trace):
    """One measured run; returns the result object the driver reads.

    Trace 1 alternates traced and untraced reps, so the stats overhead
    compares the fastest of each from the same stretch of time.
    """
    spec = load_spec()
    build()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    drills = machbench(["drills"], deadline) if trace else None
    reps = []
    while True:
        rep_start = time.monotonic()
        mode = "traced" if trace and len(reps) % 2 == 0 else "rep"
        reps.append(run_rep(mode, workload, seed, deadline))
        elapsed = time.monotonic() - start
        enough = len(reps) >= (2 if trace else MIN_REPS)
        if enough and elapsed + (time.monotonic() - rep_start) > seconds:
            break

    checks, failed = check_reps(reps)
    if trace:
        values = layer_values(reps, drills)
        wanted = spec["per_layer"]
    else:
        values = e2e_values(reps)
        wanted = spec["end_to_end"]
    for name in checks:
        sys.stderr.write(f"run.py: check failed: {name}\n")
    return {
        "correct": not checks,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


# ---- full set -------------------------------------------------------------

def first_match(path, pattern):
    """First group of regex @p pattern in file @p path, or None."""
    try:
        m = re.search(pattern, Path(path).read_text(), re.M)
    except OSError:
        return None
    return m.group(1).strip() if m else None


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(seed):
    """Host, toolchain and source identity of a result set."""
    compiler = next(BUILD_DIR.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"),
                    None)
    cache = BUILD_DIR / "CMakeCache.txt"
    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_match("/proc/cpuinfo", r"^model name\s*:(.*)$")
        or platform.processor(),
        "compiler_id": compiler and first_match(
            compiler, r'CMAKE_CXX_COMPILER_ID "([^"]*)"'),
        "compiler_version": compiler and first_match(
            compiler, r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"'),
        "build_type": first_match(cache, r"^CMAKE_BUILD_TYPE:\w+=(.*)$"),
        "build_flags": first_match(
            cache, r"^CMAKE_CXX_FLAGS_RELEASE:\w+=(.*)$"),
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def summarize(values, unit):
    vals = values if isinstance(values, list) else [values]
    return {"value": median(vals), "unit": unit, "iqr_share": iqr_share(vals),
            "n": len(vals), "values": vals}


def suite(seed, out_path):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    build()
    rounds = {w: [] for w in WORKLOADS}
    for _ in range(SUITE_ROUNDS):
        for w in WORKLOADS:  # Round-robin: host drift hits all alike.
            rounds[w].append([run_rep(mode, w, seed) for mode in
                              ["traced"] + ["rep"] * REPS_PER_ROUND])
    drills = machbench(["drills"])
    held_out = {w: run_rep("rep", w, HELD_OUT_SEED) for w in WORKLOADS}

    result = {"fingerprint": fingerprint(seed), "seed": seed,
              "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    all_checks = []
    for w in WORKLOADS:
        reps = [rep for group in rounds[w] for rep in group]
        checks, failed = check_reps(reps)
        if held_out[w]["digest"] == reps[0]["digest"]:
            checks.append("held_out_seed_digest")
        attempted = sum(rep["attempted"] for rep in reps)
        per_round = [e2e_values(untraced(group)) for group in rounds[w]]
        metrics = {k: summarize([v[k] for v in per_round], units[k])
                   for k in per_round[0]}
        for k, v in layer_values(reps, drills).items():
            metrics[k] = summarize(v, units[k])
        metrics["failed_share"] = summarize(ratio(failed, attempted),
                                            "ratio")
        result["workloads"][w] = {
            "params": reps[0]["params"], "checks_failed": checks,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "reps": reps, "drills": drills, "held_out": held_out[w],
        }
        all_checks += [f"{w}:{c}" for c in checks]

    for w, data in result["workloads"].items():
        print(f"\n{w}  ({data['attempted']} ops, digest "
              f"{data['reps'][0]['digest']})")
        for name, m in data["metrics"].items():
            spread = (f"  iqr {100 * m['iqr_share']:.1f}% n={m['n']}"
                      if m["n"] > 1 else "")
            print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}{spread}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out_path}")
    for c in all_checks:
        print(f"check failed: {c}")
    return 1 if all_checks else 0


# ---- comparing two sets ---------------------------------------------------

def agree(a, b, spec):
    """(workload, metric, verdict, detail) rows for two result.json sets.

    Exact metrics must be equal. A bounded host metric agrees when the
    medians differ by at most its bound, and is unresolved when either
    set's quartile spread exceeds the bound. Host metrics without a bound
    are not compared. Any failed op makes the workload disagree.
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    if a.get("seed") != b.get("seed"):
        rows.append(("*", "seed", "differ",
                     f"{a.get('seed')} vs {b.get('seed')}"))
    for w in sorted(set(a["workloads"]) | set(b["workloads"])):
        if w not in a["workloads"] or w not in b["workloads"]:
            rows.append((w, "*", "differ", "workload missing in one set"))
            continue
        ma = a["workloads"][w]["metrics"]
        mb = b["workloads"][w]["metrics"]
        for name in sorted(set(ma) | set(mb)):
            if name not in ma or name not in mb:
                rows.append((w, name, "differ", "missing in one set"))
                continue
            va, vb = ma[name]["value"], mb[name]["value"]
            if name == "failed_share":
                verdict = "agree" if va == 0 and vb == 0 else "differ"
                rows.append((w, name, verdict, f"{va} vs {vb}"))
            elif not is_host_metric(name):
                rows.append((w, name, "agree" if va == vb else "differ",
                             f"{va} vs {vb}"))
            elif name in bounds:
                bound = bounds[name]
                spread = max(ma[name]["iqr_share"], mb[name]["iqr_share"])
                change = ratio(vb - va, va)
                if spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "agree" if abs(change) <= bound else "differ"
                rows.append((w, name, verdict,
                             f"{va:.6g} vs {vb:.6g} ({100 * change:+.1f}%, "
                             f"bound {100 * bound:.0f}%, iqr "
                             f"{100 * spread:.1f}%)"))
    return rows


def agree_main(path_a, path_b):
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows = agree(a, b, spec)
    for w, name, verdict, detail in rows:
        print(f"{verdict:10s} {w:18s} {name:28s} {detail}")
    bad = [r for r in rows if r[2] != "agree"]
    print(f"\n{len(rows) - len(bad)} of {len(rows)} pairs agree")
    return 1 if bad else 0


# ---- entry ----------------------------------------------------------------

def seed_arg(text):
    seed = int(text, 0)
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seconds", type=int,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BUILD_DIR / "result.json")
    ap.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    try:
        if args.agree:
            return agree_main(*args.agree)
        if args.workload:
            seconds = args.seconds or load_spec()["run_seconds"]
            result = driver_run(args.workload, args.seed, seconds,
                                args.trace)
            print(json.dumps(result))
            return 0
        return suite(args.seed, args.out)
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
