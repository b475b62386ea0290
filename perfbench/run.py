"""inidstat benchmark: one workload per call, each in fresh single-threaded processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  Human-readable lines come first (machine
record, each metric with its unit, ``latency_tail_cal`` where defined and
``failed_share``); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("certify-sweep", "monte-carlo", "cli-cold-start")
SUBCOMMANDS = ("median", "quantile", "verify-theorem", "tail-bounds",
               "simulate", "check-condition", "min-k", "oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up is timed in three fresh processes, one before the measured run, the
# measured run's own and one after it; the median is reported.  Spreading
# them over the run keeps one slow spell of the host from moving every
# sample.
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Share of Monte Carlo intervals that must cover the exact median, as in the
# acceptance suite.  A run pools few models, where 5% of them may be less
# than one, and a correct 99% interval misses about once in 100 models; so
# a run may also miss as many as a correct interval exceeds less than once
# in CI_FALSE_ALARM runs.
CI_FLOOR = 0.95
CI_MISS = 0.01
CI_FALSE_ALARM = 1e-3

# Per-layer self times that partition an op's traced time.
SELF_TIMES = (
    "pbin.tail_self_s", "ostat.cdf_self_s", "ostat.quantile_self_s", "dist.bisect_self_s",
    "dist.mixture_quantile_s", "regularity.check_s", "bounds.self_s",
    "mc.rest_s", "mc.sample_s", "mc.ci_ranks_s",
    *(f"cli.{s}_s" for s in SUBCOMMANDS), "unattributed_s",
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0, trace_out=None) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # A session of its own, so a timeout also ends the worker's children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} {mode} worker timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"{workload} {mode} worker printed no result")
    return json.loads(lines[-1])


def machine_record(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(
        versions,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        cpu=cpu,
        thread_env={v: worker_env()[v] for v in THREAD_VARS},
    )


def tail_latency(times: list[float]):
    """(value, percentile, samples beyond) at the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], p, n - rank
    return None


def allowed_misses(models: int) -> int:
    """The most intervals out of ``models`` that may miss the exact median."""
    chance = 0
    tail = 1.0  # P{more than `chance` misses} for correct intervals
    while True:
        tail -= math.comb(models, chance) * CI_MISS**chance * (1.0 - CI_MISS) ** (models - chance)
        if tail < CI_FALSE_ALARM:
            break
        chance += 1
    return max(chance, math.floor((1.0 - CI_FLOOR) * models))


def coverage_ok(covered: int, models: int) -> bool:
    return models - covered <= allowed_misses(models)


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    setups = [run_worker(args.workload, args.seed, "setup")["setup_s"]]
    res = run_worker(args.workload, args.seed, "measure", args.seconds)
    setups += [res["setup_s"], run_worker(args.workload, args.seed, "setup")["setup_s"]]
    # Every round has the same op slots with fresh inputs.  Interference from
    # other tenants of a shared host comes in spells of seconds to minutes
    # that slow every timing by up to 2.2x, as long as a run or longer.  So
    # each op time is counted in units of the calibration kernel timed next
    # to it, which the same spell slows alike; a slot's cost is the median
    # over the rounds.
    cal = [[0.5 * (a + b) for a, b in zip(points, points[1:])] for points in res["cal"]]
    cost = [statistics.median(t / c for t, c in zip(ts, cs)) for ts, cs in zip(zip(*res["rounds"]), zip(*cal))]
    # Seconds, printed for reference: a slot's best time over the rounds.
    times = [min(per_slot) for per_slot in zip(*res["rounds"])]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_1000cal": (1000.0 * len(cost) / sum(cost), "1/1000cal"),
        "latency_p50_cal": (statistics.median(cost), "cal"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    kernel = [c for points in res["cal"] for c in points]
    notes = [f"set-up samples: {', '.join(f'{s:.4f}' for s in setups)} s",
             f"ops_per_s: {len(times) / sum(times):.6g} 1/s, latency_p50_s: {statistics.median(times):.6g} s "
             f"(raw, each slot's best time)",
             f"1 cal (calibration kernel): median {statistics.median(kernel) * 1e3:.4f} ms, "
             f"range {min(kernel) * 1e3:.4f}-{max(kernel) * 1e3:.4f} ms",
             f"{len(times)} op slots, each timed in {len(res['rounds'])} rounds of fresh inputs"]
    if len(times) <= 10:
        notes.append(f"op times: {', '.join(f'{t:.4f}' for t in times)} s")
    tail = tail_latency(cost)
    if tail:
        notes.append(f"latency_tail_cal: {tail[0]:.6f} cal (p{tail[1]:g}, {tail[2]} of {len(cost)} ops beyond)")
    else:
        notes.append(f"latency_tail_cal: undefined, {len(cost)} ops is too few for {TAIL_MIN_BEYOND} beyond p50")
    notes.append(f"failed_share: {res['failed'] / res['attempted']:.6g} share "
                 f"({res['failed']} of {res['attempted']} ops)")
    problems = []
    if "ci_models" in res:
        notes.append(f"mc ci covered: {res['ci_covered']} of {res['ci_models']} models")
        if not coverage_ok(res["ci_covered"], res["ci_models"]):
            problems.append("Monte Carlo coverage below the floor")
    if res["failed"]:
        problems.append(f"{res['failed']} ops failed")
    counts = {"attempted": res["attempted"], "failed": res["failed"]}
    return metrics, dict(counts, versions=res["versions"], notes=notes), problems


def _counters(res: dict) -> dict:
    """The machine-independent part of a traced pass: calls and counts per span."""
    names = {k: (v["calls"], v["count"]) for k, v in res["trace"]["names"].items()}
    return {"names": names, "pairs": res["trace"]["pairs"]}


def per_layer(args) -> tuple[dict, dict, list[str]]:
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    a = run_worker(args.workload, args.seed, "trace", trace_out=trace_out)
    b = run_worker(args.workload, args.seed, "trace")
    c = run_worker(args.workload, args.seed, "untraced")
    names, pairs = a["trace"]["names"], a["trace"]["pairs"]

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    def ratio(x, base):
        return x / base if base else 0.0

    quantiles = get("dist.left_quantile_bisect", "calls")
    models = get("bounds.verify_theorem", "calls")
    untraced = c["ops"]["times"]
    traced = a["ops"]["times"]
    rate_untraced = len(untraced) / sum(untraced)
    rate_traced = len(traced) / sum(traced)
    m = {
        "pbin.tail_calls": (get("pbin.tail_at_least", "calls"), "count"),
        "pbin.tail_self_s": (get("pbin.tail_at_least", "self_s"), "s"),
        "pbin.dp_cells": (get("pbin.tail_at_least", "count"), "count"),
        "ostat.cdf_evals": (get("ostat.kmin_cdf", "calls") + get("ostat.kmin_strict_cdf", "calls"), "count"),
        "ostat.quantiles": (quantiles, "count"),
        "ostat.cdf_evals_per_quantile": (
            ratio(pairs.get("ostat.kmin_cdf<dist.left_quantile_bisect", 0), quantiles), "evals/quantile"),
        "ostat.cdf_self_s": (get("ostat.kmin_cdf", "self_s") + get("ostat.kmin_strict_cdf", "self_s"), "s"),
        "ostat.quantile_self_s": (get("ostat.kmin_median", "self_s"), "s"),
        "dist.bisect_self_s": (get("dist.left_quantile_bisect", "self_s"), "s"),
        "dist.mixture_quantile_calls": (get("dist.mixture_quantile", "calls"), "count"),
        "dist.mixture_quantile_s": (get("dist.mixture_quantile", "self_s"), "s"),
        "regularity.certificates": (get("regularity.check_condition", "calls"), "count"),
        "regularity.components_certified": (get("bounds.verify_theorem", "count"), "count"),
        "regularity.grid_points": (get("regularity.check_condition", "count"), "count"),
        "regularity.check_s": (get("regularity.check_condition", "self_s"), "s"),
        "bounds.self_s": (sum(get(f"bounds.{f}", "self_s")
                              for f in ("verify_theorem", "verify_lower_tail", "verify_upper_tail")), "s"),
        "bounds.tail_rows": (get("bounds.verify_lower_tail", "count") + get("bounds.verify_upper_tail", "count"),
                             "count"),
        "bounds.q_per_model": (ratio(get("dist.mixture_quantile", "calls"), models), "q/model"),
        "mc.simulate_s": (get("mc.simulate_median", "total_s"), "s"),
        "mc.sample_s": (get("mc.sample", "self_s"), "s"),
        "mc.ci_ranks_s": (get("mc.median_ci_ranks", "self_s"), "s"),
        "mc.rest_s": (get("mc.simulate_median", "self_s"), "s"),
        "mc.variates": (get("mc.simulate_median", "count"), "count"),
        "mc.ci_covered": (ratio(a.get("ci_covered", 0), a.get("ci_models", 0)), "share"),
        "cli.import_s": (statistics.median([r["import_s"] for r in (a, b, c)]), "s"),
        **{f"cli.{s}_s": (get(f"cli.{s}", "self_s"), "s") for s in SUBCOMMANDS},
        "cli.exit_mismatch": (a.get("exit_mismatch", 0), "count"),
        "unattributed_s": (get("op", "self_s"), "s"),
        "trace.op_s": (get("op", "total_s"), "s"),
        "trace.ops_per_s_delta": (rate_traced - rate_untraced, "1/s"),
        "trace.overhead_share": (1.0 - rate_traced / rate_untraced, "share"),
    }
    problems = []
    accounted = sum(m[k][0] for k in SELF_TIMES)
    if not math.isclose(accounted, m["trace.op_s"][0], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"self times add up to {accounted} s, not the traced op time {m['trace.op_s'][0]} s")
    if _counters(a) != _counters(b):
        problems.append("work counters differ between two traced runs of the same seed")
    if not (a["ops"]["digests"] == b["ops"]["digests"] == c["ops"]["digests"]):
        problems.append("results differ between runs of the same ops")
    if "ci_models" in a and not coverage_ok(a["ci_covered"], a["ci_models"]):
        problems.append("Monte Carlo coverage below the floor")
    failed = sum(r["ops"]["failed"] for r in (a, b, c))
    attempted = sum(r["ops"]["attempted"] for r in (a, b, c))
    if failed:
        problems.append(f"{failed} ops failed")
    notes = [
        f"trace ops per process: {len(traced)}; spans written to {os.path.relpath(trace_out, ROOT)}",
        f"self times + unattributed_s = {accounted:.6f} s of {m['trace.op_s'][0]:.6f} s traced op time",
        f"tracing overhead: {rate_traced:.6g} traced vs {rate_untraced:.6g} untraced ops/s",
    ]
    if a["probes_missing"]:
        # A renamed or removed global reads as zero in its layer; not a failure.
        notes.append(f"probes not installed: {', '.join(a['probes_missing'])}")
    return m, {"attempted": attempted, "failed": failed, "versions": a["versions"], "notes": notes}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "inidstat")):
        print(f"error: no package source under {os.path.join(ROOT, 'src', 'inidstat')}", file=sys.stderr)
        return 2
    try:
        metrics, info, problems = (per_layer if args.trace else end_to_end)(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"machine: {json.dumps(machine_record(info['versions']))}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for note in info["notes"]:
        print(f"  {note}")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
