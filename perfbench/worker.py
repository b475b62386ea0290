"""One workload in a fresh process: set up, then measure or trace.

Run by ``run.py``, which reads the JSON object this prints as its last line.
Modes:

- ``setup``: set up only and report the set-up time;
- ``measure``: run rounds of fresh inputs for about ``--seconds`` of op time,
  with the calibration kernel timed next to every op;
- ``trace``: the workload's trace ops once each, traced;
- ``untraced``: the same ops once each without tracing, for the overhead.

Each process sees every input once, so that a cache that outlives a call
changes neither the counters nor the times of one traced process against
another.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


# A measured run times every op slot at least this many times.
MIN_ROUNDS = 2

_CAL_X = [0.1 + 0.9 * i / 255 for i in range(256)]


def calibration_s() -> float:
    """Time of a fixed kernel of interpreted arithmetic and small numpy calls.

    It takes about 2 ms on an idle 2 GHz Xeon.  Run next to an op, it tells
    how fast the machine is running just then; its code never changes with
    the package.
    """
    import numpy as np

    x = np.asarray(_CAL_X)
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    for _ in range(100):
        (np.exp(-x) * x).sum()
    return perf_counter() - t0


def run_round(wl, ops, tracer=None, first_id=0, calibrate=False) -> dict:
    """Run the ops once each and return their times, failures and digests.

    With ``calibrate``, the workload's calibration kernel (``calibration_s``
    here unless the workload has its own) runs before the first op and after
    each op, outside the op times, and ``cal`` holds its times, one more
    than there are ops.  An op that raises or fails its check counts as
    failed.
    """
    kernel = getattr(wl, "calibration_s", calibration_s)
    times, digests = [], {}
    points = [kernel()] if calibrate else []
    failed = 0
    for j, op in enumerate(ops):
        t0 = perf_counter()
        try:
            result = tracer.run_op(first_id + j, wl.run, op) if tracer else wl.run(op)
        except Exception:
            result = None
            traceback.print_exc(file=sys.stderr)
        times.append(perf_counter() - t0)
        if result is None:
            failed += 1
        else:
            failed += not check(wl, op, result, digests)
        if calibrate:
            points.append(kernel())
    return {"times": times, "cal": points, "attempted": len(ops), "failed": failed, "digests": digests}


def check(wl, op, result, digests) -> bool:
    """Check one op's result and record its digest."""
    try:
        ok = wl.check(op, result)
    except Exception:
        ok = False
        traceback.print_exc(file=sys.stderr)
    digests[repr(op)] = wl.digest(result)
    if not ok:
        print(f"check failed: {wl.name} op {op!r}", file=sys.stderr)
    return ok



def measure(wl, budget_s: float) -> dict:
    """Run rounds of fresh inputs for about ``budget_s`` seconds of op time.

    Round 0 is the one drawn in set-up; each later round is drawn before it
    starts, outside the timed ops.  The run takes at least MIN_ROUNDS whole
    rounds and stops at the round end nearest the budget.
    """
    rounds, cal = [], []
    failed = 0
    ops = wl.ops
    while True:
        if rounds:
            ops = wl.draw(len(rounds))
        res = run_round(wl, ops, calibrate=True)
        rounds.append(res["times"])
        cal.append(res["cal"])
        failed += res["failed"]
        if len(rounds) == 1:
            # Memory the allocator kept from one round can add to the next
            # round's peak; report the peak through the first round.
            peak_rss_mb = peak_rss_kb(wl) / 1024.0
        spent = sum(map(sum, rounds))
        if len(rounds) >= MIN_ROUNDS and spent + 0.5 * spent / len(rounds) >= budget_s:
            break
    return {"rounds": rounds, "cal": cal, "attempted": sum(map(len, rounds)), "failed": failed,
            "peak_rss_mb": peak_rss_mb}


def peak_rss_kb(wl) -> int:
    """Peak resident memory so far, in KiB on Linux; a workload whose ops
    are child processes reports the largest of them."""
    who = resource.RUSAGE_CHILDREN if getattr(wl, "ops_in_children", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "untraced"), required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    t0 = perf_counter()
    import inidstat  # noqa: F401

    import_s = perf_counter() - t0
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    out = {"setup_s": perf_counter() - START, "import_s": import_s}
    try:
        if args.mode == "measure":
            out.update(measure(wl, args.seconds))
        elif args.mode == "trace":
            tracer = Tracer()
            workloads.install_probes(tracer, wl)
            try:
                out["ops"] = run_round(wl, wl.trace_ops, tracer)
            finally:
                tracer.restore()
            out["trace"] = tracer.summary()
            out["probes_missing"] = sorted(tracer.missing)
            if args.trace_out:
                tracer.dump(args.trace_out)
        elif args.mode == "untraced":
            out["ops"] = run_round(wl, wl.trace_ops)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    if hasattr(wl, "covered"):
        out["ci_covered"] = sum(wl.covered.values())
        out["ci_models"] = len(wl.covered)
    if hasattr(wl, "exit_mismatch"):
        out["exit_mismatch"] = wl.exit_mismatch
    out["versions"] = {
        "python": platform.python_version(),
        **{m: getattr(sys.modules.get(m), "__version__", "not imported") for m in ("numpy", "scipy")},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
