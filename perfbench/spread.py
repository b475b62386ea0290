"""Run-to-run spread of the end-to-end metrics, against the bounds.

Runs ``run.py`` once per seed for each workload and reports, per metric, the
median, the quartile spread as a share of the median (from
``statistics.quantiles(values, n=4)``) and the metric's bound from
BENCHMARK.json.  A benchmark is steady when each spread except that of
``setup_s`` is below a third of its bound.

    python3 perfbench/spread.py --runs 10 --first-seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for wl in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *bench["command"][1:], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{wl} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                return 1
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{wl} seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = k == "setup_s" or spread < bounds[k] / 3.0
            steady &= ok
            print(f"  {wl:18s} {k:14s} median {med:.5g}  spread {spread:.3f}  bound {bounds[k]}"
                  f"{'' if ok else '  NOT STEADY'}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
