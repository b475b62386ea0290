"""The benchmark's workloads.

A workload draws the inputs of a round from the seed and the round number:
``draw(r)`` builds them and returns the round's ops, in slot order.  Every
round has the same slots (a stratum of sizes, a subcommand, ...) with fresh
inputs, so no call ever sees an input that an earlier call saw, and a cache
that outlives a call cannot make a later round faster than the first.  The
constructor draws round 0; that, with the import, is the set-up the benchmark
times.  ``run`` runs one op of the current round and ``check`` checks its
result against ``reference.py``, closed forms or values recorded in ``draw``.
``trace_ops`` is the subset of round 0 that the traced run repeats, so that
its work counters can be compared exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

import models
import reference
from inidstat import bounds, mc, ostat, regularity
from inidstat.cli import parse_model_spec
from inidstat.dist import HalfGaussian, Uniform01
from inidstat.ostat import OrderStatModel

K_SHARED = 3.0


def _digest(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()


def _rng(seed: int, workload: str, round_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, int(hashlib.sha1(workload.encode()).hexdigest()[:8], 16), round_no])


class CertifySweep:
    """verify_theorem plus both tail checks at K = 3 on pool models.

    The only workload where ``regularity`` and ``bounds`` do real work.
    """

    name = "certify-sweep"
    N_MAX = 500

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.ops = self.draw(0)
        self.trace_ops = self.ops

    def draw(self, round_no: int) -> list:
        rng = _rng(self.seed, self.name, round_no)
        # 50 models, at the centres of 10 slices of n by 5 slices of k/n, so
        # the work of a round is nearly the same in every round and seed.
        self.sizes = models.grid_sizes(10, 5, self.N_MAX)
        self.specs = [models.pool_components(rng, n) for n, _ in self.sizes]
        self.comps = [models.build(s) for s in self.specs]
        return list(range(len(self.sizes)))

    def run(self, i):
        m = OrderStatModel(self.comps[i], self.sizes[i][1])
        return (
            bounds.verify_theorem(m, K_SHARED),
            bounds.verify_lower_tail(m, K_SHARED),
            bounds.verify_upper_tail(m, K_SHARED),
        )

    def digest(self, result) -> str:
        return _digest(result)

    def check(self, i, result) -> bool:
        report, lower, upper = result
        specs, k = self.specs[i], self.sizes[i][1]
        n = len(specs)
        # Recorded verdicts: every pool family certifies at K = 3, so the
        # sandwich and all twenty tail rows pass.
        if report.verdict != "pass" or not all(c.passed for c in report.certificates):
            return False
        rows = list(lower) + list(upper)
        if len(rows) != 20 or any(r.verdict != "pass" for r in rows):
            return False
        if not reference.is_left_quantile(lambda t: reference.mixture_cdf(specs, t), report.q, (k - 0.5) / n):
            return False
        thresholds = [r.threshold for r in rows]
        below = reference.kmin_cdf(specs, k, thresholds)
        for r, cdf in zip(rows, below):
            # Continuous laws: P{X < t} = P{X <= t}.
            exact = cdf if r.side == "lower" else 1.0 - cdf
            if not abs(r.exact_prob - exact) <= reference.PROB_TOL:
                return False
        return reference.is_left_quantile(lambda t: reference.kmin_cdf(specs, k, t), report.med, 0.5)


class MonteCarlo:
    """simulate_median at ci 0.99: one n = 400 model and four small pool models.

    At small n the per-replicate generator dominates; the n = 400 model
    loads inverse transform, selection and memory.  The small models run
    25k replicates, so that their ops are short enough to be timed in
    several rounds.
    """

    name = "monte-carlo"
    SMALL_MODELS = 4
    SMALL_N_MAX = 30
    SMALL_R = 25_000
    LARGE_N = 400
    LARGE_R = 50_000
    CI_LEVEL = 0.99

    def __init__(self, seed: int, root: str):
        self.seed = seed
        # Whether each model's interval covered its exact median, per
        # (round, model), pooled over the rounds of a run.
        self.covered: dict = {}
        self.ops = self.draw(0)
        self.trace_ops = self.ops[:2]

    def draw(self, round_no: int) -> list:
        rng = _rng(self.seed, self.name, round_no)
        specs = [(models.pool_components(rng, self.LARGE_N), self.LARGE_N // 2, self.LARGE_R)]
        for n, k in models.grid_sizes(self.SMALL_MODELS, 1, self.SMALL_N_MAX):
            specs.append((models.pool_components(rng, n), k, self.SMALL_R))
        self.round_no = round_no
        self.models = [OrderStatModel(models.build(s), k) for s, k, _ in specs]
        self.replicates = [R for _, _, R in specs]
        self.sim_seeds = [int(x) for x in rng.integers(0, 2**63, size=len(specs))]
        self.exact = [ostat.kmin_median(m) for m in self.models]
        return list(range(len(specs)))

    def run(self, i):
        return mc.simulate_median(self.models[i], self.replicates[i], self.sim_seeds[i], self.CI_LEVEL)

    def digest(self, res) -> str:
        return repr((res.replicates, res.estimate, res.ci_low, res.ci_high, res.seed))

    def check(self, i, res) -> bool:
        # Coverage is counted, not failed: a stream change moves single misses.
        self.covered[self.round_no, i] = res.ci_low <= self.exact[i] <= res.ci_high
        values = (res.estimate, res.ci_low, res.ci_high)
        return (
            all(math.isfinite(v) for v in values)
            and res.ci_low <= res.estimate <= res.ci_high
            and res.replicates == self.replicates[i]
        )


class CliColdStart:
    """Every subcommand as a fresh ``python -m inidstat`` process on tiny inputs.

    The only workload that measures the CLI and the package import.
    """

    name = "cli-cold-start"
    SUBCOMMANDS = (
        "median", "quantile", "verify-theorem", "tail-bounds",
        "simulate", "check-condition", "min-k", "oracle",
    )
    SIM_R = 1000
    TIMEOUT_S = 120
    ops_in_children = True

    def __init__(self, seed: int, root: str):
        self.seed = seed
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(root, ".bench_out"))
        self.root = root
        # Subcommands whose exit code differed from the expected one.
        self.exit_mismatch = 0
        self.ops = self.draw(0)
        self.trace_ops = self.ops

    def draw(self, round_no: int) -> list:
        rng = _rng(self.seed, self.name, round_no)
        scale = lambda: float(10.0 ** rng.uniform(-2.0, 2.0))  # noqa: E731

        u_scale = scale()
        rates = [float(r) for r in rng.uniform(0.5, 2.0, size=2)]
        r = float(rng.uniform(0.05, 0.95))
        self.mixed_specs = [(models.UNIFORM, scale(), 1.0), (models.EXPONENTIAL, scale(), 1.0),
                            (models.HALF_GAUSSIAN, scale(), 1.0)]
        fam = {models.UNIFORM: "uniform01", models.EXPONENTIAL: "exponential",
               models.HALF_GAUSSIAN: "half_gaussian"}
        mixed = {"k": 2, "components": [{"family": fam[f], "scale": s} for f, s, _ in self.mixed_specs]}
        files = {
            "uniform3": {"k": 2, "components": [{"family": "uniform01", "scale": u_scale, "repeat": 3}]},
            "exp2": {"k": 1, "components": [{"family": "exponential", "params": {"rate": x}} for x in rates]},
            "mixed": mixed,
        }
        paths = {}
        for key, spec in files.items():
            paths[key] = os.path.join(self.workdir, f"{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        law = ["--family", "half_gaussian", "--scale", repr(scale())]
        min_k_law = ["--family", "uniform01", "--scale", repr(scale())]
        sim_seed = int(rng.integers(0, 2**31))
        self.argv = {
            "median": ["--model", paths["uniform3"]],
            "quantile": ["--model", paths["exp2"], "--r", repr(r)],
            "verify-theorem": ["--model", paths["mixed"], "--K", "3"],
            "tail-bounds": ["--model", paths["mixed"], "--K", "3"],
            "simulate": ["--model", paths["mixed"], "--replicates", str(self.SIM_R), "--seed", str(sim_seed)],
            "check-condition": law + ["--K", "3"],
            "min-k": min_k_law,
            "oracle": ["--seed", str(int(rng.integers(0, 2**31))), "--trials", "5"],
        }

        # Reference outputs, computed in-process from the same inputs, and
        # closed forms: the median of the 2nd of 3 uniforms is half the
        # scale, and the r-quantile of the minimum of exponentials is
        # -ln(1 - r) / (sum of rates).
        model = parse_model_spec(mixed)
        sim = mc.simulate_median(model, self.SIM_R, sim_seed, 0.99)
        exact = ostat.kmin_median(model)
        sim_payload = dict(sim.to_dict(), exact_median=exact, ci_covers_exact=sim.ci_low <= exact <= sim.ci_high)
        sim_payload.pop("elapsed")
        self.expected = {
            "median": (0, {"n": 3, "k": 2, "median": 0.5 * u_scale}),
            "quantile": (0, {"n": 2, "k": 1, "r": r, "quantile": -math.log1p(-r) / sum(rates)}),
            "verify-theorem": (0, bounds.verify_theorem(model, K_SHARED).to_dict()),
            "tail-bounds": (0, [row.to_dict() for row in
                                bounds.verify_lower_tail(model, K_SHARED) + bounds.verify_upper_tail(model, K_SHARED)]),
            "simulate": (0 if sim_payload["ci_covers_exact"] else 1, sim_payload),
            "check-condition": (0, regularity.check_condition(HalfGaussian(scale=float(law[3])), K_SHARED).to_dict()),
            "min-k": (0, regularity.find_min_K(Uniform01(scale=float(min_k_law[3]))).to_dict()),
            "oracle": (0, None),
        }
        self.expected = json.loads(json.dumps(self.expected))
        return list(self.SUBCOMMANDS)

    def calibration_s(self) -> float:
        """Time of a fresh Python process that imports numpy.

        The ops are process starts, which a slow spell of the host slows
        differently from work inside one process; this kernel is one too,
        and its code never changes with the package.
        """
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, cwd=self.root, timeout=self.TIMEOUT_S)
        return perf_counter() - t0

    def invoke(self, sub: str):
        # The worker's environment already has PYTHONPATH=src and one thread.
        proc = subprocess.run(
            [sys.executable, "-m", "inidstat", sub, *self.argv[sub], "--format", "json"],
            capture_output=True, text=True, cwd=self.root, timeout=self.TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def run(self, sub):
        code, out = self.invoke(sub)
        payload = json.loads(out) if out.strip() else None
        if sub == "simulate" and isinstance(payload, dict):
            payload.pop("elapsed", None)
        return code, payload

    def digest(self, result) -> str:
        return _digest(result)

    def check(self, sub, result) -> bool:
        code, payload = result
        want_code, want = self.expected[sub]
        self.exit_mismatch += code != want_code
        if code != want_code or payload is None:
            return False
        if sub == "median":
            return abs(payload["median"] - want["median"]) <= 1e-10 * want["median"]
        if sub == "quantile":
            return payload["r"] == want["r"] and abs(payload["quantile"] - want["quantile"]) <= 1e-9 * want["quantile"]
        if sub == "oracle":
            return payload["verdict"] == "pass"
        if sub == "tail-bounds":
            cdf = reference.kmin_cdf(self.mixed_specs, 2, [row["threshold"] for row in payload])
            for row, c in zip(payload, cdf):
                exact = c if row["side"] == "lower" else 1.0 - c
                if not abs(row["exact_prob"] - exact) <= reference.PROB_TOL:
                    return False
        return payload == want

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CertifySweep, MonteCarlo, CliColdStart)}


def install_probes(tracer, workload) -> None:
    """Wrap the module globals the package calls through, and the entry points."""

    def dp_cells(args, kwargs, result):
        sv, k = args[0], int(args[1])
        n = sv.n if hasattr(sv, "n") else len(sv)
        return n * min(k, n - k + 1) if 1 <= k <= n else 0

    tracer.patch(ostat, "tail_at_least", "pbin.tail_at_least", dp_cells)
    tracer.patch(ostat, "kmin_cdf", "ostat.kmin_cdf")
    tracer.patch(ostat, "left_quantile_bisect", "dist.left_quantile_bisect")
    tracer.patch(bounds, "check_condition", "regularity.check_condition", lambda a, kw, r: r.n_points)
    tracer.patch(bounds, "kmin_median", "ostat.kmin_median")
    tracer.patch(bounds, "averaged_quantile", "dist.mixture_quantile")
    tracer.patch(bounds, "kmin_cdf", "ostat.kmin_cdf")
    tracer.patch(bounds, "kmin_strict_cdf", "ostat.kmin_strict_cdf")
    tracer.patch(bounds, "verify_theorem", "bounds.verify_theorem", lambda a, kw, r: a[0].n)
    tracer.patch(bounds, "verify_lower_tail", "bounds.verify_lower_tail", lambda a, kw, r: len(r))
    tracer.patch(bounds, "verify_upper_tail", "bounds.verify_upper_tail", lambda a, kw, r: len(r))
    tracer.patch(mc, "simulate_median", "mc.simulate_median", lambda a, kw, r: a[1] * a[0].n)
    tracer.patch(mc, "sample", "mc.sample")
    tracer.patch(mc, "median_ci_ranks", "mc.median_ci_ranks")
    if isinstance(workload, CliColdStart):
        tracer.patch(workload, "invoke", lambda a: f"cli.{a[0]}")
