"""Command-line front end.

Subcommands delegate 1:1 to the library modules.  Each hands its result to
one writer, ``_emit``, as a JSON payload, CSV records under named columns and
a human table, and ``--format`` picks which is written: table (default), csv
or json.  Exit codes: 0 all verdicts pass, 1 at least one verdict failed,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds, mc, ostat, pbin, regularity
from .dist import (
    Atomic,
    Distribution,
    Exponential,
    HalfGaussian,
    ParetoPower,
    PiecewiseLinearCdf,
    Uniform01,
)
from .ostat import OrderStatModel

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_FAMILIES = {
    "uniform01": Uniform01,
    "pareto_power": ParetoPower,
    "exponential": Exponential,
    "half_gaussian": HalfGaussian,
    "piecewise_linear": PiecewiseLinearCdf,
    "atomic": Atomic,
}

KNOWN_FAMILIES = tuple(sorted(_FAMILIES))


def _shape_params(cls) -> tuple[str, ...]:
    # A family's parameters are its dataclass fields other than the scale.
    return tuple(f.name for f in dataclasses.fields(cls) if f.name != "scale")


def build_distribution(family: str, params: dict | None = None, scale: float = 1.0) -> Distribution:
    """Construct a component law from its spec-file description.

    Parameters left out take the family's defaults; the laws check and
    convert their own values, (t, F) knots and (value, weight) atoms.
    """
    params = dict(params or {})
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; known families: {', '.join(KNOWN_FAMILIES)}")
    cls = _FAMILIES[family]
    allowed = _shape_params(cls)
    for key in params:
        if key not in allowed:
            raise ValueError(f"unknown parameter {key!r} for family {family!r}; allowed: {allowed or '()'}")
    return cls(**params, scale=scale)


def parse_model_spec(obj) -> OrderStatModel:
    """Validate a decoded model-spec document and expand it into a model."""
    if not isinstance(obj, dict):
        raise ValueError("model spec must be a JSON object")
    extra = set(obj) - {"k", "components"}
    if extra:
        raise ValueError(f"unknown model-spec keys: {sorted(extra)}")
    if "k" not in obj or "components" not in obj:
        raise ValueError('model spec needs "k" and "components"')
    comps_in = obj["components"]
    if not isinstance(comps_in, list) or not comps_in:
        raise ValueError('"components" must be a non-empty list')
    components: list[Distribution] = []
    for i, entry in enumerate(comps_in):
        if not isinstance(entry, dict):
            raise ValueError(f"component #{i} must be an object")
        extra = set(entry) - {"family", "params", "scale", "repeat"}
        if extra:
            raise ValueError(f"component #{i}: unknown keys {sorted(extra)}")
        if "family" not in entry:
            raise ValueError(f'component #{i}: missing "family"')
        repeat = entry.get("repeat", 1)
        if not isinstance(repeat, int) or isinstance(repeat, bool) or repeat < 1:
            raise ValueError(f"component #{i}: repeat must be an integer >= 1, got {repeat!r}")
        d = build_distribution(entry["family"], entry.get("params"), entry.get("scale", 1.0))
        components.extend([d] * repeat)
    return OrderStatModel(components=tuple(components), k=obj["k"])


def load_model(path: str) -> OrderStatModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read model spec {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"model spec {path!r} is not valid JSON: {exc}") from exc
    return parse_model_spec(obj)


def parse_grid(text: str | None) -> regularity.GridSpec:
    if text is None:
        return regularity.DEFAULT_GRID
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be tmin:tmax:ppd, got {text!r}")
    try:
        return regularity.GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from exc


def _fmt(x) -> str:
    # 17 significant digits round-trips any double exactly.
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(args, code: int, payload, columns: str, records, table) -> int:
    """Write the result in the chosen format and return the exit ``code``.

    JSON is ``payload``.  CSV has the space-separated ``columns`` as its
    header, then one line per record (a dict).  The table is ``table`` itself
    if it is a string, else its (label, value) pairs in two aligned columns.
    CSV and table values are written by ``_fmt``.
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        names = columns.split()
        lines = [",".join(names), *(",".join(_fmt(r[name]) for name in names) for r in records)]
        text = "\n".join(lines) + "\n"
    elif isinstance(table, str):
        text = table
    else:
        width = max(len(label) for label, _ in table)
        text = "\n".join(f"{label.ljust(width)}  {_fmt(v)}" for label, v in table) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _family_from_args(args) -> Distribution:
    # Every family's flags are gathered, so that a flag of another family is
    # reported as an unknown parameter.  The pair lists come as JSON text.
    names = dict.fromkeys(name for cls in _FAMILIES.values() for name in _shape_params(cls))
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    for name, v in params.items():
        try:
            params[name] = json.loads(v) if isinstance(v, str) else v
        except json.JSONDecodeError as exc:
            raise ValueError(f"--{name} {v!r} is not valid JSON: {exc}") from exc
    return build_distribution(args.family, params, args.scale)


def _cmd_check_condition(args) -> int:
    d = _family_from_args(args)
    grid = parse_grid(args.grid)
    # One evaluation of the law gives both the certificate and its rows.
    cert, t, lhs, rhs = regularity._pointwise_certificate(d, args.K, grid, args.form)
    margin = lhs - rhs
    verdicts = np.where(regularity._holds(margin), "pass", "fail")
    columns = "t lhs rhs margin verdict"
    rows = zip(t.tolist(), lhs.tolist(), rhs.tolist(), margin.tolist(), verdicts.tolist())
    records = [dict(zip(columns.split(), row)) for row in rows]
    table = [
        ("check", cert.check),
        ("law", repr(d)),
        ("K", cert.K),
        ("grid points", cert.n_points),
        ("worst margin", cert.margin),
        ("verdict", cert.verdict),
    ]
    if cert.witness is not None:
        table.append(("worst witness", "t={} lhs={} rhs={}".format(*map(_fmt, cert.witness))))
    table.append(("note", cert.note))
    return _emit(args, EXIT_PASS if cert.passed else EXIT_FAIL, cert.to_dict(), columns, records, table)


def _cmd_min_k(args) -> int:
    d = _family_from_args(args)
    grid = parse_grid(args.grid)
    result = regularity.find_min_K(d, grid, (args.K_lo, args.K_hi), args.tol)
    lo, hi = result.bracket
    table = [
        ("law", repr(d)),
        ("smallest passing K", result.K),
        ("bracket", f"({_fmt(lo)}, {_fmt(hi)})"),
        ("assumes monotone in K", result.assumes_monotone_in_K),
    ]
    record = {"K": result.K, "bracket_lo": lo, "bracket_hi": hi}
    return _emit(args, EXIT_PASS, result.to_dict(), "K bracket_lo bracket_hi", [record], table)


def _cmd_median(args) -> int:
    model = load_model(args.model)
    med = ostat.kmin_median(model)
    payload = {"n": model.n, "k": model.k, "median": med}
    return _emit(args, EXIT_PASS, payload, "n k median", [payload], list(payload.items()))


def _cmd_quantile(args) -> int:
    model = load_model(args.model)
    value = ostat.kmin_quantile(model, args.r)
    payload = {"n": model.n, "k": model.k, "r": args.r, "quantile": value}
    table = [("n", model.n), ("k", model.k), ("order r", args.r), ("quantile", value)]
    return _emit(args, EXIT_PASS, payload, "n k r quantile", [payload], table)


def _cmd_verify_theorem(args) -> int:
    model = load_model(args.model)
    grid = parse_grid(args.grid)
    report = bounds.verify_theorem(model, args.K, grid)
    n_pass = sum(1 for c in report.certificates if c.passed)
    table = [
        ("K", report.K),
        ("n", report.n),
        ("k", report.k),
        ("q (mixture quantile)", report.q),
        ("median of k-th smallest", report.med),
        ("ratio med/q", report.ratio),
        ("lower factor K^-10", report.lower),
        ("upper factor K^13", report.upper),
        ("sandwich holds", report.sandwich_holds),
        ("regular components", f"{n_pass}/{report.n}"),
        ("verdict", report.verdict),
    ]
    payload = report.to_dict()
    return _emit(args, EXIT_PASS if report.passed else EXIT_FAIL, payload,
                 "K n k q med ratio lower upper verdict", [payload], table)


def _cmd_tail_bounds(args) -> int:
    model = load_model(args.model)
    sides = ["lower", "upper"] if args.side == "both" else [args.side]
    if args.t is not None and args.side == "both":
        raise ValueError("--t requires an explicit --side lower or --side upper")
    if args.t is not None and args.count is not None:
        raise ValueError("--count sets the default grid and cannot be combined with --t")
    rows: list[bounds.TailBoundRow] = []
    for side in sides:
        lower = side == "lower"
        # No --t and no --count leaves the library's default grid.
        grid = args.t
        if args.count is not None:
            grid = (bounds.default_lower_t_grid if lower else bounds.default_upper_t_grid)(args.K, args.count)
        rows.extend((bounds.verify_lower_tail if lower else bounds.verify_upper_tail)(model, args.K, grid))
    header = f"{'t':>12}  {'side':5}  {'threshold':>12}  {'exact_prob':>12}  {'bound':>12}  verdict"
    body = [
        f"{r.t:12.6g}  {r.side:5}  {r.threshold:12.6g}  {r.exact_prob:12.6g}  {r.bound:12.6g}  "
        + (r.verdict + (" (vacuous)" if r.vacuous else ""))
        for r in rows
    ]
    all_pass = all(r.passed for r in rows)
    table = "\n".join([header, *body, f"overall: {'pass' if all_pass else 'fail'}"]) + "\n"
    payload = [r.to_dict() for r in rows]
    return _emit(args, EXIT_PASS if all_pass else EXIT_FAIL, payload,
                 "t side threshold exact_prob bound verdict", payload, table)


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    result = mc.simulate_median(model, args.replicates, args.seed, args.ci_level)
    exact = ostat.kmin_median(model)
    covered = result.ci_low <= exact <= result.ci_high
    table = [
        ("replicates", result.replicates),
        ("estimate", result.estimate),
        ("ci", f"[{_fmt(result.ci_low)}, {_fmt(result.ci_high)}] at {result.ci_level:g}"),
        ("exact median", exact),
        ("ci covers exact", covered),
        ("seed", result.seed),
        ("generator", result.generator),
        ("elapsed (s)", f"{result.elapsed:.3f}"),
    ]
    payload = dict(result.to_dict(), exact_median=exact, ci_covers_exact=bool(covered))
    return _emit(args, EXIT_PASS if covered else EXIT_FAIL, payload,
                 "replicates estimate ci_low ci_high ci_level exact_median seed", [payload], table)


def _cmd_oracle(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = np.random.Generator(np.random.Philox(key=args.seed & ((1 << 64) - 1)))

    # Tail engine vs exhaustive enumeration on small random vectors.
    worst_tail = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(1, 13))
        probs = rng.random(n)
        for k in range(0, n + 2):
            worst_tail = max(worst_tail, abs(pbin.tail_at_least(probs, k) - pbin.brute_force_tail(probs, k)))

    # Exact engine vs the binomial counting formula for i.i.d. uniforms, summed
    # term by term: n <= 50 and every term is nonnegative.
    worst_iid = 0.0
    ts = np.linspace(0.1, 0.9, 9)
    for n in (1, 2, 3, 5, 10, 25, 50):
        comps = tuple(Uniform01() for _ in range(n))
        for k in range(1, n + 1):
            refs = [math.fsum(math.comb(n, j) * t**j * (1 - t) ** (n - j) for j in range(k, n + 1))
                    for t in ts.tolist()]
            diffs = np.abs(ostat.kmin_cdf(OrderStatModel(comps, k), ts) - refs)
            worst_iid = max(worst_iid, float(diffs.max()))

    checks = [
        {"check": check, "max_abs_diff": worst, "tolerance": tol, "verdict": "pass" if worst <= tol else "fail"}
        for check, worst, tol in (("tail_vs_enumeration", worst_tail, 1e-12),
                                  ("iid_uniform_vs_binomial", worst_iid, 1e-10))
    ]
    verdict = "pass" if all(c["verdict"] == "pass" for c in checks) else "fail"
    table, payload = [], {}
    for c in checks:
        table += [(f"{c['check'].replace('_', ' ')}, max |diff|", c["max_abs_diff"]), ("tolerance", c["tolerance"])]
        payload[c["check"]] = {"max_abs_diff": c["max_abs_diff"], "tolerance": c["tolerance"]}
    table.append(("verdict", verdict))
    payload["verdict"] = verdict
    return _emit(args, EXIT_PASS if verdict == "pass" else EXIT_FAIL, payload,
                 "check max_abs_diff tolerance verdict", checks, table)


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=KNOWN_FAMILIES)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--p", type=float, default=None, help="pareto_power exponent")
    p.add_argument("--rate", type=float, default=None, help="exponential rate")
    p.add_argument("--sigma", type=float, default=None, help="half_gaussian sigma")
    p.add_argument("--knots", default=None, help="piecewise_linear knots as JSON [[t,F],...]")
    p.add_argument("--atoms", default=None, help="atomic atoms as JSON [[value,weight],...]")
    p.add_argument("--grid", default=None, help="tmin:tmax:ppd, default 1e-6:1e6:64")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inidstat",
        description="Exact order statistics of independent non-identical laws, "
                    "with certified median and tail bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-condition", help="grid-certify the odds-doubling condition for one law")
    _add_family(p)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--form", choices=("condition", "measure-form", "weak-condition"), default="condition")
    p.set_defaults(func=_cmd_check_condition)

    p = sub.add_parser("min-k", help="bisect for the smallest passing K")
    _add_family(p)
    p.add_argument("--K-lo", dest="K_lo", type=float, default=1.01)
    p.add_argument("--K-hi", dest="K_hi", type=float, default=8.0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_min_k)

    p = sub.add_parser("median", help="exact median of the k-th smallest for a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_median)

    p = sub.add_parser("quantile", help="exact quantile of the k-th smallest for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=_cmd_quantile)

    p = sub.add_parser("verify-theorem", help="median sandwich certificate for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--grid", default=None, help="tmin:tmax:ppd for the regularity grid")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("tail-bounds", help="tail probability vs budget rows for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--side", choices=("lower", "upper", "both"), default="both")
    p.add_argument("--count", type=int, default=None,
                   help="points per side in the default grid (10 if not given)")
    p.add_argument("--t", type=float, action="append", default=None,
                   help="explicit t value (repeatable); requires --side")
    p.set_defaults(func=_cmd_tail_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo median with order-statistic CI")
    p.add_argument("--model", required=True)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ci-level", dest="ci_level", type=float, default=0.99)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="cross-check the exact engines against brute force")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_oracle)

    # Every subcommand writes through _emit, after its own arguments.
    for p in sub.choices.values():
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors.
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
