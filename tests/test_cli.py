import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from inidstat import cli
from inidstat.bounds import verify_lower_tail, verify_theorem, verify_upper_tail
from inidstat.dist import Atomic, Exponential, HalfGaussian, ParetoPower, PiecewiseLinearCdf, Uniform01
from inidstat.mc import simulate_median
from inidstat.ostat import OrderStatModel
from inidstat.regularity import (
    DEFAULT_GRID,
    GridSpec,
    check_condition,
    check_measure_form,
    check_weak_condition,
    find_min_K,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(argv):
    """``argv`` in a child process that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env=env)

# Each subcommand with its exit code, on Uniform01 and table laws only, whose
# values are plain arithmetic; "{uniform3}" stands for the uniform3_spec file.
GOLDEN_ARGV = {
    "check-condition": (1, ["--family", "uniform01", "--K", "1.5", "--grid", "0.01:1:8"]),
    "min-k": (0, ["--family", "uniform01", "--grid", "0.01:1:8"]),
    "median": (0, ["--model", "{uniform3}"]),
    "quantile": (0, ["--model", "{uniform3}", "--r", "0.25"]),
    "verify-theorem": (0, ["--model", "{uniform3}", "--K", "2"]),
    "tail-bounds": (0, ["--model", str(GOLDEN / "model_atomic_pair.json"), "--K", "2"]),
    "simulate": (0, ["--model", "{uniform3}", "--replicates", "200", "--seed", "17"]),
    "oracle": (0, ["--seed", "1", "--trials", "5"]),
}
FORMATS = ("table", "csv", "json")


def _golden_argv(sub: str, fmt: str, uniform3: str) -> list[str]:
    return [sub, *(a.format(uniform3=uniform3) for a in GOLDEN_ARGV[sub][1]), "--format", fmt]


def _masked(text: str) -> str:
    # simulate's wall time, in the table and in the JSON.
    return re.sub(r'(elapsed \(s\) +|"elapsed": )[^,\n]+', r"\1<masked>", text)


@pytest.fixture
def uniform3_spec(tmp_path):
    path = tmp_path / "u3.json"
    path.write_text(json.dumps({"k": 2, "components": [{"family": "uniform01", "repeat": 3}]}))
    return str(path)


@pytest.fixture
def exp2_spec(tmp_path):
    path = tmp_path / "e2.json"
    spec = {"k": 1, "components": [{"family": "exponential", "params": {"rate": 1.0}, "repeat": 2}]}
    path.write_text(json.dumps(spec))
    return str(path)


def _scipy_after(code):
    """The scipy modules loaded after ``code`` runs in a fresh interpreter."""
    code += "\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
    proc = _run([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBuildDistribution:
    def test_families(self):
        assert cli.build_distribution("uniform01") == Uniform01()
        assert cli.build_distribution("pareto_power", {"p": 2.0}) == ParetoPower(p=2.0)
        assert cli.build_distribution("exponential", {"rate": 0.5}, 2.0) == Exponential(
            rate=0.5, scale=2.0
        )
        got = cli.build_distribution("atomic", {"atoms": [[1.0, 0.5], [2.0, 0.5]]})
        assert got == Atomic(atoms=((1.0, 0.5), (2.0, 0.5)))

    def test_unknown_family_lists_known(self):
        with pytest.raises(ValueError, match="known families"):
            cli.build_distribution("weibull")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            cli.build_distribution("exponential", {"p": 2.0})

    def test_defaults_are_the_laws_own(self):
        for family, cls in [("uniform01", Uniform01), ("pareto_power", ParetoPower),
                            ("exponential", Exponential), ("half_gaussian", HalfGaussian),
                            ("piecewise_linear", PiecewiseLinearCdf), ("atomic", Atomic)]:
            assert cli.build_distribution(family, None, 3.0) == cls(scale=3.0)
        assert cli.KNOWN_FAMILIES == ("atomic", "exponential", "half_gaussian", "pareto_power",
                                      "piecewise_linear", "uniform01")


class TestParseModelSpec:
    def test_repeat_expansion(self):
        spec = {
            "k": 3,
            "components": [
                {"family": "uniform01", "repeat": 2},
                {"family": "exponential", "params": {"rate": 2.0}},
            ],
        }
        m = cli.parse_model_spec(spec)
        assert m.n == 3 and m.k == 3
        assert m.components[0] == m.components[1] == Uniform01()
        assert m.components[2] == Exponential(rate=2.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="JSON object"):
            cli.parse_model_spec([1, 2])
        with pytest.raises(ValueError, match="unknown model-spec keys"):
            cli.parse_model_spec({"k": 1, "components": [], "extra": 1})
        with pytest.raises(ValueError, match='needs "k"'):
            cli.parse_model_spec({"components": [{"family": "uniform01"}]})
        with pytest.raises(ValueError, match="non-empty list"):
            cli.parse_model_spec({"k": 1, "components": []})
        with pytest.raises(ValueError, match="unknown keys"):
            cli.parse_model_spec(
                {"k": 1, "components": [{"family": "uniform01", "weight": 2}]}
            )
        with pytest.raises(ValueError, match="repeat"):
            cli.parse_model_spec({"k": 1, "components": [{"family": "uniform01", "repeat": 0}]})
        with pytest.raises(ValueError, match="component #1 must be an object"):
            cli.parse_model_spec({"k": 1, "components": [{"family": "uniform01"}, 3]})
        with pytest.raises(ValueError, match='component #0: missing "family"'):
            cli.parse_model_spec({"k": 1, "components": [{"scale": 2.0}]})


class TestParseGrid:
    def test_default(self):
        assert cli.parse_grid(None) == DEFAULT_GRID

    def test_explicit(self):
        assert cli.parse_grid("0.1:10:4") == GridSpec(0.1, 10.0, 4)

    def test_errors(self):
        for bad in ("1:2", "a:b:c", "2:1:8"):
            with pytest.raises(ValueError):
                cli.parse_grid(bad)


class TestGoldenFiles:
    """Byte-exact CSV output pinned against checked-in files."""

    def test_check_condition_golden(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(
            [
                "check-condition", "--family", "uniform01", "--K", "2",
                "--grid", "0.01:1:8", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        got = out.read_bytes()
        assert got == (GOLDEN / "check_condition_uniform01_K2.csv").read_bytes()
        text = got.decode()
        assert text.splitlines()[0] == "t,lhs,rhs,margin,verdict"
        assert "\r" not in text and text.endswith("\n")

    def test_tail_bounds_golden(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(
            [
                "tail-bounds", "--model", str(GOLDEN / "model_atomic_pair.json"),
                "--K", "2", "--side", "both", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        got = out.read_bytes()
        assert got == (GOLDEN / "tail_bounds_atomic_pair_K2.csv").read_bytes()
        text = got.decode()
        assert text.splitlines()[0] == "t,side,threshold,exact_prob,bound,verdict"
        assert "\r" not in text and text.endswith("\n")

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("sub", GOLDEN_ARGV)
    def test_every_output(self, capsys, uniform3_spec, sub, fmt):
        want = json.loads((GOLDEN / "cli_outputs.json").read_text(encoding="utf-8"))
        assert cli.main(_golden_argv(sub, fmt, uniform3_spec)) == GOLDEN_ARGV[sub][0]
        assert _masked(capsys.readouterr().out) == want[f"{sub}/{fmt}"]

    def test_golden_model_spec_parses(self):
        with open(GOLDEN / "model_atomic_pair.json", encoding="utf-8") as fh:
            m = cli.parse_model_spec(json.load(fh))
        assert m.n == 2 and m.k == 1
        assert m.components[0] == Atomic(atoms=((1.0, 0.5), (2.0, 0.5)))


def as_json(report):
    """``report.to_dict()`` as it reads after one trip through JSON."""
    return json.loads(json.dumps(report.to_dict()))


class TestJsonRoundTrips:
    def test_check_condition(self, capsys):
        code = cli.main(
            ["check-condition", "--family", "uniform01", "--K", "2",
             "--grid", "0.01:1:8", "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == as_json(check_condition(Uniform01(), 2.0, GridSpec(0.01, 1.0, 8)))

    @pytest.mark.parametrize("form, checker", [
        ("condition", check_condition),
        ("measure-form", check_measure_form),
        ("weak-condition", check_weak_condition),
    ])
    @pytest.mark.parametrize("flags, law", [
        (["--family", "uniform01", "--K", "1.5"], Uniform01()),
        (["--family", "half_gaussian", "--sigma", "0.3", "--scale", "7", "--K", "3"], HalfGaussian(sigma=0.3, scale=7.0)),
        (["--family", "atomic", "--atoms", "[[0.5,0.3],[1.5,0.7]]", "--K", "2"], Atomic(atoms=((0.5, 0.3), (1.5, 0.7)))),
    ], ids=["uniform", "half_gaussian", "atomic"])
    def test_check_condition_forms(self, capsys, tmp_path, form, checker, flags, law):
        grid = GridSpec(0.01, 100.0, 4)
        argv = ["check-condition", *flags, "--form", form, "--grid", "0.01:100:4"]
        code = cli.main(argv + ["--format", "json"])
        cert = checker(law, float(flags[-1]), grid)
        assert json.loads(capsys.readouterr().out) == as_json(cert)
        assert code == (0 if cert.passed else 1)
        # The rows are judged by the certificate's rule.
        assert cli.main(argv + ["--format", "csv"]) == code
        verdicts = [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert ("fail" in verdicts) == (not cert.passed)

    def test_min_k(self, capsys):
        code = cli.main(["min-k", "--family", "pareto_power", "--p", "2", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == as_json(find_min_K(ParetoPower(p=2.0)))

    def test_verify_theorem(self, capsys, uniform3_spec):
        code = cli.main(
            ["verify-theorem", "--model", uniform3_spec, "--K", "2", "--format", "json"]
        )
        assert code == 0
        model = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        assert json.loads(capsys.readouterr().out) == as_json(verify_theorem(model, 2.0))

    def test_tail_bounds(self, capsys, exp2_spec):
        code = cli.main(["tail-bounds", "--model", exp2_spec, "--K", "3", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        model = cli.load_model(exp2_spec)
        assert rows == [as_json(r) for r in verify_lower_tail(model, 3.0) + verify_upper_tail(model, 3.0)]
        assert len(rows) == 20
        assert {r["side"] for r in rows} == {"lower", "upper"}

    def test_simulate(self, capsys, uniform3_spec):
        code = cli.main(
            ["simulate", "--model", uniform3_spec, "--replicates", "200",
             "--seed", "17", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ci_covers_exact"] is True
        model = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        want = as_json(simulate_median(model, 200, 17))
        # The wall time is the one field that differs from run to run.
        del want["elapsed"], payload["elapsed"]
        assert {name: payload[name] for name in want} == want


class TestValues:
    def test_median(self, capsys, uniform3_spec):
        assert cli.main(["median", "--model", uniform3_spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 3 and payload["k"] == 2
        assert payload["median"] == pytest.approx(0.5, rel=1e-9)

    def test_quantile(self, capsys, exp2_spec):
        assert cli.main(
            ["quantile", "--model", exp2_spec, "--r", "0.5", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        import math

        assert payload["quantile"] == pytest.approx(math.log(2.0) / 2.0, rel=1e-9)

    def test_simulate_deterministic_output(self, capsys, uniform3_spec):
        argv = ["simulate", "--model", uniform3_spec, "--replicates", "300",
                "--seed", "7", "--format", "csv"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_oracle(self, capsys):
        assert cli.main(["oracle", "--seed", "1", "--trials", "5", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "check,max_abs_diff,tolerance,verdict"
        assert "fail" not in out


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        assert cli.main(["check-condition", "--family", "uniform01", "--K", "2"]) == 0
        capsys.readouterr()

    def test_failed_check_is_one(self, capsys):
        assert cli.main(["check-condition", "--family", "uniform01", "--K", "1.5"]) == 1
        out = capsys.readouterr().out
        assert "fail" in out and "witness" in out

    def test_precondition_failure_is_one(self, capsys, uniform3_spec):
        assert cli.main(["verify-theorem", "--model", uniform3_spec, "--K", "1.5"]) == 1
        assert "precondition-failed" in capsys.readouterr().out

    def test_tail_bounds_failure_is_one(self, capsys, tmp_path):
        # A lone atom of weight 0.49 at 0 puts 0.49 below every lower threshold.
        path = tmp_path / "atomic.json"
        spec = {"k": 1, "components": [{"family": "atomic", "params": {"atoms": [[0, 0.49], [1, 0.51]]}}]}
        path.write_text(json.dumps(spec))
        assert cli.main(["tail-bounds", "--model", str(path), "--K", "2", "--side", "lower"]) == 1
        assert "overall: fail" in capsys.readouterr().out

    def test_override_flag_is_gone(self, capsys, uniform3_spec):
        for argv in (
            ["verify-theorem", "--model", uniform3_spec, "--K", "2", "--unsafe-override-bound", "0"],
            ["tail-bounds", "--model", uniform3_spec, "--K", "2", "--side", "lower",
             "--unsafe-override-bound", "0"],
        ):
            assert cli.main(argv) == 2, argv
            capsys.readouterr()

    def test_usage_errors_are_two(self, capsys, uniform3_spec, tmp_path):
        cases = [
            ["check-condition", "--family", "weibull", "--K", "2"],
            ["check-condition", "--family", "uniform01", "--K", "1"],
            ["check-condition", "--family", "uniform01", "--K", "2", "--grid", "1:2"],
            ["median", "--model", str(tmp_path / "missing.json")],
            ["tail-bounds", "--model", uniform3_spec, "--K", "2", "--t", "0.001"],
            ["tail-bounds", "--model", uniform3_spec, "--K", "2", "--side", "lower",
             "--t", "0.5"],
            ["no-such-command"],
        ]
        for argv in cases:
            assert cli.main(argv) == 2, argv
            capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["verify-theorem", "--model", "{u3}", "--K", "1e40"], "K must be at most"),
        (["tail-bounds", "--model", "{u3}", "--K", "1e10", "--side", "lower", "--count", "40"],
         "count must lie in [1, 25] at K=1e+10"),
        (["tail-bounds", "--model", "{u3}", "--K", "3", "--count", "0"], "count must lie in [1, 639] at K=3"),
        (["tail-bounds", "--model", "{u3}", "--K", "3", "--count", "-2"], "count must lie in [1, 639] at K=3"),
        (["tail-bounds", "--model", "{u3}", "--K", "2", "--side", "lower", "--t", "1e-4", "--count", "3"],
         "--count"),
        (["oracle", "--trials", "0"], "--trials must be at least 1"),
        (["check-condition", "--family", "exponential", "--p", "2", "--K", "2"], "allowed: ('rate',)"),
        (["check-condition", "--family", "atomic", "--atoms", "[[1,0.5],[2,0.5]]", "--scale", "1e308", "--K", "2"],
         "pass the largest finite double"),
        (["check-condition", "--family", "atomic", "--atoms", "nope", "--K", "2"], "--atoms 'nope' is not valid JSON"),
    ], ids=["huge-K", "grid-underflow", "count-0", "count-negative", "count-with-t", "trials-0", "foreign-flag",
            "table-overflow", "bad-json"])
    def test_unusable_inputs_are_two(self, capsys, uniform3_spec, argv, message):
        argv = [a.format(u3=uniform3_spec) for a in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def test_malformed_pairs_are_one_error_line(self, capsys):
        for argv in (
            ["check-condition", "--family", "piecewise_linear", "--knots", "[1,2]", "--K", "2"],
            ["check-condition", "--family", "atomic", "--atoms", "[3]", "--K", "2"],
        ):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "true", '"1"'],
                             ids=["nan", "inf", "-inf", "bool", "string"])
    def test_pairs_of_non_finite_or_non_numbers_are_two(self, capsys, tmp_path, entry):
        # Python's json reads NaN and Infinity; the laws refuse them.
        pairs = {"atoms": f"[[{entry}, 1.0]]", "knots": f"[[0, 0], [{entry}, 1]]"}
        argvs = [["check-condition", "--family", "atomic", "--atoms", pairs["atoms"], "--K", "3"],
                 ["check-condition", "--family", "piecewise_linear", "--knots", pairs["knots"], "--K", "2"]]
        for family, name in (("atomic", "atoms"), ("piecewise_linear", "knots")):
            path = tmp_path / f"{family}.json"
            path.write_text(f'{{"k": 1, "components": [{{"family": "uniform01"}}, '
                            f'{{"family": "{family}", "params": {{"{name}": {pairs[name]}}}}}]}}')
            argvs.append(["verify-theorem", "--model", str(path), "--K", "3"])
        for argv in argvs:
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "pairs of finite reals" in err, err

    def test_help_is_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_model_json_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["median", "--model", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spec, message", [
        ({"k": True, "components": [{"family": "uniform01", "repeat": 3}]}, '"k" must be an integer'),
        ({"k": 1.5, "components": [{"family": "uniform01", "repeat": 3}]}, '"k" must be an integer'),
        ({"k": 1, "components": [{"family": "uniform01", "repeat": True}]}, "repeat must be an integer"),
        ({"k": 1, "components": [{"family": "uniform01", "scale": True}]}, "scale must be a finite positive real"),
        ({"k": 1, "components": [{"family": "exponential", "params": {"rate": True}}]},
         "rate must be a finite positive real"),
    ], ids=["k-bool", "k-float", "repeat-bool", "scale-bool", "param-bool"])
    def test_non_integer_or_boolean_model_values_are_two(self, capsys, tmp_path, spec, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["median", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def test_out_of_memory_is_two(self, capsys, monkeypatch, uniform3_spec):
        def no_room(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

        monkeypatch.setattr(cli.mc, "simulate_median", no_room)
        assert cli.main(["simulate", "--model", uniform3_spec, "--replicates", "100000000000"]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 745. GiB for an array with shape (100000000000,)\n"


class TestInstalledEntryPoints:
    def test_console_script(self):
        exe = shutil.which("inidstat")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "check-condition" in proc.stdout

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats would be the largest single cost of every cold start.
        code = "import inidstat.cli, sys; sys.exit('scipy.stats' in sys.modules)"
        proc = _run([sys.executable, "-c", code])
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_out_scipy(self):
        assert _scipy_after("import inidstat.cli") == []

    @pytest.mark.parametrize("argv", [
        ["median", "--model", "{uniform3}"],
        ["quantile", "--model", "{exp2}", "--r", "0.3"],
        ["min-k", "--family", "uniform01"],
        ["oracle", "--seed", "1", "--trials", "5"],
    ], ids=lambda argv: argv[0])
    def test_subcommands_without_a_half_gaussian_leave_out_scipy(self, argv, uniform3_spec, exp2_spec, tmp_path):
        argv = [a.format(uniform3=uniform3_spec, exp2=exp2_spec) for a in argv]
        argv += ["--out", str(tmp_path / "out.txt")]
        code = f"from inidstat import cli; assert cli.main({argv!r}) == 0"
        assert _scipy_after(code) == []

    def test_scipy_loads_on_first_use_with_the_same_bits(self):
        code = (
            "import math, sys\n"
            "from inidstat import HalfGaussian\n"
            "from inidstat.mc import median_ci_ranks\n"
            "assert 'scipy.special' not in sys.modules\n"
            "d = HalfGaussian(sigma=2)\n"
            "got = (d.cdf(1.5), d.quantile(0.3), median_ci_ranks(1001, 0.99))\n"
            "from scipy.special import erf, erfinv\n"
            "want = (erf(1.5 / (2 * math.sqrt(2.0))), 2 * math.sqrt(2.0) * erfinv(0.3), (460, 542))\n"
            "assert got == want, (got, want)\n"
        )
        assert "scipy.special" in _scipy_after(code)

    def test_module_invocation(self, uniform3_spec):
        proc = _run([sys.executable, "-m", "inidstat", "median", "--model", uniform3_spec, "--format", "csv"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n,k,median"


if __name__ == "__main__":
    # Rewrites tests/golden/cli_outputs.json: PYTHONPATH=src python tests/test_cli.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        uniform3 = str(Path(tmp) / "u3.json")
        Path(uniform3).write_text(json.dumps({"k": 2, "components": [{"family": "uniform01", "repeat": 3}]}))
        outputs = {}
        for sub in GOLDEN_ARGV:
            for fmt in FORMATS:
                with contextlib.redirect_stdout(io.StringIO()) as buf:
                    cli.main(_golden_argv(sub, fmt, uniform3))
                outputs[f"{sub}/{fmt}"] = _masked(buf.getvalue())
    (GOLDEN / "cli_outputs.json").write_text(json.dumps(outputs, indent=2) + "\n", encoding="utf-8")
