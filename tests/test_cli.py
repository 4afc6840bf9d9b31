import importlib.util
import io
import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from ampmech import cli
from ampmech.cli import run
from ampmech.perturb import solve_perturbative

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _load_golden_script():
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "regenerate_goldens.py"
    spec = importlib.util.spec_from_file_location("regenerate_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the golden script's table is the one list of reference invocations
REFERENCE_INVOCATIONS = _load_golden_script().REFERENCE_INVOCATIONS

# one invocation per subcommand, rendered in both formats below
SUBCOMMAND_ARGV = {
    "solve": ["solve"],
    "verify": ["verify"],
    "classical": ["classical", "--a1", "1.0", "--lam", "0.01", "--level", "40"],
    "oracle": ["oracle"],
    "sho": ["sho"],
}

# results that are not finite or overflow: a numeric failure, exit 3
NON_FINITE_ARGV = [
    ["classical", "--a1", "1e200"],
    ["sho", "--omega0", "1e-320"],
    ["classical", "--action", "1e308", "--lam", "1e300"],
]

# inputs that are not finite: a usage error, exit 2, whichever subcommand
NON_FINITE_INPUT_ARGV = [
    ["sho", "--lam", "nan"],
    ["sho", "--lam", "nan", "--format", "csv"],
    ["solve", "--lam", "inf"],
    ["verify", "--mass", "nan"],
    ["oracle", "--omega0", "inf"],
    ["oracle", "--lam-max", "nan"],
    ["sho", "--hbar=-inf"],
    ["classical", "--a1", "nan"],
    ["classical", "--action", "inf"],
    ["classical", "--a1", "1.0", "--lam", "nan", "--format", "csv"],
]


# ---------------------------------------------------------------------------
# per-value renderers, kept as the reference for the array renderers


def reference_fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize a non-finite number")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def reference_render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {reference_render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{inner}{reference_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_render_csv(rows) -> str:
    lines = ["quantity,order,band,n,value"]
    for quantity, order, band, n, value in rows:
        fields = [
            quantity,
            "" if order is None else str(int(order)),
            "" if band is None else str(int(band)),
            "" if n is None else str(int(n)),
            reference_fmt_float(value),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def per_value_payload(obj):
    """The payload with every array replaced by a list of Python floats."""
    if isinstance(obj, dict):
        return {k: per_value_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [per_value_payload(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    return obj


def per_value_rows(rows):
    """The CSV rows with every array row expanded to one row per n."""
    out = []
    for quantity, order, band, n, value in rows:
        if isinstance(value, np.ndarray):
            out.extend((quantity, order, band, i, float(v)) for i, v in enumerate(value))
        else:
            out.append((quantity, order, band, n, value))
    return out


def run_capture(argv):
    buffer = io.StringIO()
    code = run(argv, stream=buffer)
    return code, buffer.getvalue()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        code, _ = run_capture(["solve", "--badflag"])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = run_capture(["frobnicate"])
        assert code == 2

    def test_semantic_validation(self):
        assert run_capture(["solve", "--order", "-1"])[0] == 2
        assert run_capture(["solve", "--n-max", "3"])[0] == 2
        assert run_capture(["solve", "--n-max", "4"])[0] == 2
        assert run_capture(["sho", "--n-max", "0"])[0] == 2
        # classical takes --order but no --n-max
        assert run_capture(["classical", "--a1", "1.0", "--order", "10"])[0] == 0
        assert run_capture(["classical"])[0] == 2
        assert run_capture(["classical", "--a1", "1.0", "--action", "2.0"])[0] == 2

    @pytest.mark.parametrize("n_max", ["1", "2", "3", "4"])
    def test_sho_takes_no_order_floor(self, n_max):
        # the order + 3 floor on --n-max belongs to solve and verify
        code, out = run_capture(["sho", "--n-max", n_max])
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks and all(c["pass"] for c in checks)

    @pytest.mark.parametrize("argv", [["solve"], ["verify"], ["classical", "--a1", "1.0"],
                                      ["classical", "--a1", "1.0", "--level", "1"]],
                             ids=" ".join)
    @pytest.mark.parametrize("force", ["2", "3"])
    def test_order_beyond_second(self, argv, force):
        code, out = run_capture(argv + ["--order", "8", "--force", force])
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])

    # the cubic oracle's coupling cap, |lam| beta / omega0^2 <= 0.05 sqrt(2),
    # as the largest |lam| at the given units
    @pytest.mark.parametrize("argv, limit", [
        (["oracle", "--omega0", "0.3"], "0.002465"),
        (["oracle", "--mass", "2.3", "--omega0", "0.4", "--hbar", "0.7"], "0.009171"),
        (["oracle", "--lam", "0.01", "--lam-max", "0.2"], "0.05"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_deep_oracle_coupling_is_a_usage_error(self, argv, limit, capsys):
        code, out = run_capture(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"usage error: --lam and --lam-max must be at most {limit} in absolute "
            "value for the cubic force at these units\n")

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_oracle_levels_below_one_is_a_usage_error(self, levels, capsys, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("diagonalized before the usage check")

        monkeypatch.setattr(cli, "spectrum", no_eigensolve)
        code, out = run_capture(["oracle", "--levels", levels])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "usage error: --levels must be at least 1\n"

    def test_numeric_nonconvergence(self):
        # a basis of 20 cannot plateau: a numeric failure, not a usage error
        code, out = run_capture(["oracle", "--basis-size", "20"])
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("argv", NON_FINITE_ARGV, ids=" ".join)
    def test_non_finite_result(self, argv, tmp_path, capsys):
        code, out = run_capture(argv)
        assert code == 3
        assert out == ""
        assert "numeric error:" in capsys.readouterr().err
        target = tmp_path / "out.json"
        assert run(argv + ["--output", str(target)]) == 3
        assert not target.exists()

    @pytest.mark.parametrize("argv", NON_FINITE_INPUT_ARGV, ids=" ".join)
    def test_non_finite_input(self, argv, capsys):
        code, out = run_capture(argv)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("usage error:")

    def test_overflow_stops_without_warnings(self, capsys):
        # the overflow raises where it happens, before numpy can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_capture(["classical", "--a1", "1e200"])
        assert (code, out) == (3, "")
        err = capsys.readouterr().err
        assert err == "numeric error: overflow encountered in multiply\n"

    def test_unwritable_output(self, tmp_path, capsys):
        # a missing directory is neither a failed check nor a success
        target = tmp_path / "missing" / "x.json"
        assert run(["solve", "--n-max", "5", "--output", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not target.exists()

    @pytest.mark.parametrize("force", ["2", "3"])
    @pytest.mark.parametrize("order", ["0", "1"])
    def test_verify_below_second_order(self, order, force):
        # the closed forms are checked only where the solution holds them
        code, out = run_capture(["verify", "--order", order, "--force", force])
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])

    def test_verify_that_checks_nothing_is_refused(self, capsys):
        code, out = run_capture(["verify", "--check", "closed-form", "--force", "3"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("usage error: --check closed-form")

    def test_successful_runs(self):
        for name, argv in REFERENCE_INVOCATIONS.items():
            code, out = run_capture(argv)
            assert code == 0, name
            assert out


class TestGoldenScript:
    def test_failed_invocation_is_not_written(self, tmp_path, monkeypatch):
        script = _load_golden_script()
        monkeypatch.setattr(script, "GOLDEN_DIR", tmp_path)
        monkeypatch.setattr(script, "run", lambda argv, stream: 1 if argv == ["sho"] else 0)
        assert script.main() == 1
        written = {p.name for p in tmp_path.iterdir()}
        assert written == set(script.REFERENCE_INVOCATIONS) - {"sho.json"}

    def test_audit_counts_changed_numbers_and_worst_ulp(self):
        audit = _load_golden_script().audit
        old = '{"a": [1.5, -2, 0.10000000000000001], "x-1-1": 3e-17}\n'
        assert audit("g.json", old, old) == "unchanged"
        new = old.replace("1.5", "1.5000000000000002").replace("3e-17", "3.0000000000000006e-17")
        assert audit("g.json", old, new).splitlines() == [
            "2 of 4 values changed, largest distance 1 ulp (1.5 -> 1.5000000000000002); "
            "0 keys removed, 0 added",
            "  ~ /a/0: 1.5 -> 1.5000000000000002 (1 ulp)",
            "  ~ /x-1-1: 3e-17 -> 3.0000000000000006e-17 (1 ulp)",
        ]
        assert "ulp (-2 -> 2);" in audit("g.json", old, new.replace("-2", "2"))
        # another spelling of the same number is no change
        assert audit("g.json", old, old.replace("1.5", "1.50")).startswith("0 of 4 values")
        # a layout change is audited key by key
        assert audit("g.json", old, old.replace('"a"', '"b"')).splitlines() == [
            "0 of 4 values changed; 3 keys removed, 3 added",
            "  - /a/0: 1.5", "  - /a/1: -2", "  - /a/2: 0.10000000000000001",
            "  + /b/0: 1.5", "  + /b/1: -2", "  + /b/2: 0.10000000000000001",
        ]
        assert "  ~ /c: \"x\" -> null" in audit("g.json", '{"c": "x"}', '{"c": null}')

    def test_audit_keys_csv_lines_by_quantity_order_band_n(self):
        audit = _load_golden_script().audit
        head = "quantity,order,band,n,value\n"
        old = head + "harmonic,0,4,,0\nomega,1,,,0.5\ngap,,,3,1\n"
        # reordered lines move no key; the removed and changed ones are listed
        new = head + "gap,,,3,1.0000000000000002\nomega,1,,,0.5\n"
        assert audit("g.csv", old, new).splitlines() == [
            "1 of 2 values changed, largest distance 1 ulp (1 -> 1.0000000000000002); "
            "1 keys removed, 0 added",
            "  - harmonic,0,4,: 0",
            "  ~ gap,,,3: 1 -> 1.0000000000000002 (1 ulp)",
        ]

    def test_audit_of_classical_extent_regeneration(self):
        # the classical golden while harmonic balance kept its own extent,
        # rendered back byte for byte: a guard harmonic, never solved, closed
        # every table, and the third harmonic at order 2 (79/2304) missed the
        # contribution of the fourth
        new = (GOLDEN_DIR / "classical.json").read_text(encoding="utf-8")
        old = json.loads(new)
        results = old["results"]
        for table in results["harmonic_coefficients"]:
            table["values"].append(0)
        results["harmonic_coefficients"][2]["values"][3] = 0.033998842592592594
        results.update(action=3.1414966648700426, ode_residual=4.0350012268930424e-08,
                       ode_residual_half_coupling=4.6904837583405801e-09,
                       ode_residual_ratio=8.6025268070015937)
        old = cli.render_json(old) + "\n"
        audit = _load_golden_script().audit
        assert audit("classical.json", old, new).splitlines() == [
            "5 of 40 values changed, largest distance 41699996549727 ulp "
            "(0.033998842592592594 -> 0.034288194444444448); 3 keys removed, 0 added",
            "  - /results/harmonic_coefficients/0/values/4: 0",
            "  - /results/harmonic_coefficients/1/values/4: 0",
            "  - /results/harmonic_coefficients/2/values/4: 0",
            "  ~ /results/harmonic_coefficients/2/values/3: "
            "0.033998842592592594 -> 0.034288194444444448 (41699996549727 ulp)",
            "  ~ /results/action: 3.1414966648700426 -> 3.1414966648700435 (2 ulp)",
            "  ~ /results/ode_residual: 4.0350012268930424e-08 -> 4.0373216044636839e-08 "
            "(3506455445504 ulp)",
            "  ~ /results/ode_residual_half_coupling: 4.6904837583405801e-09 -> "
            "4.691932191727699e-09 (1751048519680 ulp)",
            "  ~ /results/ode_residual_ratio: 8.6025268070015937 -> 8.6048166074988188 "
            "(1289043083257 ulp)",
        ]


class TestDeterminism:
    @pytest.mark.parametrize("argv", list(REFERENCE_INVOCATIONS.values()),
                             ids=list(REFERENCE_INVOCATIONS))
    def test_reruns_byte_identical(self, argv):
        _, first = run_capture(argv)
        _, second = run_capture(argv)
        assert first == second

    @pytest.mark.parametrize("name", list(REFERENCE_INVOCATIONS))
    def test_matches_golden(self, name):
        code, out = run_capture(REFERENCE_INVOCATIONS[name])
        assert code == 0
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert out == golden


FINITE_EDGES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 2.0**53 + 2,
    1e16, 1e17, 0.1, 1 / 3,
]
float_arrays = hnp.arrays(
    np.float64,
    st.integers(0, 40),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(FINITE_EDGES),
        st.integers(-(2**60), 2**60).map(float),
    ),
)


class TestRendering:
    """The array renderers against the per-value reference renderers."""

    @given(float_arrays, st.integers(0, 3), st.integers(0, 4),
           st.sampled_from(["a", "check:%", "x%d%%s,%.17g"]))
    def test_arrays_match_per_value_reference(self, values, indent, band, quantity):
        floats = [float(v) for v in values]
        assert list(map(cli._fmt_float, floats)) == list(map(reference_fmt_float, floats))
        assert cli.render_json(values, indent) == reference_render_json(floats, indent)
        assert cli.render_json({"values": values}) == reference_render_json(
            {"values": floats}
        )
        rows = [("a", 0, None, 3, 0.5), (quantity, 2, band, None, values),
                (quantity, 1, None, None, values[:1])]
        assert cli.render_csv(rows) == reference_render_csv(per_value_rows(rows))

    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(FINITE_EDGES)))
    def test_scalar_rule_is_the_table_rule(self, x):
        # every finite double, -0.0, subnormals and +-max included
        assert cli._fmt_float(x) == cli._fmt_table([x], "%.17g", "")
        assert cli._fmt_float(np.float64(x)) == cli._fmt_table(np.array([x]), "%.17g", "")

    @given(float_arrays, st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    def test_non_finite_anywhere_is_refused(self, values, bad, data):
        at = data.draw(st.integers(0, len(values)))
        values = np.insert(values, at, bad)
        with pytest.raises(ValueError, match="non-finite"):
            cli.render_json(values)
        with pytest.raises(ValueError, match="non-finite"):
            cli.render_csv([("a", 0, 1, None, values)])
        with pytest.raises(ValueError, match="non-finite"):
            cli._fmt_float(bad)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("sub", list(SUBCOMMAND_ARGV))
    def test_subcommand_matches_per_value_reference(self, sub, fmt):
        argv = SUBCOMMAND_ARGV[sub] + ["--format", fmt]
        cfg = cli.RunConfig(**vars(cli.build_parser().parse_args(argv)))
        cfg.validate()
        payload, rows, code = cli._DISPATCH[sub](cfg)
        if fmt == "json":
            expected = reference_render_json(per_value_payload(payload)) + "\n"
        else:
            expected = reference_render_csv(per_value_rows(rows))
        assert run_capture(argv) == (code, expected)

    def test_parser_reused_without_carrying_state(self):
        assert cli._parser() is cli._parser()
        _, first = run_capture(["sho", "--n-max", "5", "--omega0", "2.0"])
        _, second = run_capture(["sho"])
        assert json.loads(first)["config"]["n_max"] == 5
        config = json.loads(second)["config"]
        assert (config["n_max"], config["omega0"]) == (12, 1.0)


class TestPayloadShape:
    def test_solve_schema(self):
        _, out = run_capture(["solve"])
        doc = json.loads(out)
        assert set(doc) == {"config", "results", "checks", "provenance"}
        assert doc["config"]["subcommand"] == "solve"
        tables = {
            (t["order"], t["band"]): t["values"]
            for t in doc["results"]["amplitude_coefficients"]
        }
        # second-order adjacent-band coefficient at the first excited level
        assert tables[(2, 1)][1] == pytest.approx(11 * 2**1.5 / 72, rel=1e-13)
        constants = {c["band"]: c["value"] for c in doc["results"]["structure_constants"]}
        assert constants[2] == pytest.approx(1 / 6, abs=1e-12)
        assert all(c["pass"] for c in doc["checks"])

    def test_verify_reports_all_groups(self):
        _, out = run_capture(["verify"])
        doc = json.loads(out)
        ids = {c["id"] for c in doc["checks"]}
        assert "ritz-combination" in ids
        assert "multiply-matches-dense-product" in ids
        assert "recursion-residual-band3-order2" in ids
        assert "quantum-condition-order2" in ids
        assert "offdiag-energy-order1" in ids
        assert "closed-form-amplitudes" in ids
        assert "structure-constants" in ids
        assert all(c["pass"] for c in doc["checks"])

    @pytest.mark.parametrize("runs, solves", [
        ([["verify", "--force", "3"]], 1),  # coupling scaling reads verify's table
        ([["verify"]], 2),  # the cubic table and the quartic one of coupling scaling
        ([["verify", "--check", "algebra"]], 0),
        # the memo lives for one run: a second run solves again
        ([["verify", "--force", "3"], ["verify", "--force", "3"]], 2),
    ], ids=lambda v: str(v) if isinstance(v, int) else " / ".join(map(" ".join, v)))
    def test_verify_solves_each_table_once(self, runs, solves, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_perturbative(*args)

        monkeypatch.setattr(cli, "solve_perturbative", counted)
        for argv in runs:
            assert run_capture(argv)[0] == 0
        assert len(calls) == solves

    def test_verify_check_filter(self):
        _, out = run_capture(["verify", "--check", "algebra"])
        doc = json.loads(out)
        ids = {c["id"] for c in doc["checks"]}
        assert "ritz-combination" in ids
        assert not any(i.startswith("recursion") for i in ids)

    def test_verify_offdiag_group(self):
        code, out = run_capture(["verify", "--check", "offdiag", "--order", "1"])
        assert code == 0
        doc = json.loads(out)
        ids = {c["id"] for c in doc["checks"]}
        assert ids == {"offdiag-energy-order0", "offdiag-energy-order1"}
        assert all(c["observed"] <= 1e-12 for c in doc["checks"])

    def test_oracle_schema(self):
        _, out = run_capture(["oracle"])
        doc = json.loads(out)
        fits = {f["quantity"]: f for f in doc["results"]["series_fits"]}
        assert fits["omega-1-0"]["relative_error"] <= 1e-2
        assert fits["x-1-1"]["relative_error"] <= 1e-2
        assert fits["x-2-0"]["relative_error"] <= 1e-2
        assert max(doc["results"]["thomas_kuhn_residuals"], key=abs) <= 1e-8

    def test_csv_flat_table(self):
        _, out = run_capture(["solve", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,order,band,n,value"
        assert all(line.count(",") == 4 for line in lines)

    def test_classical_correspondence_block(self):
        _, out = run_capture(REFERENCE_INVOCATIONS["classical.json"])
        doc = json.loads(out)
        corr = doc["results"]["correspondence"]
        assert corr["level"] == 40
        assert corr["a1_ratio"] == pytest.approx(1.0, rel=1e-12)
        assert corr["a2_ratio"] == pytest.approx((40 * 39) ** 0.5 / 40, rel=1e-12)


class TestOutputTargets:
    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_capture(["sho", "--output", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["config"]["subcommand"] == "sho"

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMPMECH_OUT_DIR", str(tmp_path))
        code, _ = run_capture(["sho", "--output", "nested.json"])
        assert code == 0
        assert (tmp_path / "nested.json").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ampmech", "sho", "--n-max", "6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["results"]["energies"][0] == pytest.approx(0.5, rel=1e-14)

    def test_module_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ampmech", "solve", "--badflag"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
