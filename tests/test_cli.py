import io
import json
import pathlib
import subprocess
import sys

import pytest

from ampmech.cli import run

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

REFERENCE_INVOCATIONS = {
    "solve.json": ["solve"],
    "solve.csv": ["solve", "--format", "csv"],
    "verify.json": ["verify"],
    "classical.json": ["classical", "--a1", "1.0", "--lam", "0.01", "--level", "40"],
    "oracle.json": ["oracle"],
    "sho.json": ["sho"],
}


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
        assert run_capture(["solve", "--order", "5"])[0] == 2
        assert run_capture(["solve", "--n-max", "3"])[0] == 2
        assert run_capture(["classical"])[0] == 2
        assert run_capture(["classical", "--a1", "1.0", "--action", "2.0"])[0] == 2

    def test_numeric_nonconvergence(self):
        # a basis of 20 cannot plateau: a numeric failure, not a usage error
        code, out = run_capture(["oracle", "--basis-size", "20"])
        assert code == 3
        assert out == ""

    def test_successful_runs(self):
        for name, argv in REFERENCE_INVOCATIONS.items():
            code, out = run_capture(argv)
            assert code == 0, name
            assert out


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
