"""End-to-end command-line behavior: formats, exit codes, seeding."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lagmin
from lagmin import cli
from lagmin.beta2 import q_exact_beta2
from lagmin.cli import DEFAULT_SEED, build_parser, main
from lagmin.core import params_new
from lagmin.exact import moment, q_exact, q_oracle_n2
from lagmin.limit import LimitParams, q_limit
from lagmin.sampler import load_batch, run_batch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()]
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return config, rows


def test_exact_cdf_csv_matches_library(capsys):
    code, out, err = run_cli(
        capsys, "exact-cdf", "--beta", "2", "--N", "2", "--M", "3",
        "--grid", "0:0.5:6",
    )
    assert code == 0
    config, rows = parse_csv(out)
    assert config["command"] == "exact-cdf"
    assert config["jack_index"] == 1
    p = params_new(2.0, 2, 3)
    assert len(rows) == 6
    for row in rows:
        x = float(row["x"])
        assert float(row["Q"]) == q_exact(p, x)  # %.17g round-trips
    # the endpoint lands exactly on the support edge
    assert rows[-1]["x"] == "0.5" and float(rows[-1]["Q"]) == 0.0


def test_exact_pdf_json(capsys):
    code, out, _ = run_cli(
        capsys, "exact-pdf", "--beta", "4", "--N", "2", "--M", "3",
        "--grid", "0:0.4:5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "results", "warnings"}
    assert len(doc["results"]) == 5
    assert doc["results"][0]["P"] == pytest.approx(0.0, abs=1e-9)
    assert doc["warnings"] == []


def test_moments_json(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--beta", "2", "--N", "4", "--M", "4",
        "--p", "1", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    res = {r["p"]: r["value"] for r in doc["results"]}
    assert res[1] == pytest.approx(4.0**-3, rel=1e-12)
    assert res[2] == moment(params_new(2.0, 4, 4), 2)


def test_beta2_cdf(capsys):
    code, out, _ = run_cli(
        capsys, "beta2-cdf", "--N", "3", "--M", "5", "--grid", "0:0.3333333333333333:8",
    )
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert float(row["Q"]) == q_exact_beta2(3, 5, float(row["x"]))


def test_beta2_cdf_rejects_other_beta(capsys):
    code, _, err = run_cli(
        capsys, "beta2-cdf", "--beta", "3", "--N", "2", "--M", "3", "--grid", "0:0.5:3",
    )
    assert code == 2
    assert "beta" in err


def test_limit_cdf_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "limit-cdf", "--beta", "1", "--m", "2", "--grid", "0:20:9",
    )
    assert code == 0
    _, rows = parse_csv(out)
    lp = LimitParams(1.0, 2)
    for row in rows:
        assert float(row["Q"]) == q_limit(lp, float(row["y"]))


def test_limit_warning_is_reported(capsys):
    code, out, err = run_cli(
        capsys, "limit-cdf", "--beta", "2", "--m", "1", "--grid", "0:150:4",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert any("envelope" in w for w in doc["warnings"])
    assert "envelope" in err


def test_limit_kmax_too_small_is_one_error_line(capsys):
    for cmd in ("limit-cdf", "limit-pdf"):
        code, out, err = run_cli(capsys, cmd, "--beta", "1", "--m", "1",
                                 "--grid", "0:40:3", "--kmax", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "k_max=4" in err


def test_sample_to_file(capsys, tmp_path):
    out_path = tmp_path / "draws.txt"
    code, _, _ = run_cli(
        capsys, "sample", "--beta", "2", "--N", "2", "--M", "3",
        "--samples", "40", "--seed", "77", "--workers", "2",
        "--out", str(out_path),
    )
    assert code == 0
    batch = load_batch(out_path)
    direct = run_batch(params_new(2.0, 2, 3), 40, seed=77, workers=1)
    assert np.array_equal(batch.values, direct.values)
    assert batch.seed == 77


def test_sample_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--beta", "2", "--N", "2", "--M", "2",
        "--samples", "5", "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["count"] == 5 and header["seed"] == 3
    assert len(lines) == 6
    for ln in lines[1:]:
        v = float(ln)
        assert 0.0 < v <= 0.5


def test_validate_series_route(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--beta", "2", "--N", "3", "--M", "3",
        "--samples", "2000", "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    rep = doc["results"][0]
    assert rep["route"] == "series"
    assert rep["pass"] is True
    assert rep["n"] == 2000


def test_validate_quadrature_route(capsys):
    # beta=1, N=2, M=4 has no integer Jack index -> quadrature oracle
    code, out, _ = run_cli(
        capsys, "validate", "--beta", "1", "--N", "2", "--M", "4",
        "--samples", "1200", "--seed", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["route"] == "quadrature"


def test_validate_quadrature_route_calls_the_oracle_once(capsys, monkeypatch):
    calls = []

    def oracle(params, x):
        calls.append(np.array(x, copy=True))
        return q_oracle_n2(params, x)

    monkeypatch.setattr(cli, "q_oracle_n2", oracle)
    code, _, _ = run_cli(
        capsys, "validate", "--beta", "1", "--N", "2", "--M", "4",
        "--samples", "300", "--seed", "5",
    )
    assert code in (0, 1)
    batch = run_batch(params_new(1.0, 2, 4), 300, seed=5)
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.sort(batch.values))


def test_validate_quadrature_route_at_large_beta_times_m(capsys):
    # beta*(M-1) = 1492: the normalising integral of the weight underflows
    code, out, err = run_cli(
        capsys, "validate", "--beta", "7.5", "--N", "2", "--M", "200",
        "--samples", "100", "--seed", "1", "--format", "json",
    )
    assert code in (0, 1)
    assert "Traceback" not in err
    assert json.loads(out)["results"][0]["route"] == "quadrature"


def test_validate_has_no_quadrature_tolerance(capsys):
    code, out, err = run_cli(
        capsys, "validate", "--beta", "1", "--N", "2", "--M", "4",
        "--samples", "10", "--quad-tol", "1e-8",
    )
    assert code == 2 and out == ""
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


def test_commands_import_no_scipy():
    # this test process imports scipy itself, so the commands run in a
    # fresh interpreter
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import lagmin.cli
        argv = ["validate", "--beta", "1", "--N", "2", "--M", "4",
                "--samples", "200", "--seed", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [lagmin.cli.main(argv), lagmin.cli.main(["selfcheck"])]
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        print(json.dumps({"codes": codes, "scipy": loaded}))
    """)
    src = str(Path(lagmin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"][0] in (0, 1) and doc["codes"][1] == 0
    assert doc["scipy"] == []


def test_validate_split_half_route(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--beta", "0.7", "--N", "3", "--M", "5",
        "--samples", "1000", "--seed", "9", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["route"] == "split-half"
    assert doc["config"]["stream"] == 2


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2")[0] == 2
    assert run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2", "--M", "3",
                   "--grid", "0:0.5")[0] == 2
    assert run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2", "--M", "3",
                   "--grid", "0.5:0.1:5")[0] == 2
    assert run_cli(capsys, "moments", "--beta", "2", "--N", "2", "--M", "3",
                   "--p", "0")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    # domain failure from inside the library also maps to 2
    assert run_cli(capsys, "exact-cdf", "--beta", "1", "--N", "2", "--M", "4",
                   "--grid", "0:0.5:3")[0] == 2


def test_seed_resolution(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("LAGMIN_SEED", "123")
    f1, f2, f3 = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    for f in (f1, f2):
        assert run_cli(capsys, "sample", "--beta", "2", "--N", "2", "--M", "3",
                       "--samples", "8", "--out", str(f))[0] == 0
    assert load_batch(f1).seed == 123
    assert np.array_equal(load_batch(f1).values, load_batch(f2).values)
    # explicit flag wins over the environment
    assert run_cli(capsys, "sample", "--beta", "2", "--N", "2", "--M", "3",
                   "--samples", "8", "--seed", "9", "--out", str(f3))[0] == 0
    assert load_batch(f3).seed == 9


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("LAGMIN_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "sample", "--beta", "2", "--N", "2",
                           "--M", "3", "--samples", "4")
    assert code == 2
    assert "LAGMIN_SEED" in err


def test_default_seed_constant(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("LAGMIN_SEED", raising=False)
    f = tmp_path / "d.txt"
    run_cli(capsys, "sample", "--beta", "2", "--N", "2", "--M", "3",
            "--samples", "4", "--out", str(f))
    assert load_batch(f).seed == DEFAULT_SEED


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_parser_is_built_once_and_reused(capsys):
    calls = [
        ("exact-cdf", "--beta", "2", "--N", "3", "--M", "5", "--grid", "0:0.3:4"),
        ("exact-cdf", "--beta", "2", "--N", "3"),  # usage error
        ("moments", "--beta", "4", "--N", "2", "--M", "3", "--p", "1", "2"),
        ("limit-pdf", "--beta", "1", "--m", "2", "--grid", "0:5:3", "--tol", "1e-10"),
        ("beta2-cdf", "--N", "2", "--M", "4", "--grid", "0:0.5:3", "--format", "json"),
        ("no-such-command",),
        ("exact-pdf", "--beta", "1", "--N", "3", "--M", "6", "--grid", "0:0.2:3"),
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert build_parser() is build_parser()
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [r[0] for r in fresh] == [0, 2, 0, 0, 0, 2, 0]


@pytest.mark.parametrize("beta", ["inf", "-inf", "nan", "1e-300", "0"])
def test_bad_beta_is_one_error_line(capsys, beta):
    code, out, err = run_cli(
        capsys, "exact-cdf", f"--beta={beta}", "--N", "3", "--M", "5", "--grid", "0:0.3:3",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_accuracy_flags_only_on_the_limit_commands(capsys):
    for cmd in ("exact-cdf", "exact-pdf"):
        assert run_cli(capsys, cmd, "--beta", "2", "--N", "2", "--M", "3",
                       "--grid", "0:0.5:3", "--tol", "1e-8")[0] == 2
    assert run_cli(capsys, "moments", "--beta", "2", "--N", "2", "--M", "3",
                   "--p", "1", "--kmax", "50")[0] == 2
    code, out, _ = run_cli(capsys, "limit-cdf", "--beta", "2", "--m", "1",
                           "--grid", "0:4:3", "--tol", "1e-8", "--kmax", "400")
    assert code == 0
    config, _ = parse_csv(out)
    assert config["tol"] == 1e-8 and config["kmax"] == 400


def test_exact_json_config_and_one_warning_per_call(capsys):
    # N=55 is outside the envelope: one message for the whole grid
    for argv in (
        ("exact-cdf", "--grid", "0:0.018:7"),
        ("exact-pdf", "--grid", "0:0.018:7"),
        ("moments", "--p", "1"),
    ):
        code, out, err = run_cli(capsys, argv[0], "--beta", "2", "--N", "55", "--M", "56",
                                 *argv[1:], "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["config"]) == {"command", "beta", "N", "M", "jack_index"}
        assert len(doc["warnings"]) == 1 and "envelope" in doc["warnings"][0]
        assert err.count("warning: ") == 1
