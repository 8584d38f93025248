"""The benchmark's own test.

    python -m pytest -q bench/test_bench.py

Runs every workload at a small size, traced and untraced, and checks the
result line against BENCHMARK.json; checks that a seed fixes the argv
lists and that no op in a pass reuses a parameter key; checks the
quantile estimate and that every op carries a host-speed factor; and
checks that a wrong reference value fails its op without stopping the
pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_present_finite_and_has_its_unit(workload, trace):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "0.01",
               "--trace", trace, "--small")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _argvs(workload, seed):
    return [op["argv"] for p in range(3) for op in workloads.plan_pass(workload, seed, p)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_seed_yields_identical_argv_lists(workload):
    assert _argvs(workload, 42) == _argvs(workload, 42)
    assert _argvs(workload, 42) != _argvs(workload, 43)


def test_quantile_estimate():
    assert run._quantile([7.5] * 12, 0.9) == pytest.approx(7.5)
    assert run._quantile(list(range(1, 102)), 0.5) == pytest.approx(51.0)
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    assert run._quantile(values, 0.5) < run._quantile(values, 0.9) < 128.0


def test_every_op_carries_a_speed_factor():
    reply = worker.run_pass([_other_op()], check=False)
    factor = reply["ops"][0]["factor"]
    assert math.isfinite(factor) and factor > 0


def _key(op):
    spec = op["spec"]
    if op["kind"] == "beta2-cdf":
        return ("determinant", spec["N"], spec["alpha"])
    if op["kind"] in ("limit-cdf", "limit-pdf"):
        return ("limit", spec["beta"], spec["m"])
    if op["kind"] == "validate" and spec["route"] != "series":
        return None  # these routes keep no per-parameter cache
    m = round(0.5 * spec["beta"] * (spec["M"] - spec["N"] + 1) - 1)
    return ("series", spec["N"], m)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_op_in_a_pass_reuses_a_parameter_key(workload):
    for p in range(4):
        keys = [_key(op) for op in workloads.plan_pass(workload, 9, p)]
        keys = [k for k in keys if k is not None]
        assert len(keys) == len(set(keys))


def _n2_op():
    return {
        "argv": ["exact-cdf", "--beta", "2.0", "--N", "2", "--M", "4",
                 "--grid", "0:0.5:6", "--format", "json"],
        "kind": "exact-cdf",
        "spec": {"beta": 2.0, "N": 2, "M": 4, "m": 2},
    }


def _other_op():
    return {
        "argv": ["limit-cdf", "--beta", "2.0", "--m", "1", "--grid", "0:10:4",
                 "--format", "json"],
        "kind": "limit-cdf",
        "spec": {"beta": 2.0, "m": 1},
    }


def test_right_references_pass():
    reply = worker.run_pass([_n2_op(), _other_op()])
    assert [o["failed"] for o in reply["ops"]] == [None, None]


def test_wrong_reference_value_fails_the_op_and_the_pass_goes_on(monkeypatch):
    monkeypatch.setattr(checks, "q_oracle_n2", lambda params, x, quad_tol=1e-10: 0.5)
    reply = worker.run_pass([_n2_op(), _other_op()])
    first, second = reply["ops"]
    assert first["failed"] and "q_oracle_n2" in first["failed"]
    assert second["failed"] is None


def test_reference_that_raises_fails_the_op_and_the_pass_goes_on(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("deliberately broken reference")

    monkeypatch.setattr(checks, "q_exact_beta2", broken)
    reply = worker.run_pass([_n2_op(), _other_op()])
    first, second = reply["ops"]
    assert first["failed"].startswith("check raised ZeroDivisionError")
    assert second["failed"] is None


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "series_sweep", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
