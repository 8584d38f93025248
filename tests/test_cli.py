"""End-to-end command-line behavior: formats, exit codes, seeding."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagmin
from lagmin import cli, core
from lagmin.beta2 import q_exact_beta2
from lagmin.cli import DEFAULT_SEED, build_parser, main
from lagmin.core import params_new
from lagmin.exact import moment, p_exact, q_exact, q_oracle_n2
from lagmin.limit import LimitParams, p_limit, q_limit
from lagmin.sampler import ks_validate, load_batch, run_batch


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


def test_exact_pdf_at_a_large_jack_index(capsys):
    # m = 100: the density constant's m! overflowed here and the command
    # printed a traceback
    code, out, err = run_cli(capsys, "exact-pdf", "--beta", "2", "--N", "2", "--M", "102",
                             "--grid", "0:0.5:3")
    assert code == 0 and "error:" not in err
    _, rows = parse_csv(out)
    ps = [float(row["P"]) for row in rows]
    assert ps[0] == 0.0 and 0.0 < ps[1] < np.inf and ps[2] == 0.0


def test_moments_json(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--beta", "2", "--N", "4", "--M", "4",
        "--p", "1", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    res = {r["p"]: r["value"] for r in doc["results"]}
    assert res[1] == pytest.approx(4.0**-3, rel=1e-12, abs=0.0)
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


def test_limit_kmax_too_small_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(core, "K_MAX", 4)
    for cmd in ("limit-cdf", "limit-pdf"):
        code, out, err = run_cli(capsys, cmd, "--beta", "1", "--m", "1",
                                 "--grid", "0:40:3")
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


@pytest.fixture(scope="module")
def fresh_interpreter():
    """What one fresh interpreter saw (this test process imports scipy,
    concurrent.futures and fractions itself): exact-cdf, limit-cdf,
    beta2-cdf and validate at their defaults, then a short validate and
    selfcheck, then one run_batch that splits across two threads."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import lagmin.cli
        from lagmin.core import params_new
        from lagmin.sampler import run_batch
        main = lagmin.cli.main
        deferred = ("concurrent.futures", "fractions")
        with contextlib.redirect_stdout(io.StringIO()):
            defaults = [
                main(["exact-cdf", "--beta", "2", "--N", "3", "--M", "4", "--grid", "0:0.3:5"]),
                main(["limit-cdf", "--beta", "2", "--m", "1", "--grid", "0:4:5"]),
                main(["beta2-cdf", "--N", "3", "--M", "4", "--grid", "0:0.3:5"]),
                main(["validate", "--beta", "1", "--N", "2", "--M", "4"]),
            ]
            loaded = [m for m in deferred if m in sys.modules]
            codes = [main(["validate", "--beta", "1", "--N", "2", "--M", "4",
                           "--samples", "200", "--seed", "3"]), main(["selfcheck"])]
        scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        # 32 blocks of N = 50 draws: two spans of the least size
        p = params_new(1.0, 50, 52)
        one, two = (run_batch(p, 8192, 5, workers=w).values for w in (1, 2))
        print(json.dumps({"defaults": defaults, "deferred": loaded, "codes": codes,
                          "scipy": scipy, "split": "concurrent.futures" in sys.modules,
                          "same": one.tobytes() == two.tobytes()}))
    """)
    src = str(Path(lagmin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_import_no_scipy(fresh_interpreter):
    doc = fresh_interpreter
    assert doc["codes"][0] in (0, 1) and doc["codes"][1] == 0
    assert doc["scipy"] == []


def test_thread_pool_and_fractions_load_only_when_used(fresh_interpreter):
    doc = fresh_interpreter
    assert doc["defaults"][:3] == [0, 0, 0] and doc["defaults"][3] in (0, 1)
    assert doc["deferred"] == []
    # the split run loaded the pool, and it returns the one-thread values
    assert doc["split"] and doc["same"]


def test_validate_split_half_route(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--beta", "0.7", "--N", "3", "--M", "5",
        "--samples", "1000", "--seed", "9", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["route"] == "split-half"
    assert doc["config"]["stream"] == 3


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2")[0] == 2
    assert run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2", "--M", "3",
                   "--grid", "0:0.5")[0] == 2
    assert run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2", "--M", "3",
                   "--grid", "0.5:0.1:5")[0] == 2
    assert run_cli(capsys, "moments", "--beta", "2", "--N", "2", "--M", "3",
                   "--p", "0")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    # a grid bound or span past the float range is refused by name, not as
    # the NaN that 0 * inf would put in the grid
    for grid in ("0:inf:3", "0:1e309:3", "-1e308:1e308:3"):
        code, out, err = run_cli(capsys, "limit-cdf", "--beta", "2", "--m", "1", f"--grid={grid}")
        assert (code, out) == (2, "") and "argument --grid" in err and "nan" not in err
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
        ("limit-pdf", "--beta", "1", "--m", "2", "--grid", "0:5:3"),
        ("beta2-cdf", "--N", "2", "--M", "4", "--grid", "0:0.5:3", "--format", "json"),
        ("no-such-command",),
        ("exact-cdf", "--beta", "2", "--N", "3", "--M", "5", "--grid", "0:0.3:4", "--foo"),
        ("exact-pdf", "--beta", "1", "--N", "3", "--M", "6", "--grid", "0:0.2:3"),
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert build_parser() is build_parser()
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [r[0] for r in fresh] == [0, 2, 0, 0, 0, 2, 2, 0]


def test_subcommand_arguments_come_with_its_name(capsys):
    # a well-formed command line is read from COMMANDS and builds no
    # parser; help builds the one argparse parser, and both read the same
    # in any order of use
    build_parser.cache_clear()
    assert run_cli(capsys, "limit-cdf", "--beta", "1", "--m", "1", "--grid", "0:5:3")[0] == 0
    assert build_parser.cache_info().currsize == 0
    first = run_cli(capsys, "limit-pdf", "-h")
    assert first[0] == 0 and "--grid START:STOP:POINTS" in first[1]
    assert build_parser.cache_info().currsize == 1
    top = run_cli(capsys, "-h")
    assert top[0] == 0 and "limit-pdf" in top[1] and "--grid" not in top[1]
    assert run_cli(capsys, "limit-pdf", "-h") == first
    build_parser.cache_clear()
    assert run_cli(capsys, "-h") == top
    assert run_cli(capsys, "limit-pdf", "-h") == first


#: A valid command line for every command, without its name.
_VALID = {
    "exact-cdf": ("--beta", "2", "--N", "3", "--M", "5", "--grid", "0:0.3:4", "--format", "json"),
    "exact-pdf": ("--grid", "0:0.3:4", "--N", "3", "--M", "5", "--beta=0.5", "--out", "p.csv"),
    "beta2-cdf": ("--N", "3", "--M", "5", "--grid", "0:0.3:4"),
    "moments": ("--beta", "2", "--N", "3", "--M", "5", "--p", "1", "2", "--format", "csv"),
    "limit-cdf": ("--beta", "1", "--m", "2", "--grid", "0:5:3"),
    "limit-pdf": ("--beta", "6", "--m", "0", "--gr", "0:5:3", "--fo=json"),
    "sample": ("--beta", "2", "--N", "3", "--M", "5", "--samples", "4", "--seed", "9",
               "--workers", "2", "--out", "s.txt"),
    "validate": ("--beta", "0.7", "--N", "3", "--M", "5"),
    "selfcheck": (),
}


@pytest.mark.parametrize("name", list(_VALID))
def test_reader_gives_the_top_level_namespace(name):
    # the lines of exact-pdf and limit-pdf spell a flag as only argparse
    # reads it (--beta=0.5, --gr, --fo=json), so the reader leaves them
    assert set(_VALID) == set(cli.COMMANDS)
    argv = [name, *_VALID[name]]
    via_top = build_parser().parse_args(argv)
    read = cli._read(argv)
    assert read == (None if name in ("exact-pdf", "limit-pdf") else via_top)
    assert cli._parse(argv) == via_top
    assert via_top.command == name


_TOP_USAGE = (
    "usage: lagmin [-h]\n"
    "              {exact-cdf,exact-pdf,beta2-cdf,moments,limit-cdf,limit-pdf,sample,validate,"
    "selfcheck}\n"
    "              ...\n")
_CHOICES = ("(choose from 'exact-cdf', 'exact-pdf', 'beta2-cdf', 'moments', 'limit-cdf', "
            "'limit-pdf', 'sample', 'validate', 'selfcheck')")
_E = ("exact-cdf", "--beta", "2", "--N", "3", "--M", "5", "--grid", "0:0.3:3")


@pytest.mark.parametrize("argv,expected", [
    (("-h",), (0, _TOP_USAGE + (
        "\nsmallest-eigenvalue laws of the fixed-trace beta-Laguerre ensemble\n"
        "\npositional arguments:\n"
        "  {exact-cdf,exact-pdf,beta2-cdf,moments,limit-cdf,limit-pdf,sample,validate,"
        "selfcheck}\n"
        "    exact-cdf           survival function Q(x) on a grid\n"
        "    exact-pdf           density P(x) on a grid\n"
        "    beta2-cdf           Q(x) at beta=2 via the determinant route\n"
        "    moments             moments mu_p of the smallest eigenvalue\n"
        "    limit-cdf           hard-edge limiting Q(y)\n"
        "    limit-pdf           hard-edge limiting P(y)\n"
        "    sample              Monte Carlo batch in the batch text format\n"
        "    validate            KS-test Monte Carlo draws against theory\n"
        "    selfcheck           run the fast internal invariant suite\n"
        "\noptions:\n"
        "  -h, --help            show this help message and exit\n"), "")),
    (("exact-cdf", "-h"), (0, (
        "usage: lagmin exact-cdf [-h] --beta BETA --N N_DIM --M M_DIM --grid START:STOP:POINTS\n"
        "                        [--format {csv,json}] [--out OUT]\n"
        "\noptions:\n"
        "  -h, --help            show this help message and exit\n"
        "  --beta BETA           Dyson index > 0\n"
        "  --N N_DIM\n"
        "  --M M_DIM\n"
        "  --grid START:STOP:POINTS\n"
        "  --format {csv,json}\n"
        "  --out OUT             output file (default: stdout)\n"), "")),
    (("no-such-command",), (2, "", _TOP_USAGE + (
        "lagmin: error: argument command: invalid choice: 'no-such-command' " + _CHOICES + "\n"))),
    (("exact",), (2, "", _TOP_USAGE + (
        "lagmin: error: argument command: invalid choice: 'exact' " + _CHOICES + "\n"))),
    ((*_E, "--foo"), (2, "", _TOP_USAGE + "lagmin: error: unrecognized arguments: --foo\n")),
    ((*_E, "stray"), (2, "", _TOP_USAGE + "lagmin: error: unrecognized arguments: stray\n")),
], ids=["help", "command-help", "unknown-command", "abbreviated-command",
        "unrecognized-argument", "stray-positional"])
def test_help_and_usage_error_bytes(capsys, monkeypatch, argv, expected):
    # the text of argparse's two-level parser, kept by the one-parser path:
    # written out literally, at a fixed terminal width, on a fresh process's
    # parsers and on reused ones
    monkeypatch.setenv("COLUMNS", "100")
    build_parser.cache_clear()
    assert run_cli(capsys, *argv) == expected
    assert run_cli(capsys, *argv) == expected


def test_import_builds_no_parser():
    # nor does a well-formed command line: the reader takes it from COMMANDS
    script = textwrap.dedent("""
        import lagmin.cli as cli
        sizes = [cli.build_parser.cache_info().currsize]
        for argv in (
            ["exact-cdf", "--beta", "2", "--N", "3", "--M", "5", "--grid", "0:0.3:4"],
            ["moments", "--beta", "2", "--N", "3", "--M", "5", "--p", "1", "2", "--format", "json"],
            ["validate", "--beta", "2", "--N", "3", "--M", "5", "--samples", "50", "--seed", "1"],
        ):
            assert cli.main(argv) == 0, argv
        sizes.append(cli.build_parser.cache_info().currsize)
        print(*sizes)
    """)
    src = str(Path(lagmin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "0"]


#: Values each flag takes in a drawn command line: ones its type and
#: choices accept, and ones they refuse.
_ACCEPTED = {"--beta": ("2", "0.5", "1e3"), "--N": ("3", "12"), "--M": ("5", "40"),
             "--grid": ("0:0.3:4", "0.1:1:2"), "--m": ("0", "3"), "--p": ("1", "2", "7"),
             "--samples": ("4", "10000"), "--seed": ("9", "0"), "--workers": ("1", "2"),
             "--format": ("csv", "json"), "--out": ("o.csv", "x=1")}
_REFUSED = {"--beta": ("abc", ""), "--N": ("0", "1.5"), "--M": ("x",), "--grid": ("0:1", "1:0:3"),
            "--m": ("m",), "--p": ("0",), "--samples": ("0",), "--seed": ("1.5",),
            "--workers": ("w",), "--format": ("xml", "CSV")}
_FOREIGN = ("--foo", "--Beta", "--n", "--grids", "-N", "--m", "--p", "--samples", "--grid")


@st.composite
def _command_lines(draw):
    """(perturbation, argv): a well-formed line drawn from COMMANDS with,
    unless the perturbation is "none", one token added, dropped or changed."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    pairs = []
    for flag, keywords in cli.COMMANDS[name][1]:
        if keywords.get("required") or draw(st.booleans()):
            count = draw(st.integers(1, 3)) if keywords.get("nargs") == "+" else 1
            pairs.append([flag, *(draw(st.sampled_from(_ACCEPTED[flag])) for _ in range(count))])
    pairs = draw(st.permutations(pairs))
    kinds = ["none", "help", "foreign", "empty-out", "stray"]
    if pairs:
        kinds[1:1] = ["refused", "dash", "repeat", "drop", "equals", "prefix"]
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(pairs)))
    i = draw(st.integers(0, len(pairs) - 1)) if pairs else 0
    if kind == "help":
        pairs.insert(at, [draw(st.sampled_from(("-h", "--help", "--he")))])
    elif kind == "foreign":
        pairs.insert(at, [draw(st.sampled_from(_FOREIGN)), "1"])
    elif kind == "empty-out":
        pairs.insert(at, ["--out", ""])
    elif kind == "stray":
        pairs.insert(at, [draw(st.sampled_from(("stray", "3", "")))])
    elif kind == "equals":
        pairs[i][:2] = [pairs[i][0] + "=" + pairs[i][1]]
    elif kind == "prefix":
        pairs[i][0] = pairs[i][0][:draw(st.integers(2, len(pairs[i][0]) - 1))]
    elif kind == "repeat":
        pairs.insert(at, list(pairs[i]))
    elif kind == "dash":
        pairs[i][-1] = draw(st.sampled_from(("-1", "-0.5", "-", "--", "-x", "--beta")))
    elif kind == "drop":
        del pairs[i]
    elif kind == "refused":
        pair = draw(st.sampled_from([pair for pair in pairs if pair[0] in _REFUSED]))
        pair[1] = draw(st.sampled_from(_REFUSED[pair[0]]))
    return kind, [name, *(token for pair in pairs for token in pair)]


def _outcome(call):
    """(result or exit code, stdout, stderr) of call()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(_command_lines())
def test_reader_agrees_with_argparse(line):
    # every line argparse accepts gives its Namespace, every other line
    # main's exit code and bytes are argparse's, at a fixed terminal width
    kind, argv = line
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}):
        expected = _outcome(lambda: build_parser().parse_args(argv))
        if isinstance(expected[0], argparse.Namespace):
            assert expected[1:] == ("", "")
            assert cli._parse(argv) == expected[0]
        else:
            assert _outcome(lambda: main(argv)) == expected
    if kind == "none":
        assert cli._read(argv) == expected[0]


@pytest.mark.parametrize("beta", ["inf", "-inf", "nan", "1e-300", "0", "1e20"])
def test_bad_beta_is_one_error_line(capsys, beta):
    # at 1e20 the Jack index 1.5e20 is past 2^52, where a double cannot
    # tell an integer
    code, out, err = run_cli(
        capsys, "exact-cdf", f"--beta={beta}", "--N", "3", "--M", "5", "--grid", "0:0.3:3",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err



def test_limit_at_a_huge_jack_index_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "limit-cdf", "--beta", "2", "--m", str(10**20), "--grid", "0:1:2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^52" in err
    assert "Traceback" not in err


def test_limit_at_the_largest_jack_index(capsys):
    # Q streams 16 rows, not m; D_m stops at its underflow, and P(1) then
    # needs the power u^m, past K_MAX: one error line, within a second
    m = str(2**51 - 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "limit-pdf", "--beta", "2", "--m", m, "--grid", "0:1:2")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "k_max" in err
    code, out, err = run_cli(capsys, "limit-cdf", "--beta", "2", "--m", m, "--grid", "0:1:2")
    assert code == 0
    assert [float(row["Q"]) for row in parse_csv(out)[1]] == pytest.approx([1.0, 1.0], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("beta,m", [("1e200", "1"), ("1e150", "2"), ("1e308", "3")])
def test_limit_pdf_at_huge_beta_is_one_error_line(capsys, beta, m):
    # the density constant D_m overflows a double here (it used to raise
    # a bare OverflowError)
    code, out, err = run_cli(capsys, "limit-pdf", "--beta", beta, "--m", m, "--grid", "0:1:2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "D_m overflows" in err
    assert "Traceback" not in err


def test_limit_cdf_at_huge_beta_underflows(capsys):
    # the series used to miss its stopping rule here and print an error
    code, out, err = run_cli(capsys, "limit-cdf", "--beta", "1e21", "--m", "1", "--grid", "0:1:2")
    assert code == 0 and err == ""
    assert [row["Q"] for row in parse_csv(out)[1]] == ["1", "0"]


def test_split_half_of_one_sample_is_one_error_line(capsys):
    # beta=1, N=M=3 has no Jack index and N != 2, so validate splits the
    # sample in halves; one draw leaves an empty half
    code, out, err = run_cli(capsys, "validate", "--beta", "1", "--N", "3", "--M", "3", "--samples", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--grid", "0:1:1"), ("--grid", "0:1:x"), ("--N", "2.5")])
def test_grid_and_integer_parse_errors_are_usage_errors(capsys, flag, value):
    args = {"--beta": "2", "--N": "2", "--M": "3", "--grid": "0:0.5:3", flag: value}
    code, out, err = run_cli(capsys, "exact-cdf", *(t for kv in args.items() for t in kv))
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ") and f"error: argument {flag}: " in err
    assert "Traceback" not in err

def test_accuracy_flags_only_on_the_limit_commands(capsys):
    # the limit commands lost --tol/--kmax too: on every command they are
    # one usage error, and the limit config carries no accuracy keys
    base = {
        "exact-cdf": ("--beta", "2", "--N", "2", "--M", "3", "--grid", "0:0.5:3"),
        "exact-pdf": ("--beta", "2", "--N", "2", "--M", "3", "--grid", "0:0.5:3"),
        "beta2-cdf": ("--N", "2", "--M", "3", "--grid", "0:0.5:3"),
        "moments": ("--beta", "2", "--N", "2", "--M", "3", "--p", "1"),
        "limit-cdf": ("--beta", "2", "--m", "1", "--grid", "0:4:3"),
        "limit-pdf": ("--beta", "2", "--m", "1", "--grid", "0:4:3"),
        "sample": ("--beta", "2", "--N", "2", "--M", "3", "--samples", "4"),
        "validate": ("--beta", "2", "--N", "2", "--M", "3", "--samples", "4"),
    }
    for cmd, args in base.items():
        for flag in (("--tol", "1e-8"), ("--kmax", "400")):
            code, out, err = run_cli(capsys, cmd, *args, *flag)
            assert code == 2 and out == ""
            assert err.count("error:") == 1 and flag[0] in err
    code, out, _ = run_cli(capsys, "limit-cdf", *base["limit-cdf"])
    assert code == 0
    config, _ = parse_csv(out)
    assert config == {"command": "limit-cdf", "beta": 2.0, "m": 1}


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


@pytest.mark.parametrize("argv", [
    ("exact-cdf", "--beta", "2", "--N", "2", "--M", "3", "--grid", "0:0.5:3"),
    ("exact-cdf", "--beta", "2", "--N", "2", "--M", "3", "--grid", "0:0.5:3",
     "--format", "json"),
    ("sample", "--beta", "2", "--N", "2", "--M", "3", "--samples", "4"),
    ("validate", "--beta", "2", "--N", "2", "--M", "3", "--samples", "4"),
])
@pytest.mark.parametrize("where", ["missing", "directory", "empty", "file-parent"])
def test_unwritable_out_is_one_error_line(capsys, monkeypatch, tmp_path, argv, where):
    # the path is rejected before any work: neither the law nor the sampler runs
    def never(*args):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "q_exact", never)
    monkeypatch.setattr(cli, "run_batch", never)
    (tmp_path / "f").write_text("")
    path = {"missing": str(tmp_path / "no" / "such" / "x.txt"), "directory": str(tmp_path),
            "empty": "", "file-parent": str(tmp_path / "f" / "x.txt")}[where]
    code, out, err = run_cli(capsys, *argv, "--out", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_open_failure_after_the_check_is_one_error_line(capsys, monkeypatch, tmp_path):
    # a path that passes the early check can still fail to open (permissions,
    # a full disk): the write itself reports the same one line
    monkeypatch.setattr(cli, "_check_out", lambda out: None)
    code, out, err = run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2", "--M", "3",
                             "--grid", "0:0.5:3", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_output_bytes(capsys):
    # the layout is written out literally; only the numbers come from the
    # library, so a change to indent, key order, header or %.17g fails here
    def g(v):
        return f"{v:.17g}"

    p = params_new(2.0, 2, 3)
    q = [q_exact(p, x) for x in (0.0, 0.25, 0.5)]
    assert run_cli(capsys, "exact-cdf", "--beta", "2", "--N", "2", "--M", "3",
                   "--grid", "0:0.5:3") == (0, (
        '# config: {"M": 3, "N": 2, "beta": 2.0, "command": "exact-cdf", "jack_index": 1}\n'
        "x,Q\n"
        f"0,{g(q[0])}\n0.25,{g(q[1])}\n0.5,{g(q[2])}\n"), "")

    p = params_new(4.0, 2, 3)
    d = [p_exact(p, x) for x in (0.0, 0.5)]
    assert run_cli(capsys, "exact-pdf", "--beta", "4", "--N", "2", "--M", "3",
                   "--grid", "0:0.5:2", "--format", "json") == (0, (
        '{\n  "config": {\n    "command": "exact-pdf",\n    "beta": 4.0,\n'
        '    "N": 2,\n    "M": 3,\n    "jack_index": 3\n  },\n  "results": [\n'
        f'    {{\n      "x": 0.0,\n      "P": {d[0]!r}\n    }},\n'
        f'    {{\n      "x": 0.5,\n      "P": {d[1]!r}\n    }}\n'
        '  ],\n  "warnings": []\n}\n'), "")

    q = [q_exact_beta2(3, 5, x) for x in (0.0, 0.25)]
    assert run_cli(capsys, "beta2-cdf", "--N", "3", "--M", "5", "--grid", "0:0.25:2") == (0, (
        '# config: {"M": 5, "N": 3, "beta": 2.0, "command": "beta2-cdf"}\n'
        f"x,Q\n0,{g(q[0])}\n0.25,{g(q[1])}\n"), "")

    p = params_new(2.0, 3, 3)
    mu = [moment(p, 1), moment(p, 2)]
    assert run_cli(capsys, "moments", "--beta", "2", "--N", "3", "--M", "3",
                   "--p", "1", "2", "--format", "json") == (0, (
        '{\n  "config": {\n    "command": "moments",\n    "beta": 2.0,\n'
        '    "N": 3,\n    "M": 3,\n    "jack_index": 0\n  },\n  "results": [\n'
        f'    {{\n      "p": 1,\n      "value": {mu[0]!r}\n    }},\n'
        f'    {{\n      "p": 2,\n      "value": {mu[1]!r}\n    }}\n'
        '  ],\n  "warnings": []\n}\n'), "")

    lp = LimitParams(1.0, 2)
    q = [q_limit(lp, y) for y in (0.0, 2.5)]
    assert run_cli(capsys, "limit-cdf", "--beta", "1", "--m", "2", "--grid", "0:2.5:2") == (0, (
        '# config: {"beta": 1.0, "command": "limit-cdf", "m": 2}\n'
        f"y,Q\n0,{g(q[0])}\n2.5,{g(q[1])}\n"), "")

    d = p_limit(lp, 2.5)
    assert run_cli(capsys, "limit-pdf", "--beta", "1", "--m", "2", "--grid", "2.5:5:2",
                   "--format", "json") == (0, (
        '{\n  "config": {\n    "command": "limit-pdf",\n    "beta": 1.0,\n'
        '    "m": 2\n  },\n  "results": [\n'
        f'    {{\n      "y": 2.5,\n      "P": {d!r}\n    }},\n'
        f'    {{\n      "y": 5.0,\n      "P": {p_limit(lp, 5.0)!r}\n    }}\n'
        '  ],\n  "warnings": []\n}\n'), "")

    p = params_new(2.0, 3, 3)
    rep = ks_validate(run_batch(p, 50, seed=7), lambda x: 1.0 - q_exact(p, x), level=0.01)
    assert run_cli(capsys, "validate", "--beta", "2", "--N", "3", "--M", "3",
                   "--samples", "50", "--seed", "7") == (0, (
        '# config: {"M": 3, "N": 3, "beta": 2.0, "command": "validate", "jack_index": 0, '
        '"samples": 50, "seed": 7, "stream": 3, "workers": 1}\n'
        "d_stat,n,p_value,level,pass,route\n"
        f"{g(rep.d_stat)},50,{g(rep.p_value)},0.01,{'true' if rep.passed else 'false'},series\n"
    ), "")

    code, out, err = run_cli(capsys, "sample", "--beta", "2", "--N", "3", "--M", "3",
                             "--samples", "2", "--seed", "7")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        '{"beta": 2.0, "n_dim": 3, "m_dim": 3, "seed": 7, "count": 2, "stream": 3}')


@pytest.mark.parametrize("payload", [
    {"config": {"command": "validate", "beta": 0.5, "N": 3, "M": 5, "jack_index": None},
     "results": [{"d_stat": 0.125, "n": 50, "p_value": 1e-300, "pass": False, "route": "series"}],
     "warnings": []},
    {"results": [{"x": 0.0, "Q": float("nan")}, {"x": float("inf"), "Q": float("-inf")},
                 {"x": -0.0, "Q": 5e-324}, {"x": 1.7976931348623157e308, "Q": True}],
     "warnings": ["beta=2 \u2264 \"quoted\"\n\ttab \x00 \ud800", ""]},
    {"empty": [], "none": {}, "nested": [[1, [2, {}]], {"k": [[]]}], "big": 2**70,
     "numpy": [np.float64(0.1), np.float64("nan"), np.float64("inf")], "tuple": (1, -2)},
    [], {}, 1.5, "text", None,
], ids=["validate", "nonfinite", "nested", "empty-list", "empty-dict", "float", "str", "null"])
def test_json_writer_is_json_dumps_indent_2(payload):
    # _emit writes JSON without json.dumps(indent=2), which runs the
    # pure-Python encoder; the bytes must be the same, NaN and inf included
    assert cli._json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("var,col", [("x", "Q"), ("y", "P")])
def test_grid_writer_is_the_row_dict_document(var, col):
    # a grid is written from one row template per format, without row
    # dicts; the bytes are those of the row-dict document: json.dumps
    # (indent=2) for JSON, and the %.17g CSV of the dicts for CSV
    nan, inf = float("nan"), float("inf")
    points = [0.0, -0.0, 5e-324, 0.1, 1e-300, 1.7976931348623157e308, inf, -inf, nan, 2.5]
    values = [nan, inf, -inf, -0.0, 5e-324, 0.30000000000000004, 1e22, 1.0, 0.0, 1 / 3]
    config = {"command": "limit-cdf", "beta": 2.0, "m": 1}
    warn = ["outside the envelope", "\u2264 \"q\""]
    rows = [{var: x, col: v} for x, v in zip(points, values)]
    for fmt, expected in (
        ("json", json.dumps({"config": config, "results": rows, "warnings": warn}, indent=2) + "\n"),
        ("csv", "\n".join(["# config: " + json.dumps(config, sort_keys=True), f"{var},{col}",
                           *(f"{x:.17g},{v:.17g}" for x, v in zip(points, values))]) + "\n"),
    ):
        fh = io.StringIO()
        cli._emit(config, (var, col, points, values), warn, fmt, fh)
        assert fh.getvalue() == expected


def test_every_command_is_documented():
    doc = cli.__doc__.split("Subcommands\n-----------\n")[1].split("\n\n")[0]
    listed = {ln.split()[0] for ln in doc.splitlines() if not ln.startswith(" ")}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    shown = {ln.split()[1] for ln in block.splitlines() if ln.startswith("lagmin ")}
    for name in cli.COMMANDS:
        assert name in listed, f"{name} missing from the cli docstring"
        assert name in shown, f"{name} missing from the README command block"
