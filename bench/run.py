"""Run one benchmark workload of lagmin and print its metrics.

    python3 bench/run.py --workload series_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's ops come from ``workloads.plan_pass`` and run in
passes, each pass in a fresh worker process (``worker.py``), one op at a
time: a closed loop with one client.  The number of passes follows from
``--seconds`` (see PASS_SECONDS).

``--trace 0`` prints the end-to-end metrics:

    setup_s      median time from spawning an interpreter until
                 ``import lagmin.cli`` completes (every worker spawn, plus
                 import-only probes up to SETUP_SAMPLES)
    ops_per_s    ops completed per second of op time
    op_p50_ms    median op latency
    op_p90_ms    90th-percentile op latency
    peak_rss_mb  largest ru_maxrss of a worker at the end of its ops

The times are corrected for the speed of the host, which on a shared
virtual machine slows by up to 2x for a second or two at a time: a fixed
pure-Python probe (``speed.py``) runs right before and right after every
op, and the op's time is scaled to the probe's reference speed by the
probes around it; each set-up time is scaled by an import probe run right
before its spawn.  The uncorrected metrics and the range of the speed
factors are printed on the ``#`` lines and kept in the run record.  p50
and p90 are Harrell-Davis estimates (``_quantile``).

``--trace 1`` runs a fixed number of passes (TRACE_PASSES) twice each,
untraced and then traced, and prints the per-layer metrics of ``spans.layer_metrics``; the
span file is written to .bench_out/.

Every op is checked against a reference (``checks.py``); the last line of
stdout is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
A run record with provenance, counts and output digests is written to
.bench_out/.  Exit status 2 means there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
# Op time of one pass at the commit that defined the benchmark (2-core Xeon,
# 2.1 GHz).  A run makes round(--seconds / PASS_SECONDS) passes: about
# --seconds of op time there, and the same ops on every run of a seed
# whatever the speed of the machine or program.
PASS_SECONDS = {"series_sweep": 4.5, "mc_validate": 3.2, "cross_routes": 3.0}
# Traced runs make fewer passes, each twice (untraced, then traced).
TRACE_PASSES = {"series_sweep": 2, "mc_validate": 3, "cross_routes": 3}
WALL_LIMIT_S = 110.0  # no pass starts after this; a run must end within 180 s
WORKER_TIMEOUT_S = 60.0


class WorkerFailed(RuntimeError):
    pass


def _spawn(request: dict | None, timeout: float) -> tuple:
    """Run a worker; returns (reply, set-up seconds, set-up speed factor).

    The factor comes from an import probe right before the spawn.
    """
    try:
        factor = speed.IMPORT_REF_S / speed.import_probe(ROOT, timeout)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        raise WorkerFailed(f"import probe failed: {exc}") from None
    argv = [sys.executable, str(BENCH / "worker.py"), str(SRC)]
    if request is None:
        argv.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(request) if request else "", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker did not finish within {timeout:.0f} s") from None
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {err.strip()[-400:]}")
    try:
        reply = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerFailed(f"worker sent no reply: {err.strip()[-400:]}") from None
    imported = reply["imported"]
    # perf_counter is system-wide on Linux; elsewhere fall back to the exit time
    setup = imported - t0 if t0 < imported < t1 else t1 - t0
    return reply, setup, factor


def _provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "why": workloads.WORKLOADS[args.workload],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights; op costs are spread thinly around p50 and p90, where one
    order statistic jumps with every small change of any op's time.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))

    steps = 32  # Simpson's rule on each interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        ends = density(i / n) + density((i + 1) / n)
        inner = sum((4 if k % 2 else 2) * density(i / n + k * h) for k in range(1, steps))
        weights.append((ends + inner) * h / 3.0)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="cheap passes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "lagmin" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'lagmin'} is missing", file=sys.stderr)
        return 2

    start = time.monotonic()
    setups, setup_factors, factors, rss_kb, failures, trace_errors = [], [], [], [], [], []
    span_passes, versions, missing = [], {}, []
    traced_ns = untraced_ns = 0

    def spawn(ops, trace, check):
        timeout = min(WORKER_TIMEOUT_S, 170.0 - (time.monotonic() - start))
        reply, setup, factor = _spawn({"ops": ops, "trace": trace, "check": check}, timeout)
        setups.append(setup)
        setup_factors.append(factor)
        rss_kb.append(reply["rss_kb"])
        versions.update(reply["versions"])
        for op in reply["ops"]:
            op["raw_ns"] = op["ns"]
            op["ns"] = op["ns"] * op["factor"]
            factors.append(op["factor"])
        return reply

    if args.trace:
        passes = TRACE_PASSES[args.workload]
    else:
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    attempted = failed = rejected = 0
    latencies, raw_latencies, digests, by_kind, op_log = [], [], [], {}, []
    for p in range(passes):
        if time.monotonic() - start > WALL_LIMIT_S:
            break  # the record's "passes" shows the shortfall
        ops = workloads.plan_pass(args.workload, args.seed, p, args.small)
        attempted += len(ops)
        try:
            reply = spawn(ops, False, True)
            treply = spawn(ops, True, False) if args.trace else None
        except WorkerFailed as exc:
            failures.append(f"pass {p}: {exc}")
            failed += len(ops)
            break
        digests.append([o["digest"] for o in reply["ops"]])
        for op, res in zip(ops, reply["ops"]):
            latencies.append(res["ns"])
            raw_latencies.append(res["raw_ns"])
            by_kind.setdefault(op["kind"], []).append(round(res["ns"] / 1e6, 3))
            op_log.append([p, op["kind"], round(res["raw_ns"] / 1e6, 4), round(res["factor"], 4)])
            if res["failed"]:
                failed += 1
                failures.append(f"{' '.join(op['argv'])}: {res['failed']}")
            elif op["kind"] == "validate" and res["rc"] == 1:
                rejected += 1
        if treply:
            missing = treply["missing"]
            untraced_ns += sum(o["ns"] for o in reply["ops"])
            traced_ns += sum(o["ns"] for o in treply["ops"])
            if [o["digest"] for o in treply["ops"]] != digests[-1]:
                trace_errors.append(f"pass {p}: tracing changed the outputs")
            pass_spans = treply["spans"]
            trace_errors += spans.consistency_errors(pass_spans, spans.self_times(pass_spans))
            span_passes.append(pass_spans)

    if not latencies:
        print("error: no op completed: " + "; ".join(failures)[:2000], file=sys.stderr)
        return 1

    if not args.trace:
        while len(setups) < SETUP_SAMPLES and time.monotonic() - start < 160.0:
            try:
                _, setup, factor = _spawn(None, 30.0)
                setups.append(setup)
                setup_factors.append(factor)
            except WorkerFailed as exc:
                failures.append(f"set-up probe: {exc}")
                break

    n_ops = len(latencies)

    def timing(lat_ns, setup_s):
        lat_ms = [ns / 1e6 for ns in lat_ns]
        p90 = _quantile(lat_ms, 0.9)
        return {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(n_ops / (sum(lat_ns) / 1e9), "1/s"),
            "op_p50_ms": _metric(_quantile(lat_ms, 0.5), "ms"),
            "op_p90_ms": _metric(p90, "ms"),
        }, sum(1 for v in lat_ms if v > p90)

    raw_setup = statistics.median(setups)
    setup = statistics.median(s * f for s, f in zip(setups, setup_factors))
    raw_metrics, _ = timing(raw_latencies, raw_setup)
    if args.trace:
        overhead = traced_ns / untraced_ns - 1.0 if untraced_ns else 0.0
        metrics = spans.layer_metrics(span_passes, overhead)
        beyond_p90 = timing(latencies, setup)[1]
    else:
        metrics, beyond_p90 = timing(latencies, setup)
        metrics["peak_rss_mb"] = _metric(max(rss_kb) / 1024.0, "MB")
    correct = not failures and not trace_errors

    all_digest = hashlib.sha256(" ".join(d for p in digests for d in p).encode()).hexdigest()[:16]
    pass0_digest = hashlib.sha256(" ".join(digests[0]).encode()).hexdigest()[:16]
    record = {
        "provenance": dict(_provenance(args), versions=versions),
        "passes": len(digests),
        "passes_planned": passes,
        "ops": n_ops,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "validate_rejected_at_0.01": rejected,
        "p90_samples_beyond": beyond_p90,
        "setup_samples": len(setups),
        "digest_pass0": pass0_digest,
        "digest_all": all_digest,
        "failures": failures[:50],
        "trace_errors": trace_errors[:50],
        "trace_missing_targets": missing,
        "metrics": metrics,
        "uncorrected_metrics": raw_metrics,
        "op_ms_by_kind": {k: sorted(v) for k, v in by_kind.items()},
        "ops_in_order": {"columns": ["pass", "kind", "uncorrected_ms", "speed_factor"],
                         "rows": op_log},
        "setup_samples_s": setups,
        "setup_speed_factors": setup_factors,
        "wall_s": time.monotonic() - start,
        "parent_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for p, pass_spans in enumerate(span_passes):
                selfs = spans.self_times(pass_spans)
                for i, (name, t0, t1, parent, op, meta) in enumerate(pass_spans):
                    fh.write(json.dumps({"pass": p, "op": op, "id": i, "parent": parent,
                                         "name": name, "start_ns": t0, "end_ns": t1,
                                         "self_ns": selfs[i], "meta": meta}) + "\n")

    print(f"# {args.workload} seed {args.seed}: {n_ops} ops in {len(digests)} passes "
          f"(fresh process each), {failed}/{attempted} failed "
          f"(failed_frac {failed / attempted:.4g}), {rejected} validate ops rejected at 0.01")
    print(f"# p90 over {n_ops} ops, {beyond_p90} beyond it; setup_s over {len(setups)} spawns; "
          f"digest pass0 {pass0_digest} all {all_digest}")
    for f in (failures + trace_errors)[:10]:
        print(f"# FAIL {f}")
    for name, m in metrics.items():
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"# host speed factors {min(factors):.4g}..{max(factors):.4g} "
          f"(median {statistics.median(factors):.4g}) over {len(factors)} ops; "
          "uncorrected: " + ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                                      for k, m in raw_metrics.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
