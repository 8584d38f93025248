"""Span tracing of lagmin's layers from the benchmark's side.

Nothing in ``src/`` is edited.  ``install`` replaces each traced function,
in its defining module and in every ``lagmin`` module that holds the same
object under any name, by a recorder, so calls that ``cli`` and the other
modules make into a layer are caught.  A span is
``[name, start_ns, end_ns, parent, op, meta]``; spans stay in memory and
the caller writes them out at the end.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans of an op add up to the op's root span (``cli.main``).

A function that calls itself through its module global (``_enum_raw``)
gets one span for the outermost call.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from time import perf_counter_ns

LAYERS = ("cli", "exact", "jack", "numerics", "beta2", "limit", "sampler")


def _params_meta(args):
    p = args[0]
    return [p.n_dim, p.jack_index]


def _batch_meta(args):
    return [args[0].n_dim, args[1]]


def _tridiag_meta(args):
    rows, n = args[0].shape
    return [n, rows]


# (layer module, function, meta extractor from the positional arguments)
TARGETS = (
    ("cli", "main", None),
    ("exact", "q_exact", None),
    ("exact", "p_exact", None),
    ("exact", "moment", None),
    ("exact", "_series_coeffs", _params_meta),
    ("exact", "q_oracle_n2", None),
    ("jack", "hyper_pfq_equal", None),
    ("jack", "enumerate_partitions", None),
    ("jack", "_enum_raw", None),
    ("numerics", "neumaier_sum", None),
    ("numerics", "bessel_i", None),
    ("beta2", "q_exact_beta2", None),
    ("beta2", "det_laguerre", None),
    ("beta2", "q_alpha2_sum", None),
    ("limit", "q_limit", None),
    ("limit", "p_limit", None),
    ("sampler", "run_batch", _batch_meta),
    ("sampler", "tridiag_smallest", _tridiag_meta),
    ("sampler", "ks_validate", None),
    ("sampler", "ks_two_sample", None),
)


class Tracer:
    """Records spans of wrapped functions; ``op`` tags the current op."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name: str, fn, meta=None):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op,
                   meta(args) if meta else None]
            misses = cache_info().misses if cache_info else 0
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                if cache_info:
                    miss = cache_info().misses > misses
                    rec[5] = (rec[5] or []) + [miss]

        return traced


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the targets that this version of the
    program does not have."""
    import lagmin  # noqa: F401  (imports every layer module)

    modules = [m for k, m in sys.modules.items() if k == "lagmin" or k.startswith("lagmin.")]
    missing = []
    for layer, attr, meta in TARGETS:
        orig = getattr(sys.modules.get("lagmin." + layer), attr, None)
        if orig is None:
            missing.append(f"{layer}.{attr}")
            continue
        wrapper = tracer.wrap(f"{layer}.{attr}", orig, meta)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
    return missing


def self_times(spans) -> list:
    """Self time of every span in ns: duration minus direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def consistency_errors(spans, selfs) -> list:
    """Spans that break nesting, and ops whose self times do not add up to
    the root span's duration."""
    errors = []
    totals = {}
    for i, s in enumerate(spans):
        parent = s[3]
        if parent < 0:
            if s[0] != "cli.main":
                errors.append(f"span {i} ({s[0]}) has no parent op")
            continue
        ps = spans[parent]
        if not (ps[1] <= s[1] <= s[2] <= ps[2]) or ps[4] != s[4]:
            errors.append(f"span {i} ({s[0]}) is not inside its parent {ps[0]}")
        totals[s[4]] = totals.get(s[4], 0) + selfs[i]
    for i, s in enumerate(spans):
        if s[3] < 0 and s[0] == "cli.main":
            if totals.get(s[4], 0) + selfs[i] != s[2] - s[1]:
                errors.append(f"op {s[4]}: self times do not add up to its duration")
    return errors


PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("exact.build_ms", "ms"),
    ("exact.partitions", "count"),
    ("exact.build_us_per_partition", "us"),
    ("exact.moment_ms", "ms"),
    ("exact.q_point_us", "us"),
    ("exact.p_point_us", "us"),
    ("numerics.sum_us", "us"),
    ("numerics.sum_share", "ratio"),
    ("jack.hyper_pfq_ms", "ms"),
    ("jack.enum_ms", "ms"),
    ("limit.q_point_ms", "ms"),
    ("limit.p_point_us", "us"),
    ("beta2.det_ms", "ms"),
    ("beta2.q_point_us", "us"),
    ("sampler.gen_us_per_draw.N3", "us"),
    ("sampler.gen_us_per_draw.N40", "us"),
    ("sampler.gen_us_per_draw.N200", "us"),
    ("sampler.bisect_us_per_draw.N3", "us"),
    ("sampler.bisect_us_per_draw.N40", "us"),
    ("sampler.bisect_us_per_draw.N200", "us"),
    ("sampler.ks_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
) + tuple((f"{layer}.self_share", "ratio") for layer in LAYERS)


def _bucket(n: int) -> str:
    return "N3" if n <= 3 else ("N40" if n <= 60 else "N200")


def _median(values) -> float:
    # a layer the workload does not load reports 0
    return statistics.median(values) if values else 0.0


def layer_metrics(passes, overhead_frac: float) -> dict:
    """Per-layer figures from the traced passes.

    ``passes`` is a list of span lists, one per traced pass.  Layers that
    the workload does not load read 0.
    """
    cli_self, builds, partitions, moments = [], [], 0, []
    q_warm, p_warm, sums, sum_in_warm, warm_total = [], [], [], 0, 0
    hyper, limit_enum, q_lim, p_lim_self, det, b2_point = [], [], [], [], [], []
    gen = {b: [0, 0] for b in ("N3", "N40", "N200")}
    bisect = {b: [0, 0] for b in gen}
    ks_self = []
    layer_self = dict.fromkeys(LAYERS, 0)
    root_total = 0
    for spans in passes:
        selfs = self_times(spans)
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        limit_ops = {}
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            layer_self[name.split(".", 1)[0]] += selfs[i]
            kids = [spans[c] for c in children[i]]
            if name == "cli.main":
                cli_self.append(selfs[i])
                root_total += dur
            elif name == "exact._series_coeffs" and s[5][-1]:
                builds.append(dur)
                partitions += math.comb(s[5][0] + s[5][1], s[5][1])
            elif name == "exact.moment":
                moments.append(dur)
            elif name in ("exact.q_exact", "exact.p_exact"):
                if not any(k[0] == "exact._series_coeffs" and k[5][-1] for k in kids):
                    (q_warm if name == "exact.q_exact" else p_warm).append(dur)
                    warm_total += dur
                    sum_in_warm += sum(k[2] - k[1] for k in kids if k[0] == "numerics.neumaier_sum")
            elif name == "numerics.neumaier_sum":
                sums.append(dur)
            elif name == "jack.hyper_pfq_equal":
                hyper.append(dur)
            elif name in ("jack.enumerate_partitions", "jack._enum_raw"):
                if s[3] >= 0 and spans[s[3]][0] != "jack.enumerate_partitions":
                    anc = s[3]
                    while anc >= 0 and not spans[anc][0].startswith("limit."):
                        anc = spans[anc][3]
                    if anc >= 0:
                        limit_ops[s[4]] = limit_ops.get(s[4], 0) + dur
            elif name == "limit.q_limit":
                q_lim.append(dur)
            elif name == "limit.p_limit":
                p_lim_self.append(selfs[i])
            elif name == "beta2.det_laguerre" and s[5][-1]:
                det.append(dur)
            elif name == "beta2.q_exact_beta2":
                b2_point.append(dur - sum(k[2] - k[1] for k in kids if k[0] == "beta2.det_laguerre"))
            elif name == "sampler.run_batch":
                acc = gen[_bucket(s[5][0])]
                acc[0] += selfs[i]
                acc[1] += s[5][1]
            elif name == "sampler.tridiag_smallest":
                acc = bisect[_bucket(s[5][0])]
                acc[0] += dur
                acc[1] += s[5][1]
            elif name in ("sampler.ks_validate", "sampler.ks_two_sample"):
                ks_self.append(selfs[i])
        limit_enum.extend(limit_ops.values())
    total_build = sum(builds)

    def per_draw(acc):
        return acc[0] / acc[1] / 1e3 if acc[1] else 0.0

    values = {
        "cli.self_ms": _median(cli_self) / 1e6,
        "exact.build_ms": _median(builds) / 1e6,
        "exact.partitions": partitions,
        "exact.build_us_per_partition": total_build / partitions / 1e3 if partitions else 0.0,
        "exact.moment_ms": _median(moments) / 1e6,
        "exact.q_point_us": _median(q_warm) / 1e3,
        "exact.p_point_us": _median(p_warm) / 1e3,
        "numerics.sum_us": _median(sums) / 1e3,
        "numerics.sum_share": sum_in_warm / warm_total if warm_total else 0.0,
        "jack.hyper_pfq_ms": _median(hyper) / 1e6,
        "jack.enum_ms": _median(limit_enum) / 1e6,
        "limit.q_point_ms": _median(q_lim) / 1e6,
        "limit.p_point_us": _median(p_lim_self) / 1e3,
        "beta2.det_ms": _median(det) / 1e6,
        "beta2.q_point_us": _median(b2_point) / 1e3,
        "sampler.ks_ms": _median(ks_self) / 1e6,
        "trace.overhead_frac": overhead_frac,
    }
    for b in gen:
        values[f"sampler.gen_us_per_draw.{b}"] = per_draw(gen[b])
        values[f"sampler.bisect_us_per_draw.{b}"] = per_draw(bisect[b])
    for layer in LAYERS:
        values[f"{layer}.self_share"] = layer_self[layer] / root_total if root_total else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
