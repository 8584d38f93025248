"""Benchmark worker: runs one pass of ops in a fresh interpreter.

    python bench/worker.py SRC_DIR            # request on stdin, reply on stdout
    python bench/worker.py SRC_DIR --probe    # import only, for set-up timing

The first thing the worker does is ``import lagmin.cli`` from SRC_DIR and
note the clock (``time.perf_counter`` is the system-wide monotonic clock
on Linux, so the parent can subtract its spawn time).  The request is a
JSON object ``{"ops": [...], "trace": bool, "check": bool}``; every op is
one ``lagmin.cli.main(argv)`` call with stdout and stderr captured in
memory, timed alone, with a host-speed probe (``speed.probe``) right before
and right after it; each op's reply carries its raw time and the speed
factor of the probes around it.  Reference checks run after the last op,
outside the timed loop.  The reply is one JSON object on stdout.
"""

import time
import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import lagmin.cli  # noqa: F401

    IMPORTED = time.perf_counter()

import contextlib
import hashlib
import io
import json
import os
import resource
import traceback
from importlib import metadata


def run_pass(ops, trace: bool = False, check: bool = True) -> dict:
    """Run the ops in order in this process and return the reply."""
    import lagmin.cli as cli

    import checks
    import speed

    tracer = None
    missing = []
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        missing = install(tracer)
    runs = []
    probes = [speed.probe()]
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op = i
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                rc = cli.main(op["argv"])
            except Exception:  # a crashing op is a failed op; the pass goes on
                rc = None
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            t1 = time.perf_counter_ns()
        probes.append(speed.probe())
        runs.append((t1 - t0, rc, error, out.getvalue()))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reply_ops = []
    for i, (op, (ns, rc, error, stdout)) in enumerate(zip(ops, runs)):
        failed = error
        if failed is None and check:
            try:
                failed = checks.check_op(op, rc, stdout)
            except Exception:  # a reference that raises fails the op, not the run
                failed = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        line = checks.digest_line(op, rc, stdout)
        reply_ops.append({
            "ns": ns,
            "factor": speed.factor(probes[i] + probes[i + 1]),
            "rc": rc,
            "failed": failed,
            "digest": hashlib.sha256(line.encode()).hexdigest()[:16],
        })
    return {
        "ops": reply_ops,
        "rss_kb": rss_kb,
        "spans": tracer.spans if tracer else [],
        "missing": missing,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        },
        "lagmin_file": sys.modules["lagmin"].__file__,
    }


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    here = os.path.dirname(os.path.realpath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    lagmin_file = os.path.realpath(sys.modules["lagmin"].__file__)
    if not lagmin_file.startswith(src + os.sep):
        print(f"lagmin imported from {lagmin_file}, not from {src}", file=sys.stderr)
        return 2
    if "--probe" in sys.argv[2:]:
        reply = {}
    else:
        request = json.load(sys.stdin)
        reply = run_pass(request["ops"], request["trace"], request["check"])
    reply["imported"] = IMPORTED
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
