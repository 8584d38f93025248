"""Host-speed probes: correct measured times for the speed of the host.

On a shared virtual machine the speed of a core wanders: the probe kernel
below, a fixed piece of pure-Python work, takes 1.3 ms for seconds at a
time and then up to twice as long for a second or two, and lagmin's ops
slow down with it.  The benchmark runs ``probe`` right before and right
after every op and scales the op's time by CAL_REF_S over the median
probe time: the time the op would have taken at the reference speed.

Set-up times, imports in a fresh interpreter, do not follow the kernel.
They are scaled instead by ``import_probe``, a fresh interpreter that
imports a fixed set of standard-library modules, run right before each
spawn.

Neither probe calls the program, so a change to the program does not
change them.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# Median time of one kernel() call on the host that defined the benchmark
# (2-core Xeon, 2.1 GHz, at its usual speed).
CAL_REF_S = 1.3e-3
SAMPLES = 5  # kernel calls per probe

# A fixed set of standard-library modules, pure Python and C extensions.
IMPORTS = ("asyncio", "decimal", "email.mime.multipart", "http.client", "json", "unittest",
           "xml.etree.ElementTree", "ctypes", "argparse", "logging", "concurrent.futures",
           "multiprocessing", "inspect", "typing", "dataclasses", "fractions", "statistics",
           "zipfile", "tarfile")
# Median time of import_probe() on the same host at its usual speed.
IMPORT_REF_S = 0.1


def _term(x: float, k: int) -> tuple:
    return math.lgamma(x + k) - math.log(x), (-1) ** k


def kernel() -> float:
    """Fixed pure-Python work like the program's series loops: calls,
    float maths, small tuples, a list and a dict."""
    acc = 0.0
    table = {}
    terms = []
    for i in range(1, 2001):
        log_t, sign = _term(math.sqrt(i) + 1e-9 * acc, i & 3)
        terms.append((log_t, sign))
        if len(terms) == 32:
            acc += sum(sign * math.exp(-log_t) for log_t, sign in terms)
            terms.clear()
        table[i & 127] = acc
    return acc


def probe(samples: int = SAMPLES) -> list:
    """Seconds taken by each of `samples` kernel calls."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def factor(times: list) -> float:
    """Multiplier that turns a time measured alongside `times` into one at
    the reference speed."""
    return CAL_REF_S / statistics.median(times)


def import_probe(cwd, timeout: float = 30.0) -> float:
    """Seconds from spawning an interpreter until IMPORTS are imported.

    ``time.perf_counter`` is system-wide on Linux, so the child's reading
    can be compared with the parent's.
    """
    code = f"import time, {', '.join(IMPORTS)}; print(time.perf_counter())"
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                         text=True, timeout=timeout, check=True).stdout
    return float(out) - t0
