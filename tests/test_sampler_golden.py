"""Golden run_batch values, captured while the eigenvalue bracket closed
at the fixed width 2**-49 (tests/sampler_golden.json).

Each record holds the arguments (beta, N, M, count, seed) of one run and
its values.  Where the closing width is still 2**-49 (N <= 48) the values
must be bit-identical; above it they may move by the half width, within
1e-14 relative.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lagmin.core import params_new
from lagmin.sampler import run_batch

RECORDS = json.loads((Path(__file__).parent / "sampler_golden.json").read_text())


@pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: "-".join(map(str, rec["args"][:3])))
def test_run_batch_holds_its_golden_values(rec):
    beta, n, m_dim, count, seed = rec["args"]
    got = run_batch(params_new(beta, n, m_dim), count, seed).values
    want = np.array(rec["values"])
    if n <= 48:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 1e-14 * want)
