"""Blocked scans of acceptance criteria 1 and 2, and criterion 4's blocked quadrature nodes.

The criteria scan up to 10^7 points.  They walk each scan in blocks of
``_SCAN_BLOCK`` points, so their temporaries do not grow with the scan,
and every block is bitwise equal to its slice of the whole-array scan.
Criterion 4's exp-sinh rule hands its integrand ``_NODE_BLOCK`` nodes at
a time.
"""

import tracemalloc

import numpy as np
import pytest

from fhn_spectral.acceptance import _SCAN_BLOCK, _linspace_blocks, run_criterion


@pytest.mark.parametrize(
    "n",
    [2, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 3 * _SCAN_BLOCK + 7, 200001, 10**6],
)
@pytest.mark.parametrize("lo,hi", [(-2.0, 3.0), (-100.0, 100.0), (-50.0, 50.0)])
def test_blocked_grid_equals_linspace(n, lo, hi):
    blocks = list(_linspace_blocks(lo, hi, n))
    assert max(b.size for b in blocks) <= _SCAN_BLOCK
    assert np.concatenate(blocks).tobytes() == np.linspace(lo, hi, n).tobytes()


def test_blocked_uniform_draws_equal_one_draw():
    n = 3 * _SCAN_BLOCK + 7
    whole = np.random.default_rng(1).uniform(-10.0, 10.0, n)
    rng = np.random.default_rng(1)
    parts = [rng.uniform(-10.0, 10.0, min(_SCAN_BLOCK, n - s)) for s in range(0, n, _SCAN_BLOCK)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# measured 0.66, 2.72 and 0.85 MiB; criterion 2's is mostly its 1000-state arrays
@pytest.mark.parametrize("cid,bound_mib", [(1, 1.0), (2, 3.5), (4, 1.5)])
def test_quick_scan_transients_are_bounded(cid, bound_mib):
    tracemalloc.start()
    try:
        result = run_criterion(cid, quick=True, master_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= bound_mib * 2**20
