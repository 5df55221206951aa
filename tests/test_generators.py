"""Tests for the seeded instance builders."""

import numpy as np
import pytest

from equifit.generators import _separated_points


def unbounded_rejection(rng, n, min_gap=1e-4):
    """The rejection loop with no bound on its rounds, as a reference."""
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        if n == 1 or np.min(np.diff(pts)) > min_gap:
            return pts


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20, 30, 50])
def test_small_sizes_keep_the_rejection_stream(n):
    for seed in range(8):
        bounded = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        assert np.array_equal(
            _separated_points(bounded, n), unbounded_rejection(reference, n)
        )
        # The generator is left in the same state for the draws that follow.
        assert bounded.uniform() == reference.uniform()


def test_large_size_returns_separated_points():
    pts = _separated_points(np.random.default_rng(0), 1000)
    assert pts.shape == (1000,)
    assert np.all(np.diff(pts) > 1e-4)
    assert 0.0 <= pts[0] and pts[-1] <= 1.0
