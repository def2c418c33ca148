"""Bit-level parity between the feature-major kernel and the scalar
reference in coarseset.metrics."""

import numpy as np
import pytest

from coarseset import kernels
from coarseset.metrics import Metric, distance


def random_case(seed, n_max=60, d_max=9):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max))
    d = int(rng.integers(1, d_max))
    x = rng.normal(scale=3.0, size=(n, d)).astype(np.float32)
    if rng.random() < 0.3:  # inject duplicate rows to stress tie handling
        x[rng.integers(0, n)] = x[rng.integers(0, n)]
    return x


@pytest.mark.parametrize("metric", list(Metric))
def test_update_matches_scalar_distance(metric):
    for seed in range(25):
        x = random_case(seed, n_max=25, d_max=6)
        n = x.shape[0]
        kern = kernels.DistanceKernel(x, metric)
        got = np.full(n, np.inf)
        expected = np.full(n, np.inf)
        rng = np.random.default_rng(seed + 1000)
        for _ in range(min(5, n)):
            center = int(rng.integers(0, n))
            kern.update(center, got)
            fresh = [distance(x[i], x[center], metric) for i in range(n)]
            np.minimum(expected, fresh, out=expected)
            assert got.tobytes() == expected.tobytes()


def test_center_distance_is_exact_zero():
    for metric in Metric:
        x = np.abs(np.random.default_rng(0).normal(size=(10, 4))) + 0.5
        out = np.full(10, np.inf)
        kernels.DistanceKernel(x, metric).update(3, out)
        assert out[3] == 0.0


def test_cosine_duplicate_rows_exact_zero():
    x = np.ones((4, 3))
    x[2] = [1.0, 2.0, 3.0]
    out = np.full(4, np.inf)
    kernels.DistanceKernel(x, Metric.COSINE).update(0, out)
    assert out[1] == 0.0 and out[3] == 0.0  # duplicates of the center row


def test_masked_argmax_tie_break():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        values = np.round(rng.random(n) * 4) / 4.0  # force frequent ties
        taken = rng.random(n) < 0.4
        if taken.all():
            taken[int(rng.integers(0, n))] = False
        got = kernels.masked_argmax(values, taken)
        free = [i for i in range(n) if not taken[i]]
        best = max(free, key=lambda i: (values[i], -i))
        assert values[got] == values[best]
        assert got == min(i for i in free if values[i] == values[best])


def test_all_points_identical_picks_lowest_free_index():
    values = np.zeros(5)
    taken = np.array([True, False, True, False, False])
    assert kernels.masked_argmax(values, taken) == 1
