import numpy as np
import pytest

from coarseset.errors import DimensionMismatch, ZeroVector
from coarseset.metrics import DEFAULT_METRIC, Metric, distance


def test_three_four_five():
    assert distance((0.0, 0.0), (3.0, 4.0), Metric.EUCLIDEAN) == 5.0
    assert distance((0.0, 0.0), (3.0, 4.0), Metric.SQEUCLIDEAN) == 25.0


@pytest.mark.parametrize("metric", list(Metric))
def test_identity(metric):
    assert distance((1.0, 2.0), (1.0, 2.0), metric) == 0.0


def test_orthogonal_cosine():
    assert distance((1.0, 0.0), (0.0, 1.0), Metric.COSINE) == 1.0


def test_opposite_cosine():
    assert distance((1.0, 0.0), (-1.0, 0.0), Metric.COSINE) == 2.0


def test_parallel_same_direction_cosine_is_zero():
    assert distance((1.0, 2.0), (2.0, 4.0), Metric.COSINE) == pytest.approx(0.0, abs=1e-12)


def test_cosine_never_negative():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.normal(size=4)
        assert distance(a, a * float(rng.uniform(0.5, 2.0)), Metric.COSINE) >= 0.0


def test_symmetry_exact():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 10))
        a = rng.normal(size=d).astype(np.float32)
        b = rng.normal(size=d).astype(np.float32)
        for metric in Metric:
            assert distance(a, b, metric) == distance(b, a, metric)


def test_determinism_bitwise():
    rng = np.random.default_rng(2)
    a = rng.normal(size=33).astype(np.float32)
    b = rng.normal(size=33).astype(np.float32)
    for metric in Metric:
        first = distance(a, b, metric)
        assert all(distance(a, b, metric) == first for _ in range(5))


def test_sq_vs_l2_argmax_invariance():
    # the farthest index under the first-strict-max scan must agree
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        pts = rng.normal(size=(n, 3)).astype(np.float32)
        q = rng.normal(size=3).astype(np.float32)

        def argmax_farthest(metric):
            best, best_val = -1, -1.0
            for i in range(n):
                val = distance(pts[i], q, metric)
                if val > best_val:
                    best, best_val = i, val
            return best

        assert argmax_farthest(Metric.SQEUCLIDEAN) == argmax_farthest(Metric.EUCLIDEAN)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance((1.0,), (1.0, 2.0))
    with pytest.raises(DimensionMismatch, match=r"a must be a 1-D vector, got shape \(1, 2\)"):
        distance([[1.0, 2.0]], (1.0, 2.0))


def test_zero_vector_cosine():
    with pytest.raises(ZeroVector):
        distance((0.0, 0.0), (1.0, 0.0), Metric.COSINE)
    with pytest.raises(ZeroVector):
        distance((0.0, 0.0), (0.0, 0.0), Metric.COSINE)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        distance((np.nan, 0.0), (1.0, 0.0))


def test_metric_names():
    assert [m.value for m in Metric] == ["sqeuclidean", "euclidean", "cosine"]
    assert DEFAULT_METRIC is Metric.SQEUCLIDEAN
