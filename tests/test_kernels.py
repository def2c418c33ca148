"""Bit-level parity between the screened kernel, the scalar reference in
coarseset.metrics and the dense per-feature loop in oracles."""

import numpy as np
import pytest

from oracles import ReferenceKernel, brute_force_greedy

from coarseset import kernels
from coarseset.metrics import Metric, distance
from coarseset.selector import kcenter_greedy
from coarseset.store import EmbeddingMatrix


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


# --- the screened kernel against the dense reference loop ---------------------

def kernel_case(seed):
    """A float32 pool drawn from `seed`: any scale from subnormal to 1e18,
    optionally clustered, quantized to force ties, and with duplicate rows;
    with a metric and a chunk size (None keeps the kernel's own)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 61))
    d = int(rng.integers(1, 81))
    scale = 10.0 ** int(rng.integers(-45, 19))
    x = rng.normal(size=(n, d))
    clusters = int(rng.integers(0, 6))
    if clusters:
        x = 0.05 * x + 8.0 * rng.normal(size=(clusters, d))[rng.integers(0, clusters, n)]
    levels = int(rng.choice([0, 1, 4]))
    if levels:
        x = np.round(x * levels) / levels
    x = (x * scale).astype(np.float32)
    if rng.random() < 0.5 and n > 1:
        x[rng.integers(0, n, n // 3 + 1)] = x[rng.integers(0, n, n // 3 + 1)]
    metric = list(Metric)[seed % 3]
    chunk = [2, 3, 7, None][int(rng.integers(0, 4))]
    return x, metric, chunk, rng


@pytest.mark.parametrize("seed", range(150))
def test_screened_update_is_bitwise_the_dense_loop(seed):
    x, metric, chunk, rng = kernel_case(seed)
    n = x.shape[0]
    if metric is Metric.COSINE:
        x[~x.any(axis=1), 0] = 1.0  # cosine rejects all-zero rows
    kern = kernels.DistanceKernel(x, metric)
    if chunk is not None:
        kern._chunk = chunk  # smaller chunks split the exact step more often
    ref = ReferenceKernel(x, metric)
    got = np.full(n, np.inf)
    want = np.full(n, np.inf)
    taken = np.zeros(n, dtype=bool)
    center = int(rng.integers(0, n))
    for step in range(min(n, 12)):
        kern.update(center, got)
        ref.update(center, want)
        assert got.tobytes() == want.tobytes(), f"update {step}, center {center}"
        taken[center] = True
        if taken.all():
            break
        # mostly farthest-first, as in greedy, and sometimes a random center
        if step % 3:  # the free point farthest out, lowest index on ties
            center = int(np.argmax(np.where(taken, -1.0, want)))
        else:
            center = int(rng.integers(0, n))


def test_cases_cover_the_ranges_the_kernel_must_handle():
    cases = [kernel_case(seed) for seed in range(150)]
    ds = {x.shape[1] for x, *_ in cases}
    assert min(ds) <= 2 and max(ds) >= 75
    tiny = [x for x, *_ in cases if 0 < np.abs(x[x != 0]).min(initial=np.inf) < 2.0 ** -126]
    huge = [x for x, *_ in cases if np.abs(x).max() > 1e17]
    assert tiny and huge  # subnormal values, and data too large to screen
    assert {m for _, m, _, _ in cases} == set(Metric)


def test_screen_prunes_a_clustered_pool(monkeypatch):
    rng = np.random.default_rng(5)
    centers = 6.0 * rng.normal(size=(20, 32))
    x = (centers[rng.integers(0, 20, 2000)] + rng.normal(size=(2000, 32))).astype(np.float32)
    reached: list[int] = []
    exact_block = kernels.DistanceKernel._exact_block

    def counting(self, cols, center, min_dist):
        reached[-1] += cols.shape[0]
        exact_block(self, cols, center, min_dist)

    update = kernels.DistanceKernel.update

    def counting_update(self, center, min_dist):
        reached.append(0)
        update(self, center, min_dist)

    monkeypatch.setattr(kernels.DistanceKernel, "_exact_block", counting)
    monkeypatch.setattr(kernels.DistanceKernel, "update", counting_update)
    e = EmbeddingMatrix(x)
    order = kcenter_greedy(e, [0], 100)
    assert reached[0] == 2000  # the seed's update meets an all-inf min_dist
    picks = reached[1:]
    assert len(picks) == 100
    assert sum(picks) / len(picks) < 0.10 * 2000
    assert list(order.order) == brute_force_greedy(x, [0], 100, Metric.SQEUCLIDEAN)


def _feature_sums_differ_by_order(d=64):
    """A point whose squared distance to the origin sums to 2**54 in
    ascending order, but to more if the ones are added apart from the first
    term (any blocked or pairwise order)."""
    x = np.zeros((3, d), dtype=np.float32)
    x[1, 0] = 2.0 ** 27
    x[1, 1:] = 1.0
    x[2] = x[1]
    return x


def test_f_ordered_or_single_column_block_breaks_the_sum():
    x = _feature_sums_differ_by_order()
    block = (x.T.astype(np.float64)) ** 2  # (d, n) squared diffs to point 0
    ascending = block[0].copy()
    for row in block[1:]:
        ascending += row
    assert ascending[1] == 2.0 ** 54
    cols = np.array([1, 2])
    c_block = np.take(block, cols, axis=1)
    assert c_block.flags.c_contiguous
    assert np.add.reduce(c_block, axis=0).tobytes() == ascending[cols].tobytes()
    # what fancy indexing returns, and a lone column: summed pairwise
    f_block = np.asfortranarray(c_block)
    assert not block[:, cols].flags.c_contiguous
    assert np.add.reduce(f_block, axis=0)[0] != ascending[1]
    assert np.add.reduce(np.take(block, [1], axis=1), axis=0)[0] != ascending[1]


@pytest.mark.parametrize("metric", [Metric.SQEUCLIDEAN, Metric.EUCLIDEAN])
def test_kernel_keeps_ascending_sum_for_lone_and_paired_columns(metric):
    x = _feature_sums_differ_by_order()
    for cols in ([1], [1, 2]):
        sub = x[[0] + cols]
        got = np.full(len(sub), np.inf)
        want = np.full(len(sub), np.inf)
        kernels.DistanceKernel(sub, metric).update(0, got)
        ReferenceKernel(sub, metric).update(0, want)
        assert got.tobytes() == want.tobytes()
    assert got[1] == (2.0 ** 54 if metric is Metric.SQEUCLIDEAN else 2.0 ** 27)


def test_unscreened_data_still_exact():
    # d * max|x|**2 above 2**126 could overflow the float32 screen
    x = np.random.default_rng(3).normal(scale=1e19, size=(30, 8)).astype(np.float32)
    for metric in Metric:
        kern = kernels.DistanceKernel(x, metric)
        assert not kern._screen
        ref = ReferenceKernel(x, metric)
        got = np.full(30, np.inf)
        want = np.full(30, np.inf)
        for c in (0, 7, 19):
            kern.update(c, got)
            ref.update(c, want)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("n, chunk", [(3, 2), (5, 2), (7, 3), (6, 64)])
def test_full_update_reads_column_ranges_in_ascending_order(metric, n, chunk):
    # an all-inf min_dist makes every column a candidate: the exact step
    # gathers them in ascending chunks of at least two, so a lone last
    # column is gathered twice
    x = np.repeat(_feature_sums_differ_by_order()[1:2], n, axis=0)
    x[0] = 1.0 if metric is Metric.COSINE else 0.0  # cosine rejects zero rows
    kern = kernels.DistanceKernel(x, metric)
    kern._chunk = chunk
    seen = []
    exact_block = kern._exact_block

    def recording(cols, center, min_dist):
        seen.append(list(cols))
        exact_block(cols, center, min_dist)

    kern._exact_block = recording
    got = np.full(n, np.inf)
    want = np.full(n, np.inf)
    kern.update(0, got)
    ReferenceKernel(x, metric).update(0, want)
    assert got.tobytes() == want.tobytes()
    assert all(len(cols) >= 2 for cols in seen)
    lone = [n - 1] if n % chunk == 1 else []
    assert [i for cols in seen for i in cols] == list(range(n)) + lone


def test_kernel_keeps_c_contiguous_float32_data_without_a_copy():
    x = np.random.default_rng(5).normal(size=(40, 6)).astype(np.float32)
    assert np.shares_memory(kernels.DistanceKernel(x, Metric.SQEUCLIDEAN)._x, x)
    loaded = EmbeddingMatrix(x).data  # read-only, as load_embeddings returns it
    assert np.shares_memory(kernels.DistanceKernel(loaded, Metric.COSINE)._x, loaded)
    others = (x.astype(np.float64), np.asfortranarray(x), x[::2], x[:, :5], x.astype(">f4"))
    for other in others:
        kern = kernels.DistanceKernel(other, Metric.SQEUCLIDEAN)
        assert not np.shares_memory(kern._x, other)
        assert kern._x.flags.c_contiguous and kern._x.dtype == np.float32
        assert kern._x.tobytes() == np.ascontiguousarray(other, dtype=np.float32).tobytes()
