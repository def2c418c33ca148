import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import (
    brute_force_greedy,
    coreset_rounds,
    min_dists,
    min_dists_scalar,
    reference_load_order,
)

from coarseset.errors import (
    BudgetExceedsPool,
    CoarsesetError,
    DuplicateSeed,
    IndexOutOfRange,
    MalformedHeader,
    NoCenters,
    ZeroVector,
)
from coarseset.metrics import Metric
from coarseset.rng import Rng
from coarseset.selector import (
    SelectionConfig,
    SelectionOrder,
    coverage_radius,
    full_ordering,
    greedy_steps,
    kcenter_greedy,
    load_order,
    random_order,
    save_order,
    select_prefix,
)
from coarseset.store import EmbeddingMatrix
from conftest import random_matrix


def test_worked_example_euclidean(four_points):
    # step 1: points 1 and 2 both at distance 10 from seed 0, tie -> index 1
    # step 2: point 2 still at 10, point 3 at sqrt(2) -> pick 2
    order = kcenter_greedy(four_points, [0], 2, Metric.EUCLIDEAN)
    assert order.order.tolist() == [0, 1, 2]
    assert order.seed_count == 1


def test_worked_example_sqeuclidean_identical(four_points):
    sq = kcenter_greedy(four_points, [0], 2, Metric.SQEUCLIDEAN)
    l2 = kcenter_greedy(four_points, [0], 2, Metric.EUCLIDEAN)
    assert sq.order.tolist() == l2.order.tolist() == [0, 1, 2]


def test_sqeuclidean_and_euclidean_orders_can_differ():
    # points 1 and 2 are one ulp apart in squared distance from point 0
    # (1.0000000009313226 and ...228), and both square roots round to
    # 1.0000000004656613: euclidean ties and picks the lower index
    tiny = np.float32(2**-15)
    e = EmbeddingMatrix(np.array(
        [[0, 0], [1, tiny], [1, np.nextafter(tiny, np.float32(1))]], dtype=np.float32
    ))
    assert kcenter_greedy(e, [0], 2, Metric.SQEUCLIDEAN).order.tolist() == [0, 2, 1]
    assert kcenter_greedy(e, [0], 2, Metric.EUCLIDEAN).order.tolist() == [0, 1, 2]


def test_budget_zero_returns_seeds(four_points):
    assert kcenter_greedy(four_points, [0], 0).order.tolist() == [0]


def test_full_ordering_continues_to_permutation(four_points):
    # rng seed 10 draws point 0 as the single seed (frozen by test_rng contract)
    cfg = SelectionConfig(seed_count=1, rng_seed=10, metric=Metric.EUCLIDEAN)
    order = full_ordering(four_points, cfg)
    assert order.order.tolist() == [0, 1, 2, 3]


def test_single_point_ordering():
    e = EmbeddingMatrix(np.array([[5.0]], dtype=np.float32))
    assert full_ordering(e, SelectionConfig(rng_seed=0)).order.tolist() == [0]


def test_prefix_property(four_points):
    cfg = SelectionConfig(seed_count=1, rng_seed=10)
    full = full_ordering(four_points, cfg)
    part = select_prefix(four_points, cfg, 3)
    assert part.order.tolist() == full.order.tolist()[:3]


def test_seed_validation(four_points):
    with pytest.raises(DuplicateSeed):
        kcenter_greedy(four_points, [0, 0], 1)
    with pytest.raises(IndexOutOfRange):
        kcenter_greedy(four_points, [4], 1)
    with pytest.raises(BudgetExceedsPool):
        kcenter_greedy(four_points, [0], 4)
    with pytest.raises(NoCenters):
        kcenter_greedy(four_points, [], 1)


def test_cosine_rejects_zero_vector():
    e = EmbeddingMatrix(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32))
    with pytest.raises(ZeroVector):
        kcenter_greedy(e, [1], 1, Metric.COSINE)


def test_random_order_basics():
    assert random_order(1, 99).order.tolist() == [0]
    a = random_order(5, 42)
    assert a.order.tolist() == random_order(5, 42).order.tolist()
    assert a.seed_count == 0
    for seed in range(10):
        assert sorted(random_order(4, seed).order.tolist()) == [0, 1, 2, 3]
    with pytest.raises(BudgetExceedsPool):
        random_order(0, 1)


@pytest.mark.parametrize("length", [-1, 5])
def test_random_order_refuses_a_length_outside_the_pool(length):
    with pytest.raises(BudgetExceedsPool, match=rf"got n=4, length {length}$"):
        random_order(4, 0, length)


@pytest.mark.parametrize("metric", list(Metric))
def test_all_points_identical_picks_lowest_free_index(metric):
    # every min_dist is 0 after the seed: the first maximum (0) is free once,
    # then taken, and from there each pick is the lowest free index
    same = EmbeddingMatrix(np.ones((5, 3), dtype=np.float32))
    assert kcenter_greedy(same, [2], 4, metric).order.tolist() == [2, 0, 1, 3, 4]


@pytest.mark.parametrize("metric", list(Metric))
def test_quantized_ties_pick_the_lowest_free_index(metric):
    # 40 points on four positions: once each position holds a center, every
    # min_dist is 0 and the remaining picks are the free indices in order
    rng = np.random.default_rng(3)
    e = EmbeddingMatrix(rng.integers(1, 3, size=(40, 2)).astype(np.float32))
    got = kcenter_greedy(e, [7], e.n - 1, metric).order.tolist()
    assert got == brute_force_greedy(e.data, [7], e.n - 1, metric)
    tail = got[4:]
    assert tail == sorted(tail)


def test_coverage_radius_worked_example(four_points):
    state = None
    for state in greedy_steps(four_points, [0], 2, Metric.EUCLIDEAN):
        pass
    assert coverage_radius(state) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_coverage_radius_degenerate_cases():
    same = EmbeddingMatrix(np.ones((4, 2), dtype=np.float32))
    state = next(greedy_steps(same, [2], 0))
    assert coverage_radius(state) == 0.0

    e = EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(3, 2))
    for state in greedy_steps(e, [0, 1, 2], 0):
        pass
    assert coverage_radius(state) == 0.0

    with pytest.raises(NoCenters):
        coverage_radius(
            type("S", (), {"centers": [], "min_dist": np.array([1.0])})()
        )


def test_coverage_radius_non_increasing():
    rng = np.random.default_rng(8)
    e = random_matrix(rng, 80, 4)
    radii = [
        coverage_radius(state)
        for state in greedy_steps(e, [3], 40, Metric.EUCLIDEAN)
    ]
    assert all(r2 <= r1 for r1, r2 in zip(radii, radii[1:]))


@pytest.mark.parametrize("metric", list(Metric))
def test_min_dist_matches_bruteforce_bitwise(metric):
    rng = np.random.default_rng(17)
    for _ in range(6):
        n = int(rng.integers(2, 60))
        e = random_matrix(rng, n, int(rng.integers(1, 6)))
        seeds = [int(rng.integers(0, n))]
        budget = int(rng.integers(0, n - 1))
        for state in greedy_steps(e, seeds, budget, metric):
            expected = min_dists(e.data, state.centers, metric)
            assert state.min_dist.tobytes() == expected.tobytes()


def test_min_dist_matches_scalar_distance_route():
    rng = np.random.default_rng(23)
    for d in (3, 64):
        e = random_matrix(rng, 30, d)
        for metric in Metric:
            for state in greedy_steps(e, [5], 10, metric):
                expected = min_dists_scalar(e.data, state.centers, metric)
                assert state.min_dist.tobytes() == expected.tobytes()


@pytest.mark.parametrize("metric", list(Metric))
def test_oracle_equivalence_smoke(metric):
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 80))
        e = random_matrix(rng, n, int(rng.integers(1, 8)))
        k = int(rng.integers(1, min(4, n) + 1))
        seeds = sorted(rng.choice(n, size=k, replace=False).tolist())
        budget = int(rng.integers(0, min(n - k, 15) + 1))
        got = kcenter_greedy(e, seeds, budget, metric)
        assert got.order.tolist() == brute_force_greedy(e.data, seeds, budget, metric)


def test_order_determinism_across_runs(four_points):
    cfg = SelectionConfig(seed_count=2, rng_seed=5)
    a = full_ordering(four_points, cfg)
    b = full_ordering(four_points, cfg)
    assert a.order.tolist() == b.order.tolist()


def test_selection_order_validation():
    with pytest.raises(DuplicateSeed):
        SelectionOrder(np.array([1, 1]), 0)
    with pytest.raises(IndexOutOfRange):
        SelectionOrder(np.array([0, 1]), 3)
    with pytest.raises(IndexOutOfRange, match="non-negative"):
        SelectionOrder(np.array([0, -1]), 0)
    with pytest.raises(IndexOutOfRange, match="1-D"):
        SelectionOrder(np.array([[0, 1]]), 0)


def test_prefix_refuses_budgets_outside_the_order():
    order = SelectionOrder(np.arange(5), 1)
    assert order.prefix(0).tolist() == []
    assert order.prefix(5).tolist() == [0, 1, 2, 3, 4]
    # a negative slice bound would drop the tail: [:-2] is [0 1 2]
    with pytest.raises(BudgetExceedsPool, match="prefix -2 is negative"):
        order.prefix(-2)
    with pytest.raises(BudgetExceedsPool, match="prefix 6 exceeds"):
        order.prefix(6)


def test_order_file_roundtrip(tmp_path):
    order = SelectionOrder(np.array([3, 0, 2], dtype=np.int64), seed_count=1)
    p = tmp_path / "order.csv"
    save_order(order, p)
    text = p.read_text()
    assert text.startswith("# seed_count=1\n")
    back = load_order(p)
    assert back.order.tolist() == [3, 0, 2]
    assert back.seed_count == 1
    p.write_bytes(text.replace("\n", "\r\n").encode())
    crlf = load_order(p)
    assert (crlf.order.tolist(), crlf.seed_count) == ([3, 0, 2], 1)


def test_order_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# seed_count=1\nfoo\n")
    with pytest.raises(MalformedHeader):
        load_order(p)
    p.write_text("# seed_count=1\n")
    with pytest.raises(MalformedHeader):
        load_order(p)
    p.write_text("# seed_count=1\n0\n\n-4\n")
    with pytest.raises(IndexOutOfRange, match="bad.csv: line 4: index -4 is negative"):
        load_order(p)


@pytest.mark.parametrize("raw,error,message", [
    (b"# seed_count=7\n0\n1\n", IndexOutOfRange, "bad.csv: line 1: seed_count 7 outside [0, 2]"),
    (b"0\n# seed_count=-2\n1\n", IndexOutOfRange, "bad.csv: line 2: seed_count -2 outside [0, 2]"),
    (b"0\n\n# seed_count=x\n", MalformedHeader, "bad.csv: line 3: bad seed_count comment"),
    (b"0\n99999999999999999999999\n", IndexOutOfRange,
     "bad.csv: line 2: index 99999999999999999999999 exceeds 2**63 - 1"),
    (b"# seed_count=1\n0\n\xff1\n", MalformedHeader, "bad.csv: line 3: not UTF-8 text"),
    (b"0\n2\n0\n", DuplicateSeed, "bad.csv: order entries must be distinct"),
    (b"4\n1\n\n# x\n1\n", DuplicateSeed,
     "bad.csv: order entries must be distinct: line 5 repeats index 1 of line 2"),
    (b"0\x0c-1\n", MalformedHeader, "bad.csv: line 1: '0\\x0c-1' is not an index"),
    (b"0\x1c1\n2\n", MalformedHeader, "bad.csv: line 1: '0\\x1c1' is not an index"),
    ("0\u2028\n1\n-1\n".encode(), IndexOutOfRange,
     "bad.csv: line 3: index -1 is negative"),
    (b"0\x0c\n\xff\n", MalformedHeader, "bad.csv: line 2: not UTF-8 text"),
    # the first fault in file order wins: the repeat on line 3, then 'foo'
    # on line 2, though the loader finds repeats after its walk
    (b"0\n2\n0\nfoo\n", DuplicateSeed,
     "bad.csv: order entries must be distinct: line 3 repeats index 0 of line 1"),
    (b"0\nfoo\n0\n", MalformedHeader, "bad.csv: line 2: 'foo' is not an index"),
    (b"# seed_count=9\n5\n# c\n\n7\n5\n", DuplicateSeed,
     "bad.csv: order entries must be distinct: line 6 repeats index 5 of line 2"),
    (b"1\n2\n2\n1\n", DuplicateSeed,
     "bad.csv: order entries must be distinct: line 3 repeats index 2 of line 2"),
])
def test_order_file_errors_name_file_and_line(tmp_path, raw, error, message):
    p = tmp_path / "bad.csv"
    p.write_bytes(raw)
    with pytest.raises(error) as info:
        load_order(p)
    assert message in str(info.value)


def test_order_file_peak_memory_is_bounded(tmp_path):
    # 200000 entries, 1.3 MB: the loader kept an index -> line dict, 22x the
    # file at its peak; it fills one int64 array now, about 4x
    n = 200_000
    p = tmp_path / "order.csv"
    p.write_text("# seed_count=1\n" + "".join(f"{i * 7919 % n}\n" for i in range(n)))
    tracemalloc.start()
    try:
        order = load_order(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(order.order, np.arange(n) * 7919 % n)
    assert order.seed_count == 1
    assert peak < 8 * p.stat().st_size


def test_loading_an_order_sorts_it_once(tmp_path, monkeypatch):
    # SelectionOrder's sort is the only distinctness check a load makes
    n = 100_000
    p = tmp_path / "order.csv"
    save_order(SelectionOrder(np.arange(n) * 7919 % n, seed_count=1), p)
    sorts = []
    sort = np.sort
    monkeypatch.setattr(np, "sort", lambda *a, **kw: sorts.append(1) or sort(*a, **kw))
    order = load_order(p)
    assert np.array_equal(order.order, np.arange(n) * 7919 % n)
    assert len(sorts) == 1


ORDER_LINES = st.one_of(
    st.integers(-3, 6).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.integers(-3, 2**70).map(lambda k: f"# seed_count={k}"),
    st.text(max_size=6),
)
ORDER_BYTES = st.one_of(
    st.binary(max_size=40),
    st.tuples(st.lists(ORDER_LINES, max_size=8), st.binary(max_size=3)).map(
        lambda t: "\n".join(t[0]).encode() + t[1]
    ),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ORDER_BYTES)
def test_load_order_fuzz_returns_order_or_names_the_file(tmp_path, raw):
    p = tmp_path / "fuzz.csv"
    p.write_bytes(raw)
    try:
        order = load_order(p)
    except CoarsesetError as exc:
        assert str(p) in str(exc)
    else:
        assert isinstance(order, SelectionOrder)


# --- iterative core-set baseline ------------------------------------------------

def test_iterative_single_round_equals_random_prefix():
    # the first core-set round is the trial's random prefix, so at the first
    # budget both methods train on one subset in every trial
    from coarseset.harness import BudgetSchedule, run_budget_sweep
    from coarseset.proxy import TrainConfig
    from coarseset.synth import MixtureSpec, generate

    spec = dict(per_class_counts=[15] * 3, d=3, separation=2.0, center_seed=40)
    train_data = generate(MixtureSpec(**spec, rng_seed=41))
    test_data = generate(MixtureSpec(**spec, rng_seed=42))
    res = run_budget_sweep(
        train_data, test_data, BudgetSchedule((5, 9)), ("coreset_iterative", "random"),
        trials=4, base_seed=9, train_cfg=TrainConfig(epochs=10),
    )
    first = {(r.method, r.trial): r for r in res.rows if r.budget == 5}
    for trial in range(4):
        assert replace(first["coreset_iterative", trial], method="random") == first["random", trial]


def test_full_ordering_seed_draw_matches_rng_sample(four_points):
    cfg = SelectionConfig(seed_count=2, rng_seed=77)
    order = full_ordering(four_points, cfg)
    assert order.order.tolist()[:2] == Rng(77).sample(4, 2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 400), data=st.data())
def test_random_order_is_a_prefix_of_the_full_shuffle(seed, n, data):
    # the sweep and select_prefix draw short walks, random_order(n, seed, k)
    k = data.draw(st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(0, n)))
    assert random_order(n, seed, k).order.tolist() == Rng(seed).permutation(n)[:k]


def test_full_ordering_rejects_partial_budget(four_points):
    with pytest.raises(IndexOutOfRange):
        SelectionConfig(seed_count=0)
    with pytest.raises(IndexOutOfRange, match="rng_seed must be non-negative, got -1"):
        SelectionConfig(rng_seed=-1)
    with pytest.raises(IndexOutOfRange, match=rf"rng_seed must be below 2\*\*64, got {2**70}"):
        SelectionConfig(rng_seed=2**70)
    with pytest.raises(BudgetExceedsPool, match="budget 5 exceeds n=4"):
        select_prefix(four_points, SelectionConfig(), 5)


def test_selection_config_holds_python_ints():
    cfg = SelectionConfig(seed_count=np.int64(2), rng_seed=np.uint64(5))
    assert cfg == SelectionConfig(seed_count=2, rng_seed=5)
    assert type(cfg.seed_count) is int and type(cfg.rng_seed) is int
    for field, value in (("seed_count", 2.5), ("seed_count", True), ("rng_seed", 5.0)):
        with pytest.raises(TypeError, match=f"{field} must be an integer, got {value!r}"):
            SelectionConfig(**{field: value})


def test_iterative_mlp_covers_clusters_across_seeds():
    # Monte-Carlo over 100 seeds on a 3-cluster set; observed coverage 98/100,
    # frozen gate at 95
    from coarseset.proxy import TrainConfig
    from coarseset.synth import MixtureSpec, generate

    emb, lab = generate(
        MixtureSpec([40] * 3, d=4, separation=8.0, std=1.0, center_seed=303, rng_seed=304)
    )
    cfg = TrainConfig()
    covered = 0
    for seed in range(100):
        labeled = coreset_rounds(emb, lab, [2, 2, 2], cfg, 1, seed)[-1]
        covered += int(len(set(lab.labels[labeled].tolist())) == 3)
    assert covered >= 95


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ORDER_BYTES)
def test_load_order_matches_a_line_by_line_reference(tmp_path, raw):
    # the reference stops at the first fault in file order, a repeat
    # included; load_order finds repeats after its walk, and must agree
    p = tmp_path / "ref.csv"
    p.write_bytes(raw)
    try:
        want = reference_load_order(raw, p)
    except CoarsesetError as exc:
        with pytest.raises(type(exc)) as info:
            load_order(p)
        assert str(info.value) == str(exc)
    else:
        order = load_order(p)
        assert (order.order.tolist(), order.seed_count) == want
