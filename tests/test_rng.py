import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarseset.rng import _LANE_MIN_COUNT, _LANES, Rng, _splitmix64


def test_splitmix64_reference_values():
    # published reference outputs for splitmix64 seeded with 0
    s = 0
    outputs = []
    for _ in range(3):
        s, v = _splitmix64(s)
        outputs.append(v)
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_against_independent_uint64_reimplementation():
    # same algorithms re-written on numpy uint64 wraparound arithmetic
    def reference_stream(seed, count):
        mask = np.uint64(0xFFFFFFFFFFFFFFFF)

        def mix(state):
            state = state + np.uint64(0x9E3779B97F4A7C15)
            z = state
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return state, z ^ (z >> np.uint64(31))

        def rotl(x, k):
            return (x << np.uint64(k)) | (x >> np.uint64(64 - k))

        state = np.uint64(seed) & mask
        s = []
        for _ in range(4):
            state, word = mix(state)
            s.append(word)
        out = []
        for _ in range(count):
            result = rotl(s[0] + s[3], 23) + s[0]
            t = s[1] << np.uint64(17)
            s[2] ^= s[0]
            s[3] ^= s[1]
            s[1] ^= s[2]
            s[0] ^= s[3]
            s[2] ^= t
            s[3] = rotl(s[3], 45)
            out.append(int(result))
        return out

    with np.errstate(over="ignore"):
        for seed in (0, 1, 42, 2**64 - 1):
            expected = reference_stream(seed, 500)
            rng = Rng(seed)
            assert [rng.next_uint64() for _ in range(500)] == expected


def test_determinism_and_seed_sensitivity():
    a = [Rng(7).next_uint64() for _ in range(10)]
    b = [Rng(7).next_uint64() for _ in range(10)]
    c = [Rng(8).next_uint64() for _ in range(10)]
    assert a == b
    assert a != c


def test_uniform01_range():
    rng = Rng(3)
    xs = [rng.uniform01() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.02


def test_below_bounds_and_coverage():
    rng = Rng(5)
    seen = {rng.below(7) for _ in range(500)}
    assert seen == set(range(7))
    assert rng.below(1) == 0
    with pytest.raises(ValueError):
        rng.below(0)


def test_normals_moments():
    xs = Rng(11).normals(20_000)
    assert abs(np.mean(xs)) < 0.03
    assert abs(np.std(xs) - 1.0) < 0.03


def test_normals_pair_consumption():
    # even-sized requests compose; an odd request still burns the full pair
    a = Rng(9)
    chunks = a.normals(2) + a.normals(4)
    assert chunks == Rng(9).normals(6)
    b = Rng(9)
    b.normals(1)
    tail_after_odd = b.next_uint64()
    c = Rng(9)
    c.normals(2)
    assert tail_after_odd == c.next_uint64()


def test_permutation_is_uniform_ish():
    # every permutation of 3 items should appear for some seed
    seen = {tuple(Rng(seed).permutation(3)) for seed in range(200)}
    assert len(seen) == 6


def test_sample_without_replacement_matches_shuffle_prefix():
    for seed in (0, 1, 17):
        k = 4
        assert Rng(seed).sample(10, k) == Rng(seed).permutation(10)[:k]


def test_sample_validation():
    with pytest.raises(ValueError):
        Rng(0).sample(3, 4)
    with pytest.raises(ValueError):
        Rng(-1)
    # masked to 64 bits, seed 2**64 + 3 would give seed 3's stream
    for seed in (2**64, 2**64 + 3, 2**70):
        with pytest.raises(ValueError, match=f"rng seed must be below 2\\*\\*64, got {seed}"):
            Rng(seed)
    with pytest.raises(ValueError, match="count must be non-negative, got -1"):
        Rng(0).uniforms(-1, 0.0, 1.0)
    with pytest.raises(ValueError, match="count must be non-negative, got -1"):
        Rng(0).normal_array(-1)


def test_numpy_integer_seeds_give_the_python_int_stream():
    for seed in (np.int64(5), np.int32(5), np.uint64(5)):
        assert Rng(seed).normals(3) == Rng(5).normals(3)
    assert Rng(np.uint64(2**64 - 1)).next_uint64() == Rng(2**64 - 1).next_uint64()
    with pytest.raises(TypeError):
        Rng(5.0)


# --- the block-drawn paths against one-draw-at-a-time references -------------

def ref_below(rng, bound):
    """The documented rejection rule on next_uint64; returns (value, draws)."""
    limit = (1 << 64) - ((1 << 64) % bound)
    draws = 0
    while True:
        x = rng.next_uint64()
        draws += 1
        if x < limit:
            return x % bound, draws


def ref_walk(rng, items, steps):
    for i in range(steps):
        j = i + ref_below(rng, len(items) - i)[0]
        items[i], items[j] = items[j], items[i]


def ref_normals(rng, count):
    out = []
    for _ in range((count + 1) // 2):
        u1 = ((rng.next_uint64() >> 11) + 1) * 2.0 ** -53
        u2 = rng.uniform01()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out += [r * math.cos(theta), r * math.sin(theta)]
    return out[:count]


STREAM_SIZES = (0, 1, 2, 3, 5, 31, 64, 257, 1000, 1001)


@pytest.mark.parametrize("n", STREAM_SIZES)
def test_block_paths_match_one_draw_at_a_time(n):
    for seed in range(40):
        fast, ref = Rng(seed), Rng(seed)
        items = list(range(n))
        fast.shuffle(items)
        expected = list(range(n))
        ref_walk(ref, expected, max(n - 1, 0))
        assert items == expected
        assert fast.next_uint64() == ref.next_uint64()

        fast, ref = Rng(seed), Rng(seed)
        expected = list(range(n))
        ref_walk(ref, expected, max(n - 1, 0))
        assert fast.permutation(n) == expected
        assert fast.next_uint64() == ref.next_uint64()

        for k in sorted({0, 1 if n else 0, n // 3, n}):
            fast, ref = Rng(seed), Rng(seed)
            expected = list(range(n))
            ref_walk(ref, expected, k)
            assert fast.sample(n, k) == expected[:k]
            assert fast.next_uint64() == ref.next_uint64()

        fast, ref = Rng(seed), Rng(seed)
        assert fast.normals(n) == ref_normals(ref, n)
        assert fast.next_uint64() == ref.next_uint64()

        fast, ref = Rng(seed), Rng(seed)
        lo, hi = -1.0 / math.sqrt(n + 1), 1.0 / math.sqrt(n + 1)
        assert fast.uniforms(n, lo, hi) == [ref.uniform(lo, hi) for _ in range(n)]
        assert fast.next_uint64() == ref.next_uint64()


def test_fisher_yates_walk_rejection_keeps_the_stream():
    # a bound b in (2**63, 2**64) rejects every draw >= 2**64 - (2**64 % b) = b,
    # about half of them; every bound of these walks is in that range, so
    # draws are rejected at every step, also mid-block
    n = 2**63 + 41
    rejected = 0
    for seed in range(20):
        for steps in (1, 2, 7, 40):
            fast, ref = Rng(seed), Rng(seed)
            expected = []
            for i in range(steps):
                value, draws = ref_below(ref, n - i)
                expected.append(value)
                rejected += draws - 1
            assert fast._fisher_yates_offsets(n, steps) == expected
            assert fast.next_uint64() == ref.next_uint64()
    assert rejected > 500


def test_below_is_the_documented_rejection_rule():
    # bound 2**63 + 41 rejects about half the draws, bound 7 almost none
    rejected = 0
    for seed in range(20):
        fast, ref = Rng(seed), Rng(seed)
        for bound in (2**63 + 41, 7, 2**63 + 41, 1):
            value, draws = ref_below(ref, bound)
            assert fast.below(bound) == value
            rejected += draws - 1
        assert fast.next_uint64() == ref.next_uint64()
    assert rejected > 10


# --- the lane route against the scalar loop ------------------------------------

LANE_SEEDS = (0, 1, 12345, 2**64 - 1)


def assert_block_matches(seed, draw, count):
    """`draw(rng)` returns the next `count` outputs of rng as an array, and
    leaves it where count next_uint64 calls would."""
    fast, ref = Rng(seed), Rng(seed)
    got = draw(fast)
    assert got.dtype == np.uint64
    assert got.tolist() == [ref.next_uint64() for _ in range(count)]
    assert fast.next_uint64() == ref.next_uint64()


@pytest.mark.parametrize("count", [_LANE_MIN_COUNT - 1, _LANE_MIN_COUNT, _LANE_MIN_COUNT + 1])
def test_raw_array_at_the_lane_threshold(count):
    for seed in (0, 2**64 - 1):
        assert_block_matches(seed, lambda rng: rng._raw_array(count), count)


def test_default_lane_layout_at_full_lanes_plus_minus_one():
    # 32 * _LANES outputs are _LANES full lanes of 32; one fewer halves the
    # lane length, one more adds a lane holding a single output
    for count in (32 * _LANES - 1, 32 * _LANES, 32 * _LANES + 1):
        assert_block_matches(7, lambda rng: rng._lanes(count), count)


@pytest.mark.parametrize("lane_length", [1, 2, 5, 8])
def test_lanes_with_short_lanes(lane_length):
    for lanes in (1, 3, 4, 7):
        for count in {lanes * lane_length - 1, lanes * lane_length, lanes * lane_length + 1} - {0}:
            for seed in LANE_SEEDS:
                assert_block_matches(seed, lambda rng: rng._lanes(count, lane_length), count)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(1, 400),
    lane_length=st.integers(1, 40),
)
def test_lanes_equal_the_scalar_loop(seed, count, lane_length):
    fast, ref = Rng(seed), Rng(seed)
    assert fast._lanes(count, lane_length).tolist() == ref._raw(count)
    assert fast.next_uint64() == ref.next_uint64()


@pytest.mark.parametrize("count", [2 * _LANE_MIN_COUNT, 2 * _LANE_MIN_COUNT + 1])
def test_array_box_muller_on_the_lane_route(count):
    for seed in (3, 2**64 - 1):
        fast, ref = Rng(seed), Rng(seed)
        got = fast.normal_array(count)
        assert got.dtype == np.float64
        assert got.tolist() == ref_normals(ref, count)
        assert fast.next_uint64() == ref.next_uint64()
