"""Deterministic PRNG used everywhere randomness is needed.

The generator is xoshiro256++ with its four 64-bit state words expanded from
the user seed by splitmix64. A seed is an integer in [0, 2**64), the
splitmix64 state; any other seed is refused, since masking it to 64 bits
would silently alias a smaller seed's stream. Both algorithms are published
reference constructions, so any reimplementation (other languages included)
that follows the consumption rules below reproduces every stream
bit-for-bit:

* ``next_uint64``    -- one xoshiro256++ output.
* ``uniform01``      -- ``(next_uint64() >> 11) * 2**-53``, in [0, 1).
* ``below(bound)``   -- unbiased bounded integer via rejection sampling:
  draw ``x = next_uint64()`` until ``x < 2**64 - (2**64 % bound)``, then
  return ``x % bound``.
* ``normals(count)`` -- Box-Muller pairs. Per pair: ``u1`` from
  ``((next_uint64() >> 11) + 1) * 2**-53`` (in (0, 1]), ``u2`` from
  ``uniform01``; emit ``r*cos(2*pi*u2)`` then ``r*sin(2*pi*u2)`` with
  ``r = sqrt(-2*ln(u1))``. An odd ``count`` still consumes a full final
  pair and discards its second value.
* ``shuffle``        -- ascending Fisher-Yates: for i in 0..n-2 swap
  ``a[i]`` with ``a[i + below(n - i)]``.
* ``sample``         -- the first k steps of the same Fisher-Yates walk.
* ``uniforms(count, lo, hi)`` -- ``count`` successive ``uniform(lo, hi)``,
  each ``lo + (hi - lo) * uniform01()``.

The batched methods (``normals``, ``normal_array``, ``shuffle``,
``permutation``, ``sample``, ``uniforms``) draw their raw outputs in blocks
instead of one ``next_uint64`` call per draw. That changes the speed only:
each consumes exactly the outputs the rules above name, in order, and
leaves the state where the one-draw-at-a-time route would.

A block is drawn by one of two routes. Below ``_LANE_MIN_COUNT`` outputs it
is one Python loop (``_raw``). From there on (``_lanes``) the block's
``count`` outputs are cut into K consecutive segments of L, and the K
segments are stepped together in numpy ``uint64`` lanes. This is exact
because the xoshiro256 state update (xors, shifts and rotations) is linear
over GF(2): L steps are one 256 x 256 bit matrix ``T**L``, so lane k starts
at ``T**(k*L)`` applied to the current state, and the lanes then take the
same steps the scalar loop takes. Only the ``++`` scrambler is nonlinear,
and it is a function of one state alone, applied to each lane's states
after stepping. The bit-matrix products are float32 matmuls of 0/1
entries: every partial sum is an integer of at most 256, which float32
holds exactly whatever order or thread count BLAS sums in, so the product
taken mod 2 is the GF(2) product. The state afterwards is the last lane's
at the step where the ``count``-th output was drawn.

``normal_array`` runs Box-Muller on the whole block. The steps IEEE 754
rounds correctly (shifts, integer to float, products, ``sqrt``) run in
numpy; log, cos and sin stay libm's, called through ``math`` on each value,
since numpy's own vectorized versions need not return the same bits.

The integer and uniform streams are exactly portable. ``normals`` addition-
ally depends on libm's log/cos/sin, which are typically but not provably
correctly rounded; identical platforms reproduce identical values.
"""

from __future__ import annotations

import math
import operator
from typing import Optional

import numpy as np

from .errors import check_seed

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_TWO53_INV = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
# Blocks of at least this many outputs take the lane route, in _LANES to
# 2 * _LANES lanes. The routes cost the same at about 11k outputs, timed
# in a fresh process on a 2-vCPU x86-64 VM; the margin keeps blocks near
# the crossover on the loop.
_LANE_MIN_COUNT = 16_384
_LANES = 512


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# --- the lane route: many segments of one stream, stepped together ----------

def _advance(h0: np.ndarray, h3: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Step xoshiro256 lanes ``len(h0) - 1`` times. Lane k starts in state
    (h0[0, k], s1[k], s2[k], h3[0, k]); after step j its s0 and s3 are
    written to h0[j] and h3[j], and s1, s2 are updated in place."""
    t = np.empty_like(s1)
    x = np.empty_like(s1)
    rows0, rows3 = list(h0), list(h3)
    for j in range(1, len(rows0)):
        s0 = rows0[j - 1]
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        np.bitwise_xor(rows3[j - 1], s1, out=x)  # s3 ^= s1
        s1 ^= s2
        np.bitwise_xor(s0, x, out=rows0[j])
        s2 ^= t
        np.left_shift(x, 45, out=rows3[j])
        np.right_shift(x, 19, out=t)
        rows3[j] |= t


def _unpack(words: np.ndarray) -> np.ndarray:
    """(k, 4) state words -> (k, 256) float32 bits; bit 64*w + i is bit i
    of word w."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").astype(np.float32)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Inverse of _unpack."""
    octets = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return octets.view("<u8").astype(np.uint64)


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for 0/1 float32 matrices: every product is 0 or 1
    and every partial sum an integer <= 256 < 2**24, so float32 holds each
    one exactly, in any summation order BLAS picks."""
    return ((a @ b).astype(np.int16) & 1).astype(np.float32)


def _jump_matrix(steps: int) -> np.ndarray:
    """The 256 x 256 bit matrix J with bits(state) @ J = bits(state after
    `steps` >= 1 xoshiro256 steps): the state update is linear over GF(2)."""
    # row i of the one-step matrix is the step of the i-th unit state
    basis = _pack(np.eye(256, dtype=np.float32))
    h0 = np.empty((2, 256), np.uint64)
    h3 = np.empty((2, 256), np.uint64)
    h0[0], s1, s2, h3[0] = basis.T.copy()
    _advance(h0, h3, s1, s2)
    power = _unpack(np.stack([h0[1], s1, s2, h3[1]], axis=1))
    result = None
    while True:
        if steps & 1:
            result = power if result is None else _gf2_matmul(result, power)
        steps >>= 1
        if not steps:
            return result
        power = _gf2_matmul(power, power)


class Rng:
    """xoshiro256++ stream seeded via splitmix64 expansion of one u64 seed."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        sm = check_seed("rng seed", operator.index(seed))
        sm, self._s0 = _splitmix64(sm)
        sm, self._s1 = _splitmix64(sm)
        sm, self._s2 = _splitmix64(sm)
        sm, self._s3 = _splitmix64(sm)

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def _raw(self, count: int) -> list[int]:
        """The next `count` outputs of next_uint64, from one local loop."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        out = []
        append = out.append
        for _ in range(count):
            x = (s0 + s3) & _MASK64
            # rotl(x, 23) + s0: the shifted halves do not overlap, so | is +
            append(((x << 23) + (x >> 41) + s0) & _MASK64)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def _raw_array(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint64 array, from the lane route
        when the block is large enough to pay for its jump matrices."""
        if count < _LANE_MIN_COUNT:
            return np.array(self._raw(count), dtype=np.uint64)
        return self._lanes(count)

    def _lanes(self, count: int, lane_length: Optional[int] = None) -> np.ndarray:
        """The next `count` >= 1 outputs as K = ceil(count / L) segments of
        L = `lane_length` outputs, all stepped together (module docstring).

        By default L is the largest power of two <= count / _LANES, which
        gives _LANES to 2 * _LANES lanes and a jump matrix of one squaring
        chain. The last lane is stepped to L too; its outputs past `count`
        are dropped, and the state is taken at step count - (K - 1) * L.
        """
        if lane_length is None:
            lane_length = 1 << max(0, (count // _LANES).bit_length() - 1)
        lanes = -(-count // lane_length)
        starts = _unpack(np.array([[self._s0, self._s1, self._s2, self._s3]], np.uint64))
        jump = _jump_matrix(lane_length)
        # doubling: lanes [0, m) at offsets i*L, jumped m*L, are lanes [m, 2m)
        while len(starts) < lanes:
            starts = np.concatenate([starts, _gf2_matmul(starts[: lanes - len(starts)], jump)])
            if len(starts) < lanes:
                jump = _gf2_matmul(jump, jump)
        words = _pack(starts)
        h0 = np.empty((lane_length + 1, lanes), np.uint64)
        h3 = np.empty((lane_length + 1, lanes), np.uint64)
        h0[0], s1, s2, h3[0] = words.T.copy()
        last = count - (lanes - 1) * lane_length
        _advance(h0[: last + 1], h3[: last + 1], s1, s2)
        self._s0, self._s1 = int(h0[last, -1]), int(s1[-1])
        self._s2, self._s3 = int(s2[-1]), int(h3[last, -1])
        _advance(h0[last:], h3[last:], s1, s2)
        # the ++ scrambler, rotl(s0 + s3, 23) + s0, on every step's state
        s0 = h0[:-1]
        x = s0 + h3[:-1]
        high = x >> 41
        x <<= 23
        x |= high
        x += s0
        return x.T.ravel()[:count]

    def uniform01(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * _TWO53_INV

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform01()

    def uniforms(self, count: int, lo: float, hi: float) -> list[float]:
        """`count` successive uniform(lo, hi) values."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        lo = float(lo)
        span = float(hi) - lo
        return [lo + span * ((x >> 11) * _TWO53_INV) for x in self._raw(count)]

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) by rejection sampling: the first
        draw of a Fisher-Yates walk over `bound` items."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self._fisher_yates_offsets(bound, 1)[0]

    def normals(self, count: int) -> list[float]:
        """`count` standard normals via Box-Muller (see module docstring)."""
        return self.normal_array(count).tolist()

    def normal_array(self, count: int) -> np.ndarray:
        """normals(count) as a float64 array."""
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        pairs = (count + 1) // 2
        raw = self._raw_array(2 * pairs)
        # exact in numpy: shifts, adds, uint64 -> float64 below 2**53, and
        # products and square roots, which IEEE 754 rounds correctly
        u1 = ((raw[0::2] >> 11) + 1).astype(np.float64) * _TWO53_INV
        theta = (_TWO_PI * ((raw[1::2] >> 11).astype(np.float64) * _TWO53_INV)).tolist()
        # libm's transcendentals, which numpy's own need not match
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
        out = np.empty(2 * pairs)
        np.multiply(r, np.fromiter(map(math.cos, theta), np.float64, pairs), out=out[0::2])
        np.multiply(r, np.fromiter(map(math.sin, theta), np.float64, pairs), out=out[1::2])
        return out[:count]

    def _fisher_yates_offsets(self, n: int, steps: int) -> list[int]:
        """below(n), below(n - 1), ..., below(n - steps + 1): the draws of
        the first `steps` ascending Fisher-Yates steps over n items.

        Every step needs at least one output, so each block drawn is at most
        the steps still open and a rejection only extends the walk by the
        outputs it really needs: the state afterwards is the one-at-a-time
        state. `n` and `steps` may be numpy integers. An `n` above 2**64 is
        refused: a bound past the output range would reject every draw.
        """
        n, steps = operator.index(n), operator.index(steps)
        if n > 1 << 64:
            raise ValueError(f"bound must be at most 2**64, got {n}")
        offsets: list[int] = []
        # 2**64 % bound < bound <= n, so no draw below `safe` is rejected
        safe = (1 << 64) - n
        bound = n
        while len(offsets) < steps:
            block = self._raw(steps - len(offsets))
            if max(block) < safe:
                offsets.extend(map(operator.mod, block, range(bound, bound - len(block), -1)))
                bound -= len(block)
                continue
            for x in block:
                if x >= (1 << 64) - ((1 << 64) % bound):
                    continue  # rejected: this step draws again
                offsets.append(x % bound)
                bound -= 1
        return offsets

    def shuffle(self, items: list) -> None:
        """In-place ascending Fisher-Yates."""
        for i, r in enumerate(self._fisher_yates_offsets(len(items), len(items) - 1)):
            j = i + r
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self.shuffle(items)
        return items

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from [0, n): the first k Fisher-Yates steps
        over range(n), in O(k) memory. Only the entries a swap has moved
        are held, by position; every other position still holds itself."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        picked = []
        moved: dict[int, int] = {}
        for i, r in enumerate(self._fisher_yates_offsets(n, k)):
            j = i + r
            picked.append(moved.get(j, j))
            # step i is the last to touch position i
            moved[j] = moved.pop(i, i)
        return picked
