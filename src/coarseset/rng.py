"""Deterministic PRNG used everywhere randomness is needed.

The generator is xoshiro256++ with its four 64-bit state words expanded from
the user seed by splitmix64. Both algorithms are published reference
constructions, so any reimplementation (other languages included) that
follows the consumption rules below reproduces every stream bit-for-bit:

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

The batched methods (``normals``, ``shuffle``, ``permutation``, ``sample``,
``uniforms``) draw their raw outputs in blocks from one private loop
(``_raw``) instead of one ``next_uint64`` call per draw. That changes the
speed only: each consumes exactly the outputs the rules above name, in
order, and leaves the state where the one-draw-at-a-time route would.

The integer and uniform streams are exactly portable. ``normals`` addition-
ally depends on libm's log/cos/sin, which are typically but not provably
correctly rounded; identical platforms reproduce identical values.
"""

from __future__ import annotations

import math
import operator

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_TWO53_INV = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256++ stream seeded via splitmix64 expansion of one u64 seed."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"rng seed must be non-negative, got {seed}")
        sm = seed & _MASK64
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
        """Unbiased integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_uint64()
            if x < limit:
                return x % bound

    def normals(self, count: int) -> list[float]:
        """`count` standard normals via Box-Muller (see module docstring)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        raw = self._raw(2 * ((count + 1) // 2))
        log, cos, sin, sqrt = math.log, math.cos, math.sin, math.sqrt
        out: list[float] = []
        append = out.append
        for k in range(0, len(raw), 2):
            u1 = ((raw[k] >> 11) + 1) * _TWO53_INV
            u2 = (raw[k + 1] >> 11) * _TWO53_INV
            r = sqrt(-2.0 * log(u1))
            theta = _TWO_PI * u2
            append(r * cos(theta))
            append(r * sin(theta))
        del out[count:]
        return out

    def _fisher_yates_offsets(self, n: int, steps: int) -> list[int]:
        """below(n), below(n - 1), ..., below(n - steps + 1): the draws of
        the first `steps` ascending Fisher-Yates steps over n items.

        Every step needs at least one output, so each block drawn is at most
        the steps still open and a rejection only extends the walk by the
        outputs it really needs: the state afterwards is the one-at-a-time
        state.
        """
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
        """k distinct indices from [0, n): the first k Fisher-Yates steps."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        items = list(range(n))
        for i, r in enumerate(self._fisher_yates_offsets(n, k)):
            j = i + r
            items[i], items[j] = items[j], items[i]
        return items[:k]
