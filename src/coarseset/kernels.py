"""The hot selection kernel: screened min-distance updates in numpy.

Layout
------
A :class:`DistanceKernel` works on the caller's ``n x d`` float32 data,
row-major, as an :class:`~coarseset.store.EmbeddingMatrix` holds it (and a
loaded EMB1 file is): C-contiguous float32 data is kept with no copy, any
other input is converted once. Beside it sit the float64 squared norms
``sq[i] = sum_j x_ij**2``, summed once per run in ascending feature order,
like every exact sum below (for cosine, their square roots are the point
norms of the contract). Arithmetic on the values is float64 (float32 ->
float64 is exact); only the screen below runs in float32, on the caller's
BLAS. Callers pass the embedding data and a
:class:`~coarseset.metrics.Metric`; no other module knows the buffers.

Screening
---------
Only a few points per pick come closer to the new center than to every
earlier one, so ``update(center, min_dist)`` first bounds every distance
from below and runs the exact arithmetic only on the points whose bound
does not beat their ``min_dist``. With ``u = 2**-53`` (float64) and
``g = d * 2**-24 / (1 - d * 2**-24)`` (float32 rounding over ``d`` terms),
the bound for squared euclidean distance is::

    lb[i] = sq[i] + sq[c] - p2[i] - rho * (sq[i] + sq[c]) - alpha
    p2    = matmul(x, 2 * x[c])     # float32 sgemv on the caller's BLAS
    rho   = g * (1 + 2**-20) + (4 * d + 40) * u
    alpha = d * 2**-147

Why it holds. The true distance is ``D = S_i + S_c - 2 p`` with squared
norms ``S`` and dot product ``p``. ``p2[i]`` is a float32 dot product of
``d`` terms computed in an order the BLAS chooses: blocked, split across
threads, or with fused multiply-adds. Whatever the order, every term passes
through at most ``d`` roundings (its product, unless fused, and at most
``d - 1`` additions), each off by at most ``2**-24`` relative; a fused
multiply-add only removes roundings, and wider accumulators only shrink
them. Under gradual underflow an addition whose result is subnormal is
exact, so underflow enters only where a product (plain or fused) rounds to
a subnormal, at most ``2**-150`` each time and ``d`` times in all. So
``p2`` is off by at most ``g * sum_j |x_ij c_j| + d * 2**-150``, and
``alpha`` leaves a factor 8 on the second term for its propagation through
later roundings. Cauchy-Schwarz with AM-GM bounds the sum in the first term
by ``(S_i + S_c) / 2``. ``sq`` is within ``d u`` (relative) of ``S``. The
exact step sums ``d`` non-negative float64 terms, so its result is at
least ``D * (1 - (d + 2) u)``, and ``D <= 2 (S_i + S_c)``. Together these
take ``g`` and ``(3d + 5) u`` of ``rho``; rounding ``lb`` itself (and, for
euclidean, squaring ``min_dist``) takes under ``10 u`` more, and the rest
is margin. So the exact kernel's value is at least ``lb``, and a point
with ``lb > min_dist`` provably keeps its ``min_dist``. The screen decides
only which points reach the exact step, never a stored value, so orders do
not depend on the BLAS or its thread count.

* Euclidean compares ``lb`` with ``min_dist**2`` as rounded in float64.
  The spare ``rho`` covers the rounding of that square, and a correctly
  rounded square root is monotone, so ``sqrt(D) >= min_dist`` still holds.
* Cosine screens with the same ``p2``: with the stored norms ``N``,
  ``lb = (1 - rho) - (p2 / 2 + alpha / 4) / (N_i N_c)``. The exact value
  ``1 - acc / (N_i N_c)`` is off from ``1 - t``, with ``t`` the exact
  cosine similarity, by at most
  ``(2d + 12) u``, and the screen's ``t`` by ``g`` plus the underflow
  term. ``rho`` covers both, with the rounding of the screen itself.
  Identical or parallel points have a true distance of 0, so their bound
  is negative: the short-circuit to 0.0 never meets a skipped point.
* The test is ``skip = lb > min_dist`` and the candidates are ``~skip``,
  so a NaN bound falls through to the exact step. An infinite
  ``min_dist`` (the first update) makes every point a candidate.
* The float32 dot product cannot overflow while ``d * max|x|**2 <=
  2**126``. For data beyond that (values near 1e18 and up) the kernel does
  not screen and runs the exact step on every point.

These bounds assume IEEE arithmetic with round-to-nearest and gradual
underflow, numpy's defaults, in the BLAS as well: a BLAS built to flush
subnormals to zero (FTZ/DAZ) could lose up to ``2**-126`` per operation,
which ``alpha`` does not cover.

Bit-exactness
-------------
The exact step gathers the candidate rows in chunks with ``np.take(axis=0)``
into a float32 ``(k, d)`` buffer (no allocation per chunk), copies them
transposed into a C-ordered float64 ``(d, k)`` buffer, subtracts the center
(for cosine: multiplies by it), squares, and reduces with
``np.add.reduce(axis=0)``; the constructor sums the squared norms through
the same gather. On a C-ordered block that reduction adds row after row,
which is exactly the contract's ascending per-feature float64 sum in
:func:`coarseset.metrics.distance`; every stored distance is therefore
bit-identical to it. Two layouts make numpy sum a column pairwise instead
(an 8-way unrolled order that rounds differently once ``d >= 8``): an
F-ordered block, such as the transposed rows themselves, and a
single-column block, whose one remaining axis is the reduced one. So the
reduction always runs on the preallocated C-ordered float64 buffer with at
least two columns: a last chunk of one point gathers it twice. The farthest-point pick in
:func:`coarseset.selector.greedy_steps` keeps the first maximum, i.e. ties
resolve to the lowest index.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVector
from .metrics import Metric

_U64 = 2.0 ** -53  # float64 unit roundoff
_U32 = 2.0 ** -24  # float32 unit roundoff
# float64 values gathered per exact-step chunk, across all d rows
_CHUNK_VALUES = 1 << 15


class DistanceKernel:
    """Distances from every point to one center, folded into a min-dist
    vector. Built once per greedy run from the ``n x d`` float32 embedding
    data, which it keeps without a copy when it is C-contiguous float32
    (other inputs are converted, as in EmbeddingMatrix)."""

    def __init__(self, data: np.ndarray, metric: Metric):
        n, d = data.shape
        self.metric = metric
        self._x = np.ascontiguousarray(data, dtype=np.float32)
        self._p2 = np.empty(n, dtype=np.float32)
        self._lb = np.empty(n, dtype=np.float64)
        self._skip = np.empty(n, dtype=np.bool_)
        # >= 2 columns per chunk: a one-column block would be summed pairwise
        self._chunk = max(2, _CHUNK_VALUES // d)
        self._rows = np.empty(self._chunk * d, dtype=np.float32)
        self._blk = np.empty(d * self._chunk, dtype=np.float64)
        self._acc = np.empty(self._chunk, dtype=np.float64)
        sq = np.empty(n, dtype=np.float64)
        for cols in self._chunks(np.arange(n)):
            blk = self._block(cols)
            acc = self._acc[:cols.shape[0]]
            np.multiply(blk, blk, out=blk)
            np.add.reduce(blk, axis=0, out=acc)
            sq[cols] = acc

        amax = max(float(self._x.max()), -float(self._x.min()))
        self._screen = d < 2 ** 20 and d * amax * amax <= 2.0 ** 126
        g = d * _U32 / (1.0 - d * _U32) if self._screen else 0.0
        self._rho = g * (1.0 + 2.0 ** -20) + (4 * d + 40) * _U64
        self._alpha = d * 2.0 ** -147
        if metric is Metric.COSINE:
            self._norms = np.sqrt(sq)
            if not self._norms.all():
                bad = int(np.nonzero(self._norms == 0.0)[0][0])
                raise ZeroVector(f"cosine metric rejects all-zero point {bad}")
            self._inv = 1.0 / self._norms
        else:
            self._sq_low = np.multiply(sq, 1.0 - self._rho, out=sq)  # sq[i] (1 - rho)
            if metric is Metric.EUCLIDEAN:
                self._min_sq = np.empty(n, dtype=np.float64)

    def update(self, center: int, min_dist: np.ndarray) -> None:
        """min_dist[i] = min(min_dist[i], distance(point i, point center))."""
        cols = self._candidates(center, min_dist) if self._screen else np.arange(len(min_dist))
        for part in self._chunks(cols):
            self._exact_block(part, center, min_dist)

    def _chunks(self, cols: np.ndarray):
        """`cols` in ascending runs of at most one chunk and at least two
        indices: a lone last index is repeated."""
        for lo in range(0, cols.shape[0], self._chunk):
            part = cols[lo:lo + self._chunk]
            yield part if part.shape[0] > 1 else np.repeat(part, 2)

    def _candidates(self, center: int, min_dist: np.ndarray) -> np.ndarray:
        """Indices whose lower bound does not beat their min_dist."""
        lb, p2, skip = self._lb, self._p2, self._skip
        c2 = self._x[center] * np.float32(2.0)  # exact: a power of two
        np.matmul(self._x, c2, out=p2)  # sgemv on the caller's BLAS
        limit = min_dist
        if self.metric is Metric.COSINE:
            # lb = (1 - rho) - (p2 / 2 + alpha / 4) / (N_i N_c)
            np.add(p2, self._alpha / 2.0, out=lb, dtype=np.float64)
            np.multiply(lb, self._inv, out=lb)
            np.multiply(lb, 0.5 * self._inv[center], out=lb)
            np.subtract(1.0 - self._rho, lb, out=lb)
        else:
            # lb = sq[i] (1 - rho) + sq[c] (1 - rho) - alpha - p2[i]
            np.add(self._sq_low, self._sq_low[center] - self._alpha, out=lb)
            np.subtract(lb, p2, out=lb, dtype=np.float64)
            if self.metric is Metric.EUCLIDEAN:  # lb bounds the squared distance
                limit = np.multiply(min_dist, min_dist, out=self._min_sq)
        np.greater(lb, limit, out=skip)
        np.logical_not(skip, out=skip)
        return np.flatnonzero(skip)

    def _block(self, cols: np.ndarray) -> np.ndarray:
        """The points `cols`, one chunk of at least two indices, as a
        C-ordered float64 ``(d, k)`` view of the preallocated buffer,
        feature j in row j."""
        d = self._x.shape[1]
        src = self._rows[:cols.shape[0] * d].reshape(cols.shape[0], d)
        np.take(self._x, cols, axis=0, out=src, mode="clip")
        blk = self._blk[:d * src.shape[0]].reshape(d, src.shape[0])
        # transpose and upcast in one copy: float32 -> float64 is exact, and
        # a float64 ufunc runs faster than one that casts on the fly
        np.copyto(blk, src.T)
        return blk

    def _exact_block(self, cols: np.ndarray, center: int, min_dist: np.ndarray) -> None:
        """The contract's arithmetic on the points `cols`, one chunk of at
        least two indices, folded into their min_dist entries."""
        blk = self._block(cols)
        acc = self._acc[:blk.shape[1]]
        c = self._x[center, :, None].astype(np.float64)
        if self.metric is Metric.COSINE:
            same = np.equal(blk, c).all(axis=0)
            np.multiply(blk, c, out=blk)
            np.add.reduce(blk, axis=0, out=acc)
            den = self._norms[cols] * self._norms[center]
            np.divide(acc, den, out=acc)
            np.subtract(1.0, acc, out=acc)
            np.maximum(acc, 0.0, out=acc)
            np.copyto(acc, 0.0, where=same)
        else:
            np.subtract(blk, c, out=blk)
            np.multiply(blk, blk, out=blk)
            np.add.reduce(blk, axis=0, out=acc)
            if self.metric is Metric.EUCLIDEAN:
                np.sqrt(acc, out=acc)
        # a repeated lone column holds the same value twice
        cur = min_dist[cols]
        np.minimum(cur, acc, out=cur)
        min_dist[cols] = cur


def masked_argmax(values: np.ndarray, taken: np.ndarray) -> int:
    """Index of the largest value not taken; the lowest such index on ties."""
    # distances are >= 0, so -1.0 never wins while a free point remains
    return int(np.argmax(np.where(taken, -1.0, values)))
