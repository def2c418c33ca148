"""The hot selection kernel: min-distance updates in feature-major numpy.

Layout
------
A :class:`DistanceKernel` holds the one float64 working copy of a greedy
run, stored feature-major: a contiguous ``d x n`` array built once from the
float32 embeddings. Feature ``j`` of every point is then one contiguous
row, so an update streams through the array once, row by row, with
in-place ufuncs on n-length buffers allocated once per run. No other module
knows this layout; callers pass the ``n x d`` embedding data and a
:class:`~coarseset.metrics.Metric`.

Bit-exactness
-------------
The kernel implements the metrics contract literally: per point, the
feature reduction runs in strictly ascending index order with one float64
accumulation per feature. Vectorizing across *points* while looping over
features performs the exact same float64 operation sequence per point as the
scalar reference in :mod:`coarseset.metrics`, and elementary numpy ufuncs are
correctly rounded, so every distance is bit-identical to
:func:`coarseset.metrics.distance`. The farthest-point argmax keeps the
first maximum, i.e. ties resolve to the lowest index.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVector
from .metrics import Metric


class DistanceKernel:
    """Distances from every point to one center, folded into a min-dist
    vector. Built once per greedy run from the ``n x d`` embedding data."""

    def __init__(self, data: np.ndarray, metric: Metric):
        n, d = data.shape
        self.metric = metric
        self._xt = np.empty((d, n), dtype=np.float64)
        np.copyto(self._xt, data.T)  # float32 storage, float64 arithmetic
        self._acc = np.empty(n, dtype=np.float64)
        self._buf = np.empty(n, dtype=np.float64)
        if metric is Metric.COSINE:
            self._same = np.empty(n, dtype=np.bool_)
            self._eq = np.empty(n, dtype=np.bool_)
            self._norms = np.zeros(n, dtype=np.float64)
            for row in self._xt:
                np.multiply(row, row, out=self._buf)
                np.add(self._norms, self._buf, out=self._norms)
            np.sqrt(self._norms, out=self._norms)
            if not self._norms.all():
                bad = int(np.nonzero(self._norms == 0.0)[0][0])
                raise ZeroVector(f"cosine metric rejects all-zero point {bad}")

    def update(self, center: int, min_dist: np.ndarray) -> None:
        """min_dist[i] = min(min_dist[i], distance(point i, point center))."""
        acc, buf = self._acc, self._buf
        acc.fill(0.0)
        coords = self._xt[:, center].tolist()
        if self.metric is Metric.COSINE:
            same, eq = self._same, self._eq
            same.fill(True)
            for row, c in zip(self._xt, coords):
                np.multiply(row, c, out=buf)
                np.add(acc, buf, out=acc)
                np.equal(row, c, out=eq)
                np.logical_and(same, eq, out=same)
            np.multiply(self._norms, self._norms[center], out=buf)
            np.divide(acc, buf, out=acc)
            np.subtract(1.0, acc, out=acc)
            np.maximum(acc, 0.0, out=acc)
            np.copyto(acc, 0.0, where=same)
        else:
            for row, c in zip(self._xt, coords):
                np.subtract(row, c, out=buf)
                np.multiply(buf, buf, out=buf)
                np.add(acc, buf, out=acc)
            if self.metric is Metric.EUCLIDEAN:
                np.sqrt(acc, out=acc)
        np.minimum(min_dist, acc, out=min_dist)


def masked_argmax(values: np.ndarray, taken: np.ndarray) -> int:
    """Index of the largest value not taken; the lowest such index on ties."""
    # distances are >= 0, so -1.0 never wins while a free point remains
    return int(np.argmax(np.where(taken, -1.0, values)))
