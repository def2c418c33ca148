"""Distance semantics shared by selection, oracles, and tests.

All three metrics accumulate in float64 over strictly ascending feature
index, one scalar add per feature. That fixed operation order is the
reproducibility contract: the kernel in :mod:`coarseset.kernels` is
bit-identical to the scalar reference below because its exact step keeps
the same per-feature reduction order (it sums a C-ordered feature-major
block row by row, one float64 add per feature), and its float32 screen only
skips points whose distance it has proven cannot lower their minimum.

Cosine distance is ``1 - dot(a, b) / (|a| * |b|)`` with two documented float
edges: element-wise identical vectors short-circuit to exactly 0.0, and a
rounding-induced negative result is clamped to 0.0.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DimensionMismatch, ZeroVector


class Metric(enum.Enum):
    """Distance function selector. SQEUCLIDEAN and EUCLIDEAN induce the same
    farthest/nearest orderings (monotone transform); SQEUCLIDEAN is the
    default because it skips the square root."""

    SQEUCLIDEAN = "sqeuclidean"
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


DEFAULT_METRIC = Metric.SQEUCLIDEAN


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def distance(a, b, metric: Metric = DEFAULT_METRIC) -> float:
    """Scalar reference distance. Symmetric; zero iff a == b (squared/plain
    euclidean) or a, b identical / parallel same-direction (cosine)."""
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    if av.shape[0] != bv.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    ax = av.tolist()
    bx = bv.tolist()
    if metric is Metric.COSINE:
        if ax == bx:
            # exact-zero short-circuit; the kernel applies the same rule
            if all(x == 0.0 for x in ax):
                raise ZeroVector("cosine distance undefined for the zero vector")
            return 0.0
        asq = 0.0
        bsq = 0.0
        dot = 0.0
        for x, y in zip(ax, bx):
            asq += x * x
            bsq += y * y
            dot += x * y
        if asq == 0.0 or bsq == 0.0:
            raise ZeroVector("cosine distance undefined for the zero vector")
        d = 1.0 - dot / (math.sqrt(asq) * math.sqrt(bsq))
        return d if d > 0.0 else 0.0
    acc = 0.0
    for x, y in zip(ax, bx):
        diff = x - y
        acc += diff * diff
    if metric is Metric.EUCLIDEAN:
        return math.sqrt(acc)
    return acc
