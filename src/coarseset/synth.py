"""Labeled Gaussian-mixture generator standing in for real feature clouds.

Everything is a pure, bit-reproducible function of the MixtureSpec: one Rng stream
(see :mod:`coarseset.rng`) is consumed in a fixed order so independent
reimplementations produce identical datasets. Stream order: (1) if centers
are auto-generated, per class draw d normals and normalize to a unit
direction (redrawn if degenerate), scaled by `separation`; (2) class by
class, count*d normals for the point cloud; (3) one Fisher-Yates shuffle of
the assembled rows.

Train/test pairs need the same mixture sampled twice: either pass explicit
`centers` to both specs, or set the same `center_seed` with different
`rng_seed`s. A set `center_seed` moves the center draw onto its own
Rng(center_seed) stream; the point noise and shuffle stay on Rng(rng_seed).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .rng import Rng
from .store import EmbeddingMatrix, LabelVector


def check_int(field: str, value) -> int:
    """`value` if it is an integer (a Python or numpy int, not a bool);
    otherwise TypeError naming `field`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture: per-class counts, stds, and centers
    (explicit C x d, or random unit directions scaled by `separation`)."""

    per_class_counts: Sequence[int]
    d: int
    std: Union[float, Sequence[float]] = 1.0
    separation: float = 6.0
    rng_seed: int = 0
    centers: Optional[Sequence[Sequence[float]]] = None
    center_seed: Optional[int] = None

    def __post_init__(self):
        counts = [check_int("per_class_counts", c) for c in self.per_class_counts]
        if not counts or any(c < 1 for c in counts):
            raise ValueError(f"per_class_counts must be positive, got {counts}")
        check_int("d", self.d)
        check_int("rng_seed", self.rng_seed)
        if self.center_seed is not None:
            check_int("center_seed", self.center_seed)
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        stds = self.class_stds
        if any(s <= 0 for s in stds):
            raise ValueError(f"stds must be positive, got {stds}")
        if len(stds) != len(counts):
            raise ValueError(
                f"{len(stds)} stds for {len(counts)} classes"
            )
        if self.separation < 0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.center_seed is not None and self.center_seed < 0:
            raise ValueError(f"center_seed must be non-negative, got {self.center_seed}")
        if self.centers is not None:
            arr = np.asarray(self.centers, dtype=np.float64)
            if arr.shape != (len(counts), self.d):
                raise ValueError(
                    f"centers shape {arr.shape} != ({len(counts)}, {self.d})"
                )

    @property
    def num_classes(self) -> int:
        return len(self.per_class_counts)

    @property
    def n(self) -> int:
        return sum(int(c) for c in self.per_class_counts)

    @property
    def class_stds(self) -> list[float]:
        if isinstance(self.std, (int, float)):
            return [float(self.std)] * len(self.per_class_counts)
        return [float(s) for s in self.std]


def _auto_centers(spec: MixtureSpec, rng: Rng) -> np.ndarray:
    centers = np.empty((spec.num_classes, spec.d), dtype=np.float64)
    for c in range(spec.num_classes):
        while True:
            direction = np.asarray(rng.normals(spec.d), dtype=np.float64)
            norm = math.sqrt(float((direction * direction).sum()))
            if norm > 1e-12:
                break
        centers[c] = spec.separation * direction / norm
    return centers


def generate(spec: MixtureSpec) -> tuple[EmbeddingMatrix, LabelVector]:
    """Sample the mixture: class-by-class emission, then a seeded shuffle."""
    rng = Rng(spec.rng_seed)
    if spec.centers is not None:
        centers = np.asarray(spec.centers, dtype=np.float64)
    elif spec.center_seed is not None:
        centers = _auto_centers(spec, Rng(spec.center_seed))
    else:
        centers = _auto_centers(spec, rng)

    n = spec.n
    points = np.empty((n, spec.d), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for c, (count, std) in enumerate(zip(spec.per_class_counts, spec.class_stds)):
        noise = np.asarray(rng.normals(count * spec.d), dtype=np.float64)
        points[row : row + count] = centers[c] + std * noise.reshape(count, spec.d)
        labels[row : row + count] = c
        row += count

    perm = rng.permutation(n)
    emb = EmbeddingMatrix(points[perm].astype(np.float32))
    return emb, LabelVector(labels[perm], spec.num_classes)
