"""Labeled Gaussian-mixture generator standing in for real feature clouds.

Everything is a pure, bit-reproducible function of the MixtureSpec: one Rng stream
(see :mod:`coarseset.rng`) is consumed in a fixed order so independent
reimplementations produce identical datasets. Stream order: (1) if centers
are auto-generated, per class draw d normals and normalize to a unit
direction (redrawn if degenerate), scaled by `separation`; (2) class by
class, count*d normals for the point cloud; (3) one Fisher-Yates shuffle of
the assembled rows.

Step (2) is drawn as one block of normals for all classes, which lets a
large pool take the Rng's lane route. Class c takes its count*d values from
its own whole Box-Muller pairs, 2*ceil(count*d/2) raw outputs, and drops the
last value when count*d is odd: the stream one normals() call per class
would consume.

Train/test pairs need the same mixture sampled twice: either pass explicit
`centers` to both specs, or set the same `center_seed` with different
`rng_seed`s. A set `center_seed` moves the center draw onto its own
Rng(center_seed) stream; the point noise and shuffle stay on Rng(rng_seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import check_int, check_real, check_seed
from .rng import Rng
from .store import EmbeddingMatrix, LabelVector


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
        check_seed("rng_seed", check_int("rng_seed", self.rng_seed))
        check_real("separation", self.separation)
        if self.center_seed is not None:
            check_seed("center_seed", check_int("center_seed", self.center_seed))
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
        if self.centers is not None:
            arr = np.asarray(self.centers, dtype=object)
            if arr.shape != (len(counts), self.d):
                raise ValueError(
                    f"centers shape {arr.shape} != ({len(counts)}, {self.d})"
                )
            for value in arr.flat:
                check_real("centers", value)

    @property
    def num_classes(self) -> int:
        return len(self.per_class_counts)

    @property
    def n(self) -> int:
        return sum(int(c) for c in self.per_class_counts)

    @property
    def class_stds(self) -> list[float]:
        stds = self.std
        if not isinstance(stds, (list, tuple, np.ndarray)):
            stds = [stds] * len(self.per_class_counts)
        return [check_real("std", s) for s in stds]


def _auto_centers(spec: MixtureSpec, rng: Rng) -> np.ndarray:
    centers = np.empty((spec.num_classes, spec.d), dtype=np.float64)
    for c in range(spec.num_classes):
        while True:
            direction = rng.normal_array(spec.d)
            norm = math.sqrt(float((direction * direction).sum()))
            if norm > 1e-12:
                break
        centers[c] = spec.separation * direction / norm
    return centers


# an overflow to inf or NaN is refused by EmbeddingMatrix's non-finite check
@np.errstate(over="ignore", invalid="ignore")
def generate(spec: MixtureSpec) -> tuple[EmbeddingMatrix, LabelVector]:
    """Sample the mixture: class-by-class emission, then a seeded shuffle."""
    rng = Rng(spec.rng_seed)
    if spec.centers is not None:
        centers = np.asarray(spec.centers, dtype=np.float64)
    elif spec.center_seed is not None:
        centers = _auto_centers(spec, Rng(spec.center_seed))
    else:
        centers = _auto_centers(spec, rng)

    n, d = spec.n, int(spec.d)
    counts = [int(c) for c in spec.per_class_counts]
    # class c takes its count*d normals from a whole number of pairs
    spans = [2 * ((count * d + 1) // 2) for count in counts]
    noise = rng.normal_array(sum(spans))
    points = np.empty((n, d), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    row = start = 0
    for c, (count, span, std) in enumerate(zip(counts, spans, spec.class_stds)):
        block = noise[start : start + count * d].reshape(count, d)
        points[row : row + count] = centers[c] + std * block
        labels[row : row + count] = c
        row += count
        start += span

    perm = rng.permutation(n)
    labels = labels[perm]
    labels.setflags(write=False)  # handed over: LabelVector keeps it uncopied
    return EmbeddingMatrix(points[perm]), LabelVector(labels, spec.num_classes)
