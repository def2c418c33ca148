"""Independent reference implementations the tests check the engine against.

The brute-force greedy recomputes every point-to-center distance from
scratch at every step (no incremental state, no shared kernel code). It
follows the documented canonical arithmetic -- float64 accumulation in
ascending feature order -- because the exact-equality acceptance gates are
only meaningful when both routes round identically; the *logic* (full
recomputation each step vs incremental maintenance) is what is independent.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from coarseset.metrics import DEFAULT_METRIC, Metric, distance
from coarseset.proxy import extract_features, train
from coarseset.selector import kcenter_greedy, random_order


def pairwise_to_centers(x64: np.ndarray, centers: list[int], metric: Metric) -> np.ndarray:
    """n x len(centers) distance table, canonical arithmetic."""
    n, d = x64.shape
    c64 = x64[centers]
    m = len(centers)
    if metric is Metric.COSINE:
        dot = np.zeros((n, m))
        same = np.ones((n, m), dtype=bool)
        xsq = np.zeros(n)
        csq = np.zeros(m)
        for j in range(d):
            col = x64[:, j][:, None]
            row = c64[:, j][None, :]
            dot += col * row
            same &= col == row
            xsq += x64[:, j] * x64[:, j]
            csq += c64[:, j] * c64[:, j]
        dist = 1.0 - dot / (np.sqrt(xsq)[:, None] * np.sqrt(csq)[None, :])
        np.maximum(dist, 0.0, out=dist)
        dist[same] = 0.0
        return dist
    acc = np.zeros((n, m))
    for j in range(d):
        diff = x64[:, j][:, None] - c64[:, j][None, :]
        acc += diff * diff
    if metric is Metric.EUCLIDEAN:
        np.sqrt(acc, out=acc)
    return acc


def min_dists(data: np.ndarray, centers: list[int], metric: Metric) -> np.ndarray:
    """Min distance from every point to the center set, recomputed fresh."""
    x64 = np.asarray(data, dtype=np.float64)
    return pairwise_to_centers(x64, centers, metric).min(axis=1)


def min_dists_scalar(data: np.ndarray, centers: list[int], metric: Metric) -> np.ndarray:
    """Same, through the public scalar distance() one pair at a time."""
    x = np.asarray(data)
    return np.asarray(
        [min(distance(x[i], x[c], metric) for c in centers) for i in range(len(x))]
    )


class ReferenceKernel:
    """The dense per-feature float64 loop the screened kernel must match bit
    for bit: a feature-major float64 copy, every point updated at every
    call, one in-place ufunc per feature in ascending order."""

    def __init__(self, data: np.ndarray, metric: Metric):
        self.metric = metric
        self.xt = np.ascontiguousarray(np.asarray(data, dtype=np.float32).T, dtype=np.float64)
        if metric is Metric.COSINE:
            self.norms = np.sqrt(sum(row * row for row in self.xt))

    def update(self, center: int, min_dist: np.ndarray) -> None:
        n = self.xt.shape[1]
        acc = np.zeros(n)
        coords = self.xt[:, center].tolist()
        if self.metric is Metric.COSINE:
            same = np.ones(n, dtype=bool)
            for row, c in zip(self.xt, coords):
                acc += row * c
                same &= row == c
            acc = 1.0 - acc / (self.norms * self.norms[center])
            np.maximum(acc, 0.0, out=acc)
            acc[same] = 0.0
        else:
            for row, c in zip(self.xt, coords):
                diff = row - c
                acc += diff * diff
            if self.metric is Metric.EUCLIDEAN:
                np.sqrt(acc, out=acc)
        np.minimum(min_dist, acc, out=min_dist)


def brute_force_greedy(
    data: np.ndarray, seeds: list[int], budget: int, metric: Metric
) -> list[int]:
    """O(n^2 * steps) greedy: full distance recomputation per step, argmax by
    first strict maximum over non-centers (ties -> lowest index)."""
    x64 = np.asarray(data, dtype=np.float64)
    order = list(seeds)
    taken = np.zeros(len(x64), dtype=bool)
    taken[seeds] = True
    for _ in range(budget):
        mind = pairwise_to_centers(x64, order, metric).min(axis=1)
        pick = int(np.argmax(np.where(taken, -1.0, mind)))
        order.append(pick)
        taken[pick] = True
    return order


def coreset_rounds(emb, labels, round_sizes, cfg, rng_seed, metric=DEFAULT_METRIC):
    """The iterative core-set baseline as a plain loop: a random prefix, then
    per round train a proxy on the labeled list (`cfg`), take its features
    and run k-center greedy there with the list as centers. The labeled list
    after each round."""
    labeled = random_order(emb.n, rng_seed).prefix(round_sizes[0]).tolist()
    rounds = [labeled]
    for size in round_sizes[1:]:
        feats = extract_features(train(emb, labels, labeled, cfg), emb)
        labeled = kcenter_greedy(feats, labeled, size, metric).order.tolist()
        rounds.append(labeled)
    return rounds


def apply_update(params, grads, lr):
    """The proxy's SGD step in its plain form: each param cast to float64,
    the update taken there, the result cast back to the param's dtype."""
    return [
        (p.astype(np.float64) - lr * g).astype(p.dtype)
        for p, g in zip(params, grads)
    ]


def relu_backward_grads(params64, x, target):
    """The proxy's backward pass written out with the ReLU mask as
    ``np.where`` (+0.0 at every masked position), for any leading stack
    dimensions: [dW1, db1, dW2, db2] of the mean softmax cross-entropy from
    float64 params and one-hot targets."""
    w1, b1, w2, b2 = params64
    z1 = x @ np.swapaxes(w1, -1, -2) + b1[..., None, :]
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ np.swapaxes(w2, -1, -2) + b2[..., None, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    dlogits = exp / exp.sum(axis=-1, keepdims=True)
    dlogits -= target
    dlogits /= x.shape[-2]
    dz1 = np.where(z1 > 0.0, dlogits @ w2, 0.0)
    return [
        np.swapaxes(dz1, -1, -2) @ x,
        dz1.sum(axis=-2),
        np.swapaxes(dlogits, -1, -2) @ hidden,
        dlogits.sum(axis=-2),
    ]


def exhaustive_kcenter_radius(data: np.ndarray, k: int, metric: Metric) -> float:
    """Optimal k-center objective by trying every size-k center subset."""
    x64 = np.asarray(data, dtype=np.float64)
    n = len(x64)
    best = math.inf
    for subset in itertools.combinations(range(n), k):
        radius = pairwise_to_centers(x64, list(subset), metric).min(axis=1).max()
        best = min(best, float(radius))
    return best


def hypergeometric_std(n: int, population: int, draws: int) -> float:
    """Std of the count of one class when sampling `draws` of n without
    replacement and the class has `population` members."""
    p = population / n
    return math.sqrt(draws * p * (1.0 - p) * (n - draws) / (n - 1))
