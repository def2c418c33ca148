"""k-center greedy selection, whole-dataset orderings, and the baselines.

The greedy loop keeps, for every point, its minimum distance to any chosen
center and repeatedly promotes the farthest point to a new center (ties
break to the lowest index, compared on the exact stored distances). Because
the loop is incremental, the ordering at a small budget is always a literal
prefix of the ordering at a larger one, which is what makes a single full
ordering serve every annotation budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import kernels
from .errors import (
    BudgetExceedsPool,
    DuplicateSeed,
    IndexOutOfRange,
    IoFailure,
    MalformedHeader,
    NoCenters,
    TrainerFailure,
)
from .metrics import DEFAULT_METRIC, Metric
from .rng import Rng
from .store import EmbeddingMatrix, LabelVector, PathLike

# A feature trainer maps (embeddings, labels, labeled indices) to a fresh
# n x h feature matrix; see proxy.feature_trainer for the MLP-backed one.
Trainer = Callable[[EmbeddingMatrix, LabelVector, Sequence[int]], EmbeddingMatrix]


@dataclass(frozen=True)
class SelectionOrder:
    """Point indices in selection sequence: seeds first, then greedy picks."""

    order: np.ndarray
    seed_count: int

    def __post_init__(self):
        arr = np.asarray(self.order, dtype=np.int64)
        if arr.ndim != 1:
            raise IndexOutOfRange("order must be a 1-D index sequence")
        if len(np.unique(arr)) != arr.shape[0]:
            raise DuplicateSeed("order entries must be distinct")
        if not 0 <= self.seed_count <= arr.shape[0]:
            raise IndexOutOfRange(
                f"seed_count {self.seed_count} outside [0, {arr.shape[0]}]"
            )
        arr = arr.copy() if arr.flags.writeable else arr
        arr.setflags(write=False)
        object.__setattr__(self, "order", arr)

    def __len__(self) -> int:
        return int(self.order.shape[0])

    def prefix(self, budget: int) -> np.ndarray:
        """First `budget` selected indices (seeds count toward the budget)."""
        if budget > len(self):
            raise BudgetExceedsPool(f"prefix {budget} exceeds order length {len(self)}")
        return self.order[:budget]


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for full_ordering: k random seed centers, then greedy picks."""

    seed_count: int = 1
    rng_seed: int = 0
    metric: Metric = DEFAULT_METRIC

    def __post_init__(self):
        if self.seed_count < 1:
            raise IndexOutOfRange(f"seed_count must be >= 1, got {self.seed_count}")
        if self.rng_seed < 0:
            raise IndexOutOfRange(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass
class SelectionState:
    """Working set of one greedy run.

    min_dist[i] is the exact distance from point i to its nearest center
    (float64, +inf before any center exists); it is a live view, so copy it
    if you need a snapshot. coverage radius = max(min_dist).
    """

    centers: list[int]
    min_dist: np.ndarray
    metric: Metric
    seed_count: int = 0


def coverage_radius(state: SelectionState) -> float:
    """k-center objective value: the largest distance to a nearest center."""
    if not state.centers:
        raise NoCenters("coverage radius undefined without centers")
    return float(state.min_dist.max())


def _validate_seeds(initial_centers: Sequence[int], n: int) -> list[int]:
    seeds = [int(i) for i in initial_centers]
    if not seeds:
        raise NoCenters("at least one initial center is required")
    for i in seeds:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"center index {i} outside [0, {n})")
    if len(set(seeds)) != len(seeds):
        raise DuplicateSeed(f"duplicate initial centers in {seeds}")
    return seeds


def greedy_steps(
    e: EmbeddingMatrix,
    initial_centers: Sequence[int],
    budget: int,
    metric: Metric = DEFAULT_METRIC,
) -> Iterator[SelectionState]:
    """Run k-center greedy, yielding the state after seeding and after every
    pick. kcenter_greedy consumes this fully; tests use it to audit min_dist.
    """
    seeds = _validate_seeds(initial_centers, e.n)
    if budget < 0 or budget > e.n - len(seeds):
        raise BudgetExceedsPool(
            f"budget {budget} exceeds the {e.n - len(seeds)} unselected points"
        )
    kern = kernels.DistanceKernel(e.data, metric)
    min_dist = np.full(e.n, np.inf, dtype=np.float64)
    taken = np.zeros(e.n, dtype=np.bool_)
    state = SelectionState(list(seeds), min_dist, metric, seed_count=len(seeds))
    for c in seeds:
        taken[c] = True
        kern.update(c, min_dist)
    yield state
    for _ in range(budget):
        pick = kernels.masked_argmax(min_dist, taken)
        taken[pick] = True
        state.centers.append(pick)
        kern.update(pick, min_dist)
        yield state


def kcenter_greedy(
    e: EmbeddingMatrix,
    initial_centers: Sequence[int],
    budget: int,
    metric: Metric = DEFAULT_METRIC,
) -> SelectionOrder:
    """Seeds followed by `budget` farthest-point picks (lowest index on ties)."""
    state = None
    for state in greedy_steps(e, initial_centers, budget, metric):
        pass
    assert state is not None
    return SelectionOrder(np.asarray(state.centers, dtype=np.int64), state.seed_count)


def full_ordering(e: EmbeddingMatrix, cfg: SelectionConfig) -> SelectionOrder:
    """Permutation of all points: k seeded centers, then greedy to exhaustion.

    The budget-b selection for any b is simply the first b entries.
    """
    return select_prefix(e, cfg, e.n)


def select_prefix(e: EmbeddingMatrix, cfg: SelectionConfig, budget_total: int) -> SelectionOrder:
    """`cfg.seed_count` seeds drawn by ``Rng(cfg.rng_seed).sample``, then
    greedy picks, budget_total entries in all. Identical to the same-length
    prefix of full_ordering.
    """
    if budget_total < cfg.seed_count:
        raise BudgetExceedsPool(
            f"budget {budget_total} cannot cover {cfg.seed_count} seeds"
        )
    if budget_total > e.n:
        raise BudgetExceedsPool(f"budget {budget_total} exceeds n={e.n}")
    seeds = Rng(cfg.rng_seed).sample(e.n, cfg.seed_count)
    return kcenter_greedy(e, seeds, budget_total - cfg.seed_count, cfg.metric)


def random_order(n: int, rng_seed: int) -> SelectionOrder:
    """Uniform random permutation (seeded Fisher-Yates); the Random baseline
    at budget b is its length-b prefix."""
    if n < 1:
        raise BudgetExceedsPool(f"need at least one point, got n={n}")
    perm = Rng(rng_seed).permutation(n)
    return SelectionOrder(np.asarray(perm, dtype=np.int64), seed_count=0)


def iterative_rounds(
    e: EmbeddingMatrix,
    labels: LabelVector,
    round_sizes: Sequence[int],
    trainer: Trainer,
    rng_seed: int,
    metric: Metric = DEFAULT_METRIC,
) -> Iterator[list[int]]:
    """Iterative core-set baseline loop, yielding the labeled list after each
    round. Round 0 is uniformly random; every later round retrains the proxy
    on the current labeled set and runs k-center greedy in its fresh feature
    space with the labeled set as centers.
    """
    sizes = [int(s) for s in round_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise BudgetExceedsPool(f"round sizes must be positive, got {sizes}")
    if sum(sizes) > e.n:
        raise BudgetExceedsPool(f"rounds request {sum(sizes)} of {e.n} points")
    if len(labels) != e.n:
        raise IndexOutOfRange(
            f"labels cover {len(labels)} points, embeddings have {e.n}"
        )

    labeled = [int(i) for i in random_order(e.n, rng_seed).prefix(sizes[0])]
    yield list(labeled)
    for size in sizes[1:]:
        try:
            feats = trainer(e, labels, list(labeled))
        except Exception as exc:
            raise TrainerFailure(f"feature trainer failed: {exc}") from exc
        if not isinstance(feats, EmbeddingMatrix) or feats.n != e.n:
            raise TrainerFailure(
                f"trainer must return an EmbeddingMatrix with n={e.n} rows"
            )
        picked = kcenter_greedy(feats, labeled, size, metric)
        labeled = [int(i) for i in picked.order]
        yield list(labeled)


def iterative_coreset(
    e: EmbeddingMatrix,
    labels: LabelVector,
    rounds: int,
    per_round: int,
    trainer: Trainer,
    rng_seed: int,
    metric: Metric = DEFAULT_METRIC,
) -> SelectionOrder:
    """Iterative core-set baseline with uniform round size; the leading
    per_round random picks play the seed role in the returned order."""
    if rounds < 1:
        raise BudgetExceedsPool(f"rounds must be >= 1, got {rounds}")
    labeled: list[int] = []
    for labeled in iterative_rounds(e, labels, [per_round] * rounds, trainer, rng_seed, metric):
        pass
    return SelectionOrder(np.asarray(labeled, dtype=np.int64), seed_count=per_round)


# --- order files --------------------------------------------------------------

def save_order(order: SelectionOrder, path: PathLike) -> None:
    """One index per line, preceded by a `# seed_count=<k>` comment."""
    lines = [f"# seed_count={order.seed_count}"]
    lines.extend(str(int(i)) for i in order.order)
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoFailure(f"cannot write order to {path}: {exc}") from exc


def load_order(path: PathLike) -> SelectionOrder:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read order from {path}: {exc}") from exc
    seed_count = 0
    indices: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tok = line.strip()
        if not tok:
            continue
        if tok.startswith("#"):
            body = tok.lstrip("#").strip()
            if body.startswith("seed_count="):
                try:
                    seed_count = int(body.split("=", 1)[1])
                except ValueError:
                    raise MalformedHeader(f"{path}: bad seed_count comment") from None
            continue
        try:
            indices.append(int(tok))
        except ValueError:
            raise MalformedHeader(f"{path}: line {lineno}: {tok!r} is not an index") from None
    if not indices:
        raise MalformedHeader(f"{path}: no indices")
    return SelectionOrder(np.asarray(indices, dtype=np.int64), seed_count)
