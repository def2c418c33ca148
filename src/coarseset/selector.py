"""k-center greedy selection, whole-dataset orderings, and the random baseline.

The greedy loop keeps, for every point, its minimum distance to any chosen
center and repeatedly promotes the farthest point to a new center (ties
break to the lowest index, compared on the exact stored distances). Because
the loop is incremental, the ordering at a small budget is always a literal
prefix of the ordering at a larger one, which is what makes a single full
ordering serve every annotation budget.

``random_order`` is the one code that turns a seed into a random ordering:
the first ``length`` steps of the seed's ascending Fisher-Yates walk over
the pool (:mod:`coarseset.rng`). ``select_prefix`` is the one code path of
the fixed-feature ordering, and its seeds are ``random_order``'s first
``seed_count`` points: ``order`` and ``select`` write it, ``full_ordering``
is its whole-pool alias, and a sweep (:mod:`coarseset.harness`) trains on
it under each trial's seed. The sweep's other two methods start from
``random_order`` under the trial's seed: the random baseline is that
ordering, and the iterative core-set baseline's first round is its head,
then one ``kcenter_greedy`` run per round in the features of a freshly
trained proxy.

An order file (``save_order``/``load_order``) holds one index per line
after a ``# seed_count=<k>`` comment. Loading it checks each line on its
own; ``SelectionOrder`` alone checks that the indices are distinct and
that the seed count fits, and ``store.location`` names the lines of a
refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import store
from .errors import (
    BudgetExceedsOrder,
    BudgetExceedsPool,
    CoarsesetError,
    DuplicateSeed,
    IndexOutOfRange,
    MalformedHeader,
    NoCenters,
    check_int,
    check_seed,
)
from .metrics import DEFAULT_METRIC, DistanceKernel, Metric
from .rng import Rng
from .store import EmbeddingMatrix, PathLike

@dataclass(frozen=True)
class SelectionOrder:
    """Point indices in selection sequence: seeds first, then greedy picks."""

    order: np.ndarray
    seed_count: int

    def __post_init__(self):
        arr = store.frozen(self.order, np.int64)
        if arr.ndim != 1:
            raise IndexOutOfRange("order must be a 1-D index sequence")
        ranked = np.sort(arr)
        if ranked.shape[0] and ranked[0] < 0:
            raise IndexOutOfRange(f"order entries must be non-negative, got {ranked[0]}")
        if (ranked[1:] == ranked[:-1]).any():
            raise DuplicateSeed("order entries must be distinct")
        if not 0 <= self.seed_count <= arr.shape[0]:
            raise IndexOutOfRange(
                f"seed_count {self.seed_count} outside [0, {arr.shape[0]}]"
            )
        object.__setattr__(self, "order", arr)

    def __len__(self) -> int:
        return int(self.order.shape[0])

    def prefix(self, budget: int) -> np.ndarray:
        """First `budget` selected indices (seeds count toward the budget)."""
        if budget < 0:
            raise BudgetExceedsOrder(f"prefix {budget} is negative")
        if budget > len(self):
            raise BudgetExceedsOrder(f"prefix {budget} exceeds order length {len(self)}")
        return self.order[:budget]


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for select_prefix: k random seed centers, then greedy picks."""

    seed_count: int = 1
    rng_seed: int = 0
    metric: Metric = DEFAULT_METRIC

    def __post_init__(self):
        for name in ("seed_count", "rng_seed"):  # Python ints, which run.json can hold
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.seed_count < 1:
            raise IndexOutOfRange(f"seed_count must be >= 1, got {self.seed_count}")
        check_seed("rng_seed", self.rng_seed, IndexOutOfRange)


@dataclass
class SelectionState:
    """Working set of one greedy run.

    min_dist[i] is the exact distance from point i to its nearest center
    (float64, +inf before any center exists); it is a live view, so copy it
    if you need a snapshot. coverage radius = max(min_dist).
    """

    centers: list[int]
    min_dist: np.ndarray
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
    kern = DistanceKernel(e.data, metric)
    min_dist = np.full(e.n, np.inf, dtype=np.float64)
    taken = np.zeros(e.n, dtype=np.bool_)
    state = SelectionState(list(seeds), min_dist, seed_count=len(seeds))
    for c in seeds:
        taken[c] = True
        kern.update(c, min_dist)
    yield state
    for _ in range(budget):
        # the first maximum: the lowest index on ties. A taken point holds
        # min_dist == 0.0 exactly, so only a maximum of 0 can be taken; then
        # the lowest free index wins (distances are >= 0, -1.0 never does)
        pick = int(np.argmax(min_dist))
        if taken[pick]:
            pick = int(np.argmax(np.where(taken, -1.0, min_dist)))
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
    for state in greedy_steps(e, initial_centers, budget, metric):
        pass
    return SelectionOrder(state.centers, state.seed_count)


def full_ordering(e: EmbeddingMatrix, cfg: SelectionConfig) -> SelectionOrder:
    """Permutation of all points: k seeded centers, then greedy to exhaustion.

    The budget-b selection for any b is simply the first b entries.
    """
    return select_prefix(e, cfg, e.n)


def select_prefix(e: EmbeddingMatrix, cfg: SelectionConfig, budget_total: int) -> SelectionOrder:
    """The first `cfg.seed_count` points of random_order under
    `cfg.rng_seed` as seeds, then greedy picks, budget_total entries in all.
    Identical to the same-length prefix of full_ordering.
    """
    if budget_total < cfg.seed_count:
        raise BudgetExceedsPool(
            f"budget {budget_total} cannot cover {cfg.seed_count} seeds"
        )
    if budget_total > e.n:
        raise BudgetExceedsPool(f"budget {budget_total} exceeds n={e.n}")
    seeds = random_order(e.n, cfg.rng_seed, cfg.seed_count).order
    return kcenter_greedy(e, seeds, budget_total - cfg.seed_count, cfg.metric)


def random_order(n: int, rng_seed: int, length: Optional[int] = None) -> SelectionOrder:
    """The first `length` (default n, a uniform random permutation) steps of
    the seed's ascending Fisher-Yates walk over range(n), drawn in O(length)
    memory. A shorter length is a prefix of a longer one; the Random
    baseline at budget b is the length-b prefix."""
    length = n if length is None else length
    if n < 1 or not 0 <= length <= n:
        raise BudgetExceedsPool(f"need n >= 1 and 0 <= length <= n, got n={n}, length {length}")
    return SelectionOrder(Rng(rng_seed).sample(n, length), seed_count=0)


# --- order files --------------------------------------------------------------

def save_order(order: SelectionOrder, path: PathLike) -> None:
    """One index per line, preceded by a `# seed_count=<k>` comment."""
    lines = [f"# seed_count={order.seed_count}"]
    lines.extend(str(int(i)) for i in order.order)
    store.write_atomically(path, "\n".join(lines) + "\n")


def load_order(path: PathLike) -> SelectionOrder:
    """The order save_order wrote. Every error names the file, and the line
    where one is at fault; the first fault in file order wins.

    The walk refuses what a line holds on its own. Distinctness and the
    header's seed_count are checked by SelectionOrder alone, with its one
    sort; its refusal is restated with the file's lines, a repeat's found
    by store.location."""
    raw = store.read_file(path, "order")
    seed_count, header_line = 0, 0
    values = np.empty(raw.count(b"\n") + 1, dtype=np.int64)  # an index per line at most
    k = 0  # indices filled
    fault = None  # a line's fault ends the walk, but a repeat before it comes first
    try:
        for lineno, tok in store.text_lines(raw, path, "not UTF-8 text"):
            if tok.startswith("#"):
                body = tok.lstrip("#").strip()
                if body.startswith("seed_count="):
                    if header_line:
                        raise MalformedHeader(
                            f"{path}: line {lineno}: repeats the seed_count comment of "
                            f"line {header_line}"
                        )
                    header_line = lineno
                    try:
                        seed_count = int(body.split("=", 1)[1])
                    except ValueError:
                        raise MalformedHeader(
                            f"{path}: line {lineno}: bad seed_count comment {tok!r}"
                        ) from None
                continue
            try:
                index = int(tok)
            except ValueError:
                raise MalformedHeader(f"{path}: line {lineno}: {tok!r} is not an index") from None
            if index < 0:
                raise IndexOutOfRange(f"{path}: line {lineno}: index {index} is negative")
            if index >= 2**63:
                raise IndexOutOfRange(f"{path}: line {lineno}: index {index} exceeds 2**63 - 1")
            values[k] = index
            k += 1
    except CoarsesetError as exc:
        fault = exc
    values = values[:k]
    values.setflags(write=False)  # handed over: SelectionOrder keeps it uncopied
    try:
        if fault is not None:
            SelectionOrder(values, 0)  # a repeat before the faulty line comes first
        elif k:
            return SelectionOrder(values, seed_count)
    except DuplicateSeed as exc:
        first, again = _first_repeat(values)
        raise DuplicateSeed(
            f"{path}: {exc}: {store.location(raw, path, again)} repeats index "
            f"{int(values[first])} of {store.location(raw, path, first)}"
        ) from None
    except IndexOutOfRange as exc:  # the header's seed_count: the walk refused bad indices
        raise IndexOutOfRange(f"{path}: line {header_line}: {exc}") from None
    raise fault or MalformedHeader(f"{path}: no indices")


def _first_repeat(values: np.ndarray) -> tuple[int, int]:
    """(i, j): entry j is the first in `values`, which hold a repeat, to
    repeat an earlier one, i."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    j = int(np.argmax(first[inverse] != np.arange(values.shape[0])))
    return int(first[inverse[j]]), j
