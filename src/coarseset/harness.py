"""Evaluation protocol: budget sweeps across methods, plus class histograms.

A sweep trains one fresh proxy model per (method, budget, trial) cell on
that method's budget-b selection and records its test accuracy. Each trial
holds one index array per method, and the budget-b cell trains on its first
b entries. The random array is ``selector.random_order`` under the trial's
seed, as long as the largest budget, so its draws and kept indices scale
with the largest budget, not with n. The fixed-feature array is the
ordering ``select`` writes: ``selector.select_prefix`` under the trial's
seed, as long as the largest budget. The iterative core-set array grows by
one round per budget, sized by the schedule increments, so every budget is
hit exactly: the first round is the random array's head, and each later
round runs ``selector.kcenter_greedy`` with the array so far as centers, in
the hidden-layer features of a proxy trained on that array;
``kcenter_greedy`` is called here for those rounds alone.

Training is grouped, and trials run in lock-step. The sweep takes the
trials with cells to run in stacks of consecutive whole trials, and each
stack walks the budgets in order. Every training at budget b has the same
size, so at b the cells of all methods, plus the core-set feature model for
the next round, of all the stack's trials train in one
``proxy.train_group`` call, each member under its trial's seed
(``base_seed + trial``); a trial's members share one init and one shuffle
per epoch. A trial trains at most one cell per pending method at a budget,
plus the feature model while a core-set cell is pending, so a stack is
``STACK_MEMBERS // (k + 1)`` trials, or ``// k`` without pending core-set
cells, and at least one, where k counts the methods with a pending cell in
any trial. The per-trial state held at once (index arrays, feature models)
is one stack's. A feature model waits for its round as a model, and its
n x hidden features are computed only for that round's k-center pass. Each
model is byte-identical to training it alone, so a cell's row does not
depend on which other methods or trials ran or which cells a resume skips.

Every setting (methods, budgets, trials, jobs, seed count, seed, metric) is
checked before the first cell runs, so a bad one fails the sweep before any
row is written; every trial's seed must lie in [0, 2**64). So are the
inputs' shapes: each split has one label per point, and the test
embeddings have the train embeddings' d. Under the cosine metric a sweep
with fixed_feature, whose k-center pass runs on the train embeddings, also
refuses an all-zero train point, naming its row. A core-set round under
the cosine metric whose proxy maps a point to all-zero hidden features
stops the sweep with the method, trial, budget and point; the rows written
stay.

The sweep runs on the calling thread. ``jobs`` is accepted and checked
(``>= 1``) but does not change the schedule: the work holds the
interpreter lock, and a thread pool only made sweeps slower. ``_sweep_rows``
yields the rows of each ``train_group`` call, and ``run_budget_sweep``, the
only writer of both CSVs, merges them and rewrites ``results.csv`` whole
after each group, or once if no cell is left to run; ``summary.csv`` is
written once at the end. So an interrupted sweep can resume by skipping
completed cells, and resumed and uninterrupted runs produce
byte-identical outputs. Every write goes through a temporary file and a
rename, so a kill or a failed write leaves the previous file whole, and a
group's rows reach the file together. A rerun that asks for fewer methods
or trials keeps the rows it does not ask for: they are seed-checked like
the others and stay in both files, and in the returned result. Both files
are written from a ``SweepResult``, which holds its rows in canonical
(method, budget, trial) order and groups their accuracies per (method,
budget) cell once, so the files, ``format_summary`` and ``mean_accuracy``
read one order and one grouping.

Before the first cell, ``run.json`` beside the CSVs records every setting
that determines a cell (budgets, seed, seed count, metric, training config)
and the SHA-256 of the four inputs in their EMB1/LAB1 encoding, which for
binary input files is the files' own digest. A resume into a directory
whose rows were produced under a different record, or under none, is
refused before anything is written, and so is one with a row that no sweep
under that record writes: an unknown method, trial, seed, budget or
accuracy, a line not spelled as the sweep writes it, or a second line for
one cell. The error names the file and, where a row is at fault, its line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import proxy, selector, store
from .errors import (
    BudgetExceedsPool,
    CoarsesetError,
    DimensionMismatch,
    IndexOutOfRange,
    ScheduleExceedsPool,
    ZeroVector,
    check_int,
    check_seed,
)
from .metrics import DEFAULT_METRIC, Metric, zero_point
from .proxy import TrainConfig
from .store import EmbeddingMatrix, LabelVector, PathLike

METHODS = ("coreset_iterative", "fixed_feature", "random")

RESULTS_HEADER = ["method", "budget", "trial", "seed", "accuracy"]
SUMMARY_HEADER = ["method", "budget", "mean_accuracy", "std_accuracy"]
HISTOGRAM_HEADER = ["class", "count"]
RUN_FILE = "run.json"


@dataclass(frozen=True)
class BudgetSchedule:
    """Strictly increasing label budgets for the sweep."""

    budgets: tuple[int, ...]

    def __post_init__(self):
        try:
            budgets = tuple(check_int("budgets", b) for b in self.budgets)
        except TypeError as exc:  # 2.5 is refused, not truncated to 2
            raise ScheduleExceedsPool(str(exc)) from None
        if not budgets:
            raise ScheduleExceedsPool("schedule must contain at least one budget")
        if budgets[0] < 1:
            raise ScheduleExceedsPool(f"budgets must be >= 1, got {budgets[0]}")
        if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise ScheduleExceedsPool(f"budgets must be strictly increasing: {budgets}")
        object.__setattr__(self, "budgets", budgets)

    @property
    def increments(self) -> list[int]:
        """Round sizes for the iterative baseline: first budget, then diffs."""
        return [b - a for a, b in zip((0, *self.budgets), self.budgets)]


def default_schedule(n: int) -> BudgetSchedule:
    """Desk-scale default: 2%..40% of n in 9 steps, so at least 9 points."""
    if n < 9:
        raise ScheduleExceedsPool(
            f"the default schedule, 2%..40% of n in 9 steps, needs at least 9 points; "
            f"the pool has {n}"
        )
    budgets: list[int] = []
    for frac in np.linspace(0.02, 0.40, 9):
        b = max(1, round(float(frac) * n))
        if budgets and b <= budgets[-1]:
            b = budgets[-1] + 1
        budgets.append(b)
    return BudgetSchedule(tuple(budgets))


@dataclass(frozen=True)
class SweepRow:
    method: str
    budget: int
    trial: int
    seed: int
    accuracy: float


@dataclass(frozen=True)
class SweepResult:
    """A sweep's rows, in canonical (method, budget, trial) order whatever
    order they are given in, and their accuracies per (method, budget)
    cell, in that order: what ``results.csv``, ``summary.csv``,
    ``format_summary`` and ``mean_accuracy`` all read."""

    rows: tuple[SweepRow, ...]
    cells: dict[tuple[str, int], tuple[float, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda r: (r.method, r.budget, r.trial)))
        cells: dict[tuple[str, int], list[float]] = {}
        for r in rows:
            cells.setdefault((r.method, r.budget), []).append(r.accuracy)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cells", {cell: tuple(a) for cell, a in cells.items()})

    def mean_accuracy(self, method: str, budget: int) -> float:
        if (method, budget) not in self.cells:
            raise KeyError(f"no rows for ({method}, {budget})")
        return float(np.mean(self.cells[method, budget]))


@dataclass(frozen=True)
class ClassHistogram:
    counts: np.ndarray
    budget: int

    def __post_init__(self):
        arr = store.frozen(self.counts, np.int64)
        if int(arr.sum()) != self.budget:
            raise ValueError(
                f"histogram counts sum to {int(arr.sum())}, budget is {self.budget}"
            )
        object.__setattr__(self, "counts", arr)


def class_histogram(
    order: selector.SelectionOrder, labels: LabelVector, budget: int
) -> ClassHistogram:
    """Per-class counts among the first `budget` selected points."""
    chosen = order.prefix(budget)
    beyond = np.flatnonzero(chosen >= len(labels))
    if beyond.shape[0]:
        raise IndexOutOfRange(
            f"order index {int(chosen[beyond[0]])} (entry {int(beyond[0])}) "
            f"is out of range for {len(labels)} labels"
        )
    counts = np.bincount(labels.labels[chosen], minlength=labels.num_classes)
    counts.setflags(write=False)  # handed over: ClassHistogram keeps it uncopied
    return ClassHistogram(counts, budget)


# --- the sweep ------------------------------------------------------------------

# The most trainings one ``proxy.train_group`` call stacks. A wider stack
# spreads numpy's fixed cost per SGD step over more members, until past
# some width the cost per member rises again (the cause is not traced).
# 16 members is 4 trials of the full protocol. Measured only at the default
# shape (batch 32, hidden 32, 10 classes, d 8), on the 20-trial acceptance
# sweep, in two sets of 10 alternating rounds on a 2-vCPU VM. Medians at 8,
# 12, 16, 20 and 24 members: 4.15, 3.81, 3.61, 3.50, 3.80 s, then 4.13,
# 3.85, 3.56, 3.62, 3.92 s. 16 and 20 were not told apart, and 16 holds one
# trial less at a time.
STACK_MEMBERS = 16

CORESET = "coreset_iterative"


@dataclass
class _Trial:
    """One trial's state while the sweep walks the budgets."""

    trial: int
    seed: int
    pending: set[tuple[str, int]]  # (method, budget) cells still to run
    # one index array per method; the core-set one grows by a round per budget
    orders: dict[str, np.ndarray] = field(default_factory=dict)
    # trained on the core-set array for its next round; the model, not its
    # n x hidden features, waits between budgets
    feature_model: Optional[proxy.MlpModel] = None

    @property
    def coreset_last(self) -> int:
        """The last budget with a pending core-set cell, or 0."""
        return max((b for m, b in self.pending if m == CORESET), default=0)


def _sweep_rows(
    trials: int,
    train_data: tuple[EmbeddingMatrix, LabelVector],
    test_data: tuple[EmbeddingMatrix, LabelVector],
    schedule: BudgetSchedule,
    methods: Sequence[str],
    *,
    sel_cfg: selector.SelectionConfig,
    train_cfg: TrainConfig,
    skip: set[tuple[str, int, int]],
) -> Iterator[list[SweepRow]]:
    """The rows of the cells not in `skip`, one list per ``proxy.train_group``
    call: one stack of trials at a time walks the budgets, and at each
    budget all the stack's trainings run as one call."""
    emb, labels = train_data
    top = max(schedule.budgets)
    todo = [
        (trial, pending) for trial in range(trials)
        if (pending := {(m, b) for m in methods for b in schedule.budgets
                        if (m, b, trial) not in skip})
    ]
    if not todo:
        return
    # a trial trains at most one cell per pending method at a budget, plus
    # the core-set feature model
    left = {m for _, pending in todo for m, _ in pending}
    width = max(1, STACK_MEMBERS // (len(left) + (CORESET in left)))
    for start in range(0, len(todo), width):
        stack = [
            _Trial(trial, sel_cfg.rng_seed + trial, pending)
            for trial, pending in todo[start : start + width]
        ]
        for t in stack:
            # under the trial's seed: the random array, whose head is the
            # core-set baseline's first round, and the ordering `select` ships
            t.orders["random"] = selector.random_order(emb.n, t.seed, top).order
            if any(m == "fixed_feature" for m, _ in t.pending):
                cfg = selector.SelectionConfig(sel_cfg.seed_count, t.seed, sel_cfg.metric)
                t.orders["fixed_feature"] = selector.select_prefix(emb, cfg, top).order

        for b, size in zip(schedule.budgets, schedule.increments):
            members = []  # (trial, method, or None for the core-set feature model)
            for t in stack:
                # the core-set array grows by one round: a prefix of the
                # random ordering, then k-center greedy, with the array as
                # centers, in the features of a model trained on it in the
                # budget before's group
                if b <= t.coreset_last:
                    if t.feature_model is None:
                        t.orders[CORESET] = t.orders["random"][:size]
                    else:
                        feats = proxy.extract_features(t.feature_model, emb)
                        try:
                            t.orders[CORESET] = selector.kcenter_greedy(
                                feats, t.orders[CORESET], size, sel_cfg.metric
                            ).order
                        except ZeroVector:
                            raise ZeroVector(
                                f"{CORESET}, trial {t.trial}, budget {b}: the proxy's "
                                f"hidden features of point {zero_point(feats.data)} "
                                "are all zero, which the cosine metric rejects"
                            ) from None
                members += [(t, m) for m in methods if (m, b) in t.pending]
                if b < t.coreset_last:
                    members.append((t, None))
            if not members:
                continue

            # evaluation subsets are sorted: a model depends on its subset as
            # a set, not on the sequence a method discovered it in; the
            # feature model trains on the core-set array as picked
            models = proxy.train_group(
                emb, labels,
                [np.sort(t.orders[m][:b]) if m else t.orders[CORESET] for t, m in members],
                train_cfg, [t.seed for t, _ in members],
            )
            group = []
            for (t, m), model in zip(members, models):
                if m is None:
                    t.feature_model = model
                else:
                    acc = proxy.accuracy(model, *test_data)
                    group.append(SweepRow(m, b, t.trial, t.seed, acc))
            yield group


def run_budget_sweep(
    train_data: tuple[EmbeddingMatrix, LabelVector],
    test_data: tuple[EmbeddingMatrix, LabelVector],
    schedule: BudgetSchedule,
    methods: Sequence[str] = METHODS,
    trials: int = 20,
    *,
    base_seed: int = 0,
    metric: Metric = DEFAULT_METRIC,
    seed_count: int = 1,
    train_cfg: TrainConfig = TrainConfig(),
    out_dir: Optional[PathLike] = None,
    jobs: int = 1,
) -> SweepResult:
    """Accuracy per (method, budget, trial); see the module docstring.

    The caller is responsible for test_data being disjoint from train_data.
    """
    emb, labels = train_data
    for split, (points, split_labels) in (("train", train_data), ("test", test_data)):
        if len(split_labels) != points.n:
            raise ScheduleExceedsPool(
                f"{split} labels and embeddings disagree on n: "
                f"{len(split_labels)} labels, {points.n} points"
            )
    if test_data[0].d != emb.d:
        raise DimensionMismatch(
            f"train embeddings have d={emb.d}, test embeddings have d={test_data[0].d}"
        )
    if max(schedule.budgets) > emb.n:
        raise ScheduleExceedsPool(
            f"budget {max(schedule.budgets)} exceeds the {emb.n}-point pool"
        )
    if not methods:
        raise CoarsesetError(f"no method given; valid methods: {', '.join(METHODS)}")
    for m in methods:
        if m not in METHODS:
            raise CoarsesetError(
                f"unknown method {m!r}; valid methods: {', '.join(METHODS)}"
            )
    if len(set(methods)) != len(methods):
        raise CoarsesetError(f"duplicate method names in {list(methods)}")
    trials = check_int("trials", trials)
    if trials < 1:
        raise ScheduleExceedsPool(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise CoarsesetError(f"jobs must be >= 1, got {jobs}")
    sel_cfg = selector.SelectionConfig(seed_count, base_seed, metric)
    check_seed(f"trial {trials - 1}'s seed, base seed {base_seed} + {trials - 1},",
               base_seed + trials - 1, CoarsesetError)
    if "fixed_feature" in methods and seed_count > max(schedule.budgets):
        raise BudgetExceedsPool(
            f"budget {max(schedule.budgets)} cannot cover {seed_count} seeds"
        )
    if metric is Metric.COSINE and "fixed_feature" in methods:
        row = zero_point(emb.data)
        if row is not None:
            raise ZeroVector(
                f"train embeddings: row {row}: all-zero point, which the cosine "
                "metric rejects"
            )

    rows: dict[tuple[str, int, int], SweepRow] = {}  # kept and fresh
    results_path = None
    if out_dir is not None:
        out = store.make_dir(out_dir)
        results_path = out / "results.csv"
        record = _run_record(train_data, test_data, schedule, sel_cfg, train_cfg)
        # every row is kept, also those of methods or trials this run does
        # not request: they stay in the file and in the final rewrite
        if results_path.exists():
            rows = _read_results(results_path, base_seed)
        if rows:
            _check_run_record(out / RUN_FILE, record, results_path)
        # run.json now holds this run's schedule; row k is line k + 2
        for lineno, row in enumerate(rows.values(), start=2):
            if row.budget not in schedule.budgets:
                raise CoarsesetError(
                    f"{results_path}: line {lineno}: budget {row.budget} is not in the "
                    f"schedule {list(schedule.budgets)} recorded in {RUN_FILE}"
                )
        store.write_atomically(out / RUN_FILE, json.dumps(record, indent=2) + "\n")

    # a resume with no cell left still rewrites results.csv once, which
    # drops a torn last line
    written = False
    for group in _sweep_rows(
        trials, train_data, test_data, schedule, methods,
        sel_cfg=sel_cfg, train_cfg=train_cfg, skip=set(rows),
    ):
        rows.update(((r.method, r.budget, r.trial), r) for r in group)
        if results_path is not None:
            _write_results(results_path, SweepResult(tuple(rows.values())))
            written = True
    result = SweepResult(tuple(rows.values()))
    if results_path is not None:
        if not written:
            _write_results(results_path, result)
        _write_summary(results_path.with_name("summary.csv"), result)
    return result


# --- reports --------------------------------------------------------------------

def _format_row(row: SweepRow) -> list[str]:
    return [row.method, str(row.budget), str(row.trial), str(row.seed), repr(row.accuracy)]


def _read_results(path: Path, base_seed: int) -> dict[tuple[str, int, int], SweepRow]:
    """The rows of an existing results.csv by (method, budget, trial), in
    file order. The sweep only ever writes the file whole, through a rename,
    so a final line without its newline comes from a file cut outside the
    program, such as a copy cut short: it is not a row, and its cell is
    recomputed. A row must be spelled as ``_format_row`` writes it, once per
    cell, and name a known method, a non-negative trial, base_seed + trial
    as its seed and an accuracy in [0, 1]; the caller checks its budget
    against the run's schedule."""
    raw = store.read_file(path, "results")
    lines = store.decode(raw[: raw.rfind(b"\n") + 1], path, "not UTF-8 text").split("\n")[:-1]
    if not lines:  # cut before the header was complete
        return {}
    if lines[0].split(",") != RESULTS_HEADER:
        raise CoarsesetError(f"{path}: unexpected results header {lines[0]!r}")
    rows: dict[tuple[str, int, int], SweepRow] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            m, b, t, s, a = fields
            row = SweepRow(m, int(b), int(t), int(s), float(a))
        except ValueError:
            raise CoarsesetError(
                f"{path}: line {lineno}: expected {','.join(RESULTS_HEADER)}, got {line!r}"
            ) from None
        where = f"{path}: line {lineno}"
        if row.method not in METHODS:
            raise CoarsesetError(f"{where}: unknown method {row.method!r}")
        if row.trial < 0:
            raise CoarsesetError(f"{where}: negative trial {row.trial}")
        if not 0.0 <= row.accuracy <= 1.0:  # NaN fails this too
            raise CoarsesetError(f"{where}: accuracy {a!r} outside [0, 1]")
        if fields != _format_row(row):
            raise CoarsesetError(
                f"{where}: a sweep writes this row as {','.join(_format_row(row))!r}, "
                f"not {line!r}"
            )
        if row.seed != base_seed + row.trial:
            raise CoarsesetError(
                f"{where}: seed {row.seed} is not base seed {base_seed} + trial "
                f"{row.trial}: the rows were produced with different seeds; use a "
                "fresh out dir"
            )
        cell = (m, row.budget, row.trial)
        if cell in rows:  # rows hold one line each, so the k-th is line k + 2
            raise CoarsesetError(
                f"{where}: repeats the cell ({m}, {row.budget}, {row.trial}) "
                f"of line {list(rows).index(cell) + 2}"
            )
        rows[cell] = row
    return rows


def _run_record(
    train_data: tuple[EmbeddingMatrix, LabelVector],
    test_data: tuple[EmbeddingMatrix, LabelVector],
    schedule: BudgetSchedule,
    sel_cfg: selector.SelectionConfig,
    train_cfg: TrainConfig,
) -> dict:
    """Every setting that determines a cell's row, as run.json holds it; the
    selection config's seed is the sweep's base seed."""
    return {
        "budgets": list(schedule.budgets),
        "base_seed": sel_cfg.rng_seed,
        "seed_count": sel_cfg.seed_count,
        "metric": sel_cfg.metric.value,
        "epochs": train_cfg.epochs,
        "batch_size": train_cfg.batch_size,
        "learning_rate": train_cfg.learning_rate,
        "hidden": train_cfg.hidden,
        "train_emb_sha256": store.sha256(train_data[0]),
        "train_lab_sha256": store.sha256(train_data[1]),
        "test_emb_sha256": store.sha256(test_data[0]),
        "test_lab_sha256": store.sha256(test_data[1]),
    }


def _check_run_record(path: Path, record: dict, results_path: Path) -> None:
    """Refuse to add to rows produced under other settings, or under
    settings nobody recorded."""
    if not path.exists():
        raise CoarsesetError(
            f"{results_path} holds rows but {path.name} is missing, so their settings "
            "are unknown; use a fresh out dir"
        )
    old = store.read_json_object(path, "the run record")
    for field, value in record.items():
        if old.get(field) != value:
            raise CoarsesetError(
                f"{path}: {field} was {old.get(field)!r} for the rows in {results_path.name}, "
                f"this run has {value!r}; use a fresh out dir"
            )


def _write_csv(path: PathLike, header: list[str], rows: Iterable[list[str]]) -> None:
    """The whole file, one line of comma-joined fields per row. No field
    needs quoting: each is a method name, an int or a float ``repr``."""
    store.write_atomically(path, "".join(",".join(r) + "\n" for r in [header, *rows]))


def _write_results(path: Path, result: SweepResult) -> None:
    _write_csv(path, RESULTS_HEADER, map(_format_row, result.rows))


def _write_summary(path: Path, result: SweepResult) -> None:
    _write_csv(path, SUMMARY_HEADER, (
        [method, str(budget), repr(float(np.mean(accs))), repr(float(np.std(accs)))]
        for (method, budget), accs in result.cells.items()
    ))


def format_summary(result: SweepResult) -> str:
    """Human-readable mean +- std table, one line per (method, budget)."""
    lines = [f"{'method':<20} {'budget':>8} {'mean_acc':>10} {'std_acc':>10}"]
    for (method, budget), accs in result.cells.items():
        lines.append(
            f"{method:<20} {budget:>8d} {np.mean(accs):>10.4f} {np.std(accs):>10.4f}"
        )
    return "\n".join(lines)


def save_histogram(hist: ClassHistogram, path: PathLike) -> None:
    """CSV with one `class,count` row per class."""
    _write_csv(path, HISTOGRAM_HEADER, (
        [str(cls), str(int(count))] for cls, count in enumerate(hist.counts)
    ))
