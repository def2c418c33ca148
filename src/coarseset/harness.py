"""Evaluation protocol: budget sweeps across methods, plus class histograms.

A sweep trains one fresh proxy model per (method, budget, trial) cell on
that method's budget-b selection and records its test accuracy. The random
and fixed-feature methods reuse a single per-trial ordering, truncated at
each budget; the iterative core-set baseline grows its labeled set in
rounds sized by the schedule increments so every budget is hit exactly.

Every setting (methods, budgets, trials, jobs, seed count, seed, metric) is
checked before the first cell runs, so a bad one fails the sweep before any
row is written.

Each (method, trial) is an independent job. ``jobs=1`` (the default, and
the CLI's) runs them in order on the calling thread; ``jobs > 1`` runs them
on a thread pool that wide. The work is Python-bound and holds the
interpreter lock, so on CPython more threads make a sweep slower, not
faster; the pool only keeps its results identical. Rows stream to
``results.csv`` as they finish so an interrupted sweep can resume by
skipping completed cells, and the final files are rewritten in canonical
(method, budget, trial) order so resumed, sequential, and threaded runs all
produce byte-identical outputs. The rewrite goes through a temporary file
and a rename, so a failed rewrite leaves the streamed results in place.
"""

from __future__ import annotations

import csv
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import proxy, selector
from .errors import BudgetExceedsOrder, BudgetExceedsPool, CoarsesetError, IoFailure, ScheduleExceedsPool
from .metrics import DEFAULT_METRIC, Metric
from .proxy import TrainConfig
from .store import EmbeddingMatrix, LabelVector, PathLike

METHODS = ("coreset_iterative", "fixed_feature", "random")

RESULTS_HEADER = ["method", "budget", "trial", "seed", "accuracy"]
SUMMARY_HEADER = ["method", "budget", "mean_accuracy", "std_accuracy"]
HISTOGRAM_HEADER = ["class", "count"]


@dataclass(frozen=True)
class BudgetSchedule:
    """Strictly increasing label budgets for the sweep."""

    budgets: tuple[int, ...]

    def __post_init__(self):
        budgets = tuple(int(b) for b in self.budgets)
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
        prev = 0
        out = []
        for b in self.budgets:
            out.append(b - prev)
            prev = b
        return out


def default_schedule(n: int) -> BudgetSchedule:
    """Desk-scale default: 2%..40% of n in 9 steps."""
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
    rows: tuple[SweepRow, ...]

    def mean_accuracy(self, method: str, budget: int) -> float:
        accs = [r.accuracy for r in self.rows if r.method == method and r.budget == budget]
        if not accs:
            raise KeyError(f"no rows for ({method}, {budget})")
        return float(np.mean(accs))


@dataclass(frozen=True)
class ClassHistogram:
    counts: np.ndarray
    budget: int

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if int(arr.sum()) != self.budget:
            raise ValueError(
                f"histogram counts sum to {int(arr.sum())}, budget is {self.budget}"
            )
        arr = arr.copy() if arr.flags.writeable else arr
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)


def class_histogram(
    order: selector.SelectionOrder, labels: LabelVector, budget: int
) -> ClassHistogram:
    """Per-class counts among the first `budget` selected points."""
    if budget < 0:
        raise BudgetExceedsOrder(f"budget must be non-negative, got {budget}")
    if budget > len(order):
        raise BudgetExceedsOrder(
            f"budget {budget} exceeds order length {len(order)}"
        )
    chosen = order.prefix(budget)
    counts = np.bincount(labels.labels[chosen], minlength=labels.num_classes)
    return ClassHistogram(counts.astype(np.int64), budget)


# --- the sweep ------------------------------------------------------------------

def _canonical(rows: Iterable[SweepRow]) -> tuple[SweepRow, ...]:
    return tuple(sorted(rows, key=lambda r: (r.method, r.budget, r.trial)))


def _accuracy_cell(
    train_data: tuple[EmbeddingMatrix, LabelVector],
    test_data: tuple[EmbeddingMatrix, LabelVector],
    subset: Sequence[int],
    cfg: TrainConfig,
) -> float:
    # sorted: the trained model depends on the subset as a set, not on the
    # sequence a method discovered it in
    model = proxy.train(train_data[0], train_data[1], sorted(int(i) for i in subset), cfg)
    return proxy.accuracy(model, test_data[0], test_data[1])


def _method_trial_rows(
    method: str,
    trial: int,
    train_data: tuple[EmbeddingMatrix, LabelVector],
    test_data: tuple[EmbeddingMatrix, LabelVector],
    schedule: BudgetSchedule,
    *,
    sel_cfg: selector.SelectionConfig,
    train_cfg: TrainConfig,
    skip: set[tuple[str, int, int]],
    emit,
) -> None:
    emb, labels = train_data
    trial_seed = sel_cfg.rng_seed + trial
    sel_cfg = replace(sel_cfg, rng_seed=trial_seed)
    cfg = replace(train_cfg, rng_seed=trial_seed)
    if all((method, b, trial) in skip for b in schedule.budgets):
        return

    # the labeled subset at each budget of the schedule, in order
    if method == "coreset_iterative":
        trainer = proxy.feature_trainer(cfg)
        subsets = selector.iterative_rounds(
            emb, labels, schedule.increments, trainer, trial_seed, sel_cfg.metric
        )
    else:
        if method == "random":
            order = selector.random_order(emb.n, trial_seed)
        else:
            order = selector.select_prefix(emb, sel_cfg, max(schedule.budgets))
        subsets = (order.prefix(b) for b in schedule.budgets)
    for b, subset in zip(schedule.budgets, subsets):
        if (method, b, trial) not in skip:
            acc = _accuracy_cell(train_data, test_data, subset, cfg)
            emit(SweepRow(method, b, trial, trial_seed, acc))


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
    if len(labels) != emb.n or len(test_data[1]) != test_data[0].n:
        raise ScheduleExceedsPool("labels and embeddings disagree on n")
    if max(schedule.budgets) > emb.n:
        raise ScheduleExceedsPool(
            f"budget {max(schedule.budgets)} exceeds the {emb.n}-point pool"
        )
    for m in methods:
        if m not in METHODS:
            raise CoarsesetError(
                f"unknown method {m!r}; valid methods: {', '.join(METHODS)}"
            )
    if len(set(methods)) != len(methods):
        raise CoarsesetError(f"duplicate method names in {list(methods)}")
    if trials < 1:
        raise ScheduleExceedsPool(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise CoarsesetError(f"jobs must be >= 1, got {jobs}")
    sel_cfg = selector.SelectionConfig(seed_count, base_seed, metric)
    if "fixed_feature" in methods and seed_count > max(schedule.budgets):
        raise BudgetExceedsPool(
            f"budget {max(schedule.budgets)} cannot cover {seed_count} seeds"
        )

    done: dict[tuple[str, int, int], SweepRow] = {}
    results_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        results_path = out / "results.csv"
        if results_path.exists():
            rows, complete = _read_results(results_path)
            for row in rows:
                key = (row.method, row.budget, row.trial)
                if row.method in methods and row.budget in schedule.budgets and 0 <= row.trial < trials:
                    if row.seed != base_seed + row.trial:
                        raise CoarsesetError(
                            f"{results_path} was produced with different seeds; use a fresh out dir"
                        )
                    done[key] = row
            if done:
                os.truncate(results_path, complete)

    lock = threading.Lock()
    fresh: list[SweepRow] = []
    writer_fh = None
    if results_path is not None:
        writer_fh = open(results_path, "a" if done else "w", encoding="utf-8", newline="")
        if not done:
            csv.writer(writer_fh, lineterminator="\n").writerow(RESULTS_HEADER)
            writer_fh.flush()

    def emit(row: SweepRow) -> None:
        with lock:
            fresh.append(row)
            if writer_fh is not None:
                csv.writer(writer_fh, lineterminator="\n").writerow(_format_row(row))
                writer_fh.flush()

    jobs_args = [(m, t) for m in methods for t in range(trials)]
    try:
        if jobs == 1:
            for m, t in jobs_args:
                _method_trial_rows(
                    m, t, train_data, test_data, schedule,
                    sel_cfg=sel_cfg, train_cfg=train_cfg, skip=set(done), emit=emit,
                )
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(
                        _method_trial_rows,
                        m, t, train_data, test_data, schedule,
                        sel_cfg=sel_cfg, train_cfg=train_cfg, skip=set(done), emit=emit,
                    )
                    for m, t in jobs_args
                ]
                for f in futures:
                    f.result()
    finally:
        if writer_fh is not None:
            writer_fh.close()

    result = SweepResult(_canonical(list(done.values()) + fresh))
    if out_dir is not None:
        emit_report(result, out_dir)
    return result


# --- reports --------------------------------------------------------------------

def _format_row(row: SweepRow) -> list[str]:
    return [row.method, str(row.budget), str(row.trial), str(row.seed), repr(row.accuracy)]


def _read_results(path: Path) -> tuple[list[SweepRow], int]:
    """Rows of an existing results.csv, and the byte length of its complete
    lines. Rows are appended one line at a time, so a final line without its
    newline is an append cut short by a crash: it is not a row, and the
    caller truncates it off so its cell is recomputed."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    complete = raw.rfind(b"\n") + 1
    try:
        lines = raw[:complete].decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise CoarsesetError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:  # cut before the header was complete
        return [], complete
    if lines[0].split(",") != RESULTS_HEADER:
        raise CoarsesetError(f"{path}: unexpected results header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            m, b, t, s, a = line.split(",")
            rows.append(SweepRow(m, int(b), int(t), int(s), float(a)))
        except ValueError:
            raise CoarsesetError(
                f"{path}: line {lineno}: expected {','.join(RESULTS_HEADER)}, got {line!r}"
            ) from None
    return rows, complete


def _write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write to a temporary file beside `path`, then rename it over `path`, so
    a write that fails partway leaves the previous file intact."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def emit_report(result: SweepResult, out_dir: PathLike) -> None:
    """Write results.csv (canonical row order) and summary.csv (mean/std)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        rows = _canonical(result.rows)
        _write_csv(out / "results.csv", RESULTS_HEADER, (_format_row(r) for r in rows))
        _write_csv(out / "summary.csv", SUMMARY_HEADER, (
            [method, str(budget), repr(float(np.mean(accs))), repr(float(np.std(accs)))]
            for method, budget, accs in _summary_cells(rows)
        ))
    except OSError as exc:
        raise IoFailure(f"cannot write report to {out}: {exc}") from exc


def _summary_cells(rows: Sequence[SweepRow]):
    cells: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        cells.setdefault((r.method, r.budget), []).append(r.accuracy)
    for (method, budget) in sorted(cells):
        yield method, budget, cells[(method, budget)]


def format_summary(result: SweepResult) -> str:
    """Human-readable mean +- std table, one line per (method, budget)."""
    lines = [f"{'method':<20} {'budget':>8} {'mean_acc':>10} {'std_acc':>10}"]
    for method, budget, accs in _summary_cells(_canonical(result.rows)):
        lines.append(
            f"{method:<20} {budget:>8d} {np.mean(accs):>10.4f} {np.std(accs):>10.4f}"
        )
    return "\n".join(lines)


def save_histogram(hist: ClassHistogram, path: PathLike) -> None:
    """CSV with one `class,count` row per class."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(HISTOGRAM_HEADER)
            for cls, count in enumerate(hist.counts):
                w.writerow([str(cls), str(int(count))])
    except OSError as exc:
        raise IoFailure(f"cannot write histogram to {path}: {exc}") from exc
