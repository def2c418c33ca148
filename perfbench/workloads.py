"""The benchmark's workloads: inputs made from a seed, the command, and the
checks on its outputs.

Inputs are written by ``coarseset gen-synth`` from mixture specs derived
from the workload seed only; the program sees nothing but those files.
Output checks do not trust the program: a selection order is re-verified
as a farthest-point sequence with an independent numpy distance
computation, and a sweep's summary is recomputed from its results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

ORDER_FILE = "order.csv"
SWEEP_FILES = ("results.csv", "summary.csv")
RESULTS_HEADER = ["method", "budget", "trial", "seed", "accuracy"]
SUMMARY_HEADER = ["method", "budget", "mean_accuracy", "std_accuracy"]
SWEEP_METHODS = ("coreset_iterative", "fixed_feature", "random")
EMB1_HEADER = struct.Struct("<4sBBHQQ")
EXPECTED_PATH = Path(__file__).with_name("expected.json")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_emb1(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, _, _, _, n, d = EMB1_HEADER.unpack_from(raw)
    if magic != b"EMB1":
        raise CheckFailed(f"{path} is not an EMB1 file")
    return np.frombuffer(raw, dtype="<f4", offset=EMB1_HEADER.size).reshape(n, d)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


class SelectionWorkload:
    """`select --budget B` on one Gaussian mixture pool."""

    outputs = (ORDER_FILE,)

    def __init__(self, name, why, *, classes, per_class, d, separation, budget):
        self.name = name
        self.why = why
        self.classes = classes
        self.per_class = per_class
        self.d = d
        self.separation = separation
        self.budget = budget

    @property
    def n(self) -> int:
        return self.classes * self.per_class

    def specs(self, seed: int) -> dict:
        return {"pool": {
            "per_class_counts": [self.per_class] * self.classes,
            "d": self.d,
            "separation": self.separation,
            "rng_seed": seed,
        }}

    def argv(self, inputs: Path, out: Path, seed: int) -> list[str]:
        return [
            "select", "--budget", str(self.budget),
            "--embeddings", str(inputs / "pool.emb"),
            "--out", str(out / ORDER_FILE),
            "--rng-seed", str(seed),
        ]

    def picks(self) -> int:
        """Greedy picks one command makes (one random seed center)."""
        return self.budget - 1

    def cells(self) -> int:
        return 1

    def check(self, inputs: Path, out: Path, seed: int) -> None:
        text = (out / ORDER_FILE).read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines or lines[0] != "# seed_count=1":
            raise CheckFailed(f"order header is {lines[:1]}, expected '# seed_count=1'")
        try:
            order = np.asarray([int(tok) for tok in lines[1:]], dtype=np.int64)
        except ValueError as exc:
            raise CheckFailed(f"order has a non-integer line: {exc}") from None
        if order.shape[0] != self.budget:
            raise CheckFailed(f"order has {order.shape[0]} entries, expected {self.budget}")
        if order.min() < 0 or order.max() >= self.n or len(np.unique(order)) != len(order):
            raise CheckFailed("order is not a prefix of a permutation of the pool")
        check_farthest_first(load_emb1(inputs / "pool.emb"), order, seed_count=1)


def check_farthest_first(data: np.ndarray, order: np.ndarray, seed_count: int) -> None:
    """Every pick after the seeds must be a farthest free point from the
    centers before it (squared euclidean), up to float64 rounding."""
    x = data.astype(np.float64)
    min_dist = np.full(x.shape[0], np.inf)
    masked = np.empty_like(min_dist)
    taken = np.zeros(x.shape[0], dtype=bool)
    for step, c in enumerate(order):
        if step >= seed_count:
            np.copyto(masked, min_dist)
            masked[taken] = -1.0
            best = masked.max()
            if min_dist[c] < best * (1.0 - 1e-9):
                raise CheckFailed(
                    f"pick {step} (point {c}) is at {min_dist[c]!r}, "
                    f"but a free point is at {best!r}"
                )
        taken[c] = True
        diff = x - x[c]
        np.minimum(min_dist, np.einsum("ij,ij->i", diff, diff), out=min_dist)


class SweepWorkload:
    """`sweep` of all methods over a budget schedule, train and test pools
    sampled from one mixture, with the CLI's default jobs."""

    outputs = SWEEP_FILES

    def __init__(self, name, why, *, per_class, classes, d, separation, budgets, trials):
        self.name = name
        self.why = why
        self.per_class = per_class
        self.classes = classes
        self.d = d
        self.separation = separation
        self.budgets = tuple(budgets)
        self.trials = trials

    def seeds(self, seed: int) -> tuple[int, int, int, int]:
        """(center, train noise, test noise, sweep base) seeds; seed 0 is
        the frozen acceptance pool 2024/2025/2026 with base seed 7000."""
        center = 2024 + 1000 * seed
        return center, center + 1, center + 2, 7000 + seed

    def specs(self, seed: int) -> dict:
        center, train, test, _ = self.seeds(seed)
        base = {
            "per_class_counts": [self.per_class] * self.classes,
            "d": self.d, "std": 1.0, "separation": self.separation,
            "center_seed": center,
        }
        return {"train": dict(base, rng_seed=train), "test": dict(base, rng_seed=test)}

    def argv(self, inputs: Path, out: Path, seed: int) -> list[str]:
        return [
            "sweep",
            "--train-emb", str(inputs / "train.emb"), "--train-lab", str(inputs / "train.lab"),
            "--test-emb", str(inputs / "test.emb"), "--test-lab", str(inputs / "test.lab"),
            "--budgets", ",".join(str(b) for b in self.budgets),
            "--methods", ",".join(SWEEP_METHODS),
            "--trials", str(self.trials),
            "--rng-seed", str(self.seeds(seed)[3]),
            "--out", str(out),
        ]

    def picks(self) -> int:
        """Greedy picks per sweep: fixed_feature selects max(budgets) with
        one seed; the iterative baseline picks every increment after its
        random first round."""
        return self.trials * ((self.budgets[-1] - 1) + (self.budgets[-1] - self.budgets[0]))

    def cells(self) -> int:
        return len(SWEEP_METHODS) * len(self.budgets) * self.trials

    def check(self, inputs: Path, out: Path, seed: int) -> None:
        with open(out / "results.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != RESULTS_HEADER:
            raise CheckFailed(f"results header is {rows[:1]}")
        base = self.seeds(seed)[3]
        want = [(m, b, t) for m in SWEEP_METHODS for b in self.budgets for t in range(self.trials)]
        got = []
        n_test = self.per_class * self.classes
        cells: dict[tuple[str, int], list[float]] = {}
        for row in rows[1:]:
            if len(row) != 5:
                raise CheckFailed(f"results row {row} does not have 5 fields")
            method, budget, trial, acc = row[0], int(row[1]), int(row[2]), float(row[4])
            got.append((method, budget, trial))
            if int(row[3]) != base + trial:
                raise CheckFailed(f"results row {row}: seed is not {base} + trial")
            if not 0.0 <= acc <= 1.0 or abs(acc * n_test - round(acc * n_test)) > 1e-6:
                raise CheckFailed(f"results row {row}: accuracy is not a test-set fraction")
            cells.setdefault((method, budget), []).append(acc)
        if got != want:
            raise CheckFailed("results rows are not every (method, budget, trial) cell in order")
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            summary = list(csv.reader(fh))
        expect = [SUMMARY_HEADER] + [
            [m, str(b), repr(float(np.mean(a))), repr(float(np.std(a)))]
            for (m, b), a in sorted(cells.items())
        ]
        if summary != expect:
            raise CheckFailed("summary.csv does not match the mean/std of results.csv")


WORKLOADS = {
    w.name: w
    for w in (
        SelectionWorkload(
            "select-iso64",
            "dense k-center kernel: isotropic d=64 mixture whose 5 MB float64 working set "
            "exceeds a 2 MiB L2; few updates are prunable, so pruning should not move it",
            classes=10, per_class=1000, d=64, separation=8.0, budget=300,
        ),
        SweepWorkload(
            "sweep-protocol",
            "acceptance-protocol sweep (1000/1000 points, d=8, budgets 20..100, 3 methods) "
            "at the default jobs: proxy training, RNG shuffles and threads do the work",
            per_class=100, classes=10, d=8, separation=6.0,
            budgets=(20, 40, 60, 80, 100), trials=2,
        ),
    )
}
