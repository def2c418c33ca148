"""Budget-constrained data selection over precomputed embeddings.

Computes a model-agnostic annotation ordering by k-center greedy (farthest
point) selection in a fixed feature space, so any labeling budget is served
by a prefix of one ordering; ships with random and iterative core-set
baselines and a desk-scale evaluation harness.
"""

import importlib

from .errors import (
    BudgetExceedsOrder,
    BudgetExceedsPool,
    CoarsesetError,
    DimensionMismatch,
    DuplicateSeed,
    EmptyFile,
    EmptyMatrix,
    EmptySubset,
    IndexOutOfRange,
    IoFailure,
    MalformedHeader,
    MalformedLabel,
    NoCenters,
    NonFiniteValue,
    ScheduleExceedsPool,
    SizeMismatch,
    ZeroVector,
)

# Every other public name is resolved from its submodule on first access
# (PEP 562), so `import coarseset` loads no numpy-backed module until one is
# used. `coarseset.cli` relies on this: it must configure BLAS before the
# first `import numpy`, and importing it runs this file first.
_EXPORTS = {
    "harness": (
        "BudgetSchedule", "ClassHistogram", "SweepResult", "SweepRow",
        "class_histogram", "default_schedule", "run_budget_sweep",
    ),
    "metrics": ("DEFAULT_METRIC", "Metric", "distance"),
    "proxy": (
        "MlpModel", "TrainConfig", "accuracy", "extract_features", "gradient_check",
        "train", "train_group",
    ),
    "rng": ("Rng",),
    "selector": (
        "SelectionConfig", "SelectionOrder", "SelectionState", "coverage_radius",
        "full_ordering", "kcenter_greedy", "random_order",
    ),
    "store": (
        "EmbeddingMatrix", "LabelVector", "load_embeddings", "load_labels",
        "save_embeddings", "save_labels",
    ),
    "synth": ("MixtureSpec", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

# the error classes imported above, and every lazily resolved name
__all__ = sorted(
    [name for name, value in globals().items()
     if isinstance(value, type) and issubclass(value, CoarsesetError)]
    + list(_HOME)
)
