"""Budget-constrained data selection over precomputed embeddings.

Computes a model-agnostic annotation ordering by k-center greedy (farthest
point) selection in a fixed feature space, so any labeling budget is served
by a prefix of one ordering; ships with random and iterative core-set
baselines and a desk-scale evaluation harness.
"""

from .errors import (
    BudgetExceedsOrder,
    BudgetExceedsPool,
    CoarsesetError,
    DimensionMismatch,
    DuplicateSeed,
    EmptyEvalSet,
    EmptyFile,
    EmptyMatrix,
    EmptySubset,
    IndexOutOfRange,
    IoFailure,
    LabelOutOfRange,
    MalformedHeader,
    MalformedLabel,
    NoCenters,
    NonFiniteValue,
    ScheduleExceedsPool,
    SizeMismatch,
    TrainerFailure,
    ZeroVector,
)
from .harness import (
    BudgetSchedule,
    ClassHistogram,
    SweepResult,
    SweepRow,
    class_histogram,
    default_schedule,
    emit_report,
    run_budget_sweep,
)
from .metrics import DEFAULT_METRIC, Metric, distance
from .proxy import (
    MlpModel,
    TrainConfig,
    accuracy,
    extract_features,
    gradient_check,
    train,
    train_group,
)
from .rng import Rng
from .selector import (
    SelectionConfig,
    SelectionOrder,
    SelectionState,
    coverage_radius,
    full_ordering,
    iterative_coreset,
    kcenter_greedy,
    random_order,
)
from .store import (
    EmbeddingMatrix,
    LabelVector,
    load_embeddings,
    load_labels,
    save_embeddings,
    save_labels,
)
from .synth import MixtureSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BudgetExceedsOrder",
    "BudgetExceedsPool",
    "BudgetSchedule",
    "ClassHistogram",
    "CoarsesetError",
    "DEFAULT_METRIC",
    "DimensionMismatch",
    "DuplicateSeed",
    "EmbeddingMatrix",
    "EmptyEvalSet",
    "EmptyFile",
    "EmptyMatrix",
    "EmptySubset",
    "IndexOutOfRange",
    "IoFailure",
    "LabelOutOfRange",
    "LabelVector",
    "MalformedHeader",
    "MalformedLabel",
    "Metric",
    "MixtureSpec",
    "MlpModel",
    "NoCenters",
    "NonFiniteValue",
    "Rng",
    "ScheduleExceedsPool",
    "SelectionConfig",
    "SelectionOrder",
    "SelectionState",
    "SizeMismatch",
    "SweepResult",
    "SweepRow",
    "TrainConfig",
    "TrainerFailure",
    "ZeroVector",
    "accuracy",
    "class_histogram",
    "coverage_radius",
    "default_schedule",
    "distance",
    "emit_report",
    "extract_features",
    "full_ordering",
    "generate",
    "gradient_check",
    "iterative_coreset",
    "kcenter_greedy",
    "load_embeddings",
    "load_labels",
    "random_order",
    "run_budget_sweep",
    "save_embeddings",
    "save_labels",
    "train",
    "train_group",
]
