"""Command-line entry point.

Subcommands: ``order`` (full annotation ordering), ``select`` (order
truncated to a budget), ``sweep`` (accuracy vs budget for the selection
methods), ``histogram`` (per-class counts of an order prefix), and
``gen-synth`` (synthetic embedding/label files).

Every flag can also be supplied via ``--config file.json`` (keys are the
flag names with underscores); explicit flags win over the file. The default
RNG seed comes from the COARSESET_RNG_SEED environment variable when set.

Exit codes: 0 success, 2 usage or input error (one-line diagnostic on
stderr), 1 internal failure. User-input errors raised as ``ValueError``
(config values, training settings, metric names) are converted to
``UsageError`` where the CLI reads them; any other ``ValueError`` is an
internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import harness, selector, synth
from .errors import CoarsesetError
from .metrics import Metric
from .proxy import TrainConfig
from .store import load_embeddings, load_labels, save_embeddings, save_labels

ENV_SEED = "COARSESET_RNG_SEED"

_METRIC_CHOICES = [m.value for m in Metric]


class UsageError(CoarsesetError):
    """Bad flags or config; reported with exit code 2."""


def _env_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_SEED}={raw!r} is not an integer") from None


def _load_config(path: Optional[str], known: dict) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    for key in cfg:
        if key not in known:
            raise UsageError(f"config {path}: unknown key {key!r}")
    return cfg


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override config values override defaults."""
    cfg = _load_config(getattr(args, "config", None), defaults)
    merged = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
        elif key in cfg:
            merged[key] = cfg[key]
        else:
            merged[key] = fallback
    return merged


def _require(merged: dict, *keys: str) -> None:
    for key in keys:
        if merged[key] is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")


def _int_list(value, flag: str) -> list[int]:
    try:
        if isinstance(value, (list, tuple)):
            return [int(v) for v in value]
        return [int(tok) for tok in str(value).split(",") if tok.strip()]
    except (TypeError, ValueError):
        raise UsageError(f"{flag} expects comma-separated integers, got {value!r}") from None


def _int(opts: dict, key: str) -> int:
    """A config or flag value as an int; a value that is not one is a usage error."""
    try:
        return int(opts[key])
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects an integer, got {opts[key]!r}") from None


def _float(opts: dict, key: str) -> float:
    try:
        return float(opts[key])
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects a number, got {opts[key]!r}") from None


def _seed(opts: dict) -> int:
    seed = _int(opts, "rng_seed") if opts["rng_seed"] is not None else _env_seed()
    if seed < 0:
        raise UsageError(f"--rng-seed (or ${ENV_SEED}) must be non-negative, got {seed}")
    return seed


def _metric(opts: dict) -> Metric:
    try:
        return Metric.from_name(str(opts["metric"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _str_list(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [tok.strip() for tok in str(value).split(",") if tok.strip()]


# --- subcommand handlers ---------------------------------------------------------

_ORDER_DEFAULTS = {
    "embeddings": None,
    "out": None,
    "metric": "sqeuclidean",
    "seed_count": 1,
    "rng_seed": None,
    "budget": None,
}


def cmd_order(args: argparse.Namespace) -> int:
    opts = _merge(args, _ORDER_DEFAULTS)
    _require(opts, "embeddings", "out")
    seed = _seed(opts)
    emb = load_embeddings(opts["embeddings"])
    cfg = selector.SelectionConfig(
        seed_count=_int(opts, "seed_count"),
        rng_seed=seed,
        metric=_metric(opts),
    )
    if args.subcommand == "select":
        _require(opts, "budget")
        order = selector.select_prefix(emb, cfg, _int(opts, "budget"))
    else:
        order = selector.full_ordering(emb, cfg)
    selector.save_order(order, opts["out"])
    return 0


_SWEEP_DEFAULTS = {
    "train_emb": None,
    "train_lab": None,
    "test_emb": None,
    "test_lab": None,
    "budgets": None,
    "methods": ",".join(harness.METHODS),
    "trials": 20,
    "out": None,
    "metric": "sqeuclidean",
    "seed_count": 1,
    "rng_seed": None,
    "jobs": 1,
    "epochs": 100,
    "batch_size": 32,
    "learning_rate": 0.05,
    "hidden": 32,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _merge(args, _SWEEP_DEFAULTS)
    _require(opts, "train_emb", "train_lab", "test_emb", "test_lab", "out")
    train_data = (load_embeddings(opts["train_emb"]), load_labels(opts["train_lab"]))
    test_data = (load_embeddings(opts["test_emb"]), load_labels(opts["test_lab"]))

    methods = _str_list(opts["methods"])
    for m in methods:
        if m not in harness.METHODS:
            raise UsageError(
                f"unknown method {m!r}; valid methods: {', '.join(harness.METHODS)}"
            )
    if opts["budgets"] is None:
        schedule = harness.default_schedule(train_data[0].n)
    else:
        schedule = harness.BudgetSchedule(tuple(_int_list(opts["budgets"], "--budgets")))
    seed = _seed(opts)
    jobs = _int(opts, "jobs")
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    try:
        train_cfg = TrainConfig(
            epochs=_int(opts, "epochs"),
            batch_size=_int(opts, "batch_size"),
            learning_rate=_float(opts, "learning_rate"),
            hidden=_int(opts, "hidden"),
        )
    except ValueError as exc:
        raise UsageError(f"invalid training config: {exc}") from None
    result = harness.run_budget_sweep(
        train_data,
        test_data,
        schedule,
        methods,
        _int(opts, "trials"),
        base_seed=seed,
        metric=_metric(opts),
        seed_count=_int(opts, "seed_count"),
        train_cfg=train_cfg,
        out_dir=opts["out"],
        jobs=jobs,
    )
    print(harness.format_summary(result))
    return 0


_HISTOGRAM_DEFAULTS = {
    "order": None,
    "labels": None,
    "budget": None,
    "out": None,
    "num_classes": None,
}


def cmd_histogram(args: argparse.Namespace) -> int:
    opts = _merge(args, _HISTOGRAM_DEFAULTS)
    _require(opts, "order", "labels", "budget", "out")
    order = selector.load_order(opts["order"])
    num_classes = _int(opts, "num_classes") if opts["num_classes"] is not None else None
    labels = load_labels(opts["labels"], num_classes)
    hist = harness.class_histogram(order, labels, _int(opts, "budget"))
    harness.save_histogram(hist, opts["out"])
    return 0


_GEN_SYNTH_DEFAULTS = {
    "spec": None,
    "out_prefix": None,
}


def cmd_gen_synth(args: argparse.Namespace) -> int:
    opts = _merge(args, _GEN_SYNTH_DEFAULTS)
    _require(opts, "spec", "out_prefix")
    try:
        with open(opts["spec"], encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read spec {opts['spec']}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec {opts['spec']} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("mixture spec must be a JSON object")

    allowed = {
        "num_classes", "per_class_counts", "d", "std",
        "separation", "rng_seed", "centers", "center_seed",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise UsageError(f"mixture spec: unknown keys {sorted(unknown)}")
    if "per_class_counts" not in raw or "d" not in raw:
        raise UsageError("mixture spec needs per_class_counts and d")
    declared = raw.pop("num_classes", None)
    try:
        spec = synth.MixtureSpec(**raw)
        declared = int(declared) if declared is not None else None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid mixture spec: {exc}") from exc
    if declared is not None and declared != spec.num_classes:
        raise UsageError(
            f"num_classes={declared} but per_class_counts lists {spec.num_classes} classes"
        )

    emb, labels = synth.generate(spec)
    prefix = str(opts["out_prefix"])
    save_embeddings(emb, prefix + ".emb")
    save_labels(labels, prefix + ".lab")
    return 0


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarseset",
        description="Budget-constrained annotation ordering over precomputed embeddings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common_order_flags(p):
        p.add_argument("--embeddings", help="EMB1 or CSV embedding file")
        p.add_argument("--out", help="output order CSV path")
        p.add_argument("--metric", choices=_METRIC_CHOICES,
                       help="distance metric (default sqeuclidean)")
        p.add_argument("--seed-count", dest="seed_count", type=int,
                       help="number of random seed centers (default 1)")
        p.add_argument("--rng-seed", dest="rng_seed", type=int,
                       help=f"RNG seed (default ${ENV_SEED} or 0)")
        p.add_argument("--config", help="JSON config mirroring the flags")

    p_order = sub.add_parser("order", help="write the full annotation ordering")
    add_common_order_flags(p_order)
    p_order.set_defaults(func=cmd_order, budget=None)

    p_select = sub.add_parser("select", help="like order, truncated to --budget points")
    add_common_order_flags(p_select)
    p_select.add_argument("--budget", type=int, help="total points to select (seeds included)")
    p_select.set_defaults(func=cmd_order)

    p_sweep = sub.add_parser("sweep", help="accuracy-vs-budget comparison of methods")
    p_sweep.add_argument("--train-emb", dest="train_emb", help="training embeddings")
    p_sweep.add_argument("--train-lab", dest="train_lab", help="training labels")
    p_sweep.add_argument("--test-emb", dest="test_emb", help="test embeddings")
    p_sweep.add_argument("--test-lab", dest="test_lab", help="test labels")
    p_sweep.add_argument("--budgets", help="comma-separated label budgets (default 2%%..40%% of n)")
    p_sweep.add_argument("--methods",
                         help=f"comma-separated subset of: {', '.join(harness.METHODS)}")
    p_sweep.add_argument("--trials", type=int, help="trials per cell (default 20)")
    p_sweep.add_argument("--out", help="output directory for results/summary CSVs")
    p_sweep.add_argument("--metric", choices=_METRIC_CHOICES,
                         help="distance metric (default sqeuclidean)")
    p_sweep.add_argument("--seed-count", dest="seed_count", type=int,
                         help="seed centers for fixed_feature (default 1)")
    p_sweep.add_argument("--rng-seed", dest="rng_seed", type=int,
                         help=f"base RNG seed; trial t uses seed+t (default ${ENV_SEED} or 0)")
    p_sweep.add_argument("--jobs", type=int,
                         help="worker threads (default 1; threads do not speed up the "
                              "sweep on CPython, see README)")
    p_sweep.add_argument("--epochs", type=int, help="proxy training epochs (default 100)")
    p_sweep.add_argument("--batch-size", dest="batch_size", type=int,
                         help="proxy batch size (default 32)")
    p_sweep.add_argument("--learning-rate", dest="learning_rate", type=float,
                         help="proxy learning rate (default 0.05)")
    p_sweep.add_argument("--hidden", type=int, help="proxy hidden width (default 32)")
    p_sweep.add_argument("--config", help="JSON config mirroring the flags")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hist = sub.add_parser("histogram", help="class counts of an order prefix")
    p_hist.add_argument("--order", help="order CSV from `order`/`select`")
    p_hist.add_argument("--labels", help="LAB1 or CSV label file")
    p_hist.add_argument("--budget", type=int, help="prefix length to count")
    p_hist.add_argument("--num-classes", dest="num_classes", type=int,
                        help="override inferred class count")
    p_hist.add_argument("--out", help="output histogram CSV path")
    p_hist.add_argument("--config", help="JSON config mirroring the flags")
    p_hist.set_defaults(func=cmd_histogram)

    p_gen = sub.add_parser("gen-synth", help="generate synthetic EMB1/LAB1 files")
    p_gen.add_argument("--spec", help="mixture spec JSON file")
    p_gen.add_argument("--out-prefix", dest="out_prefix",
                       help="writes <prefix>.emb and <prefix>.lab")
    p_gen.add_argument("--config", help="JSON config mirroring the flags")
    p_gen.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (CoarsesetError, OSError) as exc:
        print(f"coarseset: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"coarseset: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
