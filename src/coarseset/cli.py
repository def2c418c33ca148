"""Command-line entry point.

Subcommands: ``order`` (full annotation ordering), ``select`` (order
truncated to a budget), ``sweep`` (accuracy vs budget for the selection
methods), ``histogram`` (per-class counts of an order prefix), and
``gen-synth`` (synthetic embedding/label files).

Every flag can also be supplied via ``--config file.json`` (keys are the
flag names with underscores); explicit flags win over the file. Each flag is
declared once, by ``_flag``, together with its default, which ``--help``
shows. The defaults of engine settings are read from the engine
(``TrainConfig``, ``SelectionConfig``, ``DEFAULT_METRIC``,
``harness.METHODS``), not restated here. A command imports only the engine
it runs: ``main`` declares the flags of the chosen subcommand alone, and
each subcommand imports its engine modules when its flags are declared or
its handler runs, so ``order``/``select`` never load the sweep's harness
and proxy, nor ``gen-synth`` the selector. The default RNG seed comes from the
COARSESET_RNG_SEED environment variable when set. Integer settings must be
integers: a float or a bool in a config file is a usage error, never
truncated. BLAS runs single-threaded unless the caller sets
OPENBLAS_NUM_THREADS.

Exit codes: 0 success, 2 usage or input error (one-line diagnostic on
stderr), 1 internal failure. User-input errors raised as ``ValueError``
(config values, training settings, metric names) are converted to
``UsageError`` where the CLI reads them; any other ``ValueError`` is an
internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Iterable, Optional, Sequence

# Before anything loads numpy: OpenBLAS starts its worker threads when numpy
# is imported, and the engine's BLAS calls are small (one sgemv per greedy
# pick in the distance kernel's screen, the proxy's matmuls). On a 2-vCPU VM
# the pool cost ~60 ms of CPU per command: importing this module and numpy
# took a median 244 ms of CPU with it, 183 ms without. Outputs do not
# depend on it; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import CoarsesetError, check_int
from .store import load_embeddings, load_labels

ENV_SEED = "COARSESET_RNG_SEED"


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


def _read_object(path: str, what: str, known) -> dict:
    """The JSON object held in `path`; a key not in `known` is a usage error."""
    import json  # only commands given a config or spec file need it

    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    for key in obj:
        if key not in known:
            raise UsageError(f"{what} {path}: unknown key {key!r}")
    return obj


def _merge(args: argparse.Namespace) -> dict:
    """Flags override config values override defaults."""
    defaults = args.settings
    cfg = {} if args.config is None else _read_object(args.config, "config", defaults)
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


def _as_int(value) -> int:
    """An int or an integer string as an int. Anything else, a bool or a
    float included, raises: int() would truncate it silently."""
    return int(value) if isinstance(value, str) else check_int("value", value)


def _int_list(value, flag: str) -> list[int]:
    try:
        if isinstance(value, (list, tuple)):
            return [_as_int(v) for v in value]
        return [int(tok) for tok in str(value).split(",") if tok.strip()]
    except (TypeError, ValueError):
        raise UsageError(f"{flag} expects comma-separated integers, got {value!r}") from None


def _int(opts: dict, key: str) -> int:
    """A config or flag value as an int; a value that is not one is a usage error."""
    try:
        return _as_int(opts[key])
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects an integer, got {opts[key]!r}") from None


def _float(opts: dict, key: str) -> float:
    """A config or flag value as a float; a bool is a usage error, not 0 or 1."""
    value = opts[key]
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} expects a number, got {value!r}") from None


def _seed(opts: dict) -> int:
    seed = _int(opts, "rng_seed") if opts["rng_seed"] is not None else _env_seed()
    if seed < 0:
        raise UsageError(f"--rng-seed (or ${ENV_SEED}) must be non-negative, got {seed}")
    return seed


def _metric(opts: dict):
    from .metrics import Metric

    try:
        return Metric.from_name(str(opts["metric"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _str_list(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [tok.strip() for tok in str(value).split(",") if tok.strip()]


# --- subcommand handlers ---------------------------------------------------------

def cmd_order(args: argparse.Namespace) -> int:
    from . import selector

    opts = _merge(args)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import harness
    from .proxy import TrainConfig

    opts = _merge(args)
    _require(opts, "train_emb", "train_lab", "test_emb", "test_lab", "out")
    train_data = (load_embeddings(opts["train_emb"]), load_labels(opts["train_lab"]))
    test_data = (load_embeddings(opts["test_emb"]), load_labels(opts["test_lab"]))

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
        _str_list(opts["methods"]),
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


def cmd_histogram(args: argparse.Namespace) -> int:
    from . import harness, selector

    opts = _merge(args)
    _require(opts, "order", "labels", "budget", "out")
    order = selector.load_order(opts["order"])
    num_classes = _int(opts, "num_classes") if opts["num_classes"] is not None else None
    labels = load_labels(opts["labels"], num_classes)
    hist = harness.class_histogram(order, labels, _int(opts, "budget"))
    harness.save_histogram(hist, opts["out"])
    return 0


def cmd_gen_synth(args: argparse.Namespace) -> int:
    from . import synth
    from .store import save_embeddings, save_labels

    opts = _merge(args)
    _require(opts, "spec", "out_prefix")
    # keys of a gen-synth spec: the MixtureSpec fields, plus a class count
    # that must agree with per_class_counts
    keys = {f.name for f in dataclasses.fields(synth.MixtureSpec)} | {"num_classes"}
    raw = _read_object(opts["spec"], "spec", keys)
    if "per_class_counts" not in raw or "d" not in raw:
        raise UsageError("mixture spec needs per_class_counts and d")
    declared = raw.pop("num_classes", None)
    try:
        spec = synth.MixtureSpec(**raw)
        declared = check_int("num_classes", declared) if declared is not None else None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid mixture spec {opts['spec']}: {exc}") from exc
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

def _flag(p: argparse.ArgumentParser, name: str, help: str, default=None, **kwargs) -> None:
    """Declare ``--name`` and record `default` as its fallback in `_merge`.

    argparse itself keeps None as the flag's default, so a flag the user
    gave is told apart from one left out, and wins over a config value.
    """
    key = name.replace("-", "_")
    p.get_default("settings")[key] = default
    if default is not None:
        help = f"{help} (default {default})"
    p.add_argument(f"--{name}", dest=key, help=help, **kwargs)


def _config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config mirroring the flags")


def _selection_flags(p: argparse.ArgumentParser, seed_count_help: str, rng_seed_help: str) -> None:
    from .metrics import DEFAULT_METRIC, Metric
    from .selector import SelectionConfig

    _flag(p, "metric", "distance metric", DEFAULT_METRIC.value, choices=[m.value for m in Metric])
    _flag(p, "seed-count", seed_count_help, SelectionConfig.seed_count, type=int)
    _flag(p, "rng-seed", f"{rng_seed_help} (default ${ENV_SEED} or 0)", type=int)


def _order_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "embeddings", "EMB1 or CSV embedding file")
    _flag(p, "out", "output order CSV path")
    _selection_flags(p, "number of random seed centers", "RNG seed")
    _config_flag(p)


def _declare_order(p: argparse.ArgumentParser) -> None:
    # an order config may hold `budget`, so one file serves order and select;
    # the key is accepted and ignored, with no flag of its own
    p.set_defaults(budget=None)
    p.get_default("settings")["budget"] = None
    _order_flags(p)


def _declare_select(p: argparse.ArgumentParser) -> None:
    _order_flags(p)
    _flag(p, "budget", "total points to select (seeds included)", type=int)


def _declare_sweep(p: argparse.ArgumentParser) -> None:
    from .harness import METHODS
    from .proxy import TrainConfig

    _flag(p, "train-emb", "training embeddings")
    _flag(p, "train-lab", "training labels")
    _flag(p, "test-emb", "test embeddings")
    _flag(p, "test-lab", "test labels")
    _flag(p, "budgets", "comma-separated label budgets (default 2%%..40%% of n)")
    _flag(p, "methods", "comma-separated subset of the methods", ",".join(METHODS))
    _flag(p, "trials", "trials per cell", 20, type=int)
    _flag(p, "out", "output directory for results/summary CSVs")
    _selection_flags(p, "seed centers for fixed_feature", "base RNG seed; trial t uses seed+t")
    _flag(p, "jobs", "accepted; trials always run in order", 1, type=int)
    _flag(p, "epochs", "proxy training epochs", TrainConfig.epochs, type=int)
    _flag(p, "batch-size", "proxy batch size", TrainConfig.batch_size, type=int)
    _flag(p, "learning-rate", "proxy learning rate", TrainConfig.learning_rate, type=float)
    _flag(p, "hidden", "proxy hidden width", TrainConfig.hidden, type=int)
    _config_flag(p)


def _declare_histogram(p: argparse.ArgumentParser) -> None:
    _flag(p, "order", "order CSV from `order`/`select`")
    _flag(p, "labels", "LAB1 or CSV label file")
    _flag(p, "budget", "prefix length to count", type=int)
    _flag(p, "num-classes", "override inferred class count", type=int)
    _flag(p, "out", "output histogram CSV path")
    _config_flag(p)


def _declare_gen_synth(p: argparse.ArgumentParser) -> None:
    _flag(p, "spec", "mixture spec JSON file")
    _flag(p, "out-prefix", "writes <prefix>.emb and <prefix>.lab")
    _config_flag(p)


# name: (one-line help, handler, flag declarer)
_SUBCOMMANDS = {
    "order": ("write the full annotation ordering", cmd_order, _declare_order),
    "select": ("like order, truncated to --budget points", cmd_order, _declare_select),
    "sweep": ("accuracy-vs-budget comparison of methods", cmd_sweep, _declare_sweep),
    "histogram": ("class counts of an order prefix", cmd_histogram, _declare_histogram),
    "gen-synth": ("generate synthetic EMB1/LAB1 files", cmd_gen_synth, _declare_gen_synth),
}


def build_parser(commands: Iterable[str] = tuple(_SUBCOMMANDS)) -> argparse.ArgumentParser:
    """The parser of every subcommand, with flags declared for those named in
    `commands`. Declaring a subcommand's flags imports the engine modules
    that supply their defaults."""
    parser = argparse.ArgumentParser(
        prog="coarseset",
        description="Budget-constrained annotation ordering over precomputed embeddings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = set(commands)
    for name, (help, func, declare) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, settings={})
        if name in commands:
            declare(p)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the only top-level option is --help, so the first argument that is not
    # an option names the subcommand; only its flags (and engine) are loaded
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser([chosen])
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
