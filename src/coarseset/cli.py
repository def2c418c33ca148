"""Command-line entry point.

Subcommands: ``order`` (full annotation ordering), ``select`` (order
truncated to a budget), ``sweep`` (accuracy vs budget for the selection
methods), ``histogram`` (per-class counts of an order prefix), and
``gen-synth`` (synthetic embedding/label files).

A config file is more flags: in ``--config file.json``, key k with value v
acts as ``--k=v`` (underscores read as dashes) before the command line's
flags, which therefore win. A string is used as is, a number or bool as its
repr (``5.9`` or ``true`` fails an integer flag, never truncated), a list
as its entries joined by commas, and null leaves the setting unset; an
unknown key or an object value is a usage error. So argparse converts and
checks every setting in one pass, by the type each flag declares once, in
``_flag``, with its default, which ``--help`` shows. Engine defaults are
read from the engine (``TrainConfig``, ``SelectionConfig``,
``DEFAULT_METRIC``, ``harness.METHODS``), not restated here. A command
imports only the engine it runs: ``main`` declares the flags of the chosen
subcommand alone, and each subcommand imports its engine modules when its
flags are declared or its handler runs, so ``order``/``select`` never load
the sweep's harness and proxy, nor ``gen-synth`` the selector or the
distance code in ``metrics``. The default RNG seed comes from
$COARSESET_RNG_SEED when set. BLAS runs single-threaded unless the caller
sets OPENBLAS_NUM_THREADS.

Exit codes: 0 success, 2 usage or input error, 1 internal failure. Every
usage or input error, a bad flag or config value included, is one line on
stderr: ``coarseset: error: ...``. A training setting the engine refuses
with ``ValueError`` becomes a ``UsageError``; any other ``ValueError`` is an
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

from .errors import (
    CoarsesetError,
    IndexOutOfRange,
    NonFiniteValue,
    ZeroVector,
    check_int,
    check_seed,
)
from .store import MAX_CLASSES, load_embeddings, load_labels, location, read_file, read_json_object

ENV_SEED = "COARSESET_RNG_SEED"


class UsageError(CoarsesetError):
    """Bad flags or config; reported with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises every parse error as a UsageError: one line, exit 2."""

    def error(self, message: str):
        raise UsageError(message)


def _read_object(path: str, what: str, known) -> dict:
    """The JSON object held in `path` (``store.read_json_object``); a key
    not in `known` is a usage error."""
    obj = read_json_object(path, what)
    for key in obj:
        if key not in known:
            raise UsageError(f"{what} {path}: unknown key {key!r}")
    return obj


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The flags that the config file `args.config` stands for."""
    flags = []
    for key, value in _read_object(args.config, "config", args.settings).items():
        flag = args.settings[key]
        if value is None or flag is None:  # unset, or a key accepted and ignored
            continue
        if isinstance(value, dict):
            raise UsageError(f"config {args.config}: {key} must not be a JSON object")
        entries = value if isinstance(value, list) else [value]
        flags.append(f"{flag}=" + ",".join(v if isinstance(v, str) else repr(v) for v in entries))
    return flags


def _require(args: argparse.Namespace, *keys: str) -> None:
    for key in keys:
        if getattr(args, key) is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")


def _int_list(value: str) -> list[int]:
    try:
        return [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {value!r}") from None


def _str_list(value: str) -> list[str]:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def _seed(args: argparse.Namespace) -> int:
    """--rng-seed, else $COARSESET_RNG_SEED, else 0."""
    seed = args.rng_seed
    if seed is None:
        raw = os.environ.get(ENV_SEED, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"{ENV_SEED}={raw!r} is not an integer") from None
    return check_seed(f"--rng-seed (or ${ENV_SEED})", seed, UsageError)


# --- subcommand handlers ---------------------------------------------------------

def _refuse_zero_point(path: str, emb) -> None:
    """Refuse, naming the file and the line or row, a point of `emb` (read
    from `path`) that the cosine metric rejects: an all-zero one."""
    from .metrics import zero_point

    row = zero_point(emb.data)
    if row is not None:
        where = location(read_file(path, "embeddings"), path, row)
        raise ZeroVector(f"{path}: {where}: all-zero point, which the cosine metric rejects")


def cmd_order(args: argparse.Namespace) -> int:
    from . import selector
    from .metrics import Metric

    select = args.subcommand == "select"
    # every flag is checked before the embeddings are read
    _require(args, "embeddings", "out", *(["budget"] if select else []))
    seed = _seed(args)
    emb = load_embeddings(args.embeddings)
    cfg = selector.SelectionConfig(
        seed_count=args.seed_count,
        rng_seed=seed,
        metric=Metric(args.metric),
    )
    if cfg.metric is Metric.COSINE:
        _refuse_zero_point(args.embeddings, emb)
    order = selector.select_prefix(emb, cfg, args.budget if select else emb.n)
    selector.save_order(order, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import harness
    from .metrics import Metric
    from .proxy import TrainConfig

    _require(args, "train_emb", "train_lab", "test_emb", "test_lab", "out")
    train_data = (load_embeddings(args.train_emb), load_labels(args.train_lab))
    test_data = (load_embeddings(args.test_emb), load_labels(args.test_lab))

    if args.budgets is None:
        try:
            schedule = harness.default_schedule(train_data[0].n)
        except CoarsesetError as exc:
            raise UsageError(f"{exc}; pass --budgets") from None
    else:
        schedule = harness.BudgetSchedule(tuple(args.budgets))
    seed = _seed(args)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        train_cfg = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            hidden=args.hidden,
        )
    except ValueError as exc:
        raise UsageError(f"invalid training config: {exc}") from None
    metric = Metric(args.metric)
    if metric is Metric.COSINE and "fixed_feature" in args.methods:
        _refuse_zero_point(args.train_emb, train_data[0])
    result = harness.run_budget_sweep(
        train_data,
        test_data,
        schedule,
        args.methods,
        args.trials,
        base_seed=seed,
        metric=metric,
        seed_count=args.seed_count,
        train_cfg=train_cfg,
        out_dir=args.out,
        jobs=args.jobs,
    )
    print(harness.format_summary(result))
    return 0


def cmd_histogram(args: argparse.Namespace) -> int:
    from . import harness, selector

    _require(args, "order", "labels", "budget", "out")
    if args.num_classes is not None and args.num_classes < 1:
        raise UsageError(f"--num-classes must be >= 1, got {args.num_classes}")
    if args.num_classes is not None and args.num_classes > MAX_CLASSES:
        raise UsageError(f"--num-classes must be <= {MAX_CLASSES}, got {args.num_classes}")
    order = selector.load_order(args.order)
    labels = load_labels(args.labels, args.num_classes)
    try:
        hist = harness.class_histogram(order, labels, args.budget)
    except IndexOutOfRange:
        # the prefix's first index past the labels is the order's first
        entry = int((order.order >= len(labels)).argmax())
        where = location(read_file(args.order, "order"), args.order, entry)
        raise IndexOutOfRange(
            f"{args.order}: {where}: order index {int(order.order[entry])} is out of range "
            f"for the {len(labels)} labels of {args.labels}"
        ) from None
    harness.save_histogram(hist, args.out)
    return 0


def cmd_gen_synth(args: argparse.Namespace) -> int:
    from . import synth
    from .store import save_embeddings, save_labels

    _require(args, "spec", "out_prefix")
    # keys of a gen-synth spec: the MixtureSpec fields, plus a class count
    # that must agree with per_class_counts
    keys = {f.name for f in dataclasses.fields(synth.MixtureSpec)} | {"num_classes"}
    raw = _read_object(args.spec, "spec", keys)
    if "per_class_counts" not in raw or "d" not in raw:
        raise UsageError("mixture spec needs per_class_counts and d")
    declared = raw.pop("num_classes", None)
    try:
        spec = synth.MixtureSpec(**raw)
        declared = check_int("num_classes", declared) if declared is not None else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid mixture spec {args.spec}: {exc}") from exc
    if declared is not None and declared != spec.num_classes:
        raise UsageError(
            f"num_classes={declared} but per_class_counts lists {spec.num_classes} classes"
        )

    try:
        emb, labels = synth.generate(spec)
    except NonFiniteValue as exc:  # points past float32's range
        raise NonFiniteValue(f"invalid mixture spec {args.spec}: {exc}") from None
    save_embeddings(emb, args.out_prefix + ".emb")
    save_labels(labels, args.out_prefix + ".lab")
    return 0


# --- parser --------------------------------------------------------------------

def _flag(p: argparse.ArgumentParser, name: str, help: str, default=None, **kwargs) -> None:
    """Declare ``--name`` with its default, which --help shows, and accept
    its config key, the name with underscores."""
    key = name.replace("-", "_")
    p.get_default("settings")[key] = f"--{name}"
    if default is not None:
        help = f"{help} (default {default})"
    p.add_argument(f"--{name}", dest=key, default=default, help=help, **kwargs)


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
    _flag(p, "budgets", "comma-separated label budgets (default 2%%..40%% of n)", type=_int_list)
    _flag(p, "methods", "comma-separated subset of the methods", ",".join(METHODS), type=_str_list)
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
    parser = _Parser(
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


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """`argv`, with a --config file's flags placed right after the subcommand."""
    argv = list(argv)
    # the only top-level option is --help, so the first argument that is not
    # an option names the subcommand; only its flags (and engine) are loaded
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser([chosen])
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    at = argv.index(chosen) + 1
    return parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except SystemExit:  # only --help exits; _Parser raises its errors
        return 0
    except (CoarsesetError, OSError) as exc:
        print(f"coarseset: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"coarseset: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
