"""coarseset benchmark: end-to-end runs of the CLI, plus a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory, nothing needs installing. For each
workload (see ``workloads.py``) the benchmark

1. writes the inputs with ``coarseset gen-synth``;
2. runs the workload's command in a fresh child process again and again
   for ``--seconds`` (at least ``MIN_REPS`` times), timing argv to exit and
   reading that child's own CPU time and peak RSS from ``wait4``. After
   every ``SETUP_EVERY`` repetitions it writes the inputs once more, so
   that the set-up rounds (at least ``SETUP_MIN_ROUNDS``; ``setup_s`` is
   their median) are spread over the whole run like the repetitions, and
   checks each round's bytes against the first; the time of these extra
   rounds does not count towards ``--seconds``;
3. checks the outputs: every repetition must be byte-identical to the
   first, the first passes the workload's own correctness check, and for
   seed 0 the SHA-256 digests and exact layer counts must match
   ``expected.json``.

With ``--trace 1`` every repetition is followed by a traced one (layer
wrappers from ``tracer.py`` installed in the child) and the per-layer
metrics are reported instead of the end-to-end ones; the difference in
median wall time between the two is the tracing overhead. Traced outputs
must be byte-identical to untraced ones, and the exact counts must repeat
in every traced repetition.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (environment,
every sample, missing layers) is written to
``.bench_work/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, CheckFailed, sha256  # noqa: E402
import workloads  # noqa: E402

# A gen-synth round is short and interpreter-bound, so single rounds vary
# a lot; the median of rounds spread over the run is steady.
SETUP_MIN_ROUNDS = 5
SETUP_EVERY = 2
MIN_REPS = 3
CMD_TIMEOUT_S = 120

# name -> unit; reported per workload from the untraced repetitions.
END_TO_END = {
    "wall_s": "s",         # argv to exit of one command
    "picks_per_s": "1/s",  # greedy picks per second of wall time
    "cells_per_s": "1/s",  # (method, budget, trial) cells per second
    "cpu_s": "s",          # user + sys CPU of one command, all threads
    "peak_rss_mb": "MB",   # peak resident memory of one command
    "setup_s": "s",        # gen-synth of the workload's inputs
}

# name -> (unit, the end-to-end metric and workloads it should move).
PER_LAYER = {
    "store.load_s": ("s", "wall_s everywhere; tiny"),
    "store.bytes_read": ("bytes", "wall_s everywhere"),
    "selector.save_order_s": ("s", "wall_s on select-iso64"),
    "selector.seed_s": ("s", "wall_s, peak_rss_mb on select-iso64"),
    "selector.picks": ("count", "exact; picks_per_s on the selection workloads"),
    "selector.greedy_s": ("s", "wall_s, picks_per_s on select-iso64"),
    "selector.pick_ms_p50": ("ms", "wall_s, picks_per_s on select-iso64"),
    "selector.pick_ms_p99": ("ms", "wall_s, picks_per_s on select-iso64"),
    "kernels.dist_evals": ("count", "exact, computed as (seeds + picks) * n"),
    "kernels.flops_computed": ("count", "computed as dist_evals * 3d"),
    "kernels.bytes_computed": ("bytes", "computed as dist_evals * (8d + 16)"),
    "kernels.gflops": ("GFLOP/s", "achieved over seeding + pick time"),
    "kernels.gbytes_per_s": ("GB/s", "achieved over seeding + pick time"),
    "kernels.useful_update_ratio": ("ratio", "upper bound on update savings"),
    "proxy.train_calls": ("count", "exact; wall_s, cells_per_s on sweep-protocol"),
    "proxy.train_s": ("s", "wall_s, cells_per_s, cpu_s on sweep-protocol"),
    "proxy.train_ms_p50": ("ms", "wall_s, cells_per_s on sweep-protocol"),
    "proxy.train_ms_p99": ("ms", "wall_s, cells_per_s on sweep-protocol"),
    "proxy.sgd_steps": ("count", "exact, epochs * ceil(m / batch) per training"),
    "proxy.accuracy_s": ("s", "wall_s on sweep-protocol"),
    "proxy.extract_features_s": ("s", "wall_s on sweep-protocol"),
    "rng.shuffle_calls": ("count", "exact; wall_s on sweep-protocol"),
    "rng.shuffle_s": ("s", "wall_s, cpu_s on sweep-protocol"),
    "selector.iterative_greedy_s": ("s", "wall_s on sweep-protocol"),
    "selector.select_prefix_s": ("s", "wall_s on select-iso64, sweep-protocol"),
    "selector.random_order_s": ("s", "wall_s on sweep-protocol"),
    "harness.overlap": ("ratio", "cpu_s, wall_s on sweep-protocol; >1 means threads overlap"),
    "cli.self_s": ("s", "wall_s everywhere: startup, imports, glue"),
    "trace.overhead_s": ("s", "traced minus untraced median wall_s"),
}

# Counts that must repeat exactly in every traced repetition.
EXACT_COUNTS = (
    "selector.picks", "kernels.dist_evals", "proxy.sgd_steps",
    "proxy.train_calls", "rng.shuffle_calls",
)


# --- statistics --------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return None


# --- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], cwd: Path) -> dict:
    """Run one child to exit; wall time and that child's own rusage."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            args, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": err_path.read_text(errors="replace")[-2000:],
    }


def cli_args(argv: list[str], spans: Path | None = None, run_id: str = "") -> list[str]:
    args = [sys.executable, str(HERE / "child.py")]
    if spans is not None:
        args += ["--spans", str(spans), "--run-id", run_id]
    return args + ["--"] + argv


# --- set-up ------------------------------------------------------------------

def write_specs(w, seed: int, work: Path) -> Path:
    spec_dir = work / "specs"
    spec_dir.mkdir()
    for prefix, spec in w.specs(seed).items():
        (spec_dir / f"{prefix}.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec_dir


def gen_inputs(spec_dir: Path, out: Path) -> float:
    """gen-synth every input spec into ``out``; returns the seconds taken."""
    out.mkdir()
    seconds = 0.0
    for spec in sorted(spec_dir.glob("*.json")):
        res = run_child(cli_args([
            "gen-synth", "--spec", str(spec), "--out-prefix", str(out / spec.stem),
        ]), out)
        if res["code"] != 0:
            raise SystemExit(f"gen-synth failed with exit {res['code']}: {res['stderr']}")
        seconds += res["wall_s"]
    return seconds


def regen_inputs(spec_dir: Path, inputs: Path, scratch: Path) -> float:
    """One more set-up round, checked byte for byte against ``inputs``."""
    seconds = gen_inputs(spec_dir, scratch)
    for f in sorted(inputs.glob("*.emb")) + sorted(inputs.glob("*.lab")):
        if sha256(f) != sha256(scratch / f.name):
            raise SystemExit(f"gen-synth wrote different bytes for {f.name} on a later round")
    shutil.rmtree(scratch)
    return seconds


# --- per-layer metrics from spans --------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(doc: dict, wall: float) -> dict:
    spans = doc["spans"]
    by_id = {s["id"]: s for s in spans}
    groups: dict[str, list[dict]] = {}
    for s in spans:
        groups.setdefault(s["name"], []).append(s)

    def durations(name):
        return [s["end"] - s["start"] for s in groups.get(name, [])]

    greedy = [s["attrs"] for s in groups.get("selector.greedy_steps", [])]
    picks = [p for a in greedy for p in a["pick_s"]]
    # one dense update of all n points per seed and per pick
    evals = [(a["seeds"] + len(a["pick_s"])) * a["n"] for a in greedy]
    flops = sum(e * 3 * a["d"] for e, a in zip(evals, greedy))
    nbytes = sum(e * (8 * a["d"] + 16) for e, a in zip(evals, greedy))
    seed_s = sum(a["seed_s"] for a in greedy)
    kernel_s = seed_s + sum(picks)
    updated = sum(len(a["pick_s"]) * a["n"] for a in greedy)
    useful = sum(a["useful"] for a in greedy)
    train = durations("proxy.train")
    # the sweep's iterative baseline calls kcenter_greedy straight from the
    # sweep (its pool threads); fixed_feature's calls sit under select_prefix
    iterative = [
        s["end"] - s["start"] for s in groups.get("selector.kcenter_greedy", [])
        if s["parent"] is not None and by_id[s["parent"]]["name"] == "harness.sweep"
    ]
    top = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return {
        "store.load_s": sum(durations("store.load")),
        "store.bytes_read": sum(s["attrs"]["bytes"] for s in groups.get("store.load", [])),
        "selector.save_order_s": sum(durations("selector.save_order")),
        "selector.seed_s": seed_s,
        "selector.picks": len(picks),
        "selector.greedy_s": sum(picks),
        "selector.pick_ms_p50": 1e3 * percentile(picks, 50),
        "selector.pick_ms_p99": 1e3 * percentile(picks, 99),
        "kernels.dist_evals": sum(evals),
        "kernels.flops_computed": flops,
        "kernels.bytes_computed": nbytes,
        "kernels.gflops": flops / kernel_s / 1e9 if kernel_s else 0.0,
        "kernels.gbytes_per_s": nbytes / kernel_s / 1e9 if kernel_s else 0.0,
        "kernels.useful_update_ratio": useful / updated if updated else 0.0,
        "proxy.train_calls": len(train),
        "proxy.train_s": sum(train),
        "proxy.train_ms_p50": 1e3 * percentile(train, 50),
        "proxy.train_ms_p99": 1e3 * percentile(train, 99),
        "proxy.sgd_steps": sum(s["attrs"]["sgd_steps"] for s in groups.get("proxy.train", [])),
        "proxy.accuracy_s": sum(durations("proxy.accuracy")),
        "proxy.extract_features_s": sum(durations("proxy.extract_features")),
        "rng.shuffle_calls": len(groups.get("rng.shuffle", [])),
        "rng.shuffle_s": sum(durations("rng.shuffle")),
        "selector.iterative_greedy_s": sum(iterative),
        "selector.select_prefix_s": sum(durations("selector.select_prefix")),
        "selector.random_order_s": sum(durations("selector.random_order")),
        "harness.overlap": sum(train) / wall,
        "cli.self_s": wall - covered(top),
    }


# --- one workload ------------------------------------------------------------

class Run:
    """Repetitions of one workload's command and their verdicts."""

    def __init__(self, w, seed: int, work: Path, inputs: Path):
        self.w, self.seed, self.work, self.inputs = w, seed, work, inputs
        self.samples: list[dict] = []
        self.reference: dict | None = None  # digests of the first output
        self.counts: dict | None = None     # exact counts of the first traced rep
        self.missing: list[str] = []

    def rep(self, traced: bool) -> dict:
        idx = len(self.samples)
        out = self.work / f"out{idx}"
        out.mkdir()
        spans = self.work / f"spans{idx}.json" if traced else None
        run_id = f"{self.w.name}-seed{self.seed}-rep{idx}"
        res = run_child(cli_args(self.w.argv(self.inputs, out, self.seed), spans, run_id), out)
        sample = {k: res[k] for k in ("code", "wall_s", "cpu_s", "peak_rss_mb")}
        sample.update(traced=traced, error=None)
        self.samples.append(sample)
        if res["code"] != 0:
            sample["error"] = f"exit {res['code']}: {res['stderr'].strip()[-300:]}"
            return sample
        digests = {f: sha256(out / f) for f in self.w.outputs}
        if self.reference is None:
            self.reference = digests
            shutil.copytree(out, self.work / "reference")
        elif digests != self.reference:
            sample["error"] = "output differs from the first repetition's"
        if traced:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            self.missing = doc["missing"]
            sample["layers"] = layer_metrics(doc, res["wall_s"])
            counts = {k: sample["layers"][k] for k in EXACT_COUNTS}
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts and sample["error"] is None:
                sample["error"] = f"exact counts changed: {counts} != {self.counts}"
            spans.unlink()
        shutil.rmtree(out)
        return sample

    def verify(self, expected: dict | None) -> list[str]:
        """Check the reference output; a wrong one fails every repetition
        that produced it. Returns run-level errors."""
        errors = []
        if self.reference is None:
            return ["no repetition exited 0"]
        try:
            self.w.check(self.inputs, self.work / "reference", self.seed)
        except (CheckFailed, ValueError, IndexError, OSError) as exc:
            errors.append(f"output check failed: {exc}")
        if expected is not None:
            if expected["digests"] != self.reference:
                errors.append(f"digests {self.reference} != expected {expected['digests']}")
            if self.counts is not None and not self.missing and expected["counts"] != self.counts:
                errors.append(f"exact counts {self.counts} != expected {expected['counts']}")
        if errors:
            for s in self.samples:
                if s["code"] == 0 and s["error"] is None:
                    s["error"] = "; ".join(errors)
        return errors


def run_workload(w, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    work = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        spec_dir = write_specs(w, seed, work)
        inputs = work / "inputs"
        setup_rounds = [gen_inputs(spec_dir, inputs)]
        run = Run(w, seed, work, inputs)
        deadline = perf_counter() + seconds
        reps = 0
        while reps < MIN_REPS or perf_counter() < deadline:
            run.rep(traced=False)
            if trace:
                run.rep(traced=True)
            reps += 1
            if reps % SETUP_EVERY == 0:
                setup_rounds.append(regen_inputs(spec_dir, inputs, work / "regen"))
                deadline += setup_rounds[-1]
        while len(setup_rounds) < SETUP_MIN_ROUNDS:
            setup_rounds.append(regen_inputs(spec_dir, inputs, work / "regen"))
        expected = workloads.load_expected().get(w.name) if seed == 0 and not record else None
        errors = run.verify(expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [s for s in run.samples if not s["traced"]]
    traced = [s for s in run.samples if s["traced"]]
    good = [s for s in untraced if s["error"] is None] or untraced
    samples = {
        "wall_s": [s["wall_s"] for s in good],
        "picks_per_s": [w.picks() / s["wall_s"] for s in good],
        "cells_per_s": [w.cells() / s["wall_s"] for s in good],
        "cpu_s": [s["cpu_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
        "setup_s": setup_rounds,
    }
    failed = sum(s["error"] is not None for s in run.samples)
    result = {
        "workload": w.name, "why": w.why, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(run.samples), "failed": failed,
        "error_rate": failed / len(run.samples), "errors": errors,
        "failures": sorted({s["error"] for s in run.samples if s["error"]}),
        "end_to_end": {k: summarize(v, END_TO_END[k]) for k, v in samples.items()},
        "samples": run.samples,
        "setup_rounds": setup_rounds,
    }
    if trace:
        good_traced = [s for s in traced if "layers" in s and s["error"] is None] or [
            s for s in traced if "layers" in s]
        layers = {
            k: statistics.median(s["layers"][k] for s in good_traced) if good_traced else 0.0
            for k in PER_LAYER if k != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = (
            statistics.median(s["wall_s"] for s in traced) - statistics.median(s["wall_s"] for s in untraced)
        )
        result["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layers.items()}
        result["missing_layers"] = run.missing
        result["exact_counts"] = run.counts
        if record:
            record_expected(w.name, run)
    return result


def summarize(values: list[float], unit: str) -> dict:
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def record_expected(name: str, run: Run) -> None:
    doc = workloads.load_expected() if workloads.EXPECTED_PATH.exists() else {}
    doc[name] = {"seed": 0, "digests": run.reference, "counts": run.counts}
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --- environment -------------------------------------------------------------

def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    caches = cache_sizes()
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
    }


# --- report ------------------------------------------------------------------

def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}): {result['attempted']} runs, "
          f"{result['failed']} failed, error_rate {result['error_rate']:.4f}")
    for k, m in result["end_to_end"].items():
        tail = [f"{key} {val:.6g}" for key, val in m.items() if key.startswith("p")]
        tail_text = ", ".join(tail) if tail else "no tail percentile with >=10 samples beyond it"
        print(f"   {k:<14} median {m['value']:.6g} {m['unit']}  (n={m['samples']}; {tail_text})")
    for k, m in result.get("per_layer", {}).items():
        print(f"   {k:<28} {m['value']:<12.6g} {m['unit']:<8} {PER_LAYER[k][1]}")
    if result.get("missing_layers"):
        print(f"   missing layers: {', '.join(result['missing_layers'])}")
    for line in result["errors"] + result["failures"]:
        print(f"   FAILED: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write seed 0's digests and counts to expected.json "
                             "instead of checking them (needs --seed 0 --trace 1)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.record and (args.seed != 0 or not args.trace):
        parser.error("--record needs --seed 0 --trace 1")
    if not (SRC / "coarseset" / "cli.py").is_file():
        print(f"perfbench: no coarseset sources at {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.record)
        result["env"] = env
        report(result)
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1), encoding="utf-8")
        results.append(result)

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for k, m in r[key].items():
            metrics[prefix + k] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
