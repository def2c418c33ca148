"""What a fresh process pays to start, and what BLAS threads and CPU
dispatch paths must not change.

Each check runs in a new interpreter: this one imported numpy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coarseset

SRC = str(Path(coarseset.__file__).resolve().parent.parent)
SPEC = {"per_class_counts": [30, 30, 30], "d": 4, "separation": 6.0, "center_seed": 7}
# each subcommand's --help as printed before the CLI loaded engines per command
HELP = Path(__file__).with_name("help")


def child_env(**overrides) -> dict:
    """This environment with the package importable and OPENBLAS_NUM_THREADS
    unset, then `overrides`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def run_python(code: str, **env) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(**env),
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


def run_cli(argv: list, cwd: Path, blas_threads: str = "1", **env) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "coarseset.cli", *argv], cwd=cwd,
        env=child_env(OPENBLAS_NUM_THREADS=blas_threads, **env),
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


def loaded_after(argv: list) -> set:
    """The coarseset modules, and json if loaded, that a fresh interpreter
    holds after `main(argv)`."""
    return set(json.loads(run_python(
        "import sys; from coarseset import cli; "
        f"assert cli.main({argv!r}) == 0; "
        "loaded = [m for m in sys.modules if m.startswith('coarseset') or m == 'json']; "
        "import json; print(json.dumps(loaded))"
    )))


THREADS = "len(os.listdir('/proc/self/task'))"


def test_package_import_loads_no_numpy():
    assert run_python("import sys, coarseset; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_process_runs_one_thread_after_numpy_loads():
    code = f"import os; from coarseset import cli; import numpy; print({THREADS})"
    assert run_python(code) == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_caller_blas_thread_setting_wins():
    # the CLI leaves an explicit value alone: its process starts the same
    # threads as a bare numpy import under that value
    env_value, threads = run_python(
        f"import os; from coarseset import cli; import numpy; "
        f"print(os.environ['OPENBLAS_NUM_THREADS'], {THREADS})",
        OPENBLAS_NUM_THREADS="2",
    ).split()
    assert env_value == "2"
    assert threads == run_python(f"import os, numpy; print({THREADS})", OPENBLAS_NUM_THREADS="2")


def test_select_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma, ~20 ms of a command's start-up
    (tmp_path / "pool.json").write_text(json.dumps(SPEC))
    run_cli(["gen-synth", "--spec", "pool.json", "--out-prefix", "pool"], tmp_path, "1")
    loaded = run_python(
        "import sys; from coarseset import cli; "
        f"cli.main(['select', '--embeddings', {str(tmp_path / 'pool.emb')!r}, "
        f"'--out', {str(tmp_path / 'top.csv')!r}, '--budget', '5']); "
        "print('numpy.ma' in sys.modules)"
    )
    assert loaded == "False"
    assert len((tmp_path / "top.csv").read_text().splitlines()) == 6


def test_each_command_loads_only_its_engine(tmp_path):
    (tmp_path / "pool.json").write_text(json.dumps(SPEC))
    spec, pool = str(tmp_path / "pool.json"), str(tmp_path / "pool")
    gen = loaded_after(["gen-synth", "--spec", spec, "--out-prefix", pool])
    assert {"coarseset.synth", "coarseset.store", "coarseset.rng", "json"} <= gen
    assert not gen & {"coarseset.selector", "coarseset.metrics", "coarseset.harness",
                      "coarseset.proxy"}
    # json is loaded by the reader of JSON inputs alone, which these do not read
    for sub in ("order", "select"):
        argv = [sub, "--embeddings", pool + ".emb", "--out", str(tmp_path / f"{sub}.csv")]
        loaded = loaded_after(argv + (["--budget", "5"] if sub == "select" else []))
        assert {"coarseset.selector", "coarseset.store", "coarseset.rng",
                "coarseset.metrics"} <= loaded
        assert not loaded & {"coarseset.harness", "coarseset.proxy", "coarseset.synth", "json"}


def test_sweep_loads_no_thread_pool(tmp_path):
    # trials run in order; concurrent.futures cost ~6 ms of import time
    for name, seed in (("train", 1), ("test", 2)):
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(SPEC, rng_seed=seed)))
        run_cli(["gen-synth", "--spec", f"{name}.json", "--out-prefix", name], tmp_path)
    argv = ["sweep", "--train-emb", "train.emb", "--train-lab", "train.lab",
            "--test-emb", "test.emb", "--test-lab", "test.lab", "--budgets", "6,12",
            "--trials", "2", "--epochs", "3", "--jobs", "2", "--out", "sweep"]
    loaded = run_python(
        f"import os, sys; os.chdir({str(tmp_path)!r}); from coarseset import cli; "
        f"assert cli.main({argv!r}) == 0; print('concurrent.futures' in sys.modules)"
    ).splitlines()[-1]  # after the sweep's summary table
    assert loaded == "False"
    assert len((tmp_path / "sweep" / "results.csv").read_text().splitlines()) == 13


@pytest.mark.parametrize("sub", ["top", "order", "select", "sweep", "histogram", "gen-synth"])
def test_help_text_is_unchanged(sub, tmp_path):
    argv = ["--help"] if sub == "top" else [sub, "--help"]
    assert run_cli(argv, tmp_path, COLUMNS="80", NO_COLOR="1") == (HELP / f"{sub}.txt").read_text()


def test_lane_route_does_not_depend_on_blas_threads():
    # its GF(2) jump matrices are float32 matmuls, summed by BLAS
    code = ("import hashlib; from coarseset.rng import Rng, _LANE_MIN_COUNT; "
            "print(hashlib.sha256(Rng(3)._raw_array(4 * _LANE_MIN_COUNT).tobytes()).hexdigest())")
    assert run_python(code, OPENBLAS_NUM_THREADS="1") == run_python(code, OPENBLAS_NUM_THREADS="2")


def test_star_import_binds_every_public_name():
    names = json.loads(run_python(
        "import json; from coarseset import *; import coarseset; "
        "print(json.dumps([n for n in coarseset.__all__ if n not in globals()]))"
    ))
    assert names == []


def test_dir_lists_every_public_name_and_loads_no_numpy():
    names, numpy_loaded = json.loads(run_python(
        "import sys, coarseset; names = dir(coarseset); loaded = 'numpy' in sys.modules; "
        "import json; print(json.dumps([names, loaded]))"
    ))
    assert set(coarseset.__all__) <= set(names)
    assert numpy_loaded is False


def test_all_lists_every_error_class_and_export():
    from coarseset import errors

    error_classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.CoarsesetError)
    }
    exports = {name for names in coarseset._EXPORTS.values() for name in names}
    assert "ScheduleExceedsPool" in error_classes and "run_budget_sweep" in exports
    assert set(coarseset.__all__) == error_classes | exports
    assert coarseset.__all__ == sorted(coarseset.__all__)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    (tmp_path / "train.json").write_text(json.dumps(dict(SPEC, rng_seed=1)))
    (tmp_path / "test.json").write_text(json.dumps(dict(SPEC, rng_seed=2)))
    # 10000 x 64: OpenBLAS 0.3.31 splits the kernel's screen (an sgemv) across
    # two threads from about 8000 x 64 on, and ran 6000 x 64 on one
    (tmp_path / "pool.json").write_text(json.dumps(
        {"per_class_counts": [1000] * 10, "d": 64, "separation": 8.0, "rng_seed": 5}))
    for name in ("train", "test", "pool"):
        run_cli(["gen-synth", "--spec", f"{name}.json", "--out-prefix", name], tmp_path, "1")
    metrics = ("sqeuclidean", "euclidean", "cosine")
    outputs = {}
    for threads in ("1", "2"):
        run_cli(["order", "--embeddings", "train.emb", "--out", f"order_{threads}.csv",
                 "--rng-seed", "3"], tmp_path, threads)
        for metric in metrics:
            run_cli(["order", "--embeddings", "pool.emb", "--metric", metric, "--seed-count", "3",
                     "--out", f"pool_{metric}_{threads}.csv"], tmp_path, threads)
        run_cli(["sweep", "--train-emb", "train.emb", "--train-lab", "train.lab",
                 "--test-emb", "test.emb", "--test-lab", "test.lab",
                 "--budgets", "12,24", "--trials", "1", "--epochs", "5",
                 "--out", f"sweep_{threads}"], tmp_path, threads)
        outputs[threads] = [
            (tmp_path / f).read_bytes()
            for f in (f"order_{threads}.csv", f"sweep_{threads}/results.csv",
                      f"sweep_{threads}/summary.csv",
                      *(f"pool_{metric}_{threads}.csv" for metric in metrics))
        ]
    assert outputs["1"] == outputs["2"]


def dispatch_digests(work: Path, **env) -> dict:
    """The digests and found SIMD groups ``dispatch_digests.py`` reports
    from a child with one BLAS thread, the dispatch left to its defaults,
    then `env`."""
    work.mkdir()
    base = {k: v for k, v in child_env(OPENBLAS_NUM_THREADS="1").items()
            if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("dispatch_digests.py")), str(work)],
        env={**base, **env}, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_outputs_do_not_depend_on_cpu_dispatch(tmp_path):
    # numpy's SIMD groups and OpenBLAS's core type pick the kernels that sum;
    # the reduced run drops every group numpy found and takes OpenBLAS's
    # oldest x86-64 core, and both must write the same bytes
    default = dispatch_digests(tmp_path / "default")
    reduced = dispatch_digests(tmp_path / "reduced", OPENBLAS_CORETYPE="Prescott",
                               NPY_DISABLE_CPU_FEATURES=" ".join(default["found"]))
    assert reduced["found"] == []
    assert len(default["digests"]) == 10
    assert reduced["digests"] == default["digests"]
