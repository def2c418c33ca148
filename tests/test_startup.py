"""What a fresh process pays to start, and what BLAS threads must not change.

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


def run_cli(argv: list, cwd: Path, blas_threads: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "coarseset.cli", *argv], cwd=cwd,
        env=child_env(OPENBLAS_NUM_THREADS=blas_threads), capture_output=True, check=True,
    )


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


def test_star_import_binds_every_public_name():
    names = json.loads(run_python(
        "import json; from coarseset import *; import coarseset; "
        "print(json.dumps([n for n in coarseset.__all__ if n not in globals()]))"
    ))
    assert names == []


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    (tmp_path / "train.json").write_text(json.dumps(dict(SPEC, rng_seed=1)))
    (tmp_path / "test.json").write_text(json.dumps(dict(SPEC, rng_seed=2)))
    for name in ("train", "test"):
        run_cli(["gen-synth", "--spec", f"{name}.json", "--out-prefix", name], tmp_path, "1")
    outputs = {}
    for threads in ("1", "2"):
        run_cli(["order", "--embeddings", "train.emb", "--out", f"order_{threads}.csv",
                 "--rng-seed", "3"], tmp_path, threads)
        run_cli(["sweep", "--train-emb", "train.emb", "--train-lab", "train.lab",
                 "--test-emb", "test.emb", "--test-lab", "test.lab",
                 "--budgets", "12,24", "--trials", "1", "--epochs", "5",
                 "--out", f"sweep_{threads}"], tmp_path, threads)
        outputs[threads] = [
            (tmp_path / f).read_bytes()
            for f in (f"order_{threads}.csv", f"sweep_{threads}/results.csv",
                      f"sweep_{threads}/summary.csv")
        ]
    assert outputs["1"] == outputs["2"]
