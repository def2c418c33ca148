"""Print, as one JSON object, SHA-256 digests of the outputs whose bytes must
not depend on the CPU dispatch path, and the numpy SIMD groups this process
found. test_startup.py runs it under two dispatch settings.

    python tests/dispatch_digests.py WORKDIR

With NPY_DISABLE_CPU_FEATURES set, it first checks that numpy found no
group beyond its baseline: numpy ignores a name it does not dispatch on, so
a wrong name would leave the dispatch as it was.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

try:  # where np.show_runtime() reads them
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from coarseset import cli
from coarseset.metrics import Metric
from coarseset.proxy import TrainConfig, train_group
from coarseset.selector import greedy_steps
from coarseset.store import load_embeddings, load_labels

SMALL = {"per_class_counts": [30, 30, 30], "d": 4, "separation": 6.0, "center_seed": 7}
# 4000 x 64: 256000 normals, far above the RNG's lane threshold of 16384
# outputs, so the draw runs the GF(2) jump-matrix matmuls through BLAS
POOL = {"per_class_counts": [400] * 10, "d": 64, "separation": 8.0, "rng_seed": 5}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):  # the sweep's table
        assert cli.main([str(a) for a in argv]) == 0, argv


def main(work: Path) -> dict:
    # the groups np.show_runtime() lists as found
    found = [group for group in __cpu_dispatch__ if __cpu_features__[group]]
    if "NPY_DISABLE_CPU_FEATURES" in os.environ:
        assert not found, f"numpy still dispatches on {found}"
    files = {}
    for name, spec in (("train", dict(SMALL, rng_seed=1)), ("test", dict(SMALL, rng_seed=2)),
                       ("pool", POOL)):
        (work / f"{name}.json").write_text(json.dumps(spec))
        run(["gen-synth", "--spec", work / f"{name}.json", "--out-prefix", work / name])
    files["pool.emb"] = work / "pool.emb"
    for metric in Metric:
        out = work / f"order_{metric.value}.csv"
        run(["order", "--embeddings", work / "pool.emb", "--metric", metric.value,
             "--seed-count", "3", "--out", out])
        files[out.name] = out
    run(["sweep", "--train-emb", work / "train.emb", "--train-lab", work / "train.lab",
         "--test-emb", work / "test.emb", "--test-lab", work / "test.lab",
         "--budgets", "12,24", "--trials", "2", "--epochs", "5", "--out", work / "sweep"])
    files["results.csv"] = work / "sweep" / "results.csv"
    files["summary.csv"] = work / "sweep" / "summary.csv"
    digests = {name: digest(path.read_bytes()) for name, path in files.items()}

    pool, labels = load_embeddings(work / "pool.emb"), load_labels(work / "pool.lab")
    # an order can hide a changed last bit that flips no argmax; min_dist
    # cannot
    for metric in Metric:
        *_, state = greedy_steps(pool, [0, 1], 200, metric)
        digests[f"min_dist_{metric.value}"] = digest(state.min_dist.tobytes())
    subsets = [range(k, pool.n, 40) for k in range(4)]
    models = train_group(pool, labels, subsets, TrainConfig(epochs=3), [0, 1, 2, 3])
    digests["train_group"] = digest(b"".join(
        p.tobytes() for m in models for p in (m.w1, m.b1, m.w2, m.b2)
    ))
    return {"found": found, "digests": digests}


if __name__ == "__main__":
    print(json.dumps(main(Path(sys.argv[1]))))
