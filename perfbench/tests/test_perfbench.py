"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

import json
import re
from pathlib import Path
from time import perf_counter

import pytest

import run
import tracer
import workloads
from coarseset import cli

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY_SELECT = workloads.SelectionWorkload(
    "tiny-select", "", classes=4, per_class=50, d=6, separation=6.0, budget=40
)
TINY_SWEEP = workloads.SweepWorkload(
    "tiny-sweep", "", per_class=10, classes=4, d=4, separation=6.0, budgets=(4, 8), trials=1
)


def write_inputs(w, seed, dest: Path) -> Path:
    dest.mkdir(parents=True, exist_ok=True)
    for prefix, spec in w.specs(seed).items():
        spec_path = dest / f"{prefix}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert cli.main(["gen-synth", "--spec", str(spec_path), "--out-prefix", str(dest / prefix)]) == 0
    return dest


def test_metric_names_are_well_formed_and_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(NAME.fullmatch(n) for n in list(run.END_TO_END) + list(run.PER_LAYER))
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()
    }
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_wrappers_restore_the_original_attributes():
    originals = [
        (tracer.resolve(owner), attr, getattr(tracer.resolve(owner), attr))
        for owner, attr, _, _ in tracer.TARGETS
    ]
    t = tracer.Tracer("restore")
    t.install()
    try:
        assert not t.missing
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in originals)
    finally:
        t.restore()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in originals)


def test_missing_layer_is_reported_not_raised():
    t = tracer.Tracer("missing")
    t.install(tracer.TARGETS + (
        ("coarseset.selector", "no_such_layer", "x", "plain"),
        ("coarseset.no_such_module", "f", "y", "plain"),
    ))
    t.restore()
    assert t.missing == ["coarseset.selector.no_such_layer", "coarseset.no_such_module.f"]


def test_traced_select_counts_and_outputs_match_untraced(tmp_path):
    w = TINY_SELECT
    inputs = write_inputs(w, 3, tmp_path / "in")
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    assert cli.main(w.argv(inputs, tmp_path / "plain", 3)) == 0

    t = tracer.Tracer("select")
    t.install()
    start = perf_counter()
    try:
        assert cli.main(w.argv(inputs, tmp_path / "traced", 3)) == 0
    finally:
        t.restore()
    wall = perf_counter() - start
    t.write(str(tmp_path / "spans.json"))

    plain = (tmp_path / "plain" / workloads.ORDER_FILE).read_bytes()
    assert (tmp_path / "traced" / workloads.ORDER_FILE).read_bytes() == plain
    doc = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert {s["run_id"] for s in doc["spans"]} == {"select"}
    layers = run.layer_metrics(doc, wall)
    assert layers["selector.picks"] == w.budget - 1 == w.picks()
    assert layers["kernels.dist_evals"] == w.budget * w.n
    assert layers["store.bytes_read"] == (inputs / "pool.emb").stat().st_size
    assert 0 < layers["kernels.useful_update_ratio"] <= 1
    names = {s["name"]: s for s in doc["spans"]}
    assert names["selector.greedy_steps"]["parent"] == names["selector.kcenter_greedy"]["id"]
    assert names["selector.kcenter_greedy"]["parent"] == names["selector.select_prefix"]["id"]


def test_traced_sweep_books_only_the_iterative_baseline_as_iterative(tmp_path):
    w = TINY_SWEEP
    inputs = write_inputs(w, 2, tmp_path / "in")
    assert cli.main(w.argv(inputs, tmp_path / "plain", 2)) == 0

    t = tracer.Tracer("sweep")
    t.install()
    try:
        assert cli.main(w.argv(inputs, tmp_path / "traced", 2)) == 0
    finally:
        t.restore()
    for name in w.outputs:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    doc = {"spans": t.spans}
    layers = run.layer_metrics(doc, 1.0)
    sweep = next(s for s in t.spans if s["name"] == "harness.sweep")
    kcenter = [s for s in t.spans if s["name"] == "selector.kcenter_greedy"]
    under_sweep = [s for s in kcenter if s["parent"] == sweep["id"]]
    assert under_sweep and len(under_sweep) < len(kcenter)
    assert layers["selector.iterative_greedy_s"] == sum(s["end"] - s["start"] for s in under_sweep)
    assert layers["selector.select_prefix_s"] > 0
    assert layers["selector.picks"] == w.picks()

    # a full ordering run under some other wrapped span is not the sweep's
    other = {"id": 10_000, "parent": None, "name": "selector.other", "start": 0.0, "end": 5.0,
             "attrs": {}, "thread": 0, "run_id": "sweep"}
    stray = dict(other, id=10_001, parent=10_000, name="selector.kcenter_greedy", end=4.0)
    doc["spans"] = t.spans + [other, stray]
    assert run.layer_metrics(doc, 1.0)["selector.iterative_greedy_s"] == (
        layers["selector.iterative_greedy_s"])


@pytest.mark.parametrize("corrupt", [
    lambda lines: ["# seed_count=2"] + lines[1:],
    lambda lines: lines[:-1],
    lambda lines: lines[:-1] + [lines[1]],
    lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
    lambda lines: lines[:-1] + ["x"],
])
def test_corrupted_order_fails_the_check(tmp_path, corrupt):
    w = TINY_SELECT
    inputs = write_inputs(w, 0, tmp_path / "in")
    assert cli.main(w.argv(inputs, tmp_path, 0)) == 0
    w.check(inputs, tmp_path, 0)
    path = tmp_path / workloads.ORDER_FILE
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    with pytest.raises(workloads.CheckFailed):
        w.check(inputs, tmp_path, 0)


@pytest.mark.parametrize("name, edit", [
    ("results.csv", lambda text: text.replace(",0.", ",1.", 1)),
    ("results.csv", lambda text: "\n".join(text.splitlines()[:-1]) + "\n"),
    ("summary.csv", lambda text: text.replace("random", "randon")),
])
def test_corrupted_sweep_fails_the_check(tmp_path, name, edit):
    w = TINY_SWEEP
    inputs = write_inputs(w, 1, tmp_path / "in")
    out = tmp_path / "out"
    assert cli.main(w.argv(inputs, out, 1)) == 0
    w.check(inputs, out, 1)
    path = out / name
    path.write_text(edit(path.read_text()))
    with pytest.raises(workloads.CheckFailed):
        w.check(inputs, out, 1)


class ShortSelect(workloads.SelectionWorkload):
    """Asks the program for one point fewer than the workload expects, so
    the real pipeline produces a wrong output."""

    def argv(self, inputs, out, seed):
        argv = super().argv(inputs, out, seed)
        argv[argv.index("--budget") + 1] = str(self.budget - 1)
        return argv


def test_corrupted_output_counts_as_failure_and_runs_continue(tmp_path):
    inputs = write_inputs(TINY_SELECT, 0, tmp_path / "in")
    good = run.Run(TINY_SELECT, 0, tmp_path / "good", inputs)
    (tmp_path / "good").mkdir()
    good.rep(traced=False)
    good.rep(traced=True)
    assert good.verify(None) == []
    assert [s["error"] for s in good.samples] == [None, None]
    assert good.samples[1]["layers"]["selector.picks"] == TINY_SELECT.picks()

    short = ShortSelect("short", "", classes=4, per_class=50, d=6, separation=6.0, budget=40)
    bad = run.Run(short, 0, tmp_path / "bad", inputs)
    (tmp_path / "bad").mkdir()
    bad.rep(traced=False)
    bad.rep(traced=True)
    assert [s["code"] for s in bad.samples] == [0, 0]
    errors = bad.verify(None)
    assert errors and "entries" in errors[0]
    assert all(s["error"] for s in bad.samples)
