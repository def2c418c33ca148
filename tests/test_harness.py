import numpy as np
import pytest

from oracles import hypergeometric_std

from coarseset import harness
from coarseset.errors import BudgetExceedsOrder, CoarsesetError, IoFailure, ScheduleExceedsPool
from coarseset.harness import (
    BudgetSchedule,
    ClassHistogram,
    SweepResult,
    SweepRow,
    class_histogram,
    default_schedule,
    emit_report,
    format_summary,
    run_budget_sweep,
)
from coarseset.proxy import TrainConfig
from coarseset.selector import SelectionConfig, SelectionOrder, full_ordering, random_order
from coarseset.store import LabelVector
from coarseset.synth import MixtureSpec, generate

FAST_CFG = TrainConfig(epochs=20, rng_seed=0)


def tiny_suite(n_per_class=30, num_classes=3, train_seed=100, test_seed=101):
    base = dict(
        per_class_counts=[n_per_class] * num_classes,
        d=4,
        separation=8.0,
        center_seed=99,
    )
    return (
        generate(MixtureSpec(**base, rng_seed=train_seed)),
        generate(MixtureSpec(**base, rng_seed=test_seed)),
    )


# --- schedules -------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ScheduleExceedsPool):
        BudgetSchedule(())
    with pytest.raises(ScheduleExceedsPool):
        BudgetSchedule((0, 5))
    with pytest.raises(ScheduleExceedsPool):
        BudgetSchedule((5, 5))
    assert BudgetSchedule((5, 8, 20)).increments == [5, 3, 12]


def test_default_schedule_shape():
    s = default_schedule(1000)
    assert len(s.budgets) == 9
    assert s.budgets[0] == 20 and s.budgets[-1] == 400
    tiny = default_schedule(10)  # stays strictly increasing even when rounding collides
    assert all(b2 > b1 for b1, b2 in zip(tiny.budgets, tiny.budgets[1:]))


# --- histograms ------------------------------------------------------------------

def test_histogram_worked_example():
    labels = LabelVector.from_labels([0, 0, 1])
    order = SelectionOrder(np.array([0, 2, 1]), seed_count=0)
    hist = class_histogram(order, labels, 2)
    assert hist.counts.tolist() == [1, 1]


def test_histogram_zero_budget():
    labels = LabelVector.from_labels([0, 1, 2])
    order = SelectionOrder(np.array([2, 1, 0]), seed_count=0)
    assert class_histogram(order, labels, 0).counts.tolist() == [0, 0, 0]


def test_histogram_budget_exceeds_order():
    labels = LabelVector.from_labels([0, 1])
    order = SelectionOrder(np.array([0, 1]), seed_count=0)
    with pytest.raises(BudgetExceedsOrder):
        class_histogram(order, labels, 3)
    with pytest.raises(BudgetExceedsOrder):  # not order[:-1]
        class_histogram(order, labels, -1)


def test_histogram_counts_sum_to_budget():
    (emb, lab), _ = tiny_suite()
    order = random_order(emb.n, 5)
    for budget in (0, 10, 37, emb.n):
        assert int(class_histogram(order, lab, budget).counts.sum()) == budget


def test_histogram_invariant_enforced():
    with pytest.raises(ValueError):
        ClassHistogram(np.array([1, 1]), budget=3)


def test_random_histogram_within_hypergeometric_bounds():
    # balanced 10-class pool, 40% budget: every class within 4 sigmas of b/10
    emb, lab = generate(MixtureSpec([100] * 10, d=4, rng_seed=55))
    budget = int(0.4 * emb.n)
    sigma = hypergeometric_std(emb.n, 100, budget)
    for trial in range(10):
        hist = class_histogram(random_order(emb.n, 900 + trial), lab, budget)
        assert np.abs(hist.counts - budget / 10).max() <= 4.0 * sigma


def test_prefix_histograms_are_monotone():
    (emb, lab), _ = tiny_suite()
    order = full_ordering(emb, SelectionConfig(rng_seed=4))
    small = class_histogram(order, lab, 20).counts
    large = class_histogram(order, lab, 50).counts
    assert (small <= large).all()


# --- reports ---------------------------------------------------------------------

def test_emit_report_empty(tmp_path):
    emit_report(SweepResult(()), tmp_path)
    assert (tmp_path / "results.csv").read_text() == "method,budget,trial,seed,accuracy\n"
    assert (tmp_path / "summary.csv").read_text() == "method,budget,mean_accuracy,std_accuracy\n"


def test_emit_report_single_row(tmp_path):
    emit_report(SweepResult((SweepRow("random", 4, 0, 7, 0.75),)), tmp_path)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[1] == "random,4,0.75,0.0"


def test_emit_report_mean_of_three(tmp_path):
    rows = tuple(
        SweepRow("random", 4, t, 7 + t, acc) for t, acc in enumerate((0.5, 0.5, 0.8))
    )
    emit_report(SweepResult(rows), tmp_path)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    method, budget, mean, _ = summary[1].split(",")
    assert (method, budget) == ("random", "4")
    assert float(mean) == pytest.approx(0.6)


def test_format_summary_lists_cells():
    rows = (SweepRow("random", 4, 0, 7, 0.5), SweepRow("fixed_feature", 4, 0, 7, 1.0))
    text = format_summary(SweepResult(rows))
    assert "random" in text and "fixed_feature" in text


# --- sweeps ----------------------------------------------------------------------

def test_row_count_contract():
    train_data, test_data = tiny_suite()
    res = run_budget_sweep(
        train_data, test_data, BudgetSchedule((6, 12)),
        ("random", "fixed_feature"), trials=2, base_seed=50, train_cfg=FAST_CFG,
    )
    assert len(res.rows) == 2 * 2 * 2
    keys = {(r.method, r.budget, r.trial) for r in res.rows}
    assert len(keys) == 8
    assert all(0.0 <= r.accuracy <= 1.0 for r in res.rows)
    assert all(r.seed == 50 + r.trial for r in res.rows)


def test_full_budget_degenerate_case_equalizes_methods():
    train_data, test_data = tiny_suite(n_per_class=10)
    n = train_data[0].n
    res = run_budget_sweep(
        train_data, test_data, BudgetSchedule((n,)),
        ("random", "fixed_feature", "coreset_iterative"),
        trials=1, base_seed=3, train_cfg=FAST_CFG,
    )
    accs = {r.method: r.accuracy for r in res.rows}
    assert len(set(accs.values())) == 1


def test_rows_are_canonically_sorted_and_deterministic_across_jobs():
    train_data, test_data = tiny_suite(n_per_class=12)
    kwargs = dict(trials=2, base_seed=9, train_cfg=FAST_CFG)
    schedule = BudgetSchedule((4, 8))
    seq = run_budget_sweep(train_data, test_data, schedule, ("random", "fixed_feature"), **kwargs)
    par = run_budget_sweep(
        train_data, test_data, schedule, ("random", "fixed_feature"), jobs=4, **kwargs
    )
    assert seq == par
    assert list(seq.rows) == sorted(seq.rows, key=lambda r: (r.method, r.budget, r.trial))


def test_sweep_writes_and_resumes_byte_identically(tmp_path):
    train_data, test_data = tiny_suite(n_per_class=12)
    schedule = BudgetSchedule((4, 8))
    full_dir = tmp_path / "full"
    run_budget_sweep(
        train_data, test_data, schedule, ("random", "fixed_feature"),
        trials=2, base_seed=9, train_cfg=FAST_CFG, out_dir=full_dir,
    )
    full_results = (full_dir / "results.csv").read_bytes()
    full_summary = (full_dir / "summary.csv").read_bytes()

    # simulate crashes: the header and four completed rows, then possibly a
    # fifth row whose append was cut mid-accuracy or mid-row
    lines = full_results.decode().splitlines()
    torn = lines[5]
    cut_accuracy = torn[: torn.index(".") + 2]
    assert cut_accuracy != torn
    for i, partial in enumerate(["", cut_accuracy, torn[: torn.rindex(",")]]):
        resume_dir = tmp_path / f"resume{i}"
        resume_dir.mkdir()
        (resume_dir / "results.csv").write_text("\n".join(lines[:5]) + "\n" + partial)
        run_budget_sweep(
            train_data, test_data, schedule, ("random", "fixed_feature"),
            trials=2, base_seed=9, train_cfg=FAST_CFG, out_dir=resume_dir,
        )
        assert (resume_dir / "results.csv").read_bytes() == full_results
        assert (resume_dir / "summary.csv").read_bytes() == full_summary


def test_failed_report_rewrite_keeps_streamed_results(tmp_path, monkeypatch):
    train_data, test_data = tiny_suite(n_per_class=12)
    args = (train_data, test_data, BudgetSchedule((4, 8)), ("random", "fixed_feature"))
    kwargs = dict(trials=2, base_seed=9, train_cfg=FAST_CFG)
    run_budget_sweep(*args, **kwargs, out_dir=tmp_path / "full")

    out = tmp_path / "crash"
    streamed = {}
    real_emit, real_format = harness.emit_report, harness._format_row

    def format_until_disk_full(row):
        if row.trial == 1:  # the second canonical row: partway through results.csv
            raise OSError("disk full")
        return real_format(row)

    def emit_failing_partway(result, out_dir):
        streamed["results"] = (out / "results.csv").read_bytes()
        monkeypatch.setattr(harness, "_format_row", format_until_disk_full)
        real_emit(result, out_dir)

    monkeypatch.setattr(harness, "emit_report", emit_failing_partway)
    with pytest.raises(IoFailure, match="disk full"):
        run_budget_sweep(*args, **kwargs, out_dir=out)
    assert len(streamed["results"].splitlines()) == 1 + 8
    assert (out / "results.csv").read_bytes() == streamed["results"]
    assert [p.name for p in out.iterdir()] == ["results.csv"]

    monkeypatch.undo()
    run_budget_sweep(*args, **kwargs, out_dir=out)
    for name in ("results.csv", "summary.csv"):
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_resume_rejects_mismatched_seeds(tmp_path):
    train_data, test_data = tiny_suite(n_per_class=12)
    schedule = BudgetSchedule((4,))
    run_budget_sweep(
        train_data, test_data, schedule, ("random",),
        trials=1, base_seed=9, train_cfg=FAST_CFG, out_dir=tmp_path,
    )
    with pytest.raises(CoarsesetError, match="different seeds"):
        run_budget_sweep(
            train_data, test_data, schedule, ("random",),
            trials=1, base_seed=10, train_cfg=FAST_CFG, out_dir=tmp_path,
        )


def test_sweep_validation():
    train_data, test_data = tiny_suite(n_per_class=5)
    with pytest.raises(ScheduleExceedsPool):
        run_budget_sweep(train_data, test_data, BudgetSchedule((999,)), ("random",), 1)
    with pytest.raises(CoarsesetError, match="valid methods"):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), ("entropy",), 1)
    with pytest.raises(CoarsesetError, match="duplicate"):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), ("random", "random"), 1)


def test_coreset_budget_matches_schedule_points():
    train_data, test_data = tiny_suite(n_per_class=12)
    res = run_budget_sweep(
        train_data, test_data, BudgetSchedule((4, 10)), ("coreset_iterative",),
        trials=1, base_seed=1, train_cfg=FAST_CFG,
    )
    assert {r.budget for r in res.rows} == {4, 10}
