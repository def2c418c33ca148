import errno
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import coreset_rounds, hypergeometric_std

from coarseset import harness, selector
from coarseset.errors import (
    BudgetExceedsOrder,
    CoarsesetError,
    DimensionMismatch,
    IndexOutOfRange,
    IoFailure,
    ScheduleExceedsPool,
    ZeroVector,
)
from coarseset.harness import (
    BudgetSchedule,
    ClassHistogram,
    SweepResult,
    SweepRow,
    class_histogram,
    default_schedule,
    format_summary,
    run_budget_sweep,
)
from coarseset.metrics import Metric
from coarseset.proxy import TrainConfig, accuracy, train
from coarseset.selector import (
    SelectionConfig,
    SelectionOrder,
    full_ordering,
    random_order,
    select_prefix,
)
from coarseset.store import EmbeddingMatrix, LabelVector
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
    # a budget that is not an integer is refused, not truncated
    for budgets in [(2.5, 7.9), (2, 7.0), (True, 3), ("2", 7)]:
        with pytest.raises(ScheduleExceedsPool, match="budgets must be an integer"):
            BudgetSchedule(budgets)
    assert BudgetSchedule((np.int64(5), 8, 20)).budgets == (5, 8, 20)
    assert BudgetSchedule((5, 8, 20)).increments == [5, 3, 12]


def test_default_schedule_shape():
    s = default_schedule(1000)
    assert len(s.budgets) == 9
    assert s.budgets[0] == 20 and s.budgets[-1] == 400
    tiny = default_schedule(10)  # stays strictly increasing even when rounding collides
    assert all(b2 > b1 for b1, b2 in zip(tiny.budgets, tiny.budgets[1:]))



def test_default_schedule_refuses_a_pool_below_9_points():
    # its 9 strictly increasing budgets need 9 points; a smaller pool used
    # to get budgets up to 9 and fail on a budget nobody asked for
    for n in (1, 5, 8):
        with pytest.raises(ScheduleExceedsPool, match=(
            rf"2%\.\.40% of n in 9 steps, needs at least 9 points; the pool has {n}$"
        )):
            default_schedule(n)
    assert default_schedule(9).budgets == tuple(range(1, 10))
    assert default_schedule(20).budgets == tuple(range(1, 10))
    assert default_schedule(49).budgets == (1, 3, 6, 8, 10, 13, 15, 17, 20)
    assert default_schedule(50).budgets == (1, 3, 6, 8, 10, 13, 15, 18, 20)

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


def test_histogram_rejects_an_index_beyond_the_labels():
    labels = LabelVector.from_labels([0, 1])
    order = SelectionOrder(np.array([1, 2, 0]), seed_count=0)
    assert class_histogram(order, labels, 1).counts.tolist() == [0, 1]
    with pytest.raises(IndexOutOfRange, match=r"order index 2 \(entry 1\) is out of range for 2 labels"):
        class_histogram(order, labels, 2)


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

def write_report(result, out):
    """The sweep's own writers, as ``run_budget_sweep`` calls them."""
    harness._write_results(out / "results.csv", result)
    harness._write_summary(out / "summary.csv", result)


def test_sweep_writers_empty_result(tmp_path):
    write_report(SweepResult(()), tmp_path)
    assert (tmp_path / "results.csv").read_text() == "method,budget,trial,seed,accuracy\n"
    assert (tmp_path / "summary.csv").read_text() == "method,budget,mean_accuracy,std_accuracy\n"


def test_sweep_writers_single_row(tmp_path):
    write_report(SweepResult((SweepRow("random", 4, 0, 7, 0.75),)), tmp_path)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[1] == "random,4,0.75,0.0"


def test_sweep_writers_mean_of_three(tmp_path):
    rows = tuple(
        SweepRow("random", 4, t, 7 + t, acc) for t, acc in enumerate((0.5, 0.5, 0.8))
    )
    write_report(SweepResult(rows), tmp_path)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    method, budget, mean, _ = summary[1].split(",")
    assert (method, budget) == ("random", "4")
    assert float(mean) == SweepResult(rows).mean_accuracy("random", 4) == pytest.approx(0.6)
    with pytest.raises(KeyError, match=r"no rows for \(random, 8\)"):
        SweepResult(rows).mean_accuracy("random", 8)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(12)))
def test_sweep_result_orders_and_groups_rows_whatever_their_order(tmp_path, order):
    # 2 methods x 2 budgets x 3 trials; each cell's float mean depends on
    # the order its accuracies are added in, so a cell read out of
    # canonical order shows
    canonical = tuple(
        SweepRow(m, b, t, 40 + t, acc)
        for (m, b, t), acc in zip(
            itertools.product(("fixed_feature", "random"), (4, 16), range(3)),
            (0.1, 0.2, 0.3, 0.2, 0.4, 0.6, 0.1, 0.8, 0.9, 0.2, 0.6, 0.7),
        )
    )
    result = SweepResult(tuple(canonical[i] for i in order))
    assert result.rows == canonical
    assert result == SweepResult(canonical)
    assert list(result.cells) == [
        ("fixed_feature", 4), ("fixed_feature", 16), ("random", 4), ("random", 16)
    ]
    harness._write_summary(tmp_path / "summary.csv", result)
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    text = format_summary(result).splitlines()[1:]
    for (m, b), line, printed in zip(result.cells, summary, text, strict=True):
        accs = [r.accuracy for r in canonical if (r.method, r.budget) == (m, b)]
        mean = result.mean_accuracy(m, b)
        assert mean == float(np.mean(accs))
        assert line == f"{m},{b},{mean!r},{float(np.std(accs))!r}"
        assert printed.split() == [m, str(b), f"{mean:.4f}", f"{float(np.std(accs)):.4f}"]


def test_the_sweep_is_the_only_writer_of_its_csvs():
    # a second writer could put one config's rows beside another's run.json
    import coarseset

    assert not hasattr(harness, "emit_report")
    with pytest.raises(AttributeError):
        coarseset.emit_report


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


def test_numpy_integer_settings_write_the_python_int_files(tmp_path):
    # run.json is JSON: numpy integers in the settings must reach it as ints
    train_data, test_data = tiny_suite(n_per_class=12)
    files = {}
    for kind, num in (("python", int), ("numpy", np.int64)):
        run_budget_sweep(
            train_data, test_data, BudgetSchedule((4, 8)), harness.METHODS, trials=num(2),
            base_seed=num(9), seed_count=num(2),
            train_cfg=TrainConfig(epochs=num(20), batch_size=num(4), hidden=num(8)),
            out_dir=tmp_path / kind,
        )
        files[kind] = {name: (tmp_path / kind / name).read_bytes()
                       for name in ("run.json", "results.csv", "summary.csv")}
    assert files["numpy"] == files["python"]


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
        (resume_dir / "run.json").write_bytes((full_dir / "run.json").read_bytes())
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
    real_summary = harness._write_summary

    def write_half_then_disk_full(fh, parts):
        data = "".join(parts).encode("utf-8")
        fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "disk full")

    def summary_failing_partway(path, rows):
        streamed["results"] = (out / "results.csv").read_bytes()
        monkeypatch.setattr(harness.store, "_write_parts", write_half_then_disk_full)
        real_summary(path, rows)

    monkeypatch.setattr(harness, "_write_summary", summary_failing_partway)
    with pytest.raises(IoFailure, match=r"cannot write .*summary\.csv: .*disk full"):
        run_budget_sweep(*args, **kwargs, out_dir=out)
    # the last group's rewrite already holds every row in canonical order
    assert streamed["results"] == (tmp_path / "full" / "results.csv").read_bytes()
    assert (out / "results.csv").read_bytes() == streamed["results"]
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "run.json"]

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
    with pytest.raises(CoarsesetError, match="no method given"):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), (), 1)
    with pytest.raises(ScheduleExceedsPool, match="trials must be >= 1, got 0"):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), ("random",), 0)
    with pytest.raises(CoarsesetError, match="jobs must be >= 1, got 0"):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), ("random",), 1, jobs=0)
    short = (train_data[0], LabelVector.from_labels(train_data[1].labels[:-1]))
    with pytest.raises(ScheduleExceedsPool, match="labels and embeddings disagree on n"):
        run_budget_sweep(short, test_data, BudgetSchedule((4,)), ("random",), 1)


def test_sweep_refuses_mismatched_inputs_before_anything(tmp_path, monkeypatch):
    # a test pool of another d, or a label file of another length, is refused
    # with both values before run.json and before any training
    def no_training(*args, **kwargs):
        raise AssertionError("train_group called")

    monkeypatch.setattr(harness.proxy, "train_group", no_training)
    train_data, test_data = tiny_suite(n_per_class=5)
    wide = (EmbeddingMatrix(np.ones((15, 5), dtype=np.float32)), test_data[1])
    short = LabelVector.from_labels(test_data[1].labels[:-1])
    args = dict(methods=ALL_METHODS, trials=1, train_cfg=FAST_CFG, out_dir=tmp_path)
    with pytest.raises(DimensionMismatch,
                       match="^train embeddings have d=4, test embeddings have d=5$"):
        run_budget_sweep(train_data, wide, BudgetSchedule((4, 8)), **args)
    with pytest.raises(ScheduleExceedsPool,
                       match="^train labels and embeddings disagree on n: 14 labels, 15 points$"):
        run_budget_sweep((train_data[0], short), test_data, BudgetSchedule((4, 8)), **args)
    with pytest.raises(ScheduleExceedsPool,
                       match="^test labels and embeddings disagree on n: 14 labels, 15 points$"):
        run_budget_sweep(train_data, (test_data[0], short), BudgetSchedule((4, 8)), **args)
    assert not any(tmp_path.iterdir())


def test_cosine_sweep_refuses_an_all_zero_train_point_before_anything(tmp_path, monkeypatch):
    # fixed_feature's k-center pass runs on the train embeddings, which the
    # cosine metric needs free of all-zero points
    train_emb, train_lab = generate(MixtureSpec([10, 10], d=3, separation=4.0, rng_seed=3))
    data = train_emb.data.copy()
    data[4] = 0.0
    train_data = (EmbeddingMatrix(data), train_lab)
    test_data = generate(MixtureSpec([10, 10], d=3, separation=4.0, rng_seed=4))
    trained = []
    real = harness.proxy.train_group

    def recording(*args):
        trained.append(args)
        return real(*args)

    monkeypatch.setattr(harness.proxy, "train_group", recording)
    args = dict(trials=1, metric=Metric.COSINE, train_cfg=FAST_CFG)
    with pytest.raises(ZeroVector, match=(
        "^train embeddings: row 4: all-zero point, which the cosine metric rejects$"
    )):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4, 8)), ALL_METHODS,
                         out_dir=tmp_path / "refused", **args)
    assert not (tmp_path / "refused").exists() and not trained
    # without fixed_feature no method measures the train points by cosine
    run_budget_sweep(train_data, test_data, BudgetSchedule((4, 8)), ("random",),
                     out_dir=tmp_path / "random", **args)
    assert trained and (tmp_path / "random" / "run.json").exists()


def test_sweep_refuses_a_trial_seed_past_2_64(tmp_path):
    # trial 1 under base seed 2**64 - 1 would take seed 2**64, whose stream
    # a seed masked to 64 bits would share with seed 0
    train_data, test_data = tiny_suite(n_per_class=5)
    args = dict(methods=("random",), train_cfg=FAST_CFG, out_dir=tmp_path)
    with pytest.raises(CoarsesetError, match=(
        r"trial 1's seed, base seed 18446744073709551615 \+ 1, must be below 2\*\*64, "
        r"got 18446744073709551616"
    )):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), trials=2,
                         base_seed=2**64 - 1, **args)
    with pytest.raises(IndexOutOfRange, match=r"rng_seed must be below 2\*\*64"):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), trials=1,
                         base_seed=2**64, **args)
    assert not any(tmp_path.iterdir())  # refused before run.json
    res = run_budget_sweep(train_data, test_data, BudgetSchedule((4,)), trials=1,
                           base_seed=2**64 - 1, **args)
    assert [r.seed for r in res.rows] == [2**64 - 1]


def test_coreset_budget_matches_schedule_points():
    train_data, test_data = tiny_suite(n_per_class=12)
    res = run_budget_sweep(
        train_data, test_data, BudgetSchedule((4, 10)), ("coreset_iterative",),
        trials=1, base_seed=1, train_cfg=FAST_CFG,
    )
    assert {r.budget for r in res.rows} == {4, 10}


# --- grouped training ------------------------------------------------------------

ALL_METHODS = ("coreset_iterative", "fixed_feature", "random")
GROUP_SCHEDULE = BudgetSchedule((4, 8, 12))


def sweep_lines(out_dir, methods, **kwargs):
    train_data, test_data = tiny_suite(n_per_class=12)
    kwargs = {"trials": 2, "base_seed": 9, "train_cfg": FAST_CFG, **kwargs}
    run_budget_sweep(train_data, test_data, GROUP_SCHEDULE, methods, out_dir=out_dir, **kwargs)
    return (out_dir / "results.csv").read_text().splitlines()


def test_grouped_sweep_rows_equal_one_training_per_cell():
    # the per-cell definition of every row: its own proxy.train on the sorted
    # subset, and the core-set rounds of a plain loop training a proxy per round
    train_data, test_data = tiny_suite(n_per_class=12)
    (emb, lab), base_seed = train_data, 9
    res = run_budget_sweep(train_data, test_data, GROUP_SCHEDULE, ALL_METHODS, trials=2,
                           base_seed=base_seed, train_cfg=FAST_CFG)
    want = []
    for trial in range(2):
        seed = base_seed + trial
        cfg = replace(FAST_CFG, rng_seed=seed)
        subsets = {
            "random": [random_order(emb.n, seed).prefix(b) for b in GROUP_SCHEDULE.budgets],
            "fixed_feature": [
                select_prefix(emb, SelectionConfig(rng_seed=seed), b)
                .order for b in GROUP_SCHEDULE.budgets
            ],
            "coreset_iterative": coreset_rounds(emb, lab, GROUP_SCHEDULE.increments, cfg, seed),
        }
        for method, per_budget in subsets.items():
            for b, subset in zip(GROUP_SCHEDULE.budgets, per_budget):
                model = train(emb, lab, sorted(int(i) for i in subset), cfg)
                want.append(SweepRow(method, b, trial, seed, accuracy(model, *test_data)))
    assert res.rows == tuple(sorted(want, key=lambda r: (r.method, r.budget, r.trial)))


def test_each_method_and_pair_writes_the_rows_of_the_full_run(tmp_path):
    # a method's cells train in groups with the other methods' cells; the
    # group shares init and shuffles only, so no row depends on who else ran
    full = sweep_lines(tmp_path / "all", ALL_METHODS)
    assert len(full) == 1 + 3 * 3 * 2
    for k in (1, 2):
        for methods in itertools.combinations(ALL_METHODS, k):
            got = sweep_lines(tmp_path / "-".join(methods), methods)
            want = [full[0]] + [line for line in full[1:] if line.split(",")[0] in methods]
            assert got == want, methods


def test_jobs_two_writes_the_bytes_of_jobs_one(tmp_path):
    sweep_lines(tmp_path / "j1", ALL_METHODS, trials=3, jobs=1)
    sweep_lines(tmp_path / "j2", ALL_METHODS, trials=3, jobs=2)
    for name in ("results.csv", "summary.csv", "run.json"):
        assert (tmp_path / "j2" / name).read_bytes() == (tmp_path / "j1" / name).read_bytes()


def test_resume_from_a_cut_inside_a_budget_group(tmp_path, monkeypatch):
    full = sweep_lines(tmp_path / "full", ALL_METHODS)
    # every file as each of its writes leaves it
    writes = []
    real_write = harness._write_csv

    def recording(path, header, rows):
        real_write(path, header, rows)
        writes.append((path.name, path.read_text()))

    monkeypatch.setattr(harness, "_write_csv", recording)
    sweep_lines(tmp_path / "groups", ALL_METHODS)
    monkeypatch.undo()
    # both trials train each budget in one group, whose six rows reach the
    # file together, in canonical order among the rows before them; the last
    # group's rewrite is the final file, and summary.csv is written once
    rewrites = [text for name, text in writes if name == "results.csv"]
    assert rewrites == [
        "\n".join([full[0]] + [line for line in full[1:] if int(line.split(",")[1]) <= b]) + "\n"
        for b in GROUP_SCHEDULE.budgets
    ]
    assert [name for name, _ in writes] == ["results.csv"] * 3 + ["summary.csv"]
    # a file cut outside the program: after a group, inside one, mid-row,
    # and after the last row, where no cell is left and only the rewrite
    # drops the torn line
    cuts = rewrites[:-1] + [
        "\n".join(full[: 1 + cut]) + "\n" + torn
        for cut in (1, 2, 4, 9, len(full) - 2) for torn in ("", full[1 + cut][:9])
    ] + ["\n".join(full) + "\n" + full[1][:9]]
    for k, text in enumerate(cuts):
        out = tmp_path / f"cut{k}"
        out.mkdir()
        (out / "run.json").write_bytes((tmp_path / "groups" / "run.json").read_bytes())
        (out / "results.csv").write_text(text)
        sweep_lines(out, ALL_METHODS)
        for name in ("results.csv", "summary.csv"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), text


def test_done_cells_drop_out_of_their_group(tmp_path, monkeypatch):
    stacks = []
    real = harness.proxy.train_group

    def recording(e, labels, subsets, cfg, seeds):
        stacks.append(list(seeds))
        return real(e, labels, subsets, cfg, seeds)

    monkeypatch.setattr(harness.proxy, "train_group", recording)
    full = sweep_lines(tmp_path / "full", ALL_METHODS, trials=2)
    # both trials in one stack per budget, each with its three cells, plus
    # its feature model while a round remains, under its own seed
    assert stacks == [[9] * 4 + [10] * 4, [9] * 4 + [10] * 4, [9] * 3 + [10] * 3]
    stacks.clear()
    out = tmp_path / "resume"
    out.mkdir()
    (out / "run.json").write_bytes((tmp_path / "full" / "run.json").read_bytes())
    kept = [
        line for line in full[1:]
        if line.startswith(("coreset_iterative,12,0,", "random,4,0,"))
    ]
    (out / "results.csv").write_text("\n".join([full[0]] + kept) + "\n")
    assert sweep_lines(out, ALL_METHODS, trials=2) == full
    # in trial 0, budget 8 is the last coreset cell left, so it trains no
    # feature model; trial 1 runs in full
    assert stacks == [[9] * 3 + [10] * 4, [9] * 3 + [10] * 4, [9] * 2 + [10] * 3]


def test_trials_in_a_stack_equal_each_trial_run_alone(monkeypatch):
    # 5 trials of up to 4 trainings per budget fill one 16-member stack of
    # 4 trials and start another, so trials meet in a stack and in
    # different stacks
    train_data, test_data = tiny_suite(n_per_class=12)
    stacks = []
    real = harness.proxy.train_group

    def recording(e, labels, subsets, cfg, seeds):
        stacks.append(len(seeds))
        return real(e, labels, subsets, cfg, seeds)

    monkeypatch.setattr(harness.proxy, "train_group", recording)
    monkeypatch.setattr(harness, "STACK_MEMBERS", 16)
    args = (train_data, test_data, GROUP_SCHEDULE, ALL_METHODS)
    together = run_budget_sweep(*args, trials=5, base_seed=9, train_cfg=FAST_CFG)
    # per stack, one group per budget; 3 trainings per trial at the last
    assert stacks[:6] == [16, 16, 12, 4, 4, 3]
    want = {
        (r.method, r.budget, r.seed): r.accuracy
        for t in range(5)
        for r in run_budget_sweep(*args, trials=1, base_seed=9 + t, train_cfg=FAST_CFG).rows
    }
    assert len(together.rows) == len(want) == 5 * 9
    assert {(r.method, r.budget, r.seed): r.accuracy for r in together.rows} == want
    assert all(r.seed == 9 + r.trial for r in together.rows)


def test_stack_width_counts_the_methods_still_pending(tmp_path, monkeypatch):
    sizes = []
    real = harness.proxy.train_group

    def recording(e, labels, subsets, cfg, seeds):
        sizes.append(len(seeds))
        return real(e, labels, subsets, cfg, seeds)

    def group_sizes(out, methods, trials):
        sizes.clear()
        sweep_lines(out, methods, trials=trials)
        return list(sizes)

    monkeypatch.setattr(harness.proxy, "train_group", recording)
    # three methods and the feature model: 4 trials a stack
    full = group_sizes(tmp_path / "all", ALL_METHODS, 9)
    assert full == [16, 16, 12, 16, 16, 12, 4, 4, 3]
    # one method: 16 trials a stack
    assert group_sizes(tmp_path / "random", ("random",), 20) == [16, 16, 16, 4, 4, 4]
    # only the added core-set cells are pending: 8 trials a stack, not 4
    group_sizes(tmp_path / "add", ("fixed_feature", "random"), 9)
    assert group_sizes(tmp_path / "add", ALL_METHODS, 9) == [16, 16, 8, 2, 2, 1]
    # more trials: only the new ones have work
    group_sizes(tmp_path / "more", ALL_METHODS, 2)
    assert group_sizes(tmp_path / "more", ALL_METHODS, 6) == [16, 16, 12]
    # trial 0 done, trial 1 with its budget-4 random cell done, trial 2 fresh
    lines = (tmp_path / "all" / "results.csv").read_text().splitlines()
    kept = [line for line in lines[1:] if line.split(",")[2] == "0" or
            line.startswith("random,4,1,")]
    part = tmp_path / "part"
    part.mkdir()
    (part / "run.json").write_bytes((tmp_path / "all" / "run.json").read_bytes())
    (part / "results.csv").write_text("\n".join([lines[0]] + kept) + "\n")
    assert group_sizes(part, ALL_METHODS, 3) == [7, 8, 6]


def test_each_trial_draws_its_random_order_once(monkeypatch):
    # one random walk per trial with a pending cell, whichever its methods,
    # of max(budgets) Fisher-Yates steps over the pool: never a whole
    # permutation of n. A trial with a pending fixed_feature cell also draws
    # select_prefix's seed-count seeds, and nothing else draws
    draws = []

    class CountingRng(selector.Rng):
        def __init__(self, seed):
            super().__init__(seed)
            self.seed = seed

        def _fisher_yates_offsets(self, n, steps):
            draws.append((self.seed, n, steps))
            return super()._fisher_yates_offsets(n, steps)

    monkeypatch.setattr(selector, "Rng", CountingRng)
    train_data, test_data = tiny_suite(n_per_class=12)
    n, top = train_data[0].n, max(GROUP_SCHEDULE.budgets)
    assert top < n
    for methods, seed_count in [(ALL_METHODS, 1), (ALL_METHODS, 3), (("coreset_iterative",), 1),
                                (("random",), 1), (("fixed_feature",), 2)]:
        seeds = [] if "fixed_feature" not in methods else [seed_count]
        draws.clear()
        run_budget_sweep(train_data, test_data, GROUP_SCHEDULE, methods, trials=2,
                         base_seed=9, seed_count=seed_count, train_cfg=FAST_CFG)
        assert draws == [(seed, n, steps) for seed in (9, 10) for steps in [top, *seeds]], methods


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("seed_count", [1, 3])
def test_fixed_feature_array_is_select_prefix_of_the_trial_seed(monkeypatch, metric, seed_count):
    # the sweep's fixed-feature array is the ordering `select` writes under
    # the trial's seed: its kcenter_greedy runs on the train embeddings, a
    # core-set round's on proxy features
    train_data, test_data = tiny_suite(n_per_class=12)
    emb, top = train_data[0], max(GROUP_SCHEDULE.budgets)
    want = [
        select_prefix(emb, SelectionConfig(seed_count, 9 + trial, metric), top).order.tolist()
        for trial in range(3)
    ]
    arrays = []
    greedy = selector.kcenter_greedy

    def recording(e, *args):
        order = greedy(e, *args)
        if e is emb:  # not a core-set round, which runs in proxy features
            arrays.append(order.order.tolist())
        return order

    monkeypatch.setattr(selector, "kcenter_greedy", recording)
    run_budget_sweep(train_data, test_data, GROUP_SCHEDULE, ALL_METHODS, trials=3,
                     base_seed=9, metric=metric, seed_count=seed_count, train_cfg=FAST_CFG)
    assert arrays == want


@pytest.mark.parametrize("field,change", [
    ("budgets", dict(schedule=BudgetSchedule((4, 10)))),
    ("seed_count", dict(seed_count=2)),
    ("epochs", dict(train_cfg=TrainConfig(epochs=21, rng_seed=0))),
    ("hidden", dict(train_cfg=TrainConfig(epochs=20, rng_seed=0, hidden=8))),
    ("test_lab_sha256", dict(test_labels=[0, 1, 2] * 11 + [0, 2, 1])),
])
def test_resume_refuses_changed_settings(tmp_path, field, change):
    train_data, test_data = tiny_suite(n_per_class=12)
    args = dict(methods=("random", "fixed_feature"), trials=1, base_seed=9,
                train_cfg=FAST_CFG, out_dir=tmp_path)
    run_budget_sweep(train_data, test_data, BudgetSchedule((4, 8)), **args)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    schedule = change.pop("schedule", BudgetSchedule((4, 8)))
    if "test_labels" in change:
        test_data = (test_data[0], LabelVector.from_labels(change.pop("test_labels")))
    with pytest.raises(CoarsesetError, match=f"run.json: {field} was "):
        run_budget_sweep(train_data, test_data, schedule, **dict(args, **change))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_resume_refuses_rows_without_run_json(tmp_path):
    train_data, test_data = tiny_suite(n_per_class=12)
    args = (train_data, test_data, BudgetSchedule((4,)), ("random",))
    run_budget_sweep(*args, trials=1, train_cfg=FAST_CFG, out_dir=tmp_path)
    (tmp_path / "run.json").unlink()
    results = (tmp_path / "results.csv").read_bytes()
    with pytest.raises(CoarsesetError, match="run.json is missing"):
        run_budget_sweep(*args, trials=1, train_cfg=FAST_CFG, out_dir=tmp_path)
    assert (tmp_path / "results.csv").read_bytes() == results


def test_subset_rerun_keeps_the_rows_it_does_not_request(tmp_path):
    out = tmp_path / "s"
    full = sweep_lines(out, ALL_METHODS, trials=1)
    before = {name: (out / name).read_bytes() for name in ("results.csv", "summary.csv")}
    assert len(full) == 1 + 3 * 3
    # fewer methods, then fewer trials after a two-trial run: nothing to
    # compute, and every row stays in both CSVs
    assert sweep_lines(out, ("random",), trials=1) == full
    assert {name: (out / name).read_bytes() for name in before} == before
    two = sweep_lines(tmp_path / "two", ALL_METHODS, trials=2)
    assert sweep_lines(tmp_path / "two", ("fixed_feature",), trials=1) == two


def test_subset_rerun_seed_checks_the_rows_it_does_not_request(tmp_path):
    out = tmp_path / "s"
    full = sweep_lines(out, ALL_METHODS, trials=1)
    # a random row with a seed this run's base seed would not give it
    lines = [line.replace(",9,", ",3,") if line.startswith("random,") else line for line in full]
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CoarsesetError, match="different seeds"):
        sweep_lines(out, ("fixed_feature",), trials=1)


# --- validating resumed rows -----------------------------------------------------

RESUME_SCHEDULE = BudgetSchedule((4, 8))


def resumable_sweep(out_dir, train_cfg=FAST_CFG):
    """A finished one-trial random sweep at base seed 9 in `out_dir`."""
    train_data, test_data = tiny_suite(n_per_class=12)
    args = (train_data, test_data, RESUME_SCHEDULE, ("random",))
    kwargs = dict(trials=1, base_seed=9, train_cfg=train_cfg, out_dir=out_dir)
    run_budget_sweep(*args, **kwargs)
    return lambda: run_budget_sweep(*args, **kwargs)


@pytest.mark.parametrize("line,message", [
    ("bogus,7,-3,6,2.5", "unknown method 'bogus'"),
    ("random,4,-1,8,0.5", "negative trial -1"),
    ("random,4,1,9,0.5", r"seed 9 is not base seed 9 \+ trial 1"),
    ("random,7,0,9,0.5", r"budget 7 is not in the schedule \[4, 8\] recorded in run.json"),
    ("random,4,0,9,nan", r"accuracy 'nan' outside \[0, 1\]"),
    ("random,4,0,9,1.5", r"accuracy '1.5' outside \[0, 1\]"),
    ("random,4,0,9,-0.0625", r"accuracy '-0.0625' outside \[0, 1\]"),
    ("random,4,0,9,inf", r"accuracy 'inf' outside \[0, 1\]"),
    ("random,4,0,9,0.125", r"repeats the cell \(random, 4, 0\) of line 2"),
    ("random,+8,0,9,0.5", r"a sweep writes this row as 'random,8,0,9,0.5', not 'random,\+8,"),
    ("random, 4,0,9,0.5", "a sweep writes this row as 'random,4,0,9,0.5', not 'random, 4,"),
    ("random,8_0,0,9,0.5", "a sweep writes this row as 'random,80,0,9,0.5', not 'random,8_0,"),
    ("random,4,0,9,1", "a sweep writes this row as 'random,4,0,9,1.0', not 'random,4,0,9,1'"),
    ("random,4,0,9,0.50", "a sweep writes this row as 'random,4,0,9,0.5', not 'random,4,0,9,0.50'"),
])
def test_resume_refuses_a_row_no_sweep_writes(tmp_path, line, message):
    resume = resumable_sweep(tmp_path)
    results = tmp_path / "results.csv"
    with results.open("a") as fh:
        fh.write(line + "\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(CoarsesetError, match=f"results.csv: line 4: {message}"):
        resume()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _make_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("name,spoil,error,message", [
    ("results.csv", _make_directory, IoFailure, r"cannot read results from .*results\.csv: "),
    ("results.csv", lambda p: p.write_bytes(b"method,budget,trial,seed,accuracy\n\xff\n"),
     CoarsesetError, r"results\.csv: line 2: not UTF-8 text"),
    ("run.json", _make_directory, IoFailure, r"cannot read the run record from .*run\.json: "),
    # the id keeps this case's name from before the message was reworded
    pytest.param("run.json", lambda p: p.write_text("{not json"), CoarsesetError,
                 r"run\.json is not valid JSON: Expecting property name",
                 id="run.json-<lambda>-CoarsesetError-cannot read a run.json that is not JSON"),
    ("run.json", lambda p: p.write_text("[1, 2]"), CoarsesetError,
     r"run\.json must hold a JSON object"),
])
def test_resume_refuses_an_unreadable_file(tmp_path, name, spoil, error, message):
    resume = resumable_sweep(tmp_path)
    spoil(tmp_path / name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    with pytest.raises(error, match=message):
        resume()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_out_dir_that_cannot_be_made_is_an_io_failure(tmp_path, out):
    # a file in the way, or a file as a parent: IoFailure naming the directory
    (tmp_path / "afile").write_bytes(b"kept")
    train_data, test_data = tiny_suite(n_per_class=12)
    with pytest.raises(IoFailure, match=f"cannot create directory {tmp_path / out}: "):
        run_budget_sweep(train_data, test_data, BudgetSchedule((4, 8)), ("random",), trials=1,
                         train_cfg=FAST_CFG, out_dir=tmp_path / out)
    assert [q.name for q in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_bytes() == b"kept"


# method, budget, trial, the seed's offset from base seed 9 + trial, accuracy
VALID_ROW = st.tuples(
    st.sampled_from(harness.METHODS), st.sampled_from(RESUME_SCHEDULE.budgets),
    st.integers(0, 3), st.just(0), st.floats(0.0, 1.0),
)
ANY_ROW = st.tuples(
    st.sampled_from(harness.METHODS + ("bogus", "")), st.sampled_from((-1, 0, 4, 7, 8)),
    st.integers(-3, 3), st.sampled_from((0, 1)), st.floats(),
)
RESULT_LINES = st.one_of(
    st.one_of(VALID_ROW, ANY_ROW).map(
        lambda f: f"{f[0]},{f[1]},{f[2]},{9 + f[2] + f[3]},{f[4]!r}"
    ),
    st.text(max_size=12),
)
RESULT_BYTES = st.one_of(
    st.binary(max_size=60),
    st.tuples(
        st.booleans(),
        st.lists(RESULT_LINES, max_size=6),
        st.one_of(st.just(b"\n"), st.binary(max_size=3)),
    ).map(
        lambda t: "\n".join([",".join(harness.RESULTS_HEADER)] * t[0] + t[1]).encode() + t[2]
    ),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(RESULT_BYTES)
def test_resume_fuzz_returns_valid_rows_or_names_the_file(tmp_path, raw):
    cfg = TrainConfig(epochs=1, rng_seed=0)
    # every refusal comes before run.json is written, and a resume writes the
    # same record, so the first example's run.json stays valid
    if not (tmp_path / "run.json").exists():
        resumable_sweep(tmp_path, cfg)
    results = tmp_path / "results.csv"
    results.write_bytes(raw)
    train_data, test_data = tiny_suite(n_per_class=12)
    try:
        result = run_budget_sweep(
            train_data, test_data, RESUME_SCHEDULE, ("random",),
            trials=1, base_seed=9, train_cfg=cfg, out_dir=tmp_path,
        )
    except CoarsesetError as exc:
        assert str(results) in str(exc)
    else:
        assert len({(r.method, r.budget, r.trial) for r in result.rows}) == len(result.rows)
        for row in result.rows:
            assert row.method in harness.METHODS and row.trial >= 0
            assert row.budget in RESUME_SCHEDULE.budgets and row.seed == 9 + row.trial
            assert 0.0 <= row.accuracy <= 1.0
