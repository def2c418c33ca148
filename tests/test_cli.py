import hashlib
import json

import numpy as np
import pytest

from coarseset import harness
from coarseset.cli import _merge, build_parser, main
from coarseset.metrics import DEFAULT_METRIC
from coarseset.proxy import TrainConfig
from coarseset.store import EmbeddingMatrix, load_embeddings, load_labels, save_embeddings

SUBCOMMANDS = ("order", "select", "sweep", "histogram", "gen-synth")

FOUR_POINTS = np.array([[0, 0], [10, 0], [0, 10], [1, 1]], dtype=np.float32)


@pytest.fixture
def emb_file(tmp_path):
    p = tmp_path / "pts.emb"
    save_embeddings(EmbeddingMatrix(FOUR_POINTS), p)
    return p


def synth_spec(tmp_path, name="spec.json", **overrides):
    spec = dict(per_class_counts=[20, 20, 20], d=3, separation=8.0, rng_seed=5)
    spec.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


def test_order_worked_example(emb_file, tmp_path, capsys):
    out = tmp_path / "order.csv"
    # rng seed 10 draws point 0 as the seed; greedy then visits 1, 2, 3
    rc = main(["order", "--embeddings", str(emb_file), "--out", str(out), "--rng-seed", "10"])
    assert rc == 0
    assert out.read_text() == "# seed_count=1\n0\n1\n2\n3\n"


def test_order_missing_file_exits_2(tmp_path, capsys):
    rc = main(["order", "--embeddings", str(tmp_path / "nope.emb"), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "nope.emb" in capsys.readouterr().err


def test_order_seed_count_beyond_n_exits_2(emb_file, tmp_path, capsys):
    rc = main([
        "order", "--embeddings", str(emb_file), "--out", str(tmp_path / "o.csv"),
        "--seed-count", "9",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "9" in err and "seed" in err


def test_select_truncates_order(emb_file, tmp_path):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    assert main(["order", "--embeddings", str(emb_file), "--out", str(full), "--rng-seed", "10"]) == 0
    assert main([
        "select", "--embeddings", str(emb_file), "--out", str(part),
        "--rng-seed", "10", "--budget", "2",
    ]) == 0
    full_lines = full.read_text().splitlines()
    assert part.read_text().splitlines() == full_lines[:3]  # comment + 2 indices


def test_select_requires_budget(emb_file, tmp_path, capsys):
    rc = main(["select", "--embeddings", str(emb_file), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "--budget" in capsys.readouterr().err


def test_env_var_seed(emb_file, tmp_path, monkeypatch):
    flagged = tmp_path / "flag.csv"
    env = tmp_path / "env.csv"
    assert main(["order", "--embeddings", str(emb_file), "--out", str(flagged), "--rng-seed", "10"]) == 0
    monkeypatch.setenv("COARSESET_RNG_SEED", "10")
    assert main(["order", "--embeddings", str(emb_file), "--out", str(env)]) == 0
    assert env.read_bytes() == flagged.read_bytes()


def test_flag_overrides_env(emb_file, tmp_path, monkeypatch):
    monkeypatch.setenv("COARSESET_RNG_SEED", "10")
    a = tmp_path / "a.csv"
    assert main(["order", "--embeddings", str(emb_file), "--out", str(a), "--rng-seed", "3"]) == 0
    assert a.read_text().splitlines()[1] != "0"  # seed 3 draws point 1


def test_config_file_and_flag_precedence(emb_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embeddings": str(emb_file), "rng_seed": 3}))
    out_cfg = tmp_path / "from_cfg.csv"
    assert main(["order", "--config", str(cfg), "--out", str(out_cfg)]) == 0
    out_flag = tmp_path / "from_flag.csv"
    assert main([
        "order", "--config", str(cfg), "--out", str(out_flag), "--rng-seed", "10",
    ]) == 0
    assert out_cfg.read_text() != out_flag.read_text()
    assert out_flag.read_text().splitlines()[1] == "0"


@pytest.mark.parametrize("budget", [5.9, True])
def test_select_config_budget_must_be_an_integer(emb_file, tmp_path, capsys, budget):
    # int() would truncate 5.9 to 5 and read true as 1; the flag refuses both
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embeddings": str(emb_file), "budget": budget}))
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert main(["select", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and "--budget" in err
    assert not out.exists()


def test_select_config_budget_accepts_an_integer_string(emb_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embeddings": str(emb_file), "budget": "3", "rng_seed": 10}))
    out = tmp_path / "o.csv"
    assert main(["select", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == "# seed_count=1\n0\n1\n2\n"


def test_config_unknown_key_exits_2(emb_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embeddingz": str(emb_file)}))
    rc = main(["order", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "embeddingz" in capsys.readouterr().err


def test_gen_synth_writes_pair_and_is_deterministic(tmp_path):
    spec = synth_spec(tmp_path)
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "a")]) == 0
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.emb").read_bytes() == (tmp_path / "b.emb").read_bytes()
    assert (tmp_path / "a.lab").read_bytes() == (tmp_path / "b.lab").read_bytes()
    emb = load_embeddings(tmp_path / "a.emb")
    lab = load_labels(tmp_path / "a.lab")
    assert (emb.n, emb.d) == (60, 3)
    assert lab.num_classes == 3


def test_gen_synth_header_declares_total_n(tmp_path):
    spec = synth_spec(tmp_path, per_class_counts=[100] * 10, d=2)
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "big")]) == 0
    raw = (tmp_path / "big.emb").read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    assert n == 1000


def test_gen_synth_single_class(tmp_path):
    spec = synth_spec(tmp_path, per_class_counts=[5], d=2)
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "one")]) == 0
    lab = load_labels(tmp_path / "one.lab")
    assert lab.labels.tolist() == [0] * 5


def test_gen_synth_invalid_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["gen-synth", "--spec", str(bad), "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    bad.write_text(json.dumps({"per_class_counts": [3], "d": 2, "bogus": 1}))
    assert main(["gen-synth", "--spec", str(bad), "--out-prefix", str(tmp_path / "x")]) == 2
    bad.write_text(json.dumps({"per_class_counts": [3], "d": 2, "num_classes": 7}))
    assert main(["gen-synth", "--spec", str(bad), "--out-prefix", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("field,value", [
    ("d", 8.5),
    ("d", True),
    ("rng_seed", 1.5),
    ("center_seed", 2.5),
    ("per_class_counts", [1.5, 3]),
])
def test_gen_synth_non_integer_field_exits_2(tmp_path, capsys, field, value):
    spec = synth_spec(tmp_path, **{field: value})
    capsys.readouterr()
    rc = main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and err.count("\n") == 1
    assert str(spec) in err and field in err
    assert not (tmp_path / "x.emb").exists()


def test_histogram_through_files(emb_file, tmp_path):
    order = tmp_path / "order.csv"
    assert main(["order", "--embeddings", str(emb_file), "--out", str(order), "--rng-seed", "10"]) == 0
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n1\n0\n")  # order prefix [0, 1] -> one point per class
    out = tmp_path / "hist.csv"
    assert main([
        "histogram", "--order", str(order), "--labels", str(labels),
        "--budget", "2", "--out", str(out),
    ]) == 0
    assert out.read_text() == "class,count\n0,1\n1,1\n"


def test_histogram_budget_too_large_exits_2(emb_file, tmp_path, capsys):
    order = tmp_path / "order.csv"
    main(["order", "--embeddings", str(emb_file), "--out", str(order), "--rng-seed", "10"])
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n0\n1\n1\n")
    rc = main([
        "histogram", "--order", str(order), "--labels", str(labels),
        "--budget", "9", "--out", str(tmp_path / "h.csv"),
    ])
    assert rc == 2


def test_sweep_tiny_row_count(tmp_path, capsys):
    train_spec = synth_spec(tmp_path, "train.json", center_seed=42, rng_seed=1)
    test_spec = synth_spec(tmp_path, "test.json", center_seed=42, rng_seed=2)
    assert main(["gen-synth", "--spec", str(train_spec), "--out-prefix", str(tmp_path / "train")]) == 0
    assert main(["gen-synth", "--spec", str(test_spec), "--out-prefix", str(tmp_path / "test")]) == 0
    out = tmp_path / "sweep"
    rc = main([
        "sweep",
        "--train-emb", str(tmp_path / "train.emb"), "--train-lab", str(tmp_path / "train.lab"),
        "--test-emb", str(tmp_path / "test.emb"), "--test-lab", str(tmp_path / "test.lab"),
        "--budgets", "6,12", "--methods", "random", "--trials", "1",
        "--epochs", "10", "--jobs", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "method,budget,trial,seed,accuracy"
    assert len(lines) == 3
    assert "random" in capsys.readouterr().out


def test_sweep_resume_rejects_malformed_middle_row(tmp_path, capsys):
    spec = synth_spec(tmp_path, center_seed=42)
    main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "d")])
    argv = [
        "sweep",
        "--train-emb", str(tmp_path / "d.emb"), "--train-lab", str(tmp_path / "d.lab"),
        "--test-emb", str(tmp_path / "d.emb"), "--test-lab", str(tmp_path / "d.lab"),
        "--budgets", "6,12", "--methods", "random", "--trials", "1",
        "--epochs", "5", "--jobs", "1", "--out", str(tmp_path / "s"),
    ]
    assert main(argv) == 0
    results = tmp_path / "s" / "results.csv"
    lines = results.read_text().splitlines()
    lines[1] = "random,6"
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == 2
    assert "results.csv: line 2" in capsys.readouterr().err


def test_sweep_unknown_method_exits_2(tmp_path, capsys):
    spec = synth_spec(tmp_path, center_seed=42)
    main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "d")])
    rc = main([
        "sweep",
        "--train-emb", str(tmp_path / "d.emb"), "--train-lab", str(tmp_path / "d.lab"),
        "--test-emb", str(tmp_path / "d.emb"), "--test-lab", str(tmp_path / "d.lab"),
        "--budgets", "6", "--methods", "margin", "--trials", "1",
        "--out", str(tmp_path / "s"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "margin" in err and "fixed_feature" in err


def test_sweep_default_schedule_and_config_file(tmp_path, capsys):
    train_spec = synth_spec(tmp_path, "train.json", center_seed=42, rng_seed=1)
    test_spec = synth_spec(tmp_path, "test.json", center_seed=42, rng_seed=2)
    main(["gen-synth", "--spec", str(train_spec), "--out-prefix", str(tmp_path / "train")])
    main(["gen-synth", "--spec", str(test_spec), "--out-prefix", str(tmp_path / "test")])
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "train_emb": str(tmp_path / "train.emb"), "train_lab": str(tmp_path / "train.lab"),
        "test_emb": str(tmp_path / "test.emb"), "test_lab": str(tmp_path / "test.lab"),
        "methods": "random", "trials": 1, "epochs": 5, "jobs": 1,
        "out": str(tmp_path / "out"),
    }))
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 9  # header + default 9-step schedule, 1 trial
    budgets = [int(line.split(",")[1]) for line in lines[1:]]
    assert budgets[0] == max(1, round(0.02 * 60)) and budgets[-1] == round(0.40 * 60)


def test_order_accepts_csv_embeddings(tmp_path):
    csv_pts = tmp_path / "pts.csv"
    csv_pts.write_text("0,0\n10,0\n0,10\n1,1\n")
    out = tmp_path / "o.csv"
    assert main(["order", "--embeddings", str(csv_pts), "--out", str(out), "--rng-seed", "10"]) == 0
    assert out.read_text() == "# seed_count=1\n0\n1\n2\n3\n"


def test_help_on_every_subcommand(capsys):
    for sub in SUBCOMMANDS:
        rc = main([sub, "--help"])
        assert rc == 0
        assert "--" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_metric_flag_accepted(emb_file, tmp_path):
    for metric in ("sqeuclidean", "euclidean", "cosine"):
        embeddings = emb_file
        if metric == "cosine":  # zero vector is rejected under cosine
            embeddings = tmp_path / "nz.emb"
            save_embeddings(EmbeddingMatrix(FOUR_POINTS + 1.0), embeddings)
        out = tmp_path / f"{metric}.csv"
        assert main([
            "order", "--embeddings", str(embeddings), "--out", str(out),
            "--metric", metric, "--rng-seed", "10",
        ]) == 0


def sweep_config(tmp_path, **overrides):
    """A one-trial random-method sweep config over a small generated pool."""
    spec = synth_spec(tmp_path, center_seed=42)
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "d")]) == 0
    cfg = {
        "train_emb": str(tmp_path / "d.emb"), "train_lab": str(tmp_path / "d.lab"),
        "test_emb": str(tmp_path / "d.emb"), "test_lab": str(tmp_path / "d.lab"),
        "budgets": "6", "methods": "random", "trials": 1, "epochs": 2,
        "out": str(tmp_path / "s"),
    }
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = sweep_config(tmp_path)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--jobs must be >= 1" in err
    assert not (tmp_path / "s" / "results.csv").exists()


@pytest.mark.parametrize("key,value,needle", [
    ("epochs", 0, "epochs"),
    ("metric", "manhattan", "manhattan"),
    ("trials", "x", "--trials"),
    ("learning_rate", "fast", "--learning-rate"),
    ("budgets", ["6", None], "--budgets"),
    ("rng_seed", -1, "--rng-seed"),
    ("trials", 1.5, "--trials"),
    ("epochs", True, "--epochs"),
    ("learning_rate", True, "--learning-rate"),
    ("budgets", [6, 12.5], "--budgets"),
    ("seed_count", 0, "seed_count must be >= 1"),
    ("seed_count", 20, "budget 12 cannot cover 20 seeds"),
])
def test_sweep_bad_config_value_exits_2(tmp_path, capsys, key, value, needle):
    # every method and two budgets: a setting checked only inside one
    # method's job would let the cells before it write rows
    settings = {"methods": ",".join(harness.METHODS), "budgets": "6,12", key: value}
    cfg = sweep_config(tmp_path, **settings)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and needle in err
    assert not (tmp_path / "s" / "results.csv").exists()


def test_internal_value_error_exits_1(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("bug in the sweep")

    cfg = sweep_config(tmp_path)
    monkeypatch.setattr(harness, "run_budget_sweep", broken)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "internal error: bug in the sweep" in capsys.readouterr().err


def test_sweep_jobs_defaults_to_one(tmp_path, monkeypatch):
    seen = {}

    def record(train_data, test_data, schedule, methods, trials, **kwargs):
        seen.update(schedule=schedule, methods=methods, trials=trials, **kwargs)
        return harness.SweepResult(())

    spec = synth_spec(tmp_path, center_seed=42)
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "d")]) == 0
    monkeypatch.setattr(harness, "run_budget_sweep", record)
    monkeypatch.delenv("COARSESET_RNG_SEED", raising=False)
    assert main([
        "sweep",
        "--train-emb", str(tmp_path / "d.emb"), "--train-lab", str(tmp_path / "d.lab"),
        "--test-emb", str(tmp_path / "d.emb"), "--test-lab", str(tmp_path / "d.lab"),
        "--out", str(tmp_path / "s"),
    ]) == 0
    assert seen.pop("schedule") == harness.default_schedule(60)
    assert seen.pop("metric") is DEFAULT_METRIC
    assert seen == {
        "methods": list(harness.METHODS), "trials": 20, "base_seed": 0, "seed_count": 1,
        "train_cfg": TrainConfig(), "out_dir": str(tmp_path / "s"), "jobs": 1,
    }


def test_every_flag_reads_from_config_and_help_shows_defaults(tmp_path, capsys):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "subcommand").choices
    for sub in SUBCOMMANDS:
        keys = [
            opt[2:].replace("-", "_")
            for action in subparsers[sub]._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt not in ("--help", "--config")
        ]
        if sub == "order":  # one config file serves both order and select
            keys.append("budget")
        cfg = {key: f"from-config-{key}" for key in keys}
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps(cfg))
        assert _merge(parser.parse_args([sub, "--config", str(path)])) == cfg

        help_text = " ".join(subparsers[sub].format_help().split())
        for key, default in _merge(parser.parse_args([sub])).items():
            if default is not None:
                assert f"(default {default})" in help_text, (sub, key)


def test_sweep_run_json_records_the_settings_and_input_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("COARSESET_RNG_SEED", raising=False)
    cfg = sweep_config(tmp_path, budgets="6,12", epochs=3)
    assert main(["sweep", "--config", str(cfg), "--hidden", "8"]) == 0
    record = json.loads((tmp_path / "s" / "run.json").read_text())
    digest = {
        name: hashlib.sha256((tmp_path / f"d.{name[-3:]}").read_bytes()).hexdigest()
        for name in ("emb", "lab")
    }
    assert record == {
        "budgets": [6, 12], "base_seed": 0, "seed_count": 1, "metric": DEFAULT_METRIC.value,
        "epochs": 3, "batch_size": TrainConfig.batch_size,
        "learning_rate": TrainConfig.learning_rate, "hidden": 8,
        "train_emb_sha256": digest["emb"], "train_lab_sha256": digest["lab"],
        "test_emb_sha256": digest["emb"], "test_lab_sha256": digest["lab"],
    }


@pytest.mark.parametrize("flags,field", [
    (["--epochs", "50", "--hidden", "8"], "epochs"),
    (["--budgets", "6,9"], "budgets"),
    (["--learning-rate", "0.1"], "learning_rate"),
    (["--metric", "euclidean"], "metric"),
])
def test_sweep_resume_refuses_a_changed_config(tmp_path, capsys, monkeypatch, flags, field):
    monkeypatch.delenv("COARSESET_RNG_SEED", raising=False)
    cfg = sweep_config(tmp_path, methods=",".join(harness.METHODS), budgets="6,12", epochs=1)
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "s"
    before = {name: (out / name).read_bytes() for name in ("results.csv", "summary.csv", "run.json")}
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and f"run.json: {field} was" in err
    assert {name: (out / name).read_bytes() for name in before} == before
    # the same settings resume (nothing left to run) and keep every byte
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert {name: (out / name).read_bytes() for name in before} == before


def test_sweep_resume_refuses_rows_without_run_json(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    (tmp_path / "s" / "run.json").unlink()
    results = (tmp_path / "s" / "results.csv").read_bytes()
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "run.json is missing" in capsys.readouterr().err
    assert (tmp_path / "s" / "results.csv").read_bytes() == results


def test_sweep_rerun_with_fewer_methods_keeps_every_row(tmp_path):
    cfg = sweep_config(tmp_path, methods=",".join(harness.METHODS), budgets="6,12")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg)]) == 0
    before = {name: (out / name).read_bytes() for name in ("results.csv", "summary.csv")}
    assert len(before["results.csv"].splitlines()) == 7
    assert main(["sweep", "--config", str(cfg), "--methods", "random"]) == 0
    assert {name: (out / name).read_bytes() for name in before} == before


def test_sweep_more_trials_extend_a_finished_run(tmp_path):
    cfg = sweep_config(tmp_path, methods=",".join(harness.METHODS), budgets="6,12")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--trials", "2"]) == 0
    assert main(["sweep", "--config", str(cfg), "--trials", "2", "--out", str(tmp_path / "f")]) == 0
    for name in ("results.csv", "summary.csv", "run.json"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "f" / name).read_bytes()
