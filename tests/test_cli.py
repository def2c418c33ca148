import hashlib
import json
import math

import numpy as np
import pytest

from coarseset import harness
from coarseset.cli import _int_list, _str_list, build_parser, main, parse_args
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
    # the flag is checked before the embeddings are read
    rc = main(["select", "--embeddings", str(tmp_path / "missing.emb"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--budget is required" in err and "missing.emb" not in err


def test_env_var_seed(emb_file, tmp_path, monkeypatch, capsys):
    flagged = tmp_path / "flag.csv"
    env = tmp_path / "env.csv"
    assert main(["order", "--embeddings", str(emb_file), "--out", str(flagged), "--rng-seed", "10"]) == 0
    monkeypatch.setenv("COARSESET_RNG_SEED", "10")
    assert main(["order", "--embeddings", str(emb_file), "--out", str(env)]) == 0
    assert env.read_bytes() == flagged.read_bytes()
    monkeypatch.setenv("COARSESET_RNG_SEED", "abc")
    assert main(["order", "--embeddings", str(emb_file), "--out", str(env)]) == 2
    assert "COARSESET_RNG_SEED='abc' is not an integer" in capsys.readouterr().err


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
    cfg.write_text(json.dumps([str(emb_file)]))
    assert main(["order", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"config {cfg} must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


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
    bad.write_text(json.dumps({"per_class_counts": [3]}))
    capsys.readouterr()
    assert main(["gen-synth", "--spec", str(bad), "--out-prefix", str(tmp_path / "x")]) == 2
    assert "mixture spec needs per_class_counts and d" in capsys.readouterr().err


# a file json.load refuses with something other than JSONDecodeError
HOSTILE_JSON = {
    "not-utf8": b"\xff\xfe{}",
    "long-int": b'{"trials": ' + b"9" * 4301 + b"}",  # past int's 4300-digit limit
    "deep": b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
}


@pytest.mark.parametrize("raw", HOSTILE_JSON.values(), ids=HOSTILE_JSON.keys())
@pytest.mark.parametrize("flag", ["sweep --config", "gen-synth --spec"])
def test_hostile_json_file_exits_2(tmp_path, capsys, flag, raw):
    p = tmp_path / "in.json"
    p.write_bytes(raw)
    argv = flag.split() + [str(p)]
    if argv[0] == "gen-synth":
        argv += ["--out-prefix", str(tmp_path / "x")]
    assert main(argv) == 2
    assert f"{p} is not valid JSON: " in one_error_line(capsys)
    assert sorted(q.name for q in tmp_path.iterdir()) == ["in.json"]


@pytest.mark.parametrize("field,value", [
    ("d", 8.5),
    ("d", True),
    ("rng_seed", 1.5),
    ("center_seed", 2.5),
    ("per_class_counts", [1.5, 3]),
    ("std", True),
    ("std", "1"),
    ("std", [1.0, "2", 1.0]),
    ("separation", True),
    # the JSON reader accepts NaN and Infinity
    ("std", math.nan),
    ("std", [1.0, math.inf, 1.0]),
    pytest.param("std", 10**400, id="std-huge-int"),
    ("separation", math.inf),
    ("centers", [[0, 0, 0], [0, math.nan, 0], [1, 1, 1]]),
    ("centers", [[0, 0, 0], [0, True, 0], [1, 1, 1]]),
    ("centers", [[0, 0, 0], [0, "1", 0], [1, 1, 1]]),
])
def test_gen_synth_non_integer_field_exits_2(tmp_path, capsys, field, value):
    spec = synth_spec(tmp_path, **{field: value})
    capsys.readouterr()
    rc = main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and err.count("\n") == 1
    assert str(spec) in err and f"{field} must be a" in err
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


def test_histogram_index_beyond_labels_exits_2(tmp_path, capsys):
    order = tmp_path / "order.csv"
    order.write_text("# seed_count=1\n0\n1\n2\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    rc = main([
        "histogram", "--order", str(order), "--labels", str(labels),
        "--budget", "3", "--out", str(tmp_path / "h.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "order index 2" in err and "2 labels" in err and "internal" not in err
    assert not (tmp_path / "h.csv").exists()


def test_histogram_index_beyond_labels_names_the_order_line_and_label_file(tmp_path, capsys):
    # the order file's comment and blank lines count in its line numbers
    order = tmp_path / "o.csv"
    order.write_text("# seed_count=1\n0\n\n# note\n1\n7\n2\n")
    labels = tmp_path / "l.csv"
    labels.write_text("0\n1\n2\n")
    assert main(["histogram", "--order", str(order), "--labels", str(labels),
                 "--budget", "4", "--out", str(tmp_path / "h.csv")]) == 2
    assert one_error_line(capsys) == (
        f"coarseset: error: {order}: line 6: order index 7 is out of range for the 3 labels "
        f"of {labels}\n"
    )
    assert not (tmp_path / "h.csv").exists()
    # a prefix that stops short of the index is counted
    assert main(["histogram", "--order", str(order), "--labels", str(labels),
                 "--budget", "2", "--out", str(tmp_path / "h.csv")]) == 0


def test_order_file_with_negative_index_exits_2(tmp_path, capsys):
    order = tmp_path / "order.csv"
    order.write_text("# seed_count=1\n0\n-1\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    rc = main([
        "histogram", "--order", str(order), "--labels", str(labels),
        "--budget", "2", "--out", str(tmp_path / "h.csv"),
    ])
    assert rc == 2
    assert f"{order}: line 3: index -1 is negative" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("raw,message", [
    (b"# seed_count=1\n0\n\xff\n", "line 3: not UTF-8 text"),
    (b"# seed_count=1\n0\n99999999999999999999999\n", "line 3: index 99999999999999999999999"),
    (b"# seed_count=1\n# seed_count=3\n0\n1\n2\n",
     "line 2: repeats the seed_count comment of line 1"),
])
def test_hostile_order_file_exits_2(tmp_path, capsys, raw, message):
    order = tmp_path / "order.csv"
    order.write_bytes(raw)
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    rc = main([
        "histogram", "--order", str(order), "--labels", str(labels),
        "--budget", "1", "--out", str(tmp_path / "h.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{order}: {message}" in err and "internal" not in err
    assert not (tmp_path / "h.csv").exists()


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
    ("methods", ",", "method"),
    ("out", {"dir": "s"}, "out must not be a JSON object"),
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


# a flag's type -> (a JSON config value, the same setting on the command line)
FLAG_VALUES = {
    int: (3, "3"),
    float: (0.5, "0.5"),
    _int_list: ([4, 5], "4,5"),
    _str_list: (["random", "fixed_feature"], "random,fixed_feature"),
    None: ("from-config", "from-config"),
}


def without_config(args):
    return {key: value for key, value in vars(args).items() if key != "config"}


def test_every_flag_reads_from_config_and_help_shows_defaults(tmp_path):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "subcommand").choices
    path = tmp_path / "cfg.json"
    for sub in SUBCOMMANDS:
        actions = [
            action for action in subparsers[sub]._actions
            if action.option_strings and action.dest not in ("help", "config")
        ]
        help_text = " ".join(subparsers[sub].format_help().split())
        for action in actions:
            if action.choices:
                config_value = flag_value = list(action.choices)[-1]
            else:
                config_value, flag_value = FLAG_VALUES[action.type]
            path.write_text(json.dumps({action.dest: config_value}))
            from_config = parse_args([sub, "--config", str(path)])
            from_flag = parse_args([sub, action.option_strings[0], flag_value])
            assert without_config(from_config) == without_config(from_flag), (sub, action.dest)
            assert getattr(from_flag, action.dest) != action.default, (sub, action.dest)
            if action.default is not None:
                assert f"(default {action.default})" in help_text, (sub, action.dest)
    # one config file serves order and select: order accepts `budget` and ignores it
    path.write_text(json.dumps({"budget": 5}))
    from_config = parse_args(["order", "--config", str(path)])
    assert without_config(from_config) == without_config(parse_args(["order"]))


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


def test_sweep_resume_refuses_a_run_json_nested_too_deep(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    run = tmp_path / "s" / "run.json"
    run.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    results = (tmp_path / "s" / "results.csv").read_bytes()
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert f"cannot read {run}: " in one_error_line(capsys)
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


@pytest.mark.parametrize("argv,needle", [
    (["sweep", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (["select", "--budget", "5.9"], "argument --budget: invalid int value: '5.9'"),
    (["sweep", "--budgets", "6,x"], "argument --budgets: not comma-separated integers"),
    (["order", "--metric", "manhattan"], "argument --metric: invalid choice: 'manhattan'"),
    (["order", "--budget", "5"], "unrecognized arguments: --budget 5"),
    (["histogram", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
])
def test_bad_flag_is_one_error_line(capsys, argv, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("coarseset: error:") and captured.err.count("\n") == 1
    assert needle in captured.err


@pytest.mark.parametrize("sub,config,needle", [
    ("gen-synth", {"spec": 0, "out_prefix": "x"}, "cannot read spec 0"),
    ("order", {"embeddings": 7, "out": "o.csv"}, "cannot read embeddings from 7:"),
])
def test_config_number_as_input_path_names_a_file(tmp_path, capsys, monkeypatch, sub, config,
                                                  needle):
    # the number is the file name --spec=0 or --embeddings=7 gives, not a
    # file descriptor; there is no such file here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main([sub, "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and needle in err and "internal" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sweep_config_out_number_names_a_directory(tmp_path, monkeypatch):
    cfg = sweep_config(tmp_path, out=7)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", "s"]) == 0
    for name in ("results.csv", "summary.csv", "run.json"):
        assert (tmp_path / "7" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()


def test_config_null_leaves_a_setting_at_its_default(tmp_path):
    path = tmp_path / "cfg.json"
    for sub in SUBCOMMANDS:
        unset = parse_args([sub])
        path.write_text(json.dumps(dict.fromkeys(unset.settings)))
        assert without_config(parse_args([sub, "--config", str(path)])) == without_config(unset)


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would add lines
@pytest.mark.parametrize("learning_rate", ["1e30", "1e300"])
def test_sweep_diverging_learning_rate_exits_2(tmp_path, capsys, learning_rate):
    cfg = sweep_config(tmp_path)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--learning-rate", learning_rate]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and err.count("\n") == 1
    assert f"learning_rate {float(learning_rate)!r} is too large" in err
    assert not (tmp_path / "s" / "results.csv").exists()


@pytest.mark.parametrize("learning_rate", ["nan", "inf"])
def test_sweep_non_finite_learning_rate_exits_2(tmp_path, capsys, learning_rate):
    cfg = sweep_config(tmp_path)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--learning-rate", learning_rate]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coarseset: error:") and err.count("\n") == 1
    assert f"learning_rate must be finite and > 0, got {learning_rate}" in err
    assert not (tmp_path / "s").exists()


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("coarseset: error:") and captured.err.count("\n") == 1
    assert "internal" not in captured.err
    return captured.err


def test_seed_at_or_past_2_64_exits_2(emb_file, tmp_path, capsys, monkeypatch):
    # masked to 64 bits, seed 2**64 + 3 would write the bytes of seed 3
    out = tmp_path / "o.csv"
    for seed in (2**64, 2**64 + 3):
        assert main(["order", "--embeddings", str(emb_file), "--out", str(out),
                     "--rng-seed", str(seed)]) == 2
        assert f"must be below 2**64, got {seed}" in one_error_line(capsys)
    monkeypatch.setenv("COARSESET_RNG_SEED", str(2**64))
    assert main(["order", "--embeddings", str(emb_file), "--out", str(out)]) == 2
    assert "$COARSESET_RNG_SEED) must be below 2**64" in one_error_line(capsys)
    assert not out.exists()
    assert main(["order", "--embeddings", str(emb_file), "--out", str(out),
                 "--rng-seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("field", ["rng_seed", "center_seed"])
def test_gen_synth_seed_past_2_64_exits_2(tmp_path, capsys, field):
    spec = synth_spec(tmp_path, **{field: 2**64})
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "d")]) == 2
    assert f"{field} must be below 2**64, got {2**64}" in one_error_line(capsys)
    assert not (tmp_path / "d.emb").exists()


def test_sweep_trial_seed_past_2_64_exits_2(tmp_path, capsys):
    # trial 1 would take seed 2**64, which a 64-bit seed reads as 0
    cfg = sweep_config(tmp_path, trials=2)
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--rng-seed", str(2**64 - 1)]) == 2
    assert "trial 1's seed" in one_error_line(capsys)
    assert not (tmp_path / "s").exists()


def test_embeddings_csv_nan_names_file_and_line(tmp_path, capsys):
    emb = tmp_path / "nan.csv"
    emb.write_text("0,0\n\n1,nan\n")
    assert main(["order", "--embeddings", str(emb), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"{emb}: line 3: non-finite embedding value" in one_error_line(capsys)


def test_histogram_label_beyond_num_classes_names_file_and_line(tmp_path, capsys):
    order = tmp_path / "order.csv"
    order.write_text("# seed_count=1\n0\n1\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n5\n")
    assert main(["histogram", "--order", str(order), "--labels", str(labels), "--budget", "2",
                 "--num-classes", "3", "--out", str(tmp_path / "h.csv")]) == 2
    assert f"{labels}: line 2: label 5 exceeds num_classes=3" in one_error_line(capsys)


@pytest.mark.parametrize("num_classes", ["0", "-3"])
def test_histogram_num_classes_below_1_is_a_usage_error(tmp_path, capsys, num_classes):
    # refused before any file is read: the order and label files do not exist
    out = tmp_path / "h.csv"
    assert main(["histogram", "--order", str(tmp_path / "order.csv"), "--labels",
                 str(tmp_path / "l.csv"), "--budget", "2", "--num-classes", num_classes,
                 "--out", str(out)]) == 2
    assert one_error_line(capsys) == (
        f"coarseset: error: --num-classes must be >= 1, got {num_classes}\n"
    )
    assert not out.exists()


def test_histogram_num_classes_above_max_classes_is_a_usage_error(tmp_path, capsys):
    # refused before any file is read, as the flag's lower bound is
    out = tmp_path / "h.csv"
    assert main(["histogram", "--order", str(tmp_path / "order.csv"), "--labels",
                 str(tmp_path / "l.csv"), "--budget", "2", "--num-classes", "70000",
                 "--out", str(out)]) == 2
    assert one_error_line(capsys) == "coarseset: error: --num-classes must be <= 65536, got 70000\n"
    assert not out.exists()


def pool_files(tmp_path, name, **overrides):
    """A 90-point, 3-class pool written as <name>.emb and <name>.lab."""
    spec = synth_spec(tmp_path, f"{name}.json", per_class_counts=[30, 30, 30], d=4,
                      separation=6.0, rng_seed=1, center_seed=5)
    spec.write_text(json.dumps({**json.loads(spec.read_text()), **overrides}))
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / name)]) == 0
    return [str(tmp_path / f"{name}.{ext}") for ext in ("emb", "lab")]


def test_sweep_test_embeddings_of_another_d_exits_2_before_run_json(tmp_path, capsys):
    train, test = pool_files(tmp_path, "train"), pool_files(tmp_path, "test", d=5)
    out = tmp_path / "d1"
    argv = ["sweep", "--train-emb", train[0], "--train-lab", train[1], "--test-emb", test[0],
            "--test-lab", test[1], "--budgets", "5,10", "--trials", "1", "--epochs", "2",
            "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "train embeddings have d=4, test embeddings have d=5" in one_error_line(capsys)
    assert not out.exists()
    short = tmp_path / "short.csv"
    short.write_text("0\n1\n")
    argv[argv.index("--test-emb") + 1:argv.index("--test-lab") + 2] = [train[0], "--test-lab",
                                                                         str(short)]
    assert main(argv) == 2
    assert "test labels and embeddings disagree on n: 2 labels, 90 points" in one_error_line(
        capsys)
    assert not out.exists()


def test_cosine_sweep_names_the_round_whose_proxy_features_are_zero(tmp_path, capsys):
    # one hidden ReLU unit maps some point to 0 in a core-set round; the
    # refusal names that round, not an input row, and keeps the rows written
    train = pool_files(tmp_path, "train")
    out = tmp_path / "c1"
    capsys.readouterr()
    assert main(["sweep", "--train-emb", train[0], "--train-lab", train[1],
                 "--test-emb", train[0], "--test-lab", train[1], "--metric", "cosine",
                 "--hidden", "1", "--budgets", "10,20,30", "--trials", "2", "--epochs", "3",
                 "--out", str(out)]) == 2
    assert ("coarseset: error: coreset_iterative, trial 0, budget 20: the proxy's hidden "
            "features of point 1 are all zero, which the cosine metric rejects"
            ) in one_error_line(capsys)
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and {row.split(",")[1] for row in rows} == {"10"}


@pytest.mark.parametrize("fmt,where", [("csv", "line 2"), ("emb", "row 1")])
def test_cosine_zero_point_names_file_and_place(tmp_path, capsys, fmt, where):
    pts = np.array([[1, 1], [0, 0], [2, 3], [4, 1], [1, 5]], dtype=np.float32)
    path = tmp_path / f"zero.{fmt}"
    if fmt == "csv":
        path.write_text("1,1\n0,0\n2,3\n4,1\n1,5\n")
    else:
        save_embeddings(EmbeddingMatrix(pts), path)
    message = f"{path}: {where}: all-zero point, which the cosine metric rejects"
    out = tmp_path / "o.csv"
    for extra in ([], ["--budget", "3"]):
        sub = "select" if extra else "order"
        assert main([sub, "--embeddings", str(path), "--out", str(out), "--metric", "cosine",
                     *extra]) == 2
        assert message in one_error_line(capsys)
        assert not out.exists()
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n0\n1\n0\n")
    sweep = ["sweep", "--train-emb", str(path), "--train-lab", str(labels),
             "--test-emb", str(path), "--test-lab", str(labels), "--metric", "cosine",
             "--budgets", "2,3", "--trials", "1", "--epochs", "2", "--out", str(tmp_path / "s")]
    assert main(sweep) == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "s").exists()
    # without fixed_feature no distance is taken between input points
    assert main(sweep + ["--methods", "random"]) == 0


def test_sweep_default_schedule_on_a_5_point_pool_asks_for_budgets(tmp_path, capsys):
    pts, labels = tmp_path / "five.csv", tmp_path / "five_lab.csv"
    pts.write_text("1,1\n2,3\n1,0\n4,1\n0,2\n")
    labels.write_text("0\n1\n0\n1\n0\n")
    out = tmp_path / "f1"
    assert main(["sweep", "--train-emb", str(pts), "--train-lab", str(labels),
                 "--test-emb", str(pts), "--test-lab", str(labels), "--trials", "1",
                 "--epochs", "2", "--out", str(out)]) == 2
    err = one_error_line(capsys)
    assert "2%..40% of n in 9 steps, needs at least 9 points; the pool has 5" in err
    assert "pass --budgets" in err and "budget 9" not in err
    assert not out.exists()


# a spec whose points overflow float32: separation or a center past its
# range, or a std past float64's, whose points overflow in the multiply
OVERFLOWING_SPECS = {
    "separation": dict(separation=1e308),
    "centers": dict(per_class_counts=[3, 3], d=2, centers=[[1e39, 0], [0, 0]]),
    "std": dict(std=1e308),
    "std-and-separation": dict(std=1e308, separation=1e308),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides", OVERFLOWING_SPECS.values(), ids=OVERFLOWING_SPECS.keys())
def test_gen_synth_of_points_past_float32_exits_2_naming_the_spec(tmp_path, capsys, overrides):
    spec = synth_spec(tmp_path, **overrides)
    capsys.readouterr()
    assert main(["gen-synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "x")]) == 2
    err = one_error_line(capsys)
    assert err.startswith(f"coarseset: error: invalid mixture spec {spec}: non-finite ")
    assert sorted(q.name for q in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_sweep_out_that_cannot_be_a_directory_exits_2_naming_it(tmp_path, capsys, out):
    train = pool_files(tmp_path, "train")
    (tmp_path / "afile").write_bytes(b"kept")
    capsys.readouterr()
    assert main(["sweep", "--train-emb", train[0], "--train-lab", train[1],
                 "--test-emb", train[0], "--test-lab", train[1], "--budgets", "5,10",
                 "--trials", "1", "--epochs", "2", "--out", str(tmp_path / out)]) == 2
    assert f"coarseset: error: cannot create directory {tmp_path / out}: " in one_error_line(
        capsys)
    assert (tmp_path / "afile").read_bytes() == b"kept"
