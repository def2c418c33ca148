import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import apply_update, relu_backward_grads

from coarseset.errors import (
    DimensionMismatch,
    EmptySubset,
    IndexOutOfRange,
    NonFiniteValue,
)
from coarseset.proxy import (
    MlpModel,
    TrainConfig,
    _forward,
    _grads,
    _init_params,
    _loss_and_grads,
    accuracy,
    cross_entropy,
    extract_features,
    gradient_check,
    make_probe,
    softmax,
    train,
    train_group,
)
from coarseset.rng import Rng
from coarseset.store import EmbeddingMatrix, LabelVector
from coarseset.synth import MixtureSpec, generate


def as64(params):
    return [p.astype(np.float64) for p in params]


def two_point_problem():
    e = EmbeddingMatrix(np.array([[-1.0, 0.0], [1.0, 0.0]], dtype=np.float32))
    labels = LabelVector.from_labels([0, 1])
    return e, labels


def test_separable_two_points_reach_perfect_training_accuracy():
    e, labels = two_point_problem()
    # seed 0 initializes every hidden unit dead for one input; any other seed converges
    cfg = TrainConfig(epochs=200, batch_size=2, learning_rate=0.1, rng_seed=1, hidden=4)
    model = train(e, labels, [0, 1], cfg)
    assert accuracy(model, e, labels) == 1.0


def test_training_is_bitwise_deterministic():
    e, labels = two_point_problem()
    cfg = TrainConfig(epochs=50, batch_size=1, learning_rate=0.1, rng_seed=3, hidden=4)
    a = train(e, labels, [0, 1], cfg)
    b = train(e, labels, [0, 1], cfg)
    for pa, pb in zip((a.w1, a.b1, a.w2, a.b2), (b.w1, b.b1, b.w2, b.b2)):
        assert pa.tobytes() == pb.tobytes()


def test_loss_decreases_on_separable_toy():
    e, labels = two_point_problem()
    cfg = TrainConfig(epochs=100, batch_size=2, learning_rate=0.1, rng_seed=1, hidden=4)
    params = _init_params(Rng(cfg.rng_seed), e.d, cfg.hidden, 2, np.float32)
    x = e.data.astype(np.float64)
    y = labels.labels
    initial, _ = _loss_and_grads(as64(params), x, y)
    model = train(e, labels, [0, 1], cfg)
    final, _ = _loss_and_grads(as64([model.w1, model.b1, model.w2, model.b2]), x, y)
    assert np.isfinite(final)
    assert final < initial


def test_synth_clusters_train_accurately():
    emb, lab = generate(MixtureSpec([40] * 3, d=4, separation=8.0, center_seed=1, rng_seed=2))
    model = train(emb, lab, list(range(30)), TrainConfig(rng_seed=5))
    assert accuracy(model, emb, lab) > 0.9


def test_subset_validation():
    e, labels = two_point_problem()
    with pytest.raises(EmptySubset):
        train(e, labels, [], TrainConfig())
    with pytest.raises(IndexOutOfRange):
        train(e, labels, [2], TrainConfig())


def test_softmax_rows_are_probabilities():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=20.0, size=(50, 7))
    p = softmax(logits)
    assert (p >= 0.0).all()
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6


def test_cross_entropy_of_confident_correct_logits_approaches_zero():
    y = np.array([0, 1])
    for scale in (10.0, 100.0, 1000.0):
        logits = scale * np.eye(2)[y]
        assert cross_entropy(logits, y) < np.exp(-scale + 1.0) + 1e-12


def test_zero_learning_rate_step_is_identity():
    params = _init_params(Rng(2), 3, 4, 2, np.float32)
    x = np.random.default_rng(1).normal(size=(6, 3))
    y = np.array([0, 1, 0, 1, 1, 0])
    _, grads = _loss_and_grads(as64(params), x, y)
    updated = apply_update(params, grads, 0.0)
    for p, u in zip(params, updated):
        assert p.tobytes() == u.tobytes()


def test_gradient_check_small_probes():
    cfg = TrainConfig(hidden=3, rng_seed=11)
    for t in range(5):
        probe = make_probe(cfg, seed=500 + t)
        assert gradient_check(cfg, probe) < 1e-4


def test_extract_features_shapes_and_relu():
    e, labels = two_point_problem()
    model = train(e, labels, [0, 1], TrainConfig(epochs=5, rng_seed=0, hidden=6))
    feats = extract_features(model, e)
    assert (feats.n, feats.d) == (2, 6)
    assert (feats.data >= 0.0).all()

    zero_model = MlpModel(
        w1=np.zeros((3, 2), np.float32),
        b1=np.zeros(3, np.float32),
        w2=np.zeros((2, 3), np.float32),
        b2=np.zeros(2, np.float32),
    )
    assert (extract_features(zero_model, e).data == 0.0).all()


def test_identity_weights_pass_nonnegative_input_through():
    x = np.array([[0.5, 2.0], [0.0, 1.0]], dtype=np.float32)
    e = EmbeddingMatrix(x)
    model = MlpModel(
        w1=np.eye(2, dtype=np.float32),
        b1=np.zeros(2, np.float32),
        w2=np.zeros((2, 2), np.float32),
        b2=np.zeros(2, np.float32),
    )
    assert np.array_equal(extract_features(model, e).data, x)


def test_extract_features_dimension_mismatch():
    e, labels = two_point_problem()
    model = train(e, labels, [0, 1], TrainConfig(epochs=1))
    other = EmbeddingMatrix(np.ones((2, 3), dtype=np.float32))
    with pytest.raises(DimensionMismatch):
        extract_features(model, other)
    with pytest.raises(DimensionMismatch):
        accuracy(model, other, labels)


def test_uniform_logits_tie_break_to_class_zero():
    e = EmbeddingMatrix(np.ones((3, 2), dtype=np.float32))
    labels = LabelVector.from_labels([0, 0, 0], num_classes=2)
    uniform = MlpModel(
        w1=np.zeros((4, 2), np.float32),
        b1=np.zeros(4, np.float32),
        w2=np.zeros((2, 4), np.float32),
        b2=np.zeros(2, np.float32),
    )
    assert accuracy(uniform, e, labels) == 1.0


def test_parameters_finite_after_training():
    emb, lab = generate(MixtureSpec([30] * 2, d=3, separation=5.0, rng_seed=8))
    model = train(emb, lab, list(range(20)), TrainConfig(rng_seed=2))
    for p in (model.w1, model.b1, model.w2, model.b2):
        assert np.isfinite(p).all()


@pytest.mark.filterwarnings("error")  # overflow must not reach numpy's warnings
@pytest.mark.parametrize("learning_rate", [1e30, 1e300])
def test_diverging_training_names_the_learning_rate(learning_rate):
    emb, lab = generate(MixtureSpec([30] * 2, d=3, separation=5.0, rng_seed=8))
    cfg = TrainConfig(epochs=2, learning_rate=learning_rate)
    message = re.escape(f"learning_rate {learning_rate!r} is too large")
    with pytest.raises(NonFiniteValue, match=message):
        train(emb, lab, list(range(20)), cfg)


def test_diverging_group_stops_at_its_first_epoch(monkeypatch):
    # each of the 4 seeds shuffles once per epoch; 40 points are two steps
    # per epoch, after which the parameters are no longer finite
    emb, lab = generate(MixtureSpec([30] * 2, d=3, separation=5.0, rng_seed=8))
    shuffles = []
    real_shuffle = Rng.shuffle

    def counting(rng, items):
        shuffles.append(len(items))
        real_shuffle(rng, items)

    monkeypatch.setattr(Rng, "shuffle", counting)
    cfg = TrainConfig(epochs=100, learning_rate=1e30)
    with pytest.raises(NonFiniteValue, match=re.escape("learning_rate 1e+30 is too large")):
        train_group(emb, lab, [range(k, k + 40) for k in range(4)], cfg, [0, 1, 2, 3])
    assert len(shuffles) == 4


def test_feature_trainer_contract():
    emb, lab = generate(MixtureSpec([20] * 2, d=3, separation=6.0, rng_seed=9))
    cfg = TrainConfig(epochs=10, rng_seed=0, hidden=5)
    feats = extract_features(train(emb, lab, list(range(10)), cfg), emb)
    assert isinstance(feats, EmbeddingMatrix)
    assert (feats.n, feats.d) == (emb.n, 5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for learning_rate in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="rng_seed must be non-negative, got -1"):
        TrainConfig(rng_seed=-1)
    with pytest.raises(ValueError, match=r"rng_seed must be below 2\*\*64, got 18446744073709551616"):
        TrainConfig(rng_seed=2**64)


def test_train_config_holds_python_ints():
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), rng_seed=np.uint64(7),
                      hidden=np.int64(3))
    assert cfg == TrainConfig(epochs=2, batch_size=4, rng_seed=7, hidden=3)
    fields = ("epochs", "batch_size", "rng_seed", "hidden")
    assert all(type(getattr(cfg, f)) is int for f in fields)
    # refused at once, not truncated, and not a batch of one
    for field, value in (("epochs", 2.5), ("hidden", 2.5), ("batch_size", True),
                         ("rng_seed", 1.0)):
        with pytest.raises(TypeError, match=f"{field} must be an integer, got {value!r}"):
            TrainConfig(**{field: value})


def test_forward_hidden_matches_extract_features():
    e, labels = two_point_problem()
    model = train(e, labels, [0, 1], TrainConfig(epochs=3, rng_seed=4))
    _, hidden, _ = _forward(
        as64([model.w1, model.b1, model.w2, model.b2]), e.data.astype(np.float64)
    )
    assert np.array_equal(
        extract_features(model, e).data, hidden.astype(np.float32)
    )


# --- bit-identity of the lean training loop ---------------------------------

def reference_train(e, labels, subset, cfg):
    """The straightforward SGD loop `train` is an optimisation of: casts every
    param to float64 in the forward pass, computes and discards the loss on
    every step, gathers each batch by list indexing, and rounds the update
    back to float32 through `apply_update`. Same init and shuffle stream."""
    idx = [int(i) for i in subset]
    x_pool = e.data[idx].astype(np.float64)
    y_pool = labels.labels[idx]
    rng = Rng(cfg.rng_seed)
    params = [
        np.asarray([rng.uniform(-b, b) for _ in range(rows * cols)], dtype=np.float32)
        .reshape(shape)
        for rows, cols, b, shape in (
            (cfg.hidden, e.d, 1.0 / np.sqrt(e.d), (cfg.hidden, e.d)),
            (1, cfg.hidden, 1.0 / np.sqrt(e.d), (cfg.hidden,)),
            (labels.num_classes, cfg.hidden, 1.0 / np.sqrt(cfg.hidden),
             (labels.num_classes, cfg.hidden)),
            (1, labels.num_classes, 1.0 / np.sqrt(cfg.hidden), (labels.num_classes,)),
        )
    ]
    m = len(idx)
    positions = list(range(m))
    for _ in range(cfg.epochs):
        n = len(positions)
        for i in range(n - 1):
            j = i + rng.below(n - i)
            positions[i], positions[j] = positions[j], positions[i]
        for start in range(0, m, cfg.batch_size):
            batch = positions[start : start + cfg.batch_size]
            x, y = x_pool[batch], y_pool[batch]
            w1, b1, w2, b2 = (p.astype(np.float64) for p in params)
            z1 = x @ w1.T + b1
            hidden = np.maximum(z1, 0.0)
            logits = hidden @ w2.T + b2
            cross_entropy(logits, y)
            w2 = params[2].astype(np.float64)
            dlogits = softmax(logits)
            dlogits[np.arange(len(batch)), y] -= 1.0
            dlogits /= len(batch)
            dw2 = dlogits.T @ hidden
            db2 = dlogits.sum(axis=0)
            dz1 = np.where(z1 > 0.0, dlogits @ w2, 0.0)
            grads = [dz1.T @ x, dz1.sum(axis=0), dw2, db2]
            params = apply_update(params, grads, cfg.learning_rate)
    return MlpModel(*params)


TRAIN_CASES = [
    # (pool per class, subset, TrainConfig)
    (20, range(0, 60, 1), TrainConfig(epochs=7, batch_size=1, rng_seed=3, hidden=32)),
    (20, range(0, 12, 1), TrainConfig(epochs=20, batch_size=32, rng_seed=4, hidden=32)),
    (30, range(5, 75, 1), TrainConfig(epochs=15, batch_size=32, rng_seed=5, hidden=32)),
    (30, range(0, 90, 3), TrainConfig(epochs=12, batch_size=7, rng_seed=6, hidden=9)),
    (40, range(0, 100, 1), TrainConfig(epochs=10, batch_size=16, rng_seed=7, hidden=48,
                                       learning_rate=0.2)),
]


@pytest.mark.parametrize("per_class,subset,cfg", TRAIN_CASES)
def test_train_is_bit_identical_to_reference_loop(per_class, subset, cfg):
    emb, lab = generate(MixtureSpec([per_class] * 3, d=5, separation=4.0, rng_seed=12))
    subset = list(subset)
    got = train(emb, lab, subset, cfg)
    want = reference_train(emb, lab, subset, cfg)
    for name in ("w1", "b1", "w2", "b2"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype == np.float32
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("per_class,subset,cfg", TRAIN_CASES)
def test_feature_trainer_is_bit_identical_to_reference_loop(per_class, subset, cfg):
    emb, lab = generate(MixtureSpec([per_class] * 3, d=5, separation=4.0, rng_seed=12))
    subset = list(subset)
    feats = extract_features(train(emb, lab, subset, cfg), emb)
    want = reference_train(emb, lab, subset, cfg)
    x = emb.data.astype(np.float64)
    hidden = np.maximum(x @ want.w1.astype(np.float64).T + want.b1.astype(np.float64), 0.0)
    assert feats.data.tobytes() == hidden.astype(np.float32).tobytes()


def reversed_every_other(subset):
    """Unsorted: every second index taken from the back."""
    return subset[::2] + subset[1::2][::-1]


GROUP_CASES = [
    # (pool per class, subset length, B, TrainConfig)
    (20, 12, 1, TrainConfig(epochs=9, batch_size=32, rng_seed=21, hidden=32)),  # m < batch
    (30, 40, 3, TrainConfig(epochs=8, batch_size=7, rng_seed=22, hidden=9)),  # m % batch != 0
    (30, 20, 4, TrainConfig(epochs=12, batch_size=1, rng_seed=23, hidden=32)),
    (40, 64, 4, TrainConfig(epochs=6, batch_size=16, rng_seed=24, hidden=48,
                            learning_rate=0.2)),
    (40, 100, 3, TrainConfig(epochs=5, batch_size=32, rng_seed=25, hidden=32)),
]

# per-member seed offsets from cfg.rng_seed, by B: 2 or 3 seeds, in an
# order that does not group the members by seed
SEED_OFFSETS = {1: (3,), 3: (1, 0, 1), 4: (2, 0, 1, 0)}


@pytest.mark.parametrize("per_class,m,members,cfg", GROUP_CASES)
def test_train_group_is_bit_identical_to_reference_loop(per_class, m, members, cfg):
    emb, lab = generate(MixtureSpec([per_class] * 3, d=5, separation=4.0, rng_seed=12))
    rng = Rng(cfg.rng_seed + 1000)
    # mixed members: sorted and unsorted draws, and the same points in two orders
    drawn = [rng.sample(emb.n, m) for _ in range(members)]
    subsets = [sorted(s) if b % 2 == 0 else s for b, s in enumerate(drawn)]
    if members > 1:
        subsets[-1] = reversed_every_other(sorted(subsets[0]))
    seeds = [cfg.rng_seed + k for k in SEED_OFFSETS[members]]
    for member_seeds in ([cfg.rng_seed] * members, seeds):
        models = train_group(emb, lab, subsets, cfg, member_seeds)
        assert len(models) == members
        for subset, seed, got in zip(subsets, member_seeds, models):
            want = reference_train(emb, lab, subset, replace(cfg, rng_seed=seed))
            for name in ("w1", "b1", "w2", "b2"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype == np.float32
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes(), (seed, name)


def test_train_group_validation():
    emb, lab = generate(MixtureSpec([10] * 2, d=3, separation=4.0, rng_seed=3))
    cfg = TrainConfig(epochs=1)
    assert train_group(emb, lab, [], cfg, []) == []
    with pytest.raises(DimensionMismatch, match="one length"):
        train_group(emb, lab, [[0, 1, 2], [3, 4]], cfg, [0, 0])
    with pytest.raises(EmptySubset):
        train_group(emb, lab, [[0, 1], []], cfg, [0, 0])
    with pytest.raises(IndexOutOfRange):
        train_group(emb, lab, [[0, 1], [2, emb.n]], cfg, [0, 0])
    with pytest.raises(IndexOutOfRange, match="subset index -1 outside"):
        train_group(emb, lab, [np.array([0, 1]), np.array([2, -1])], cfg, [0, 0])
    with pytest.raises(DimensionMismatch, match="1 seeds for 2 subsets"):
        train_group(emb, lab, [[0, 1], [2, 3]], cfg, [4])
    with pytest.raises(ValueError, match="non-negative"):
        train_group(emb, lab, [[0, 1], [2, 3]], cfg, [4, -1])
    with pytest.raises(ValueError, match=r"rng_seed must be below 2\*\*64"):
        train_group(emb, lab, [[0, 1], [2, 3]], cfg, [4, 2**64])
    short = LabelVector.from_labels(lab.labels[:-1])
    with pytest.raises(DimensionMismatch, match=f"labels cover {emb.n - 1} points"):
        train_group(emb, short, [[0, 1]], cfg, [0])
    model = train(emb, lab, [0, 1], cfg)
    with pytest.raises(DimensionMismatch, match=f"labels cover {emb.n - 1} points"):
        accuracy(model, emb, short)


@pytest.mark.parametrize("stack", [(), (3,)])
def test_grads_mask_matches_the_where_reference_bitwise(stack):
    # hidden units that are off (z1 <= 0, some exactly 0) while their
    # upstream gradient is negative, where 0.0 times the gradient is -0.0
    # and np.where writes +0.0. Unit 0 is off on every row with a negative
    # gradient on every row, so its dW1 row and db1 entry are sums of masked
    # entries only and must come out +0.0, as in the reference.
    rng = np.random.default_rng(5)
    d, h, c, batch = 4, 6, 3, 5
    x = rng.normal(size=stack + (batch, d))
    x[..., 0, :] = 0.0  # z1 == b1 on the first row
    w1 = rng.normal(size=stack + (h, d))
    w1[..., 0, :] = 0.0
    b1 = rng.normal(size=stack + (h,))
    b1[..., 0] = -1.0
    b1[..., 1:3] = 0.0
    w2 = rng.normal(size=stack + (c, h))
    w2[..., :, 0] = 0.0
    w2[..., 0, 0] = 1.0  # unit 0's upstream gradient is p0 - 1 < 0 for label 0
    b2 = rng.normal(size=stack + (c,))
    params64 = [w1, b1, w2, b2]
    target = np.eye(c)[np.zeros(stack + (batch,), dtype=np.int64)]

    z1 = x @ np.swapaxes(w1, -1, -2) + b1[..., None, :]
    probs = softmax(z1.clip(0.0) @ np.swapaxes(w2, -1, -2) + b2[..., None, :])
    dhidden = (probs - target) / batch @ w2
    assert ((z1[..., 0] < 0.0) & (dhidden[..., 0] < 0.0)).all()
    assert (z1 == 0.0).any()

    _, got = _grads(params64, x, target)
    want = relu_backward_grads(params64, x, target)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert not np.signbit(got[0][..., 0, :]).any() and not np.signbit(got[1][..., 0]).any()
