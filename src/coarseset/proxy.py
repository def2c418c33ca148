"""One-hidden-layer softmax classifier used as the desk-scale proxy.

Supplies (a) test accuracy for budget sweeps and (b) hidden-layer ReLU
activations, which stand in for the pre-final-layer features the iterative
core-set baseline retrains on. Everything is hand-written numpy so the
backward pass can be audited against finite differences (gradient_check).

A model stores float32 weights; all arithmetic is float64. Training is
plain mini-batch SGD and fully deterministic given its config and its seed
(init and per-epoch shuffles come from one Rng stream: W1 row-major, b1, W2
row-major, b2, each uniform in +-1/sqrt(fan_in), then one Fisher-Yates
shuffle of the subset positions per epoch). A ``TrainConfig`` holds every
other setting (epochs, batch size, learning rate, hidden width), the ones a
sweep's run.json records; the seed is an argument of its own, as in
``train(e, labels, subset, cfg, seed)``.

Training is grouped: ``train_group`` trains one model per subset for B
subsets of one length under one config, member i under seeds[i]. The
members that share a seed share one Rng: their init and per-epoch
permutations are identical, so they are drawn once per seed, and each
epoch orders every member's subset through its seed's permutation. Each SGD
step then runs as stacked ``(B, k, .)`` matmuls and reductions over the B
members. No member's arithmetic reads another's, so every model is
byte-identical to training its subset alone under its seed; ``train`` is
the group of one.

``_forward`` and ``_grads`` (the one backward pass, shared by training and
``gradient_check``) take any number of leading stack dimensions. Training
keeps the stacked params in the float32 buffers ``_init_params`` returns:
every matmul and add promotes them to float64 exactly, and each SGD step
subtracts ``lr * grad`` in float64 and rounds the result into the buffers
in place, so every step reads exactly what a model stores, and the models
are views of the buffers. Each epoch orders the members' subset indices
and labels, and each step gathers its batch's embedding rows and one-hot
targets, so a group holds its subsets as indices only: a wider group adds
members x subset length x 16 bytes, not copies of the rows. Training stops
at the end of the first epoch that leaves a param inf or NaN, which no
later step makes finite, with an error naming the learning rate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySubset,
    IndexOutOfRange,
    NonFiniteValue,
    check_int,
    check_real,
    check_seed,
)
from .rng import Rng
from .store import EmbeddingMatrix, LabelVector


@dataclass(frozen=True)
class TrainConfig:
    """The settings that determine a training besides its seed, in the
    order run.json records them."""

    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.05
    hidden: int = 32

    def __post_init__(self):
        # Python ints and a float, which run.json can hold: a numpy number is
        # converted; a bool, a non-number or a float for an int is refused
        for name in ("epochs", "batch_size", "hidden"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        if self.epochs < 1 or self.batch_size < 1 or self.hidden < 1:
            raise ValueError("epochs, batch_size and hidden must be positive")
        lr = self.learning_rate
        if isinstance(lr, numbers.Real) and not isinstance(lr, bool) and not 0 < lr < math.inf:
            # NaN fails every comparison
            raise ValueError(f"learning_rate must be finite and > 0, got {lr}")
        object.__setattr__(self, "learning_rate", check_real("learning_rate", lr))


@dataclass(frozen=True)
class MlpModel:
    """ReLU(W1 x + b1) -> softmax(W2 h + b2); weights stored float32."""

    w1: np.ndarray  # h x d
    b1: np.ndarray  # h
    w2: np.ndarray  # C x h
    b2: np.ndarray  # C

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]


def _init_params(rng: Rng, d: int, h: int, c: int, dtype) -> list[np.ndarray]:
    """Uniform +-1/sqrt(fan_in) init, drawn in a fixed order."""
    def draw(rows, cols, bound):
        vals = rng.uniforms(rows * cols, -bound, bound)
        return np.asarray(vals, dtype=dtype).reshape(rows, cols)

    bound1 = 1.0 / np.sqrt(d)
    bound2 = 1.0 / np.sqrt(h)
    w1 = draw(h, d, bound1)
    b1 = draw(1, h, bound1)[0]
    w2 = draw(c, h, bound2)
    b2 = draw(1, c, bound2)[0]
    return [w1, b1, w2, b2]


def _forward(params: Sequence[np.ndarray], x: np.ndarray):
    """Returns (hidden pre-activation, hidden, logits) in float64 from
    float64 `x`.

    Leading dimensions of `x` and the params beyond one matrix are a stack
    of independent models, each applied to its own rows."""
    w1, b1, w2, b2 = params
    z1 = x @ w1.swapaxes(-1, -2) + b1[..., None, :]
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ w2.swapaxes(-1, -2) + b2[..., None, :]
    return z1, hidden, logits


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy, computed from the log-sum-exp directly."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(y)), y].mean())


def _grads(params: Sequence[np.ndarray], x: np.ndarray, target: np.ndarray):
    """The one backward pass: (logits, [dW1, db1, dW2, db2]) of the mean
    softmax cross-entropy, in float64; `target` holds the labels' one-hot
    rows. Stacked like `_forward`."""
    z1, hidden, logits = _forward(params, x)
    dlogits = softmax(logits)
    dlogits -= target  # p - 1 at the label; p - 0.0 == p exactly elsewhere
    dlogits /= x.shape[-2]
    dw2 = dlogits.swapaxes(-1, -2) @ hidden
    db2 = dlogits.sum(axis=-2)
    dhidden = dlogits @ params[2]
    # The ReLU mask as a cast and a multiply: np.where's select costs several
    # times more on stacked batches. A masked entry is 0.0 * dhidden, -0.0
    # for a negative gradient, and adding 0.0 makes it the +0.0 np.where
    # writes (an unmasked -0.0 turns +0.0 too). The sums and matmuls below
    # start from +0.0, so neither sign reaches the gradients.
    dz1 = (z1 > 0.0).astype(np.float64)
    dz1 *= dhidden
    dz1 += 0.0
    dw1 = dz1.swapaxes(-1, -2) @ x
    db1 = dz1.sum(axis=-2)
    return logits, [dw1, db1, dw2, db2]


def _loss_and_grads(params: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray):
    logits, grads = _grads(params, x, np.eye(params[3].shape[-1])[y])
    return cross_entropy(logits, y), grads


def train(
    e: EmbeddingMatrix,
    labels: LabelVector,
    subset: Sequence[int],
    cfg: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> MlpModel:
    """Mini-batch SGD on softmax cross-entropy over the given subset, with
    init and shuffles drawn from Rng(seed)."""
    return train_group(e, labels, [subset], cfg, [seed])[0]


# an overflow to inf or NaN is reported by the check after each epoch
@np.errstate(over="ignore", invalid="ignore")
def train_group(
    e: EmbeddingMatrix,
    labels: LabelVector,
    subsets: Sequence[Sequence[int]],
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> list[MlpModel]:
    """One model per subset, each byte-identical to ``train`` on it alone
    under ``seeds[i]``.

    The subsets must share one length; see the module docstring."""
    idx = [np.asarray(s, dtype=np.int64) for s in subsets]
    if not idx:
        return []
    for s in idx:
        if not s.size:
            raise EmptySubset("training subset is empty")
        outside = s[(s < 0) | (s >= e.n)]
        if outside.size:
            raise IndexOutOfRange(f"subset index {int(outside[0])} outside [0, {e.n})")
    m = len(idx[0])
    if any(len(s) != m for s in idx):
        raise DimensionMismatch(
            f"grouped subsets must share one length, got {sorted({len(s) for s in idx})}"
        )
    seeds = [check_seed("rng_seed", check_int("rng_seed", s)) for s in seeds]
    if len(seeds) != len(idx):
        raise DimensionMismatch(f"{len(seeds)} seeds for {len(idx)} subsets")
    if len(labels) != e.n:
        raise DimensionMismatch(
            f"labels cover {len(labels)} points, embeddings have {e.n}"
        )
    idx = np.stack(idx)

    one_hot = np.eye(labels.num_classes)
    # one stream per distinct seed, in first-use order; member b draws from
    # stream[b]: its init, then one shuffle per epoch
    distinct = list(dict.fromkeys(seeds))
    stream = np.asarray([distinct.index(s) for s in seeds])
    rngs = [Rng(s) for s in distinct]
    inits = [_init_params(rng, e.d, cfg.hidden, labels.num_classes, np.float32) for rng in rngs]
    params = [np.stack(p)[stream] for p in zip(*inits)]

    lr = cfg.learning_rate
    positions = [list(range(m)) for _ in rngs]
    members = np.arange(len(idx))[:, None]
    for _ in range(cfg.epochs):
        for rng, pos in zip(rngs, positions):
            rng.shuffle(pos)
        # each step gathers its own rows and targets, so no member holds a
        # copy of its subset's rows
        rows = idx[members, np.asarray(positions)[stream]]
        y_rows = labels.labels[rows]
        for start in range(0, m, cfg.batch_size):
            stop = start + cfg.batch_size
            x = np.take(e.data, rows[:, start:stop], axis=0).astype(np.float64)
            target = np.take(one_hot, y_rows[:, start:stop], axis=0)
            _, grads = _grads(params, x, target)
            for p, g in zip(params, grads):
                # in float64, rounded into the float32 buffer
                np.subtract(p, lr * g, out=p)
        for p in params:
            if not np.isfinite(p).all():
                raise NonFiniteValue(
                    f"training produced non-finite parameters: learning_rate {lr!r} is "
                    "too large for this data"
                )
    return [MlpModel(*(p[b] for p in params)) for b in range(len(idx))]


def _evaluate(m: MlpModel, e: EmbeddingMatrix):
    """(hidden, logits) of the model on every point, in float64."""
    if e.d != m.input_dim:
        raise DimensionMismatch(
            f"model expects d={m.input_dim}, embeddings have d={e.d}"
        )
    _, hidden, logits = _forward((m.w1, m.b1, m.w2, m.b2), e.data.astype(np.float64))
    return hidden, logits


def extract_features(m: MlpModel, e: EmbeddingMatrix) -> EmbeddingMatrix:
    """Hidden activations ReLU(W1 x + b1) as an n x h feature matrix."""
    hidden, _ = _evaluate(m, e)
    return EmbeddingMatrix(hidden)  # converted to float32 once, not copied again


def accuracy(m: MlpModel, e: EmbeddingMatrix, labels: LabelVector) -> float:
    """Fraction of points whose predicted class, the argmax of the logits
    (ties resolve to the lowest class id), equals the label."""
    if len(labels) != e.n:
        raise DimensionMismatch(
            f"labels cover {len(labels)} points, embeddings have {e.n}"
        )
    _, logits = _evaluate(m, e)
    return float((np.argmax(logits, axis=1) == labels.labels).mean())


# --- gradient auditing --------------------------------------------------------

def gradient_check(
    cfg: TrainConfig, init_seed: int, probe: tuple[np.ndarray, np.ndarray]
) -> float:
    """Max guarded relative error between analytic gradients and central
    finite differences (step 1e-4) on a small probe, at the params cfg's
    training draws under `init_seed`.

    Entries below 1e-3 in magnitude are compared against that floor instead,
    which keeps finite-difference noise (~1e-8) out of the ratio without
    masking real errors.
    """
    x, y = probe
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    num_classes = int(y.max()) + 1
    params = _init_params(Rng(init_seed), x.shape[1], cfg.hidden, num_classes, np.float64)
    _, grads = _loss_and_grads(params, x, y)

    step = 1e-4
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        for k in range(flat.shape[0]):
            orig = flat[k]
            flat[k] = orig + step
            up = cross_entropy(_forward(params, x)[2], y)
            flat[k] = orig - step
            down = cross_entropy(_forward(params, x)[2], y)
            flat[k] = orig
            fd = (up - down) / (2.0 * step)
            a = g.reshape(-1)[k]
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
            worst = max(worst, err)
    return worst


def make_probe(
    cfg: TrainConfig, init_seed: int, seed: int, n: int = 8, d: int = 4, num_classes: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Random gradient-check probe drawn from Rng(seed), resampled
    (deterministically) until every hidden pre-activation under cfg's init
    from `init_seed` sits at least 1e-2 from the ReLU kink, so central
    differences with step 1e-4 never straddle it."""
    attempt = seed
    while True:
        rng = Rng(attempt)
        x = np.asarray(rng.normals(n * d), dtype=np.float64).reshape(n, d)
        y = np.asarray([rng.below(num_classes) for _ in range(n)], dtype=np.int64)
        params = _init_params(Rng(init_seed), d, cfg.hidden, num_classes, np.float64)
        z1 = _forward(params, x)[0]
        if np.abs(z1).min() > 1e-2:
            return x, y
        attempt += 1
