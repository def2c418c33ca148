import numpy as np
import pytest

from oracles import pairwise_to_centers

from coarseset.metrics import Metric
from coarseset.rng import _LANE_MIN_COUNT, Rng
from coarseset.synth import MixtureSpec, generate


def test_degenerate_variance_pins_points_to_centers():
    spec = MixtureSpec(
        per_class_counts=[3, 3],
        d=2,
        std=1e-9,
        centers=[[0.0, 0.0], [10.0, 0.0]],
        rng_seed=1,
    )
    emb, lab = generate(spec)
    for row, label in zip(emb.data, lab.labels):
        expected = [0.0, 0.0] if label == 0 else [10.0, 0.0]
        assert np.allclose(row, expected, atol=1e-6)


def test_single_class_all_zero_labels():
    emb, lab = generate(MixtureSpec([7], d=3, rng_seed=2))
    assert lab.labels.tolist() == [0] * 7
    assert lab.num_classes == 1
    assert (emb.n, emb.d) == (7, 3)


def test_sizes_and_label_consistency():
    spec = MixtureSpec([4, 9, 2], d=5, rng_seed=3)
    emb, lab = generate(spec)
    assert emb.n == 15 and len(lab) == 15
    counts = np.bincount(lab.labels, minlength=3)
    assert counts.tolist() == [4, 9, 2]


def test_bitwise_determinism():
    spec = MixtureSpec([10, 10], d=4, separation=3.0, rng_seed=11)
    a_emb, a_lab = generate(spec)
    b_emb, b_lab = generate(spec)
    assert a_emb.data.tobytes() == b_emb.data.tobytes()
    assert a_lab.labels.tobytes() == b_lab.labels.tobytes()


def test_different_seeds_differ():
    a, _ = generate(MixtureSpec([10], d=2, rng_seed=0))
    b, _ = generate(MixtureSpec([10], d=2, rng_seed=1))
    assert a.data.tobytes() != b.data.tobytes()


def test_shared_centers_with_sibling_noise_seeds():
    base = dict(per_class_counts=[5, 5], d=3, separation=6.0, center_seed=9)
    a, _ = generate(MixtureSpec(**base, rng_seed=10))
    b, _ = generate(MixtureSpec(**base, rng_seed=11))
    assert a.data.tobytes() != b.data.tobytes()
    # class means land near the same shared centers
    am = a.data.mean(axis=0)
    bm = b.data.mean(axis=0)
    assert np.linalg.norm(am - bm) < 2.0


def test_wide_separation_classifies_by_nearest_center():
    # 10 classes, separation 10, std 1: nearest-center recovers >= 99% of labels
    spec = MixtureSpec([100] * 10, d=8, std=1.0, separation=10.0, rng_seed=21)
    emb, lab = generate(spec)
    rng = np.random.default_rng(0)
    x64 = emb.data.astype(np.float64)
    centers = np.stack(
        [x64[lab.labels == c].mean(axis=0) for c in range(10)]
    )
    joined = np.vstack([x64, centers])
    table = pairwise_to_centers(joined, list(range(emb.n, emb.n + 10)), Metric.SQEUCLIDEAN)
    predicted = table[: emb.n].argmin(axis=1)
    assert (predicted == lab.labels).mean() >= 0.99


def test_imbalanced_spec_supported():
    counts = [5] + [19] * 5
    stds = [3.0] + [1.0] * 5
    emb, lab = generate(MixtureSpec(counts, d=4, std=stds, rng_seed=31))
    assert np.bincount(lab.labels).tolist() == counts


def test_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec([0, 3], d=2)
    with pytest.raises(ValueError):
        MixtureSpec([3], d=0)
    with pytest.raises(ValueError):
        MixtureSpec([3], d=2, std=0.0)
    with pytest.raises(ValueError):
        MixtureSpec([3], d=2, std=[1.0, 2.0])
    with pytest.raises(ValueError):
        MixtureSpec([3], d=2, separation=-1.0)
    with pytest.raises(ValueError):
        MixtureSpec([3, 3], d=2, centers=[[0.0, 0.0]])


@pytest.mark.parametrize("fields", [
    dict(d=2.0), dict(d=True), dict(rng_seed=1.5), dict(center_seed=2.5),
    dict(per_class_counts=[3.0]),
])
def test_spec_integer_fields_reject_floats_and_bools(fields):
    spec = dict(per_class_counts=[3], d=2) | fields
    with pytest.raises(TypeError, match=next(iter(fields))):
        MixtureSpec(**spec)


def test_spec_accepts_numpy_integers():
    spec = MixtureSpec(np.array([3, 4]), d=np.int64(2), rng_seed=np.int64(5))
    emb, lab = generate(spec)
    assert emb.n == 7 and lab.labels.tolist().count(1) == 4


def encoded(spec):
    emb, lab = generate(spec)
    return emb.data.tobytes(), lab.labels.tobytes()


def test_numpy_seeds_give_the_python_int_bytes():
    assert encoded(MixtureSpec([3], d=2, rng_seed=np.int32(5))) == encoded(
        MixtureSpec([3], d=2, rng_seed=5))
    shared = dict(per_class_counts=[4, 2], d=3, rng_seed=1)
    assert encoded(MixtureSpec(**shared, center_seed=np.uint64(9))) == encoded(
        MixtureSpec(**shared, center_seed=9))


def generate_class_by_class(spec):
    """The documented stream order with one normals() call per class."""
    rng = Rng(spec.rng_seed)
    centers = np.asarray(spec.centers, dtype=np.float64)
    rows, labels = [], []
    for c, (count, std) in enumerate(zip(spec.per_class_counts, spec.class_stds)):
        noise = np.asarray(rng.normals(count * spec.d)).reshape(count, spec.d)
        rows.append(centers[c] + std * noise)
        labels += [c] * count
    perm = rng.permutation(spec.n)
    return (np.vstack(rows)[perm].astype(np.float32).tobytes(),
            np.asarray(labels, dtype=np.int64)[perm].tobytes())


@pytest.mark.parametrize("counts, d", [
    ([3, 5, 4], 3),            # odd count*d: each class discards a normal
    # one block above the lane threshold, each class below it
    ([_LANE_MIN_COUNT // 6, 1001, _LANE_MIN_COUNT // 6], 3),
])
def test_one_noise_block_matches_class_by_class_draws(counts, d):
    centers = [[float(c + k) for k in range(d)] for c in range(len(counts))]
    spec = MixtureSpec(counts, d=d, std=[0.5, 1.0, 2.0], centers=centers, rng_seed=4)
    assert encoded(spec) == generate_class_by_class(spec)
