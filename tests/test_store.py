import builtins
import errno
import hashlib
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coarseset.errors import (
    CoarsesetError,
    EmptyFile,
    EmptyMatrix,
    IndexOutOfRange,
    IoFailure,
    MalformedHeader,
    MalformedLabel,
    NonFiniteValue,
    SizeMismatch,
)
from coarseset import harness, selector, store
from coarseset.store import (
    MAX_CLASSES,
    EmbeddingMatrix,
    LabelVector,
    load_embeddings,
    load_labels,
    save_embeddings,
    save_labels,
    sha256,
)


def emb1_bytes(n, d, values, version=1, dtype=1, reserved=0, magic=b"EMB1"):
    header = struct.pack("<4sBBHQQ", magic, version, dtype, reserved, n, d)
    return header + np.asarray(values, dtype="<f4").tobytes()


def lab1_bytes(labels, version=1, reserved=(0, 0, 0), n=None):
    n = len(labels) if n is None else n
    header = struct.pack("<4sBBBBQ", b"LAB1", version, *reserved, n)
    return header + np.asarray(labels, dtype="<u4").tobytes()


def test_load_smallest_emb1(tmp_path):
    p = tmp_path / "tiny.emb"
    p.write_bytes(emb1_bytes(3, 2, [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]))
    m = load_embeddings(p)
    assert (m.n, m.d) == (3, 2)
    assert m.data.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_payload_size_mismatch(tmp_path):
    p = tmp_path / "bad.emb"
    p.write_bytes(emb1_bytes(3, 2, [1.0, 2.0, 3.0, 4.0, 5.0]))
    with pytest.raises(SizeMismatch):
        load_embeddings(p)


def test_csv_embeddings(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.5,1.5\n2.5,3.5\n")
    m = load_embeddings(p)
    assert (m.n, m.d) == (2, 2)
    assert m.data.tolist() == [[0.5, 1.5], [2.5, 3.5]]
    p.write_bytes(b"0.5,1.5\r\n\r\n2.5,3.5\r\n")
    assert load_embeddings(p).data.tolist() == [[0.5, 1.5], [2.5, 3.5]]


def test_csv_and_emb1_load_identically(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(17, 5)).astype(np.float32)
    binary = tmp_path / "a.emb"
    save_embeddings(EmbeddingMatrix(data), binary)
    csv_path = tmp_path / "a.csv"
    # full round-trippable decimal representations
    csv_path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n"
    )
    assert np.array_equal(load_embeddings(binary).data, load_embeddings(csv_path).data)


def test_roundtrip_single_value(tmp_path):
    m = EmbeddingMatrix(np.array([[42.0]], dtype=np.float32))
    p = tmp_path / "one.emb"
    save_embeddings(m, p)
    again = load_embeddings(p)
    assert np.array_equal(again.data, m.data)


def test_roundtrip_bitwise_100x8(tmp_path):
    rng = np.random.default_rng(123)
    m = EmbeddingMatrix(rng.normal(size=(100, 8)).astype(np.float32))
    p1 = tmp_path / "a.emb"
    p2 = tmp_path / "b.emb"
    save_embeddings(m, p1)
    save_embeddings(load_embeddings(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_property_random_matrices(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 12))
        scale = float(10.0 ** rng.integers(-20, 20))
        m = EmbeddingMatrix((rng.normal(size=(n, d)) * scale).astype(np.float32))
        p = tmp_path / f"m{trial}.emb"
        save_embeddings(m, p)
        back = load_embeddings(p)
        assert back.data.tobytes() == m.data.tobytes()


def test_save_unwritable_path(tmp_path):
    m = EmbeddingMatrix(np.array([[1.0]], dtype=np.float32))
    with pytest.raises(IoFailure, match=r"cannot write .*dir\.emb: "):
        save_embeddings(m, tmp_path / "no" / "such" / "dir.emb")


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure, match=r"cannot read embeddings from .*absent\.emb: "):
        load_embeddings(tmp_path / "absent.emb")
    with pytest.raises(IoFailure, match=r"cannot read labels from .*absent\.lab: "):
        load_labels(tmp_path / "absent.lab")


@pytest.mark.parametrize(
    "kwargs",
    [dict(version=2), dict(dtype=2), dict(reserved=9)],
)
def test_bad_emb1_header_fields(tmp_path, kwargs):
    p = tmp_path / "bad.emb"
    p.write_bytes(emb1_bytes(1, 1, [1.0], **kwargs))
    with pytest.raises(MalformedHeader):
        load_embeddings(p)


def test_truncated_emb1_header(tmp_path):
    p = tmp_path / "trunc.emb"
    p.write_bytes(b"EMB1\x01\x01")
    with pytest.raises(MalformedHeader):
        load_embeddings(p)


def test_emb1_declared_empty(tmp_path):
    p = tmp_path / "empty.emb"
    p.write_bytes(emb1_bytes(0, 2, []))
    with pytest.raises(EmptyMatrix):
        load_embeddings(p)


def test_nonfinite_reported_with_row(tmp_path):
    p = tmp_path / "nan.emb"
    p.write_bytes(emb1_bytes(3, 1, [1.0, np.nan, 2.0]))
    with pytest.raises(NonFiniteValue, match=f"^{p}: row 1: non-finite embedding value$"):
        load_embeddings(p)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warning would add a line
def test_csv_nan_rejected(tmp_path):
    p = tmp_path / "nan.csv"
    # blank lines count, and a value beyond float32's range is inf
    for bad in ("nan", "-inf", "1e39"):
        p.write_text(f"1.0,2.0\n\n3.0,{bad}\n")
        with pytest.raises(NonFiniteValue, match=f"^{p}: line 3: non-finite embedding value$"):
            load_embeddings(p)


def test_csv_ragged_rejected(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(SizeMismatch):
        load_embeddings(p)


def test_csv_garbage_rejected(tmp_path):
    p = tmp_path / "garbage.csv"
    p.write_text("hello,world\n")
    with pytest.raises(MalformedHeader):
        load_embeddings(p)


@pytest.mark.parametrize("raw,load,error,message", [
    (b"1,2\x0c3,4\n5,6\n", "embeddings", MalformedHeader,
     "e.csv: line 1 is not comma-separated numbers"),
    (b"1,2\n\n3\n", "embeddings", SizeMismatch, "e.csv: line 3 has 1 values, expected 2"),
    ("1,2\u2029\n3,4\n5\n".encode(), "embeddings", SizeMismatch, "e.csv: line 3 has 1"),
    (b"1,2\n3,\xff\n", "embeddings", MalformedHeader,
     "e.csv: line 2: neither EMB1 binary nor UTF-8 CSV"),
    (b"0\x1c1\n2\n", "labels", MalformedLabel, "e.csv: line 1: '0\\x1c1' is not an integer"),
    ("0\x85\n-1\n".encode(), "labels", MalformedLabel, "e.csv: line 2: negative label -1"),
    (b"0\n\x0b\n\xfe\n", "labels", MalformedHeader,
     "e.csv: line 3: neither LAB1 binary nor UTF-8 CSV"),
])
def test_csv_lines_end_at_newline_only(tmp_path, raw, load, error, message):
    # str.splitlines would also break at \x0b, \x0c, \x1c-\x1e, \x85,
    # U+2028 and U+2029, so one line could load as several
    p = tmp_path / "e.csv"
    p.write_bytes(raw)
    with pytest.raises(error) as info:
        (load_embeddings if load == "embeddings" else load_labels)(p)
    assert message in str(info.value)


def test_csv_empty_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(EmptyMatrix):
        load_embeddings(p)


def test_matrix_is_immutable():
    m = EmbeddingMatrix(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


@pytest.mark.parametrize("make,error,message", [
    (lambda: EmbeddingMatrix(np.ones(3)), EmptyMatrix, r"must be 2-D, got shape \(3,\)"),
    (lambda: EmbeddingMatrix(np.ones((0, 2))), EmptyMatrix, r"empty embedding matrix"),
    (lambda: LabelVector(np.zeros((2, 1)), 1), EmptyFile, "non-empty 1-D"),
    (lambda: LabelVector(np.array([0, -1]), 2), MalformedLabel, "non-negative"),
    (lambda: LabelVector.from_labels([]), EmptyFile, "cannot infer num_classes"),
])
def test_containers_refuse_bad_arrays(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_matrix_does_not_freeze_callers_array():
    arr = np.ones((2, 2), dtype=np.float32)
    EmbeddingMatrix(arr)
    arr[0, 0] = 3.0  # still writable


# --- labels -----------------------------------------------------------------

def test_label_csv(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("0\n1\n0\n")
    v = load_labels(p)
    assert v.labels.tolist() == [0, 1, 0]
    assert v.num_classes == 2
    p.write_bytes(b"0\r\n1\r\n\r\n0\r\n")
    assert load_labels(p).labels.tolist() == [0, 1, 0]


def test_label_csv_negative(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("0\n-3\n")
    with pytest.raises(MalformedLabel):
        load_labels(p)


def test_label_csv_non_integer(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("0\n1.5\n")
    with pytest.raises(MalformedLabel):
        load_labels(p)


def test_label_csv_empty(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("\n\n")
    with pytest.raises(EmptyFile):
        load_labels(p)


def test_lab1_roundtrip(tmp_path):
    p = tmp_path / "l.lab"
    p.write_bytes(lab1_bytes([2, 0, 1]))
    v = load_labels(p)
    assert v.labels.tolist() == [2, 0, 1]
    assert v.num_classes == 3
    p2 = tmp_path / "again.lab"
    save_labels(v, p2)
    assert p2.read_bytes() == p.read_bytes()


def test_lab1_bad_header(tmp_path):
    p = tmp_path / "l.lab"
    p.write_bytes(lab1_bytes([1], version=3))
    with pytest.raises(MalformedHeader):
        load_labels(p)
    p.write_bytes(lab1_bytes([1], reserved=(1, 0, 0)))
    with pytest.raises(MalformedHeader):
        load_labels(p)
    p.write_bytes(lab1_bytes([1])[:10])
    with pytest.raises(MalformedHeader, match="truncated LAB1 header"):
        load_labels(p)


def test_lab1_size_mismatch(tmp_path):
    p = tmp_path / "l.lab"
    p.write_bytes(lab1_bytes([1, 2], n=5))
    with pytest.raises(MalformedHeader):
        load_labels(p)


def test_lab1_empty(tmp_path):
    p = tmp_path / "l.lab"
    p.write_bytes(lab1_bytes([]))
    with pytest.raises(EmptyFile):
        load_labels(p)


def test_num_classes_override(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("0\n2\n")
    assert load_labels(p).num_classes == 3
    assert load_labels(p, num_classes=5).num_classes == 5
    with pytest.raises(MalformedLabel, match=f"^{p}: line 2: label 2 exceeds num_classes=2$"):
        load_labels(p, num_classes=2)
    p = tmp_path / "l.lab"
    p.write_bytes(lab1_bytes([0, 1, 5, 1]))
    with pytest.raises(MalformedLabel, match=f"^{p}: entry 2: label 5 exceeds num_classes=3$"):
        load_labels(p, num_classes=3)


def test_label_vector_pairs_with_matrix():
    v = LabelVector.from_labels([0, 1, 1])
    assert len(v) == 3
    with pytest.raises(ValueError):
        v.labels[0] = 2


def test_lab1_label_beyond_class_limit_names_file_and_entry(tmp_path):
    p = tmp_path / "hostile.lab"
    p.write_bytes(lab1_bytes([0, 1, 2**32 - 1, 2]))
    with pytest.raises(MalformedLabel, match=r"hostile\.lab: entry 2: label 4294967295"):
        load_labels(p)
    p.write_bytes(lab1_bytes([0, MAX_CLASSES, 1]))
    with pytest.raises(MalformedLabel, match="entry 1"):
        load_labels(p)
    p.write_bytes(lab1_bytes([0, MAX_CLASSES - 1]))
    assert load_labels(p).num_classes == MAX_CLASSES


def test_csv_label_beyond_class_limit_names_file_and_line(tmp_path):
    p = tmp_path / "hostile.csv"
    p.write_text(f"0\n\n1\n{2**32 - 1}\n")
    with pytest.raises(MalformedLabel, match=r"hostile\.csv: line 4: label 4294967295"):
        load_labels(p)
    p.write_text(f"0\n{10**30}\n")  # beyond int64 too
    with pytest.raises(MalformedLabel, match="line 2"):
        load_labels(p)
    p.write_text(f"{MAX_CLASSES - 1}\n")
    assert load_labels(p).num_classes == MAX_CLASSES


def test_label_csv_peak_memory_is_bounded(tmp_path):
    # 200000 one-digit labels, 400 kB: the loader held a line number per
    # label for its error path, 28x the file at its peak, then a Python list
    # of the labels, 9x; it fills one int64 array now, about 6x
    p = tmp_path / "l.csv"
    p.write_text("".join(f"{i % 10}\n" for i in range(200_000)))
    tracemalloc.start()
    try:
        labels = load_labels(p, num_classes=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 200_000
    assert peak < 7 * p.stat().st_size
    # the refusal still names the line, found by scanning the bytes again
    p.write_text("0\n\n3\n9\n")
    with pytest.raises(MalformedLabel, match=f"^{p}: line 4: label 9 exceeds num_classes=9$"):
        load_labels(p, num_classes=9)


def test_embedding_csv_peak_memory_is_bounded(tmp_path):
    # 200000 one-digit values, 400 kB: the loader built a Python list and a
    # float per value before the array, 81x the file at its peak, then
    # EmbeddingMatrix copied the array it filled, 5x; about 4x now
    p = tmp_path / "e.csv"
    p.write_text("".join(f"{i % 10}\n" for i in range(200_000)))
    tracemalloc.start()
    try:
        m = load_embeddings(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.data.shape == (200_000, 1)
    assert np.array_equal(m.data[:, 0], np.arange(200_000) % 10)
    assert peak < 4.5 * p.stat().st_size


def test_lab1_peak_memory_is_bounded(tmp_path):
    # 200000 labels, 800 kB: the loader widened the payload to int64 and
    # LabelVector copied that, 5x the file at its peak; it converts the
    # payload once now, about 3.25x
    p = tmp_path / "l.lab"
    save_labels(LabelVector.from_labels(np.arange(200_000) % 10), p)
    tracemalloc.start()
    try:
        labels = load_labels(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(labels.labels, np.arange(200_000) % 10)
    assert peak < 4 * p.stat().st_size


def _peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_containers_given_a_list_convert_it_once():
    # a list becomes one int64 array, kept as it is: the containers used to
    # copy the array they had just converted, one more array at their peak
    one = 8 * 10**6  # bytes of one int64 array of 10**6 entries
    labels = [i % 10 for i in range(10**6)]
    assert _peak(lambda: LabelVector.from_labels(labels)) < 1.5 * one  # was 2
    # and the sorted copy that finds a repeated index
    order = list(range(10**6))
    assert _peak(lambda: selector.SelectionOrder(order, 0)) < 2.5 * one  # was 3


# each container: (the array it keeps of these values, its dtype, another dtype)
CONTAINERS = {
    "frozen": (lambda v: store.frozen(v, np.int64), np.int64, np.int32),
    "EmbeddingMatrix": (lambda v: EmbeddingMatrix(v).data, np.float32, np.float64),
    "LabelVector": (lambda v: LabelVector(v, len(v)).labels, np.int64, np.int32),
    "LabelVector.from_labels": (lambda v: LabelVector.from_labels(v).labels, np.int64, np.uint16),
    "SelectionOrder": (lambda v: selector.SelectionOrder(v, 0).order, np.int64, np.int32),
    "ClassHistogram": (lambda v: harness.ClassHistogram(v, int(np.sum(v))).counts,
                       np.int64, np.int32),
}
INPUT_KINDS = ["list", "writable", "other dtype", "read-only", "strided view"]


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CONTAINERS)), kind=st.sampled_from(INPUT_KINDS),
       perm=st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))),
       d=st.integers(1, 3))
def test_every_container_keeps_a_read_only_array_of_its_own(name, kind, perm, d):
    keep, dtype, other = CONTAINERS[name]
    want = np.array(perm)
    if name == "EmbeddingMatrix":
        want = want[:, None] * np.arange(1, d + 1)
    caller = None  # the caller's writable array, when it gives one
    if kind == "list":
        given_ = want.tolist()
    elif kind == "writable":
        given_ = caller = want.astype(dtype)
    elif kind == "other dtype":
        given_ = caller = want.astype(other)
    elif kind == "read-only":
        given_ = want.astype(dtype)
        given_.setflags(write=False)
    else:
        caller = np.repeat(want, 2, axis=0).astype(dtype)
        given_ = caller[::2]
    kept = keep(given_)
    assert kept.dtype == dtype and np.array_equal(kept, want)
    assert not kept.flags.writeable and kept.flags.c_contiguous
    if caller is not None:
        assert caller.flags.writeable and given_.flags.writeable
        assert not np.shares_memory(caller, kept)
    if kind == "read-only":
        assert kept is given_  # no one can write it, so it is not copied


@pytest.mark.parametrize("build,error,message", [
    (lambda: EmbeddingMatrix(5.0), EmptyMatrix, "embedding data must be 2-D, got shape ()"),
    (lambda: EmbeddingMatrix([1.0, 2.0]), EmptyMatrix,
     "embedding data must be 2-D, got shape (2,)"),
    (lambda: LabelVector(5, 6), EmptyFile, "label vector must be a non-empty 1-D sequence"),
    (lambda: LabelVector([[0, 1]], 2), EmptyFile,
     "label vector must be a non-empty 1-D sequence"),
    (lambda: LabelVector.from_labels(5), EmptyFile,
     "label vector must be a non-empty 1-D sequence"),
    (lambda: selector.SelectionOrder(3, 0), IndexOutOfRange,
     "order must be a 1-D index sequence"),
    (lambda: selector.SelectionOrder([[0, 1]], 0), IndexOutOfRange,
     "order must be a 1-D index sequence"),
])
def test_containers_refuse_scalars_and_the_wrong_rank(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.tuples(st.text(" \r\x0cx\u2028", max_size=4), st.integers(0, 300))
                     .map(lambda t: t[0] * t[1]), max_size=40))
def test_text_lines_numbers_lines_across_its_blocks(lines):
    # text_lines splits about 1 KiB of lines at a time; files of several KiB
    # cross those blocks, and every line keeps its number
    raw = "\n".join(lines).encode()
    want = [(i, line.strip()) for i, line in enumerate(raw.decode().split("\n"), start=1)
            if line.strip()]
    assert list(store.text_lines(raw, "f", "not text")) == want


@pytest.mark.parametrize("raw,where", [
    (b"1\n\n  \n2\r\n\x0c3\n", "line 5"),
    (emb1_bytes(3, 1, [0.0, 1.0, 2.0]), "row 2"),
    (lab1_bytes([0, 1, 2]), "entry 2"),
], ids=["csv", "emb1", "lab1"])
def test_location_names_an_entry_as_the_loaders_do(raw, where):
    assert store.location(raw, "f", 2) == where


def test_label_vector_rejects_class_count_beyond_limit():
    with pytest.raises(MalformedLabel, match="MAX_CLASSES"):
        LabelVector.from_labels([0, 1], num_classes=MAX_CLASSES + 1)


def test_sha256_is_the_digest_of_the_binary_file(tmp_path):
    rng = np.random.default_rng(3)
    emb = EmbeddingMatrix(rng.normal(size=(7, 3)).astype(np.float32))
    labels = LabelVector.from_labels([3, 0, 1, 1, 2, 0, 3])
    save_embeddings(emb, tmp_path / "e.emb")
    save_labels(labels, tmp_path / "l.lab")
    assert sha256(emb) == hashlib.sha256((tmp_path / "e.emb").read_bytes()).hexdigest()
    assert sha256(labels) == hashlib.sha256((tmp_path / "l.lab").read_bytes()).hexdigest()
    assert sha256(load_embeddings(tmp_path / "e.emb")) == sha256(emb)
    assert sha256(LabelVector.from_labels([3, 0, 1, 1, 2, 0, 2])) != sha256(labels)


# --- atomic writes -----------------------------------------------------------

class _HalfWriter:
    """A file whose first write stores half its bytes, then fails as a full
    disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        data = data.encode("utf-8") if isinstance(data, str) else memoryview(data).cast("B")
        self._fh.write(data[: len(data) // 2 + 1])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


WRITERS = {
    "embeddings": (save_embeddings, EmbeddingMatrix(np.ones((3, 2))),
                   EmbeddingMatrix(np.arange(40.0).reshape(8, 5))),
    "labels": (save_labels, LabelVector.from_labels([0, 1]),
               LabelVector.from_labels(list(range(9)))),
    "order": (selector.save_order, selector.SelectionOrder(np.array([1, 0]), 1),
              selector.SelectionOrder(np.arange(50), 1)),
    "histogram": (harness.save_histogram, harness.ClassHistogram(np.array([1, 1]), 2),
                  harness.ClassHistogram(np.arange(12), 66)),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_failing_partway_leaves_the_previous_file(tmp_path, monkeypatch, name):
    write, old, new = WRITERS[name]
    path = tmp_path / name
    write(old, path)
    before = path.read_bytes()
    monkeypatch.setattr(
        store, "open", lambda *a, **k: _HalfWriter(builtins.open(*a, **k)), raising=False
    )
    with pytest.raises(IoFailure, match="No space left"):
        write(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
    monkeypatch.undo()
    write(new, path)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_atomic_write_through_a_symlink_keeps_the_link(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    store.write_atomically(link, "new\n")
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_text() == "new\n"
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_atomic_write_to_a_dangling_symlink_creates_its_target(tmp_path):
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "made.csv")
    store.write_atomically(link, "x\n")
    assert link.is_symlink() and (tmp_path / "made.csv").read_text() == "x\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_atomic_write_to_a_fifo_writes_through_it(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    save_labels(LabelVector.from_labels([0, 1, 1]), fifo)
    reader.join(timeout=10)
    assert got and got[0][:4] == b"LAB1"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


# --- fuzzing the loaders ----------------------------------------------------------

def _cut(raw: st.SearchStrategy) -> st.SearchStrategy:
    """`raw`, or a prefix of it, as a file cut short."""
    return raw.flatmap(lambda b: st.one_of(st.just(b), st.integers(0, len(b)).map(lambda k: b[:k])))


def _text_file(line: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(
        st.lists(line, max_size=6), st.sampled_from(["", "\n", "\r\n"]), st.binary(max_size=2)
    ).map(lambda t: ("\n".join(t[0]) + t[1]).encode() + t[2])


NUMBER_TOKENS = st.one_of(
    st.floats(width=32).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e39", "-3.5e38", "", " 1 ", "1_0", "0x1", "--1"]),
    st.text(max_size=4),
)
LABEL_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.text(max_size=4),
)
WHOLE_EMB1 = st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda nd: st.lists(st.floats(width=32), min_size=nd[0] * nd[1], max_size=nd[0] * nd[1])
    .map(lambda values: emb1_bytes(*nd, values))
)
LOADER_BYTES = {
    "emb1": WHOLE_EMB1 | _cut(st.builds(
        emb1_bytes,
        n=st.one_of(st.integers(0, 4), st.just(2**64 - 1)),
        d=st.one_of(st.integers(0, 3), st.just(2**63)),
        values=st.lists(st.floats(width=32), max_size=12),
        version=st.sampled_from([1, 2]),
        dtype=st.sampled_from([1, 0]),
        reserved=st.sampled_from([0, 1]),
    )) | st.binary(max_size=40).map(lambda b: b"EMB1" + b),
    "lab1": _cut(st.builds(
        lab1_bytes,
        labels=st.lists(st.integers(0, 9) | st.integers(0, 2**32 - 1), max_size=6),
        version=st.sampled_from([1, 2]),
        reserved=st.sampled_from([(0, 0, 0), (0, 1, 0)]),
        n=st.one_of(st.none(), st.integers(0, 8), st.just(2**64 - 1)),
    )) | st.binary(max_size=40).map(lambda b: b"LAB1" + b),
    "emb.csv": _text_file(st.lists(NUMBER_TOKENS, min_size=1, max_size=3).map(",".join)),
    "lab.csv": _text_file(LABEL_TOKENS),
}


# a numpy warning would add a line to the CLI's one error line
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(LOADER_BYTES))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_fuzz_returns_a_value_or_names_the_file(tmp_path, kind, data):
    p = tmp_path / f"fuzz.{kind}"
    p.write_bytes(data.draw(LOADER_BYTES[kind], label="raw"))
    labels = kind.startswith("lab")
    try:
        if labels:
            num_classes = data.draw(st.one_of(st.none(), st.integers(-1, 12)), label="num_classes")
            value = load_labels(p, num_classes)
        else:
            value = load_embeddings(p)
    except CoarsesetError as exc:
        assert str(p) in str(exc)
    else:
        assert isinstance(value, LabelVector if labels else EmbeddingMatrix)
