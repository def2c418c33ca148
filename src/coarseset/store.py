"""Embedding and label containers plus their on-disk formats.

Binary layouts (little-endian throughout):

* EMB1: magic ``45 4D 42 31`` ("EMB1"), u8 version=1, u8 dtype=1 (float32),
  u16 reserved=0, u64 n, u64 d, then n*d float32 values row-major.
* LAB1: magic ``4C 41 42 31`` ("LAB1"), u8 version=1, u8 reserved x3 (zero),
  u64 n, then n u32 labels.

Any structural deviation raises MalformedHeader. The CSV alternatives carry
no header row: embeddings are one comma-separated point per line, labels one
non-negative integer per line. ``load_embeddings``/``load_labels``
auto-detect binary vs CSV by the magic bytes. The CSV loaders walk the
decoded text one line at a time; the embedding loader fills a float32
array sized at its first row, the label loader an int64 array sized at the
line count.

A label vector holds at most ``MAX_CLASSES`` classes, so a label file that
implies more (one stray label near 2**32 would) is rejected with the file
and the label's position before anything is sized by the class count.

Values are stored as float32 (both on disk and in memory); all distance
arithmetic upcasts to float64 (see :mod:`coarseset.metrics`). Instances are
immutable after construction and safe to share across threads.

Who owns an array: the containers here, ``selector.SelectionOrder`` and
``harness.ClassHistogram`` each keep their array as ``frozen`` returns it,
converted to the container's dtype in C order and read-only. It is a copy
only when it is the caller's own array and the caller can still write it.
Code that builds an array for a container hands it over, as a list or as
the array it filled and then froze, and no copy is made.
"""

from __future__ import annotations

import itertools
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .errors import (
    EmptyFile,
    EmptyMatrix,
    IoFailure,
    MalformedHeader,
    MalformedLabel,
    NonFiniteValue,
    SizeMismatch,
)

EMB1_MAGIC = b"EMB1"
LAB1_MAGIC = b"LAB1"
_EMB1_HEADER = struct.Struct("<4sBBHQQ")
_LAB1_HEADER = struct.Struct("<4sBBBBQ")

try:
    # CPython's built-in SHA-256, as random.py takes its sha512: hashlib
    # loads OpenSSL, which adds ~3.5 MB to a command's peak resident memory
    from _sha256 import sha256 as _sha256  # Python <= 3.11
except ImportError:  # pragma: no cover - depends on the interpreter build
    try:
        from _sha2 import sha256 as _sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256 as _sha256

PathLike = Union[str, Path]

# the largest class count a LabelVector may hold; class-sized arrays (the
# proxy's output layer, histogram counts) are allocated from it
MAX_CLASSES = 2 ** 16


def frozen(values, dtype) -> np.ndarray:
    """`values` as a read-only C-ordered array of `dtype`. The caller's own
    array is copied only if the caller can still write it; a list, another
    dtype or a strided view is converted once, and a read-only array of
    `dtype` is kept as it is. A scalar stays 0-d, for the caller to refuse."""
    arr = np.asarray(values, dtype=dtype, order="C")
    if arr is values and arr.flags.writeable:
        arr = arr.copy()  # never freeze the caller's array
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EmbeddingMatrix:
    """n x d row-major feature matrix; row i is the feature vector of point i."""

    data: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):  # beyond float32's range is inf, refused below
            arr = frozen(self.data, np.float32)
        if arr.ndim != 2:
            raise EmptyMatrix(f"embedding data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise EmptyMatrix(f"empty embedding matrix (shape {arr.shape})")
        row = _nonfinite_row(arr)
        if row is not None:
            raise NonFiniteValue(f"non-finite embedding value in row {row}")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def _nonfinite_row(data: np.ndarray) -> Optional[int]:
    """The first row of `data` holding NaN or an infinity, or None."""
    finite = np.isfinite(data)
    return None if finite.all() else int(np.argmin(finite.all(axis=1)))


@dataclass(frozen=True)
class LabelVector:
    """Per-point class ids; num_classes defaults to 1 + max(labels)."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        arr = frozen(self.labels, np.int64)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise EmptyFile("label vector must be a non-empty 1-D sequence")
        if (arr < 0).any():
            raise MalformedLabel("labels must be non-negative")
        if self.num_classes > MAX_CLASSES:
            raise MalformedLabel(
                f"num_classes={self.num_classes} exceeds MAX_CLASSES={MAX_CLASSES}"
            )
        if int(arr.max()) >= self.num_classes:
            raise MalformedLabel(
                f"label {int(arr.max())} exceeds num_classes={self.num_classes}"
            )
        object.__setattr__(self, "labels", arr)

    @classmethod
    def from_labels(cls, labels, num_classes: Optional[int] = None) -> "LabelVector":
        arr = frozen(labels, np.int64)
        if num_classes is None:
            if arr.size == 0:
                raise EmptyFile("cannot infer num_classes from an empty label list")
            num_classes = int(arr.max()) + 1
        return cls(arr, num_classes)

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def text_lines(raw: bytes, path: PathLike, not_text: str) -> Iterator[tuple[int, str]]:
    """(line number, line stripped of surrounding whitespace) for every
    non-blank line of a text file's bytes. Lines end at ``"\n"`` only, so
    ``"\r\n"`` endings work, while a form feed, ``\x1c``-``\x1e`` or a
    Unicode line separator stays inside its line (``str.splitlines`` would
    break there and number every later line wrong). Bytes that are not
    UTF-8 raise MalformedHeader with the file, their line and `not_text`.
    The text is walked with ``str.find``, never split whole into a list."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise MalformedHeader(f"{path}: line {lineno}: {not_text}") from None
    start = lineno = 0
    while start <= len(text):
        # split about 1 KiB of whole lines at a time: as fast as one split of
        # the whole text, with no list of every line
        end = text.find("\n", start + 1024)
        end = len(text) if end < 0 else end
        for line in text[start:end].split("\n"):
            lineno += 1
            line = line.strip()
            if line:
                yield lineno, line
        start = end + 1


def read_file(path: PathLike, what: str) -> bytes:
    """The bytes of the file at `path`. A read that fails (a missing file, a
    directory, no permission) raises IoFailure naming `what` and the file."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {what} from {path}: {exc}") from exc


def make_dir(path: PathLike) -> Path:
    """The directory at `path`, created with its parents if missing. A
    failure (a file in the way, no permission) raises IoFailure naming the
    directory."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc}") from exc
    return Path(path)


def write_atomically(path: PathLike, *parts) -> None:
    """Write `parts` (str as UTF-8, or bytes-like) to a temporary file beside
    `path`, then rename it over `path`, so a write that fails partway leaves
    the previous file intact and no temporary file behind. A failed write
    raises IoFailure naming the file.

    A symlink is followed: the file it points to is replaced and the link
    stays. A replaced file keeps its permission bits. A target that exists
    but is not a regular file (a FIFO, or a device such as /dev/stdout)
    cannot be renamed over, so it is written directly."""
    path = Path(path)
    try:
        try:
            mode = path.stat().st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "wb") as fh:
                _write_parts(fh, parts)
            return
        target = path.resolve()
        tmp = target.with_name(target.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                _write_parts(fh, parts)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_parts(fh, parts) -> None:
    for part in parts:
        fh.write(part.encode("utf-8") if isinstance(part, str) else part)


# --- embeddings ---------------------------------------------------------------

def _emb1_parts(m: EmbeddingMatrix) -> tuple[bytes, np.ndarray]:
    return _EMB1_HEADER.pack(EMB1_MAGIC, 1, 1, 0, m.n, m.d), m.data.astype("<f4", copy=False)


def save_embeddings(m: EmbeddingMatrix, path: PathLike) -> None:
    """Write EMB1; round-trips bit-exactly through load_embeddings."""
    write_atomically(path, *_emb1_parts(m))


def load_embeddings(path: PathLike) -> EmbeddingMatrix:
    """Load EMB1 (detected by magic bytes) or headerless CSV."""
    raw = read_file(path, "embeddings")
    if raw[:4] == EMB1_MAGIC:
        return _parse_emb1(raw, path)
    return _parse_embedding_csv(raw, path)


def _parse_emb1(raw: bytes, path: PathLike) -> EmbeddingMatrix:
    if len(raw) < _EMB1_HEADER.size:
        raise MalformedHeader(f"{path}: truncated EMB1 header")
    magic, version, dtype, reserved, n, d = _EMB1_HEADER.unpack_from(raw)
    if magic != EMB1_MAGIC or version != 1 or dtype != 1 or reserved != 0:
        raise MalformedHeader(
            f"{path}: bad EMB1 header (version={version}, dtype={dtype}, reserved={reserved})"
        )
    if n == 0 or d == 0:
        raise EmptyMatrix(f"{path}: EMB1 declares n={n}, d={d}")
    payload = len(raw) - _EMB1_HEADER.size
    if payload != 4 * n * d:
        raise SizeMismatch(
            f"{path}: EMB1 payload holds {payload // 4} float32 values, expected {n * d}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_EMB1_HEADER.size).reshape(n, d)
    return _matrix(data, raw, path)


def _parse_embedding_csv(raw: bytes, path: PathLike) -> EmbeddingMatrix:
    data = None
    k = 0  # rows filled
    lines = text_lines(raw, path, "neither EMB1 binary nor UTF-8 CSV")
    with np.errstate(over="ignore"):  # beyond float32's range is inf, refused below
        for lineno, line in lines:
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise MalformedHeader(
                    f"{path}: line {lineno} is not comma-separated numbers"
                ) from None
            if data is None:
                # a row per line at most, and a row of d values spans 2d - 1
                # bytes at least, so the array is at most about 2x the file
                d = len(row)
                n = min(raw.count(b"\n") + 1, (len(raw) + 1) // (2 * d))
                data = np.empty((n, d), dtype=np.float32)
            elif len(row) != data.shape[1]:
                raise SizeMismatch(
                    f"{path}: line {lineno} has {len(row)} values, expected {data.shape[1]}"
                )
            data[k] = row  # one rounding per value, as float64 -> float32 has
            k += 1
    if data is None:
        raise EmptyMatrix(f"{path}: no data rows")
    data = data[:k]
    data.setflags(write=False)  # handed over: EmbeddingMatrix keeps it uncopied
    return _matrix(data, raw, path)


def location(raw: bytes, path: PathLike, i: int) -> str:
    """Where entry `i` of the loaded file whose bytes are `raw` is: ``row
    N`` in EMB1, ``entry N`` in LAB1, and in a text file ``line N``, the
    line of the i-th non-blank line that is not a ``#`` comment. Comment
    lines are skipped so that an order file's entries are found too; no
    embedding or label CSV that loads holds one, as ``float`` and ``int``
    refuse it. This is the one locator: the only code that turns the index
    of an entry in an embedding, label or order file into its place. The
    line is found by scanning the bytes again, so a loader keeps no line
    per entry."""
    if raw[:4] == EMB1_MAGIC:
        return f"row {i}"
    if raw[:4] == LAB1_MAGIC:
        return f"entry {i}"
    lines = (lineno for lineno, tok in text_lines(raw, path, "not UTF-8 text")
             if not tok.startswith("#"))
    return f"line {next(itertools.islice(lines, i, None))}"


def _matrix(data: np.ndarray, raw: bytes, path: PathLike) -> EmbeddingMatrix:
    """EmbeddingMatrix(data), but a non-finite value is refused with the file
    and the location of its row in `raw`, the file's bytes."""
    try:
        return EmbeddingMatrix(data)
    except NonFiniteValue:
        where = location(raw, path, _nonfinite_row(data))
        raise NonFiniteValue(f"{path}: {where}: non-finite embedding value") from None


# --- labels ---------------------------------------------------------------------

def _lab1_parts(v: LabelVector) -> tuple[bytes, np.ndarray]:
    # labels are below MAX_CLASSES, so they fit LAB1's u32
    return _LAB1_HEADER.pack(LAB1_MAGIC, 1, 0, 0, 0, len(v)), v.labels.astype("<u4")


def save_labels(v: LabelVector, path: PathLike) -> None:
    """Write LAB1; round-trips bit-exactly through load_labels."""
    write_atomically(path, *_lab1_parts(v))


def sha256(obj: Union[EmbeddingMatrix, LabelVector]) -> str:
    """Hex SHA-256 of `obj` in its EMB1 or LAB1 encoding: the digest of the
    file ``save_embeddings``/``save_labels`` would write, and so of any EMB1
    or LAB1 file that loads into `obj` (both round-trip bit-exactly)."""
    header, payload = _emb1_parts(obj) if isinstance(obj, EmbeddingMatrix) else _lab1_parts(obj)
    h = _sha256(header)
    h.update(payload)
    return h.hexdigest()


def load_labels(path: PathLike, num_classes: Optional[int] = None) -> LabelVector:
    """Load LAB1 (by magic) or one-integer-per-line CSV.

    num_classes defaults to 1 + max label; pass it explicitly for datasets
    where some class is absent.
    """
    raw = read_file(path, "labels")
    parse = _parse_lab1 if raw[:4] == LAB1_MAGIC else _parse_label_csv
    labels = parse(raw, path)
    if num_classes is not None and (over := np.flatnonzero(labels >= num_classes)).size:
        i = int(over[0])
        raise MalformedLabel(
            f"{path}: {location(raw, path, i)}: label {int(labels[i])} exceeds "
            f"num_classes={num_classes}"
        )
    return LabelVector.from_labels(labels, num_classes)


def _parse_lab1(raw: bytes, path: PathLike) -> np.ndarray:
    if len(raw) < _LAB1_HEADER.size:
        raise MalformedHeader(f"{path}: truncated LAB1 header")
    magic, version, r0, r1, r2, n = _LAB1_HEADER.unpack_from(raw)
    if magic != LAB1_MAGIC or version != 1 or (r0, r1, r2) != (0, 0, 0):
        raise MalformedHeader(f"{path}: bad LAB1 header (version={version})")
    if n == 0:
        raise EmptyFile(f"{path}: LAB1 declares n=0")
    payload = len(raw) - _LAB1_HEADER.size
    if payload != 4 * n:
        raise MalformedHeader(
            f"{path}: LAB1 payload holds {payload // 4} labels, expected {n}"
        )
    # a read-only view of the payload; LabelVector converts it once
    labels = np.frombuffer(raw, dtype="<u4", offset=_LAB1_HEADER.size)
    over = np.flatnonzero(labels >= MAX_CLASSES)
    if over.size:
        i = int(over[0])
        raise MalformedLabel(
            f"{path}: {location(raw, path, i)}: label {int(labels[i])} implies "
            f"{int(labels[i]) + 1} classes, more than MAX_CLASSES={MAX_CLASSES}"
        )
    return labels


def _parse_label_csv(raw: bytes, path: PathLike) -> np.ndarray:
    values = np.empty(raw.count(b"\n") + 1, dtype=np.int64)  # a label per line at most
    k = 0  # labels filled
    for lineno, tok in text_lines(raw, path, "neither LAB1 binary nor UTF-8 CSV"):
        try:
            label = int(tok)
        except ValueError:
            raise MalformedLabel(f"{path}: line {lineno}: {tok!r} is not an integer") from None
        if label < 0:
            raise MalformedLabel(f"{path}: line {lineno}: negative label {label}")
        if label >= MAX_CLASSES:
            raise MalformedLabel(
                f"{path}: line {lineno}: label {label} implies {label + 1} classes, "
                f"more than MAX_CLASSES={MAX_CLASSES}"
            )
        values[k] = label
        k += 1
    if not k:
        raise EmptyFile(f"{path}: no labels")
    values = values[:k]
    values.setflags(write=False)  # handed over: LabelVector keeps it uncopied
    return values
