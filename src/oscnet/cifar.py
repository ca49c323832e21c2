"""CIFAR-10 binary ingestion, synthetic records, and stratified subsetting.

The binary layout is records of 3073 bytes: one label byte in [0, 9] followed
by 3072 pixel bytes as three 1024-byte channel planes (R, G, B), each plane
row-major 32x32.  Decoding divides pixels by 255; re-encoding a decoded record
reproduces the original bytes exactly.

The loader never downloads anything: it reads a user-supplied directory
holding data_batch_1.bin .. data_batch_5.bin and test_batch.bin (a
cifar-10-batches-bin/ subdirectory is also accepted).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptRecordError, DataFormatError, require_positive

RECORD_BYTES = 3073
IMAGE_SHAPE = (3, 32, 32)
NUM_CLASSES = 10
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"


@dataclass(frozen=True)
class ImageDataset:
    images: np.ndarray  # (N, 3, 32, 32) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64 in [0, 10)

    def __len__(self) -> int:
        return self.images.shape[0]


def _rows(buf: bytes, source: str) -> np.ndarray:
    """``buf`` as (n, RECORD_BYTES) uint8 rows, after checking its size and labels."""
    if len(buf) % RECORD_BYTES:
        raise DataFormatError(
            f"{source}: size {len(buf)} is not a multiple of {RECORD_BYTES}")
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    bad = np.flatnonzero(raw[:, 0] > 9)
    if bad.size:
        offset = int(bad[0]) * RECORD_BYTES
        raise CorruptRecordError(
            f"{source}: label byte {raw[bad[0], 0]} > 9 at byte offset {offset}", offset)
    return raw


def _decode_into(raw: np.ndarray, images: np.ndarray, labels: np.ndarray) -> None:
    """Write the rows of ``raw`` into float32 ``images`` and int64 ``labels``."""
    labels[...] = raw[:, 0]
    np.divide(raw[:, 1:].reshape(images.shape), np.float32(255.0), out=images)


def decode_records(buf: bytes, source: str = "record stream"):
    """Decode a stream of 3073-byte records into (images, labels).

    Errors name ``source``; a CorruptRecordError's offset is relative to ``buf``.
    """
    raw = _rows(buf, source)
    images = np.empty((raw.shape[0], *IMAGE_SHAPE), dtype=np.float32)
    labels = np.empty(raw.shape[0], dtype=np.int64)
    _decode_into(raw, images, labels)
    return images, labels


def _record(label: int, pixels: np.ndarray) -> bytes:
    """The label byte followed by the 3072 uint8 pixel bytes."""
    if not (0 <= int(label) < NUM_CLASSES):
        raise ConfigError(f"label must be in [0, {NUM_CLASSES}), got {label}")
    return bytes([int(label)]) + pixels.tobytes()


def encode_record(label: int, image: np.ndarray) -> bytes:
    """Inverse of decode: one (3,32,32) [0,1] image back to 3073 bytes."""
    return _record(label, np.rint(np.asarray(image, dtype=np.float64) * 255.0).astype(np.uint8))


def synthetic_check_image(kind: str, label: int, value: int = 0) -> bytes:
    """A valid single-record byte block for loader round-trip tests.

    kind "constant" fills every pixel with ``value``; kind "gradient" writes a
    deterministic position-dependent ramp (byte i of the pixel plane stream is
    i mod 256).
    """
    if kind == "constant":
        if not (0 <= int(value) <= 255):
            raise ConfigError(f"constant value must be a byte, got {value}")
        pixels = np.full(RECORD_BYTES - 1, int(value), dtype=np.uint8)
    elif kind == "gradient":
        pixels = (np.arange(RECORD_BYTES - 1) % 256).astype(np.uint8)
    else:
        raise ConfigError(f"kind must be 'constant' or 'gradient', got {kind!r}")
    return _record(label, pixels)


def _resolve_dir(path) -> Path:
    d = Path(path)
    if (d / "cifar-10-batches-bin").is_dir():
        d = d / "cifar-10-batches-bin"
    return d


def _load_files(d: Path, names) -> ImageDataset:
    """Decode each file into its slice of one array sized from the file sizes,
    so the peak is the outputs plus one file's bytes."""
    files = [d / name for name in names]
    for f in files:
        if not f.is_file():
            raise DataFormatError(f"missing dataset file {f}")
    counts = [f.stat().st_size // RECORD_BYTES for f in files]
    images = np.empty((sum(counts), *IMAGE_SHAPE), dtype=np.float32)
    labels = np.empty(sum(counts), dtype=np.int64)
    start = 0
    for f, n in zip(files, counts):
        raw = _rows(f.read_bytes(), str(f))
        if not raw.shape[0]:
            raise DataFormatError(f"dataset file {f} holds no records")
        if raw.shape[0] != n:
            raise DataFormatError(f"dataset file {f} changed size while it was read")
        _decode_into(raw, images[start:start + n], labels[start:start + n])
        start += n
    return ImageDataset(images, labels)


def load_cifar10(data_dir):
    """Load (train, test) from the standard binary archive layout."""
    d = _resolve_dir(data_dir)
    return _load_files(d, TRAIN_FILES), _load_files(d, [TEST_FILE])


def _check_subset_size(n: int) -> None:
    """The rule stratified_subset applies to n alone; bench checks it before any I/O."""
    require_positive("subset size", n)
    if n % NUM_CLASSES:
        raise ConfigError(f"subset size must be divisible by {NUM_CLASSES}, got {n}")


def stratified_subset(ds: ImageDataset, n: int, seed: int) -> ImageDataset:
    """Exactly n/10 samples per class, chosen by a seeded shuffle within class."""
    _check_subset_size(n)
    if n > len(ds):
        raise ConfigError(f"subset size {n} exceeds dataset size {len(ds)}")
    per_class = n // NUM_CLASSES
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(NUM_CLASSES):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size < per_class:
            raise ConfigError(
                f"class {c} has only {idx.size} samples, need {per_class}")
        picks.append(rng.permutation(idx)[:per_class])
    order = rng.permutation(np.concatenate(picks))
    return ImageDataset(ds.images[order], ds.labels[order])
