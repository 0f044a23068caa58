"""Binary tensor container: magic "TIAR", version, rank, dims, then the
row-major float64 little-endian payload.  Writes go through a temp file and
an atomic rename so readers never observe a partial file."""

import os
import struct
import tempfile

import numpy as np

from .errors import TensorFileError, ValidationError

MAGIC = b"TIAR"
VERSION = 1
MAX_RANK = 4

_HEAD = struct.Struct("<4sII")


def write_tensor(path, array) -> None:
    array = np.asarray(array, dtype="<f8")
    if not 1 <= array.ndim <= MAX_RANK:
        raise ValidationError(f"tensor rank must be in [1, {MAX_RANK}], got {array.ndim}")
    header = _HEAD.pack(MAGIC, VERSION, array.ndim)
    dims = struct.pack(f"<{array.ndim}Q", *array.shape)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".tiara-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            handle.write(dims)
            handle.write(np.ascontiguousarray(array))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEAD.size:
        raise TensorFileError(f"truncated header: {len(blob)} bytes", offset=len(blob))
    magic, version, rank = _HEAD.unpack_from(blob, 0)
    if magic != MAGIC:
        raise TensorFileError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise TensorFileError(f"unsupported version {version}", offset=4)
    if not 1 <= rank <= MAX_RANK:
        raise TensorFileError(f"rank {rank} outside [1, {MAX_RANK}]", offset=8)
    dims_end = _HEAD.size + 8 * rank
    if len(blob) < dims_end:
        raise TensorFileError("truncated dimension list", offset=len(blob))
    dims = struct.unpack_from(f"<{rank}Q", blob, _HEAD.size)
    count = 1
    for d in dims:
        count *= d
    expected = dims_end + 8 * count
    if len(blob) != expected:
        raise TensorFileError(
            f"payload length mismatch: file has {len(blob)} bytes, "
            f"dims {dims} require {expected}", offset=dims_end)
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=dims_end)
    return data.reshape(dims).astype(float)
