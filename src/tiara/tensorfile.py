"""Binary tensor container: magic "TIAR", version, rank, dims, then the
row-major float64 little-endian payload.

``write_tensor`` is the one write path.  It takes an array, or
``Blocks(shape, blocks)``: the header for the declared shape, then each
block as the iterable yields it, so a large tensor can be streamed without
ever being held whole.  The file is written under a temporary name and
renamed into place only when the payload has exactly the length the shape
needs; otherwise the temporary file is removed and an existing destination
is left as it was.  Readers therefore never observe a partial file."""

import os
import stat
import struct
from math import prod
from typing import Iterable, NamedTuple

import numpy as np

from .errors import TensorFileError, ValidationError, _integer_rule, _shown

MAGIC = b"TIAR"
VERSION = 1
MAX_RANK = 4

_HEAD = struct.Struct("<4sII")


class Blocks(NamedTuple):
    """A tensor of ``shape`` given as consecutive row-major blocks of its
    payload, produced only as ``write_tensor`` consumes them."""
    shape: tuple
    blocks: Iterable


def write_tensor(path, array) -> None:
    """Write an array, or every block of a ``Blocks`` in turn (each cast to
    ``<f8``, row-major), as one tensor file.  A payload short of or beyond
    what the shape needs, or an exception while the blocks are produced,
    removes the temporary file and leaves ``path`` as it was."""
    if not isinstance(array, Blocks):
        array = np.asarray(array, dtype="<f8")
        array = Blocks(array.shape, [array])
    if not 1 <= len(array.shape) <= MAX_RANK:
        raise ValidationError(f"tensor rank must be in [1, {MAX_RANK}], got {len(array.shape)}")
    for n in array.shape:
        _integer_rule(n, "tensor dimension", 0)
        if n >= 1 << 64:
            raise ValidationError(f"tensor dimension must be < 2**64 (u64), got {_shown(n)}")
    shape = tuple(int(n) for n in array.shape)
    expected, written = 8 * prod(shape), 0
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tiara-{os.urandom(8).hex()}")
    # created with 0o666 like any other output, so the umask sets the final mode
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_HEAD.pack(MAGIC, VERSION, len(shape)))
            handle.write(struct.pack(f"<{len(shape)}Q", *shape))
            for block in array.blocks:
                block = np.ascontiguousarray(block, dtype="<f8")
                written += block.nbytes
                if written > expected:
                    raise ValidationError(f"payload overrun: {written} bytes for shape "
                                          f"{shape}, which needs {expected}")
                handle.write(block)
        if written != expected:
            raise ValidationError(
                f"payload shortfall: {written} bytes for shape {shape}, which needs {expected}")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as handle:
        status = os.fstat(handle.fileno())
        if not stat.S_ISREG(status.st_mode):
            raise TensorFileError("not a regular file: a tensor is read only from a "
                                  "file whose size is known", offset=0)
        size = status.st_size
        if size < _HEAD.size:
            raise TensorFileError(f"truncated header: {size} bytes", offset=size)
        magic, version, rank = _HEAD.unpack(handle.read(_HEAD.size))
        if magic != MAGIC:
            raise TensorFileError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        if version != VERSION:
            raise TensorFileError(f"unsupported version {version}", offset=4)
        if not 1 <= rank <= MAX_RANK:
            raise TensorFileError(f"rank {rank} outside [1, {MAX_RANK}]", offset=8)
        dims_end = _HEAD.size + 8 * rank
        if size < dims_end:
            raise TensorFileError("truncated dimension list", offset=size)
        dims = struct.unpack(f"<{rank}Q", handle.read(8 * rank))
        expected = dims_end + 8 * prod(dims)
        if size != expected:
            raise TensorFileError(
                f"payload length mismatch: file has {size} bytes, "
                f"dims {dims} require {expected}", offset=dims_end)
        data = np.empty(dims, dtype="<f8")
        got = handle.readinto(data)
        if got != data.nbytes:
            raise TensorFileError(f"short read: {got} of {data.nbytes} payload bytes",
                                  offset=dims_end + got)
    return data.astype(float, copy=False)
