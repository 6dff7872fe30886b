"""Dense (batch, sequence, channel) tensors and explicit gather permutations.

Every sparse-pattern rearrangement in this package is realized as an
IndexMap: a table mapping each output (batch, seq) address to the input
address it reads from. Building the table separately from applying it
keeps a single gather engine for both float64 tensors and uint8 HiF8 code
tensors, and makes every rearrangement checkable for bijectivity.

A gather whose output holds at least `SPLIT_BYTES` splits its output rows
into one contiguous run per core the process may run on, and gathers the
runs at once on a thread pool made by the first such gather. Each run is
the same `np.take` over a disjoint slice of the rows, so the result is
bitwise identical to one call, whatever the dtype or the core count.
Smaller gathers run as one call and start no thread.

An output of at least `SPLIT_BYTES` is a read-only view of a writable
byte buffer that the module keeps and hands out again, so a switch that
gathers the same size again and again does not make the kernel fault in
and zero fresh pages each time. A kept buffer of the output's byte size
is reused only when no live array views it: numpy points every view,
reshape and sub-view of an output straight at that buffer (`.base`), so
any of them keeps it busy. When no kept buffer is free and of that size,
every unviewed one is dropped first and a new one is kept, so a free
buffer never stays beside a new one. Kept buffers live as long as the
process unless such a miss drops them. Smaller outputs are fresh arrays.

A (t, h, w) grid flattens row-major: t outermost, then h, then w.

Seeded random fills use numpy's PCG64 generator (a named, documented
algorithm) so golden files can be regenerated exactly from a seed.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

OSPT_MAGIC = b"OSPT"
OSPT_VERSION = 1
# output bytes from which IndexMap.apply splits its gather across the cores:
# on the 2-core reference host a two-way split took 0.42 against 0.79 ms at
# 4 MiB and broke even near 1 MiB, and report-all's and a 3840-token
# attention layer's gathers (at most 1.9 MiB) stay single and thread-free
SPLIT_BYTES = 4 * 2 ** 20
# the cores this process may run on (taskset and cgroup cpusets narrow it)
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


@functools.cache
def _gather_pool():
    """The threads that take every run of a split gather but the caller's
    first. Made on first use: concurrent.futures imports logging, which
    small work should not pay for. Two first calls that race may each make
    a pool; the one not cached is collected with its idle threads."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_CORES - 1, thread_name_prefix="osp-gather")


def _take_run(arrays: list) -> None:
    """One run of a split gather on a pool thread. It empties `arrays`
    first: the pool's work item outlives the run's future by a few
    bytecodes, and a view of the output left in it would keep a kept
    buffer busy after apply returns."""
    flat, src, dst = arrays
    arrays.clear()
    np.take(flat, src, axis=0, mode="clip", out=dst)


# writable uint8 buffers behind apply's outputs of at least SPLIT_BYTES
_kept: list[np.ndarray] = []
_kept_lock = threading.Lock()


def _kept_output(shape: tuple[int, int, int], dtype: np.dtype) -> np.ndarray:
    """A writable array of `shape` and `dtype` over a kept buffer of its
    byte size that no live array views, or over a new kept buffer after
    every unviewed one is dropped."""
    nbytes = math.prod(shape) * dtype.itemsize
    with _kept_lock:
        # an unviewed buffer's only references are the list's and the
        # argument's; the view made under the lock claims the buffer
        free = [i for i in range(len(_kept)) if sys.getrefcount(_kept[i]) == 2]
        for i in free:
            if _kept[i].nbytes == nbytes:
                return _kept[i].view(dtype).reshape(shape)
        for i in reversed(free):
            del _kept[i]
        _kept.append(np.empty(nbytes, dtype=np.uint8))
        return _kept[-1].view(dtype).reshape(shape)


def _reset_in_child() -> None:
    # a forked child inherits the cached pool but not its threads, and the
    # list's lock in whatever state another thread left it
    global _kept_lock
    _gather_pool.cache_clear()
    _kept_lock = threading.Lock()
    _kept.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


class CoordinateError(ValueError):
    """A (t, h, w) coordinate lies outside its grid."""


class ShapeError(ValueError):
    """Tensor and map shapes do not agree."""


@dataclass(frozen=True)
class GridShape:
    """A latent grid of t frames by h rows by w columns, with sparse ratio k.

    k is the skip interval of the sparse patterns; it constrains nothing
    here beyond positivity, the pattern builders check divisibility.
    """

    t: int
    h: int
    w: int
    k: int = 1

    def __post_init__(self) -> None:
        for name in ("t", "h", "w", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"GridShape.{name} must be a positive integer, got {value!r}")

    @property
    def seq_len(self) -> int:
        return self.t * self.h * self.w

    def flatten_index(self, t: int, h: int, w: int) -> int:
        """Row-major flat sequence index of coordinate (t, h, w)."""
        if not (0 <= t < self.t and 0 <= h < self.h and 0 <= w < self.w):
            raise CoordinateError(f"coordinate ({t}, {h}, {w}) outside grid {self.t}x{self.h}x{self.w}")
        return (t * self.h + h) * self.w + w


@dataclass(frozen=True)
class SequenceTensor:
    """A (batch, seq, chan) array of scalars: uint8 data stays uint8 (HiF8
    codes), any other data is stored as float64.

    Rearranges permute (batch, seq) addresses only; channel vectors move
    as wholes and are never modified. Data is frozen after construction.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        arr = np.ascontiguousarray(arr, dtype=np.uint8 if arr.dtype == np.uint8 else np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"SequenceTensor data must be (batch, seq, chan), got shape {self.data.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def seq(self) -> int:
        return self.data.shape[1]

    @property
    def chan(self) -> int:
        return self.data.shape[2]

    @staticmethod
    def zeros(batch: int, seq: int, chan: int) -> "SequenceTensor":
        return SequenceTensor(np.zeros((batch, seq, chan)))


def random_tensor(batch: int, seq: int, chan: int, seed: int) -> SequenceTensor:
    """Standard-normal tensor from a PCG64 stream, drawn in storage order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return SequenceTensor(rng.standard_normal((batch, seq, chan)))


@dataclass(frozen=True)
class IndexMap:
    """Gather table: output address (b, s) reads input flat address src[b, s].

    Flat input addresses are b_in * in_seq + s_in; the output shape is the
    shape of src. A map is a bijection when every input address is consumed
    exactly once; all pattern maps in this package are bijections and are
    checked as such in tests.
    """

    in_batch: int
    in_seq: int
    src: np.ndarray  # (out_batch, out_seq) int64

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        total = self.in_batch * self.in_seq
        if src.ndim != 2 or src.size != total:
            raise ShapeError(f"src shape {src.shape} must be 2-D and hold the "
                             f"{total} addresses of input ({self.in_batch}, {self.in_seq})")
        if src.size and (src.min() < 0 or src.max() >= total):
            b, s = (int(i) for i in np.argwhere((src < 0) | (src >= total))[0])
            raise ShapeError(f"src shape {src.shape} reads address {int(src[b, s])} at output "
                             f"({b}, {s}), outside the {total} addresses of input "
                             f"({self.in_batch}, {self.in_seq})")
        src.flags.writeable = False
        object.__setattr__(self, "src", src)

    @property
    def out_batch(self) -> int:
        return self.src.shape[0]

    @property
    def out_seq(self) -> int:
        return self.src.shape[1]

    @property
    def total(self) -> int:
        return self.in_batch * self.in_seq

    def is_bijection(self) -> bool:
        seen = np.zeros(self.total, dtype=bool)
        seen[self.src.reshape(-1)] = True
        return bool(seen.all())

    def apply(self, x: SequenceTensor) -> SequenceTensor:
        """Gather x through the map; channel vectors are copied verbatim.

        An output of at least `SPLIT_BYTES` is gathered as one contiguous run
        of output rows per core: the calling thread takes the first run and
        pool threads the rest, and apply waits for every run. `np.take`
        releases the GIL, and each run reads the frozen input and writes
        only its own rows, so the bytes equal those of one `np.take`.

        Such an output views a kept buffer of its byte size that no live
        array views. If none is free, apply drops every unviewed kept
        buffer and keeps a new one, which lives as long as the process
        unless a later miss drops it. So an output never shares memory
        with an array that is still alive.
        """
        if (x.batch, x.seq) != (self.in_batch, self.in_seq):
            raise ShapeError(
                f"map expects input ({self.in_batch}, {self.in_seq}), got ({x.batch}, {x.seq})"
            )
        shape, dtype = (self.out_batch, self.out_seq, x.chan), x.data.dtype
        large = math.prod(shape) * dtype.itemsize >= SPLIT_BYTES
        out = _kept_output(shape, dtype) if large else np.empty(shape, dtype=dtype)
        flat, src, dst = (x.data.reshape(self.total, x.chan), self.src.reshape(-1),
                          out.reshape(self.total, x.chan))
        # mode="clip" skips numpy's per-index bounds check; it cannot hide a
        # bad address, because __post_init__ range-checks src and freezes it.
        # Pool threads run _take_run, which calls numpy only: no public osp
        # call, so no traced span
        runs, n = [], min(_CORES, self.total)
        if n > 1 and large:
            cuts = [self.total * i // n for i in range(n + 1)]
            runs = [_gather_pool().submit(_take_run, [flat, src[a:b], dst[a:b]])
                    for a, b in zip(cuts[1:-1], cuts[2:])]
            src, dst = src[:cuts[1]], dst[:cuts[1]]
        np.take(flat, src, axis=0, mode="clip", out=dst)
        for run in runs:
            run.result()
        return SequenceTensor(out)

    def compose(self, inner: "IndexMap") -> "IndexMap":
        """Map equal to applying `inner` first, then this map."""
        if (self.in_batch, self.in_seq) != (inner.out_batch, inner.out_seq):
            raise ShapeError("composition shapes do not chain")
        return IndexMap(inner.in_batch, inner.in_seq, inner.src.reshape(-1)[self.src])

    def invert(self) -> "IndexMap":
        if not self.is_bijection():
            raise ShapeError("only bijective maps can be inverted")
        inv = np.empty(self.total, dtype=np.int64)
        inv[self.src.reshape(-1)] = np.arange(self.total, dtype=np.int64)
        return IndexMap(self.out_batch, self.out_seq, inv.reshape(self.in_batch, self.in_seq))

    def same_permutation(self, other: "IndexMap") -> bool:
        return (self.in_batch, self.in_seq) == (other.in_batch, other.in_seq) and \
            np.array_equal(self.src, other.src)

    @staticmethod
    def identity(batch: int, seq: int) -> "IndexMap":
        src = np.arange(batch * seq, dtype=np.int64).reshape(batch, seq)
        return IndexMap(batch, seq, src)


def rearrange_map(
    batch_axes: Sequence[tuple[str, int]],
    seq_axes: Sequence[tuple[str, int]],
    out_batch: Sequence[str],
    out_seq: Sequence[str],
) -> IndexMap:
    """IndexMap for a pure axis-factorization rearrangement.

    batch_axes / seq_axes list the named factors of the input batch and
    sequence dimensions in row-major nesting order (outermost first);
    out_batch / out_seq give the output nesting as a permutation of the
    same names. This is the one permutation engine behind every pattern
    map in the package.
    """
    axes = list(batch_axes) + list(seq_axes)
    names = [name for name, _ in axes]
    sizes = {name: size for name, size in axes}
    if len(set(names)) != len(names):
        raise ValueError("duplicate axis names")
    out_names = list(out_batch) + list(out_seq)
    if sorted(out_names) != sorted(names):
        raise ValueError("output axes must be a permutation of input axes")

    in_batch = math.prod(s for _, s in batch_axes)
    in_seq = math.prod(s for _, s in seq_axes)
    out_shape = (math.prod(sizes[n] for n in out_batch), math.prod(sizes[n] for n in out_seq))

    grid = np.arange(in_batch * in_seq, dtype=np.int64).reshape([size for _, size in axes])
    perm = [names.index(n) for n in out_names]
    return IndexMap(in_batch, in_seq, grid.transpose(perm).reshape(out_shape))


def write_ospt(path: str | Path, x: SequenceTensor) -> None:
    """Write the binary tensor format: magic "OSPT", version byte, then
    batch/seq/chan as u32 little-endian, then float64 little-endian data
    in storage order. Only float64 tensors are stored."""
    if x.data.dtype != np.float64:
        raise ValueError(f"OSPT files store float64 tensors, got {x.data.dtype}")
    with open(path, "wb") as f:
        f.write(OSPT_MAGIC)
        f.write(bytes([OSPT_VERSION]))
        f.write(struct.pack("<III", x.batch, x.seq, x.chan))
        f.write(x.data.astype("<f8").tobytes())


def read_ospt(path: str | Path) -> SequenceTensor:
    """Read an OSPT file. The header's declared payload size is checked
    against the file size before anything is allocated; a short payload
    or trailing bytes raise ValueError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(17)
        if header[:4] != OSPT_MAGIC:
            raise ValueError(f"bad magic {header[:4]!r}, expected {OSPT_MAGIC!r}")
        if len(header) < 17:
            raise ValueError(f"OSPT file of {size} bytes is shorter than its 17-byte header")
        if header[4:5] != bytes([OSPT_VERSION]):
            raise ValueError(f"unsupported OSPT version {header[4:5]!r}")
        batch, seq, chan = struct.unpack("<III", header[5:])
        payload = 8 * batch * seq * chan
        if size - 17 != payload:
            raise ValueError(f"OSPT header declares {batch}x{seq}x{chan} float64 values "
                             f"({payload} bytes), the file holds {size - 17} payload bytes")
        data = np.frombuffer(f.read(payload), dtype="<f8").reshape(batch, seq, chan)
    return SequenceTensor(data.astype(np.float64))
