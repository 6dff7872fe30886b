"""Any-resolution support: pad h and w up to multiples of k^2 and track a
1-D validity mask over the flattened padded sequence.

Padding is appended at the end of the h and w axes only, so tokens at the
same spatial position always land in the same subsequence regardless of
the original resolution. After a pattern map is applied the mask stays
1-D (one flag per (subsequence, position)); no 2-D mask is ever required.
A `PaddedGrid` is derived from its original grid alone. `subsequence_mask`
reports validity in a pattern's layout; the sparse attention path reads
`pg.mask` through the pattern map's `src` itself.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gridseq import GridShape, SequenceTensor, ShapeError
from .skiparse import SparsePattern, pattern_map


def _ceil_to(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


@dataclass(frozen=True)
class PaddedGrid:
    """The padding of the grid `original`, which derives the rest: padded,
    its h and w padded at their ends to multiples of k^2; the flat mask,
    True for real tokens (row < original.h and col < original.w); and
    embedding[i], the padded flat position of the i-th original token, an
    index vector rather than an IndexMap because padding is not a
    permutation. Derived values are read-only and left out of equality,
    so two paddings of one grid are equal and hash alike."""

    original: GridShape
    padded: GridShape = field(init=False, compare=False, repr=False)
    mask: np.ndarray = field(init=False, compare=False, repr=False)  # (padded seq_len,) bool
    embedding: np.ndarray = field(init=False, compare=False, repr=False)  # (original seq_len,) int64

    def __post_init__(self) -> None:
        g = self.original
        k2 = g.k * g.k
        padded = GridShape(g.t, _ceil_to(g.h, k2), _ceil_to(g.w, k2), g.k)
        plane = (np.arange(padded.h) < g.h)[:, None] & (np.arange(padded.w) < g.w)[None, :]
        mask = np.tile(plane.reshape(-1), g.t)
        embedding = np.flatnonzero(mask).astype(np.int64)
        mask.flags.writeable = embedding.flags.writeable = False
        for name, value in (("padded", padded), ("mask", mask), ("embedding", embedding)):
            object.__setattr__(self, name, value)

    @property
    def trivial(self) -> bool:
        """True when no padding was needed."""
        return self.padded == self.original


def pad_grid(g: GridShape) -> PaddedGrid:
    """Pad h and w to the nearest multiple of k^2 (t is never padded)."""
    return PaddedGrid(g)


def pad_tensor(x: SequenceTensor, pg: PaddedGrid,
               pad_fill: np.ndarray | None = None) -> SequenceTensor:
    """Embed an original-grid tensor into the padded grid.

    Pad positions hold zeros (or rows from `pad_fill`, used by tests to
    prove that results never depend on pad contents).
    """
    if x.seq != pg.original.seq_len:
        raise ShapeError(f"expected seq {pg.original.seq_len}, got {x.seq}")
    out = np.zeros((x.batch, pg.padded.seq_len, x.chan), dtype=x.data.dtype)
    if pad_fill is not None:
        out[:, ~pg.mask, :] = pad_fill
    out[:, pg.embedding, :] = x.data
    return SequenceTensor(out)


def strip_padding(x: SequenceTensor, pg: PaddedGrid) -> SequenceTensor:
    """Keep real tokens only, in original order (inverse of pad_tensor)."""
    if x.seq != pg.padded.seq_len:
        raise ShapeError(f"expected padded seq {pg.padded.seq_len}, got {x.seq}")
    return SequenceTensor(x.data[:, pg.embedding, :])


def subsequence_mask(pg: PaddedGrid, pattern: SparsePattern) -> np.ndarray:
    """Validity per (subsequence, position): the flat mask permuted by the
    pattern map. A position is valid iff its source token is real."""
    m = pattern_map(pg.padded, pattern, batch=1)
    return pg.mask[m.src]


def write_mask(path: str | Path, pg: PaddedGrid) -> None:
    """Mask file: padded grid dims (t, h, w, k) as u32 little-endian, then
    one byte per flat padded token (0 pad / 1 real)."""
    with open(path, "wb") as f:
        f.write(struct.pack("<IIII", pg.padded.t, pg.padded.h, pg.padded.w, pg.padded.k))
        f.write(pg.mask.astype(np.uint8).tobytes())


def read_mask(path: str | Path) -> tuple[GridShape, np.ndarray]:
    """Read a mask file, checking the header's grid against the file size
    before reading the flags; a short payload or trailing bytes raise
    ValueError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(16)
        if len(header) < 16:
            raise ValueError(f"mask file of {size} bytes is shorter than its 16-byte header")
        g = GridShape(*struct.unpack("<IIII", header))
        if size - 16 != g.seq_len:
            raise ValueError(f"mask header declares a {g.t}x{g.h}x{g.w} grid ({g.seq_len} flags), "
                             f"the file holds {size - 16} flag bytes")
        mask = np.frombuffer(f.read(g.seq_len), dtype=np.uint8).astype(bool)
    return g, mask
