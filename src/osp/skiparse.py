"""Skip-sparse 2-D rearrangement algebra.

Two fixed patterns split a (t, h, w) grid into k*k equal-length
subsequences, concatenated along the batch axis:

  token-wise (TSA): subsequence (p, q) takes every k-th row and column,
      p = row mod k, q = col mod k (pixel-unshuffle style striding);
  group-wise (GSA): subsequence (p1, q1) takes groups of k adjacent rows
      and columns, skipping k groups, p1 = (row // k) mod k,
      q1 = (col // k) mod k (patch-unshuffle style).

Alternating the two patterns lets any two tokens interact within at most
two attention operations; `reachability_hops` decides that claim on the
k^2-by-k^2 matrix of occupied (TSA id, GSA id) pairs.

Every map comes from one table, `_LAYOUTS`, which writes the original,
token-wise and group-wise layouts as orderings of the same named factors
of a frame, and one builder, `layout_map(g, src, dst)`, on the shared
axis-factorization engine `gridseq.rearrange_map` (einops notation). The
enlarged batch is always nested (pattern-row, pattern-col, batch),
pattern-row outermost, so that layouts agree across implementations.

A map is a pure function of (grid, src layout, dst layout, batch), so
`layout_map` builds each one once per process and hands every caller the
same immutable `IndexMap` (frozen, with a read-only `src`). A test that
swaps `_LAYOUTS` or `rearrange_map` must call
`_build_layout_map.cache_clear()` first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gridseq import GridShape, IndexMap, rearrange_map


class PatternError(ValueError):
    """The grid does not satisfy the pattern's divisibility requirement."""


class ScheduleError(ValueError):
    """Invalid layer-schedule parameters."""


class SparsePattern(Enum):
    ORIGINAL = "original"
    TOKEN_WISE = "tsa"
    GROUP_WISE = "gsa"


# Every layout orders one set of named factors. A frame row r splits as
# (r // k^2, (r // k) % k, r % k) = (row group, p1, p2), the row group fused
# with t into txh; a column c splits the same way into (wg, q1, q2). Each
# entry is (batch nesting, seq nesting), outermost first: token-wise batches
# the finest stride (p2, q2), group-wise the next one (p1, q1).
_LAYOUTS = {
    SparsePattern.ORIGINAL: (("b",), ("txh", "p1", "p2", "wg", "q1", "q2")),
    SparsePattern.TOKEN_WISE: (("p2", "q2", "b"), ("txh", "p1", "wg", "q1")),
    SparsePattern.GROUP_WISE: (("p1", "q1", "b"), ("txh", "p2", "wg", "q2")),
}

# maps kept by the layout_map memo: one report-all builds 57 distinct maps,
# and a second report-all in the same process must miss none of them
LAYOUT_MEMO_SIZE = 64


def layout_map(g: GridShape, src: SparsePattern, dst: SparsePattern, batch: int = 1) -> IndexMap:
    """Layout src -> layout dst for `batch` items on grid g.

    A stride that k (or k^2) does not divide into h and w gets size 1, so
    the layouts that batch it raise PatternError: token-wise needs h and w
    divisible by k, group-wise by k^2. The map comes from a memo of the
    last LAYOUT_MEMO_SIZE built, so callers share it; it is immutable.
    """
    # a plain function, so a tracer that wraps module functions sees the call
    return _build_layout_map(g, src, dst, batch)


@functools.lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def _build_layout_map(g: GridShape, src: SparsePattern, dst: SparsePattern,
                      batch: int) -> IndexMap:
    k = g.k
    fine = k if g.h % k == 0 and g.w % k == 0 else 1
    mid = k if g.h % (k * k) == 0 and g.w % (k * k) == 0 else 1
    sizes = {"b": batch, "txh": g.t * g.h // (fine * mid), "p1": mid, "p2": fine,
             "wg": g.w // (fine * mid), "q1": mid, "q2": fine}
    for pattern in (src, dst):
        strides = _LAYOUTS[pattern][0][:-1]
        if any(sizes[a] != k for a in strides):
            unit = "k^2" if "p1" in strides else "k"
            raise PatternError(f"{pattern.value} pattern needs h and w divisible by {unit} "
                               f"at k={k}, got {g.h}x{g.w}")
    (in_batch, in_seq), (out_batch, out_seq) = _LAYOUTS[src], _LAYOUTS[dst]
    return rearrange_map([(a, sizes[a]) for a in in_batch], [(a, sizes[a]) for a in in_seq],
                         out_batch, out_seq)


def orig_to_tsa(g: GridShape, batch: int = 1) -> IndexMap:
    return layout_map(g, SparsePattern.ORIGINAL, SparsePattern.TOKEN_WISE, batch)


def tsa_to_orig(g: GridShape, batch: int = 1) -> IndexMap:
    return layout_map(g, SparsePattern.TOKEN_WISE, SparsePattern.ORIGINAL, batch)


def orig_to_gsa(g: GridShape, batch: int = 1) -> IndexMap:
    return layout_map(g, SparsePattern.ORIGINAL, SparsePattern.GROUP_WISE, batch)


def gsa_to_orig(g: GridShape, batch: int = 1) -> IndexMap:
    return layout_map(g, SparsePattern.GROUP_WISE, SparsePattern.ORIGINAL, batch)


def tsa_to_gsa(g: GridShape, batch: int = 1) -> IndexMap:
    return layout_map(g, SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE, batch)


def gsa_to_tsa(g: GridShape, batch: int = 1) -> IndexMap:
    return layout_map(g, SparsePattern.GROUP_WISE, SparsePattern.TOKEN_WISE, batch)


def pattern_map(g: GridShape, pattern: SparsePattern, batch: int = 1) -> IndexMap:
    """Original layout -> the given pattern layout."""
    return layout_map(g, SparsePattern.ORIGINAL, pattern, batch)


@dataclass(frozen=True)
class PatternAssignment:
    """Per-token (subsequence id, position) for one batch item.

    Subsequence ids follow the enlarged-batch order of the pattern map,
    so id = p * k + q for token-wise and p1 * k + q1 for group-wise.
    Every subsequence has exactly `subseq_len` members.
    """

    pattern: SparsePattern
    subseq: np.ndarray  # (seq_len,) subsequence id per flat token
    position: np.ndarray  # (seq_len,) position within subsequence
    num_subsequences: int
    subseq_len: int


def assignment_of(g: GridShape, pattern: SparsePattern) -> PatternAssignment:
    # the inverse map sends each original token to its flat pattern address
    back = layout_map(g, pattern, SparsePattern.ORIGINAL)
    subseq, position = np.divmod(back.src[0], back.in_seq)
    return PatternAssignment(pattern, subseq, position, back.in_batch, back.in_seq)


def reachability_hops(g: GridShape) -> int | float:
    """Maximum over ordered token pairs of the minimum alternating hop count.

    A hop is one attention operation: (u, v) is 1 hop apart when they share
    a subsequence in either pattern, 2 hops apart when some token m shares
    a subsequence with u in one pattern and with v in the other. Returns
    math.inf if any pair is unreachable in two hops.

    A token's hops depend only on its (TSA id, GSA id) pair, so the work is
    on the k^2-by-k^2 matrix of occupied pairs, never on token pairs.
    """
    tsa = assignment_of(g, SparsePattern.TOKEN_WISE).subseq
    gsa = assignment_of(g, SparsePattern.GROUP_WISE).subseq
    k2 = g.k * g.k
    # occupied[t_id, g_id]: some token has this (tsa, gsa) subsequence pair
    occupied = np.zeros((k2, k2), dtype=bool)
    occupied[tsa, gsa] = True

    # every pair shares a subsequence iff all occupied pairs share one id
    if occupied.any(axis=1).sum() == 1 or occupied.any(axis=0).sum() == 1:
        return 1
    # u = (a, b) reaches v = (c, d) in two hops through a token at (a, d) or
    # (c, b). It fails iff some b has (a, b) occupied and (c, b) not, and
    # some d has (c, d) occupied and (a, d) not: leaves[a, c] counts the b.
    leaves = occupied.astype(np.int64) @ (~occupied).T.astype(np.int64)
    return math.inf if ((leaves > 0) & (leaves.T > 0)).any() else 2


def build_layer_schedule(num_layers: int, n_full: int) -> list[SparsePattern]:
    """Spindle schedule, one `skiparse_attention` pattern per layer:
    n_full / 2 full-attention (ORIGINAL) layers at each end, the middle
    strictly alternating token-wise / group-wise starting with TSA.

    The alternation phase (TSA first) is a fixed convention of this
    package; equivalence checks elsewhere do not depend on it.
    """
    if n_full < 0 or n_full % 2:
        raise ScheduleError(f"n_full must be even and non-negative, got {n_full}")
    if n_full > num_layers:
        raise ScheduleError(f"n_full={n_full} exceeds num_layers={num_layers}")
    middle = [(SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE)[i % 2]
              for i in range(num_layers - n_full)]
    full = [SparsePattern.ORIGINAL] * (n_full // 2)
    return full + middle + full
