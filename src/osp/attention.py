"""One dense attention kernel in 64-bit precision, plus the per-subsequence
sparse execution path and its dense oracle.

`dense_attention` computes `q/√C @ kᵀ` and `weights @ v` with BLAS matmuls
and runs the softmax in place on the scores it owns without normalising
them: it divides the (rows × C) output by each row's weight sum instead,
as FlashAttention does. It holds at most `SCORE_TILE_BYTES` of float64
scores at a time, walking tiles of whole batch items, or of runs of one
item's query rows, in one buffer per call, and scales q tile by tile.
Every row sees all its keys in its tile, so no rescaling crosses tiles.
Attention goes by membership, as the paper defines skip-sparse attention:
a query attends exactly the keys whose group label equals its own, and
each tile's mask is one compare of the labels' tile slices.

The softmax takes one of two routes per call. By Cauchy–Schwarz every
score is at most B = max ‖q_i‖/√C · max ‖k_j‖ in magnitude. When B is at
most `SCORE_BOUND` (and the weighted sum of v cannot overflow), the scores
are exponentiated as they are, with no row max, no shift and no −inf fill,
and the weights are multiplied by the mask. Any other call (large-norm or
non-finite inputs) runs the max-shifted softmax with −inf on masked keys.

Both routes over a grid run on `pg` or by default `pad_grid(g)`, set the q,
k and v rows of pad tokens to zero by assignment, so no pad content, not
even inf or NaN, reaches a score or a value, and label pad tokens with
groups no real token has. The sparse path gathers x once into the pattern
layout and labels pad keys from `anyres.subsequence_mask`. The oracle is
one kernel call on the original layout labelled by subsequence id; it runs
in no blocks of its own, and no S×S array exists. Query/key/value come
from three fixed seeded random projections of the same input, which is all
an equivalence check needs, drawn once per (width, `PROJECTION_SEED`)
pair per process and read-only.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .anyres import PaddedGrid, pad_grid, subsequence_mask
from .gridseq import GridShape, SequenceTensor, ShapeError
from .skiparse import SparsePattern, assignment_of, layout_map, pattern_map

PROJECTION_SEED = 184594917  # fixed stream for the q/k/v projections
# the most float64 scores one dense_attention tile may hold: 256 query rows
# against 4096 keys; the tile's mask and scaled q rows are held beside it
SCORE_TILE_BYTES = 8 * 2 ** 20
# channel widths whose projections are kept: report-all uses 2
PROJECTION_MEMO_SIZE = 8
# the largest score bound B for which the softmax skips its row max: every
# weight exp(s), |s| <= B, lies in [e^-64, e^64] ~ [1.6e-28, 6.2e27], far
# inside float64's normal range [2.2e-308, 1.8e308], so none overflows or
# goes subnormal and an allowed key never rounds to weight 0
SCORE_BOUND = 64.0


def qkv_projections(chan: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (chan, chan) q, k and v matrices, drawn once per
    process and shared."""
    # a plain function, so a tracer that wraps module functions sees the call
    return _projections(chan, PROJECTION_SEED)


@functools.lru_cache(maxsize=PROJECTION_MEMO_SIZE)
def _projections(chan: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 1.0 / np.sqrt(chan)
    mats = tuple(rng.standard_normal((chan, chan)) * scale for _ in range(3))
    for m in mats:
        m.flags.writeable = False
    return mats


def project_qkv(x: SequenceTensor, real: np.ndarray | None = None
                ) -> tuple[SequenceTensor, SequenceTensor, SequenceTensor]:
    """q, k and v of x. real, when given, is a (seq,) or (batch, seq)
    boolean that marks the real tokens: the rows of every other token are
    set to exactly zero by assignment, not by multiplying, so inf or NaN pad
    content leaves nothing behind (inf · 0 is NaN)."""
    wq, wk, wv = qkv_projections(x.chan)
    if real is None:
        return tuple(SequenceTensor(x.data @ w) for w in (wq, wk, wv))
    # a pad row of inf or NaN projects to inf or NaN in that row alone, and
    # the assignment below overwrites it, so its warning says nothing
    with np.errstate(invalid="ignore", over="ignore"):
        mats = tuple(x.data @ w for w in (wq, wk, wv))
    pad = ~real
    for m in mats:
        m[..., pad, :] = 0.0
    return tuple(SequenceTensor(m) for m in mats)


def _max_row_norm(a: np.ndarray) -> float:
    """The largest Euclidean norm of a's last-axis rows (0 if it has none);
    inf or NaN if a holds either."""
    return math.sqrt(np.einsum("...c,...c->...", a, a).max(initial=0.0))


def _softmax_rows(scores: np.ndarray, allowed: np.ndarray, shift: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised softmax over the last axis, in place on `scores`, which
    the caller owns: returns the weights and each row's sum of them
    (keepdims). Keys where the boolean mask `allowed` is False get weight 0;
    a row with no allowed key is all-zero and its sum reads 1, so dividing
    by it leaves zeros.

    With shift the weights are exp(score - row max), disallowed keys
    filled with -inf first, which is stable for any finite scores. Without
    it they are exp(score) times the mask, which the caller may ask for
    only when every |score| <= SCORE_BOUND: then no weight overflows, and
    every score, allowed or not, is finite, as the multiply needs."""
    if shift:
        np.copyto(scores, -np.inf, where=~allowed)
        row_max = np.max(scores, axis=-1, keepdims=True)
        row_max[~np.isfinite(row_max)] = 0.0
        scores -= row_max
        np.exp(scores, out=scores)
    else:
        np.exp(scores, out=scores)
        np.multiply(scores, allowed, out=scores)
    denom = np.sum(scores, axis=-1, keepdims=True)
    denom[denom == 0] = 1.0
    return scores, denom


def _tile_shape(batch: int, rows: int, keys: int) -> tuple[int, int]:
    """(batch items, query rows) of the largest score tile: as many whole
    items as fit in SCORE_TILE_BYTES, else one item's rows in runs of the
    most that fit, at least one. rows must be positive."""
    rows_fit = max(1, SCORE_TILE_BYTES // (8 * keys))
    if rows <= rows_fit:
        return min(batch, rows_fit // rows), rows
    return 1, rows_fit


def _group_labels(labels, batch: int, n: int, axis: int) -> np.ndarray:
    """labels, which must broadcast to (batch, n), at their own size with a
    length-1 axis inserted at `axis`: 2 for queries, 1 for keys, so labels by
    key alone give (items, 1, keys) tile masks."""
    labels = np.asarray(labels)
    try:
        np.broadcast_to(labels, (batch, n))
    except ValueError:
        raise ShapeError(f"group labels of shape {labels.shape} do not broadcast to "
                         f"{(batch, n)}") from None
    return np.expand_dims(np.atleast_2d(labels), axis)


def _tile_of(a: np.ndarray, tile: tuple[slice, slice]) -> np.ndarray:
    """a's part of a (items, rows) tile, slicing only axes it does not broadcast."""
    return a[tuple(t if n > 1 else slice(None) for t, n in zip(tile, a.shape))]


def dense_attention(q: SequenceTensor, k: SequenceTensor, v: SequenceTensor,
                    groups: tuple[np.ndarray | int, np.ndarray | int] = (0, 0)
                    ) -> SequenceTensor:
    """Scaled dot-product attention per batch item: softmax(q kᵀ / √C) v,
    computed as (exp(q/√C · kᵀ - shift) @ v) / row sum.

    The shift is 0 when the Cauchy–Schwarz bound on the scores,
    B = max ‖q_i‖/√C · max ‖k_j‖, is at most SCORE_BOUND and
    keys · e^B · max ‖v_j‖, which bounds every entry of the weighted sum,
    stays below float64's maximum; it is each row's max otherwise, and
    then masked keys are filled with -inf before it is taken.

    q may hold fewer query rows than k and v (a block of queries against
    every key); batch and chan must match, k and v must share a shape and
    hold at least one key. groups is (query_groups, key_groups), integer
    labels that broadcast to (batch, query) and (batch, key); by default
    all are 0. Query i of item b attends key j exactly when their labels
    are equal, and a query whose label no key shares outputs zeros. The
    scores live in one buffer of at most SCORE_TILE_BYTES (or one query
    row's scores, if larger), filled tile by tile.
    """
    if (k.data.shape != v.data.shape or q.batch != k.batch or q.chan != k.chan
            or q.seq > k.seq):
        raise ShapeError(f"q {q.data.shape} cannot attend over k {k.data.shape} and "
                         f"v {v.data.shape}: batch and chan must match, k and v must "
                         f"share a shape and q may not have more rows than k")
    if k.seq == 0:
        raise ShapeError(f"q {q.data.shape} cannot attend over k {k.data.shape} and "
                         f"v {v.data.shape}: there are no keys")
    q_groups = _group_labels(groups[0], q.batch, q.seq, axis=2)
    k_groups = _group_labels(groups[1], k.batch, k.seq, axis=1)
    out = np.empty(q.data.shape)
    if out.size == 0:  # no items, query rows or channels: no tile to walk
        return SequenceTensor(out)
    root_c = np.sqrt(q.chan)
    bound = _max_row_norm(q.data) / root_c * _max_row_norm(k.data)
    # False for inf or NaN bounds too; exp(bound) runs only when it is finite
    shift = not (bound <= SCORE_BOUND and k.seq * math.exp(bound) * _max_row_norm(v.data)
                 < sys.float_info.max)
    kt = k.data.transpose(0, 2, 1)
    items, rows = _tile_shape(q.batch, q.seq, k.seq)
    buf = np.empty(items * rows * k.seq)
    # a tile is whole items or a run of one item's rows, so both q[tile] and
    # out[tile] are C-contiguous and each matmul stays on BLAS
    for b in range(0, q.batch, items):
        for r in range(0, q.seq, rows):
            tile = (slice(b, b + items), slice(r, r + rows))
            # scaling q, not the scores, is exact when √C is a power of two (C = 64)
            q_tile, out_tile = q.data[tile] / root_c, out[tile]
            shape = (*q_tile.shape[:2], k.seq)
            scores = buf[:math.prod(shape)].reshape(shape)
            np.matmul(q_tile, kt[tile[0]], out=scores)
            # the tile's mask lives only for this call, so no two masks coexist
            weights, denom = _softmax_rows(
                scores, _tile_of(q_groups, tile) == _tile_of(k_groups, tile), shift)
            np.matmul(weights, v.data[tile[0]], out=out_tile)
            out_tile /= denom
    return SequenceTensor(out)


def _attention_grid(x: SequenceTensor, g: GridShape, pg: PaddedGrid | None) -> PaddedGrid:
    """The padding x lives on: `pg`, built for g, or pad_grid(g), which is g
    itself with every token real when k^2 divides h and w."""
    if pg is None:
        pg = pad_grid(g)
    elif pg.original != g:
        raise ShapeError(f"padding was built for grid {pg.original}, not for {g}")
    if x.seq != pg.padded.seq_len:
        raise ShapeError(f"expected seq {pg.padded.seq_len} of the padded grid {pg.padded}, "
                         f"got {x.seq}")
    return pg


def skiparse_attention(x: SequenceTensor, g: GridShape, pattern: SparsePattern,
                       pg: PaddedGrid | None = None) -> SequenceTensor:
    """Sparse attention: gather x once into the pattern layout, project it
    there (projection is per token, so it commutes with the gather), run
    dense attention per subsequence and gather back. ORIGINAL is full
    attention. x lives on the padded grid of `pg` (default pad_grid(g)); pad
    keys are excluded from the softmax, pad rows of q, k and v are zeroed,
    and pad query rows come back zero.
    """
    pg = _attention_grid(x, g, pg)
    fwd = pattern_map(pg.padded, pattern, batch=x.batch)
    # layout rows nest the batch item innermost, so each subsequence's row
    # of validity repeats once per item
    sub_valid = np.repeat(subsequence_mask(pg, pattern), x.batch, axis=0)
    q, k, v = project_qkv(fwd.apply(x), sub_valid)
    out = dense_attention(q, k, v, (0, np.where(sub_valid, 0, -1))).data.copy()
    out[~sub_valid] = 0.0
    back = layout_map(pg.padded, pattern, SparsePattern.ORIGINAL, x.batch)
    return back.apply(SequenceTensor(out))


def skiparse_reference(x: SequenceTensor, g: GridShape, pattern: SparsePattern,
                       pg: PaddedGrid | None = None) -> SequenceTensor:
    """Oracle: one dense_attention call over the original layout, u and v
    interacting iff they share a subsequence and both are real in `pg`
    (default pad_grid(g)); pad rows of q, k and v are zeroed. The kernel's
    score tiles are its only blocks, so no S×S array exists. Must match
    skiparse_attention to summation-order noise."""
    pg = _attention_grid(x, g, pg)
    q, k, v = project_qkv(x, pg.mask)
    subseq = assignment_of(pg.padded, pattern).subseq
    # labels no real token has: -2 for a pad query, -1 for a pad key
    return dense_attention(q, k, v, (np.where(pg.mask, subseq, -2),
                                     np.where(pg.mask, subseq, -1)))


@dataclass(frozen=True)
class FlopReport:
    """Multiply-accumulate counts for the score and value matmuls of one
    attention application over one batch item."""

    full_flops: int
    sparse_flops: int

    @property
    def ratio(self) -> float:
        return self.sparse_flops / self.full_flops


def flop_report(g: GridShape, pattern: SparsePattern, chan: int = 1) -> FlopReport:
    """Exact MAC counts: full attention costs 2 * seq^2 * chan; the pattern
    runs k^2 subsequences of length seq / k^2 each."""
    seq = g.seq_len
    full = 2 * seq * seq * chan
    n_sub = pattern_map(g, pattern, batch=1).out_batch
    sub_len = seq // n_sub
    return FlopReport(full, n_sub * 2 * sub_len * sub_len * chan)
