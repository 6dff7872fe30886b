"""One dense attention kernel in 64-bit precision, plus the per-subsequence
sparse execution path and its dense oracle.

Attention goes by membership, as the paper defines skip-sparse attention:
plain dense self-attention inside each subsequence, with no mask.
`dense_attention` takes one integer label per token, splits each batch
item by label, stacks groups of equal size, and runs every group as plain
attention over its own gathered members; a token with a negative label (a
pad token) is in no group and outputs zeros. It computes
`q/√C @ kᵀ` and `weights @ v` with BLAS matmuls and runs the softmax in
place on the scores it owns without normalising them: it divides the
(rows × C) output by each row's weight sum instead, as FlashAttention
does. It holds at most `SCORE_TILE_BYTES` of float64 scores at a time, in
one buffer per call. Each stack runs in blocks of whole groups; as in
FlashAttention's loop order, a block's keys and values are gathered once
and its query rows walked against them in tiles, each tile's q rows
gathered and scaled. Every row sees all its keys in its tile, so no
rescaling crosses tiles.

The softmax takes one of two routes per call. By Cauchy–Schwarz every
score is at most B = max ‖q_i‖/√C · max ‖k_j‖ in magnitude. When B is at
most `SCORE_BOUND` (and the weighted sum of v cannot overflow), the scores
are exponentiated as they are, with no row max and no shift. Any other call
(large-norm or non-finite inputs) runs the max-shifted softmax.

Both routes over a grid run on `pg` or by default `pad_grid(g)` and label
pad tokens -1. The kernel reads no row of a negative-labelled token, not
even for the bound, so no pad content, not even inf or NaN, reaches a
score, a value or the route, and pad rows come out zero. The sparse path
gathers x once into the pattern layout and labels its pad tokens from
`anyres.subsequence_mask`. The oracle is one kernel call on the original
layout labelled by subsequence id, so it scores only the pairs within a
subsequence and no S×S array exists; both routes then run the same groups.
Query/key/value come from three fixed seeded random projections of the
same input, which is all an equivalence check needs, drawn once per
(width, `PROJECTION_SEED`) pair per process and read-only.
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
# against 4096 keys; the tile's scaled q rows and its block's keys and
# values (one of the two in a one-tile block) are held beside it
SCORE_TILE_BYTES = 8 * 2 ** 20
# the largest score bound B for which the softmax skips its row max: every
# weight exp(s), |s| <= B, lies in [e^-64, e^64] ~ [1.6e-28, 6.2e27], far
# inside float64's normal range [2.2e-308, 1.8e308], so none overflows or
# goes subnormal and no key rounds to weight 0
SCORE_BOUND = 64.0


def qkv_projections(chan: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (chan, chan) q, k and v matrices, drawn once per
    process and shared."""
    # a plain function, so a tracer that wraps module functions sees the call
    return _projections(chan, PROJECTION_SEED)


@functools.cache
def _projections(chan: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = 1.0 / np.sqrt(chan)
    mats = tuple(rng.standard_normal((chan, chan)) * scale for _ in range(3))
    for m in mats:
        m.flags.writeable = False
    return mats


def project_qkv(x: SequenceTensor) -> tuple[SequenceTensor, SequenceTensor, SequenceTensor]:
    """q, k and v of x, row by row. A pad row of inf or NaN projects to inf
    or NaN in that row alone, which dense_attention never reads under a
    negative label, so its floating-point warnings are silenced."""
    wq, wk, wv = qkv_projections(x.chan)
    with np.errstate(invalid="ignore", over="ignore"):
        return tuple(SequenceTensor(x.data @ w) for w in (wq, wk, wv))


def _max_row_norm(a: np.ndarray, keep: np.ndarray) -> float:
    """The largest Euclidean norm of the (batch, seq, C) array a's rows
    where the (batch, seq) boolean keep is true (0 if there are none); inf
    or NaN if one of those rows holds either."""
    return math.sqrt(np.einsum("...c,...c->...", a, a).max(initial=0.0, where=keep))


def _softmax_rows(scores: np.ndarray, shift: bool) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised softmax over the last axis, in place on `scores`, which
    the caller owns: returns the weights and each row's sum of them
    (keepdims). Every key of a row counts, so every sum is positive.

    With shift the weights are exp(score - row max), which is stable for any
    finite scores. Without it they are exp(score), which the caller may ask
    for only when every |score| <= SCORE_BOUND: then no weight overflows."""
    if shift:
        scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores, np.sum(scores, axis=-1, keepdims=True)


def _tile_shape(batch: int, size: int) -> tuple[int, int]:
    """(groups, query rows) of the largest score tile of `batch` stacked
    groups of `size` tokens: as many whole groups as fit in
    SCORE_TILE_BYTES, else one group's query rows, the most that fit, at
    least one. size must be positive."""
    rows_fit = max(1, SCORE_TILE_BYTES // (8 * size))
    if size <= rows_fit:
        return min(batch, rows_fit // size), size
    return 1, rows_fit


def _partition(labels: np.ndarray) -> list[np.ndarray]:
    """Each item's tokens split by the (batch, seq) labels: for every
    non-negative label of an item, the flat (item * seq + position) rows of
    its tokens, ascending, stacked with every other such group of the same
    size into one (groups, size) array. Tokens with a negative label are in
    none."""
    batch, seq = labels.shape
    rows = labels.argsort(axis=1, kind="stable")
    rows += np.arange(0, batch * seq, seq)[:, None]
    ranked = labels.ravel()[rows]
    # a group starts at each item's first token and wherever the label changes
    starts = np.ones((batch, seq), dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
    starts = starts.ravel().nonzero()[0].tolist()
    rows, ranked = rows.ravel(), ranked.ravel()
    stacks = {}
    for a, b, label in zip(starts, [*starts[1:], batch * seq], ranked[starts].tolist()):
        if label >= 0:
            stacks.setdefault(b - a, []).append(rows[a:b])
    return [np.array(groups) for groups in stacks.values()]


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, out: np.ndarray,
            rows: np.ndarray, tile: int, root_c: float, buf: np.ndarray,
            shift: bool) -> None:
    """out[rows] = softmax(q[rows]/√C · k[rows]ᵀ) v[rows] for one block of
    stacked groups, (items, size) flat rows of the (n, C) arrays, walking
    `tile` query rows at a time with the scores in the front of buf. The
    block's keys are gathered once and its values after the first tile's
    scores, and the keys are dropped after the last tile's, so a one-tile
    block holds only one of them at a time; all are freed on return,
    before the next block gathers."""
    keys, values = k[rows], None
    size = rows.shape[1]
    for r in range(0, size, tile):
        tile_rows = rows[:, r:r + tile]
        # scaling q, not the scores, is exact when √C is a power of two (C = 64)
        q_tile = q[tile_rows]
        q_tile /= root_c
        shape = (*tile_rows.shape, size)
        scores = buf[:math.prod(shape)].reshape(shape)
        np.matmul(q_tile, keys.transpose(0, 2, 1), out=scores)
        if r + tile >= size:
            del keys
        if values is None:
            values = v[rows]
        weights, denom = _softmax_rows(scores, shift)
        np.matmul(weights, values, out=q_tile)
        q_tile /= denom
        out[tile_rows] = q_tile


def dense_attention(q: SequenceTensor, k: SequenceTensor, v: SequenceTensor,
                    labels: np.ndarray | int = 0) -> SequenceTensor:
    """Scaled dot-product self-attention per batch item and label:
    softmax(q kᵀ / √C) v over only the tokens that share a token's label,
    computed as (exp(q/√C · kᵀ - shift) @ v) / row sum.

    labels are integers that broadcast to (batch, seq); by default all are
    0. Tokens i and j of one item attend each other exactly when their
    labels are equal and non-negative. A token with a negative label is a
    pad token: it attends nothing, is attended by nothing and outputs
    zeros. No mask is built: each item is split by label, groups of equal
    size are stacked, and every group runs as plain attention over its own
    gathered members.

    The shift is 0 when the Cauchy–Schwarz bound on the scores,
    B = max ‖q_i‖/√C · max ‖k_j‖, is at most SCORE_BOUND and
    seq · e^B · max ‖v_j‖, which bounds every entry of the weighted sum,
    stays below float64's maximum; it is each row's max otherwise. All
    three maxima skip negative-labelled rows, whatever those rows hold.

    q, k and v must share one shape; an empty one gives an empty output.
    The scores live in one buffer, sized to the largest tile that fits
    SCORE_TILE_BYTES (or to one query row's scores, if larger).
    """
    if not q.data.shape == k.data.shape == v.data.shape:
        raise ShapeError(f"q {q.data.shape}, k {k.data.shape} and v {v.data.shape} "
                         f"must share one shape")
    try:
        labels = np.broadcast_to(labels, (q.batch, q.seq))
    except ValueError:
        raise ShapeError(f"labels of shape {np.shape(labels)} do not broadcast to "
                         f"{(q.batch, q.seq)}") from None
    out = np.zeros(q.data.shape)
    if out.size == 0:  # no items, tokens or channels: no tile to walk
        return SequenceTensor(out)
    keep = labels >= 0
    root_c = np.sqrt(q.chan)
    bound = _max_row_norm(q.data, keep) / root_c * _max_row_norm(k.data, keep)
    # False for inf or NaN bounds too; exp(bound) runs only when it is finite
    shift = not (bound <= SCORE_BOUND and q.seq * math.exp(bound) * _max_row_norm(v.data, keep)
                 < sys.float_info.max)
    # every block as (rows, query rows per tile)
    blocks, size = [], 0
    for rows in _partition(labels):
        items, tile = _tile_shape(*rows.shape)
        size = max(size, items * tile * rows.shape[1])
        blocks += [(rows[g:g + items], tile) for g in range(0, len(rows), items)]
    buf = np.empty(size)
    flat = tuple(a.reshape(-1, q.chan) for a in (q.data, k.data, v.data, out))
    for block in blocks:
        _attend(*flat, *block, root_c, buf, shift)
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
    attention. x lives on the padded grid of `pg` (default pad_grid(g));
    pad tokens are labelled -1, so whatever their rows hold they are left
    out of every softmax and come back zero.
    """
    pg = _attention_grid(x, g, pg)
    fwd = pattern_map(pg.padded, pattern, batch=x.batch)
    # layout rows nest the batch item innermost, so each subsequence's row
    # of validity repeats once per item
    sub_valid = np.repeat(subsequence_mask(pg, pattern), x.batch, axis=0)
    q, k, v = project_qkv(fwd.apply(x))
    out = dense_attention(q, k, v, np.where(sub_valid, 0, -1))
    back = layout_map(pg.padded, pattern, SparsePattern.ORIGINAL, x.batch)
    return back.apply(out)


def skiparse_reference(x: SequenceTensor, g: GridShape, pattern: SparsePattern,
                       pg: PaddedGrid | None = None) -> SequenceTensor:
    """Oracle: one dense_attention call over the original layout, u and v
    interacting iff they share a subsequence and both are real in `pg`
    (default pad_grid(g)); pad tokens are labelled -1, so the kernel reads
    none of their rows. It runs each subsequence's real tokens as one
    group, so it scores only the pairs within a subsequence and no S×S
    array exists. Must match skiparse_attention to summation-order noise."""
    pg = _attention_grid(x, g, pg)
    q, k, v = project_qkv(x)
    subseq = assignment_of(pg.padded, pattern).subseq
    return dense_attention(q, k, v, np.where(pg.mask, subseq, -1))


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
    """MAC counts by formula on the grid g it is given, pad tokens
    included: full attention costs 2 * seq^2 * chan, and the pattern runs
    its subsequences (k^2, or 1 for ORIGINAL) of equal length. On a padded
    grid the kernel computes no pad row, so it executes fewer:
    2 * chan * Σₛ realₛ², where realₛ counts subsequence s's real tokens."""
    seq = g.seq_len
    full = 2 * seq * seq * chan
    n_sub = pattern_map(g, pattern, batch=1).out_batch
    sub_len = seq // n_sub
    return FlopReport(full, n_sub * 2 * sub_len * sub_len * chan)
