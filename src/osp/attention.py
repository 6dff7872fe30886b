"""One dense attention kernel in 64-bit precision, plus the per-subsequence
sparse execution path and its dense oracle.

Attention goes by membership, as the paper defines skip-sparse attention:
plain dense self-attention inside each subsequence, with no mask. As in
FlashAttention-2's variable-length form, each batch row of
`dense_attention` holds one group, real tokens first, and its length is
the row's real-token count; the tokens past it are pad tokens, which attend
nothing and output zeros. Each run of rows that share one length n is read
in place as the views q/k/v[a:b, :n], so nothing is sorted or gathered. The
kernel computes `q/√C @ kᵀ` and `weights @ v` with BLAS matmuls and runs
the softmax in place on the scores it owns without normalising them: it
divides the (rows × C) output by each row's weight sum instead, as
FlashAttention does. It holds at most `SCORE_TILE_BYTES` of float64 scores
at a time, in one buffer per call. Each run goes in blocks of whole rows,
whose query rows are walked in tiles, each tile's q rows scaled once into
one buffer. On the bounded route below, a tile walks its keys `KEY_BLOCK`
at a time, in FlashAttention-2's loop order: the weights are plain exp(s),
so each key block's PV and row sums add to the last with no rescaling, and
the tile is divided once. On the shifted route each row sees all its keys
in one block, so no running max crosses blocks.

The softmax takes one of two routes per call. By Cauchy–Schwarz every
score is at most B = max ‖q_i‖/√C · max ‖k_j‖ in magnitude. When B is at
most `SCORE_BOUND` (and the weighted sum of v cannot overflow), the scores
are exponentiated as they are, with no row max and no shift. Any other call
(large-norm or non-finite inputs) runs the max-shifted softmax.

Both routes over a grid run on `pg` or by default `pad_grid(g)`. The kernel
reads no row of a pad token, not even for the bound, so no pad content, not
even inf or NaN, reaches a score, a value or the route, and pad rows come
out zero. The sparse path walks the pattern layout, each subsequence's
real tokens first, in blocks of whole layout rows: it gathers one block's
rows from x, projects them and attends on them in one kernel call, so it
holds the q, k and v of one block (at most `SCORE_TILE_BYTES`, or one row)
and never those of the whole clip. The layout map, its inverse and the
rows' lengths are built once per (padding, pattern, batch) and memoized. The
oracle lays out the same rows itself from the original layout and the
subsequence ids, by one stable sort, so it scores only the pairs within a
subsequence and no S×S array exists; both routes then run the same rows.
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

from .anyres import PaddedGrid, pad_grid
from .gridseq import GridShape, IndexMap, SequenceTensor, ShapeError
from .skiparse import SparsePattern, assignment_of, pattern_map

PROJECTION_SEED = 184594917  # fixed stream for the q/k/v projections
# the most float64 scores one dense_attention tile may hold: 512 query rows
# against one KEY_BLOCK of keys, or the rows of groups of at most KEY_BLOCK
# keys against all their keys; the tile's scaled q rows and one PV partial
# of its rows' shape are held beside it. 1 MiB is half of one core's 2 MiB
# L2 on a 2-core Xeon host. There, in two interleaved sweeps, a 4 x 960
# call (clip-attn's layer) took a median 19.1 and 16.5 ms in 1 MiB tiles,
# 21.9 and 17.4 at 2 MiB and 24.5 and 21.0 at 512 KiB, against 22.1 and
# 18.8 in 4 MiB tiles of whole rows; its tracemalloc peak fell from 6.36 to
# 3.46 MiB
SCORE_TILE_BYTES = 2 ** 20
# the most keys a score tile holds on the bounded softmax route: a group of
# more walks its keys in blocks of KEY_BLOCK inside each row tile, so the
# tile keeps its 512 rows however long the group. In the same sweeps the
# 4 x 960 call took 22.5 and 17.6 ms at 128 keys and 23.1 and 19.9 at 512;
# 2048 query rows against the 80640 keys of a padded 21 x 48 x 80 clip ran
# at 21.2 GMAC/s, against 5.8 in 6-row tiles of all 80640 keys
KEY_BLOCK = 256
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
    or NaN in that row alone, which dense_attention never reads past a
    row's length, so its floating-point warnings are silenced."""
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


def _tile_shape(batch: int, size: int, block: int) -> tuple[int, int]:
    """(groups, query rows) of the largest score tile of `batch` stacked
    groups of `size` tokens, each query row scoring `block` keys at a time:
    as many whole groups as fit in SCORE_TILE_BYTES, else one group's query
    rows, the most that fit, at least one. size and block must be
    positive."""
    rows_fit = max(1, SCORE_TILE_BYTES // (8 * block))
    if size <= rows_fit:
        return min(batch, rows_fit // size), size
    return 1, rows_fit


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, out: np.ndarray, tile: int,
            block: int, root_c: float, buf: np.ndarray, q_buf: np.ndarray, part: np.ndarray,
            shift: bool) -> None:
    """out = softmax(q/√C · kᵀ) v for one block of rows: k and v are
    (items, n, C) views of their length-n prefixes, q and out the same
    views or a slice of their query rows. Walks `tile` query rows at a
    time, scaled into the front of q_buf, against `block` keys at a time,
    with the scores in the front of buf. The first key block's PV goes into
    out's rows; each later block's goes into the front of part and is added
    to them, and its row sums to the first's. That adds unshifted weights
    only, so block < n needs shift False."""
    n = k.shape[1]
    for r in range(0, q.shape[1], tile):
        rows = out[:, r:r + tile]
        q_tile = q_buf[:rows.size].reshape(rows.shape)
        # scaling q, not the scores, is exact when √C is a power of two (C = 64)
        np.divide(q[:, r:r + tile], root_c, out=q_tile)
        for c in range(0, n, block):
            keys, values = k[:, c:c + block], v[:, c:c + block]
            shape = (*q_tile.shape[:2], keys.shape[1])
            scores = buf[:math.prod(shape)].reshape(shape)
            np.matmul(q_tile, keys.transpose(0, 2, 1), out=scores)
            weights, sums = _softmax_rows(scores, shift)
            if c == 0:
                np.matmul(weights, values, out=rows)
                denom = sums
            else:
                pv = part[:rows.size].reshape(rows.shape)
                np.matmul(weights, values, out=pv)
                rows += pv
                denom += sums
        rows /= denom


def dense_attention(q: SequenceTensor, k: SequenceTensor, v: SequenceTensor,
                    lengths: np.ndarray | None = None) -> SequenceTensor:
    """Scaled dot-product self-attention within each row's real prefix:
    softmax(q kᵀ / √C) v over row b's first lengths[b] tokens, computed as
    (exp(q/√C · kᵀ - shift) @ v) / row sum.

    lengths holds one integer in 0..seq per batch row; None means every
    token is real. A token past its row's length is a pad token: it
    attends nothing, is attended by nothing and outputs zeros. No mask is
    built and nothing is gathered: each run of consecutive rows that share
    one length n is read as the views q/k/v[a:b, :n].

    The shift is 0 when the Cauchy–Schwarz bound on the scores,
    B = max ‖q_i‖/√C · max ‖k_j‖, is at most SCORE_BOUND and
    seq · e^B · max ‖v_j‖, which bounds every entry of the weighted sum,
    stays below float64's maximum; it is each row's max otherwise. All
    three maxima skip pad tokens, whatever those rows hold.

    q, k and v must share one shape; an empty one gives an empty output.
    The scores live in one buffer, sized to the largest tile that fits
    SCORE_TILE_BYTES (or to one query row's scores, if larger). On the
    bounded route a row scores at most KEY_BLOCK keys at a time; on the
    shifted route, all of its row's keys.
    """
    if not q.data.shape == k.data.shape == v.data.shape:
        raise ShapeError(f"q {q.data.shape}, k {k.data.shape} and v {v.data.shape} "
                         f"must share one shape")
    if lengths is None:
        lengths = np.full(q.batch, q.seq)
    lengths = np.asarray(lengths)
    if lengths.shape != (q.batch,) or lengths.dtype.kind not in "iu":
        raise ShapeError(f"lengths of shape {lengths.shape} and dtype {lengths.dtype} are not "
                         f"{q.batch} integers, one per batch row")
    if lengths.size and not 0 <= lengths.min() <= lengths.max() <= q.seq:
        raise ShapeError(f"lengths must lie in 0..{q.seq}, got {lengths.min()}..{lengths.max()}")
    out = np.zeros(q.data.shape)
    if out.size == 0:  # no items, tokens or channels: no tile to walk
        return SequenceTensor(out)
    keep = np.arange(q.seq) < lengths[:, None]
    root_c = np.sqrt(q.chan)
    bound = _max_row_norm(q.data, keep) / root_c * _max_row_norm(k.data, keep)
    # False for inf or NaN bounds too; exp(bound) runs only when it is finite
    shift = not (bound <= SCORE_BOUND and q.seq * math.exp(bound) * _max_row_norm(v.data, keep)
                 < sys.float_info.max)
    # every run of rows that share a non-zero length n, in blocks of whole
    # rows, as (rows, n, query rows per tile, keys per block); a PV partial
    # is needed only where a row's keys span several blocks
    starts = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), q.batch]
    blocks, size, q_size, part = [], 0, 0, 0
    for a, b, n in zip(starts, starts[1:], lengths[starts[:-1]].tolist()):
        if n:
            block = n if shift else min(n, KEY_BLOCK)
            items, tile = _tile_shape(b - a, n, block)
            size = max(size, items * tile * block)
            q_size = max(q_size, items * tile * q.chan)
            if block < n:
                part = max(part, items * tile * q.chan)
            blocks += [(slice(g, min(g + items, b)), n, tile, block) for g in range(a, b, items)]
    buf, q_buf, part = np.empty(size), np.empty(q_size), np.empty(part)
    for rows, n, tile, block in blocks:
        _attend(*(a[rows, :n] for a in (q.data, k.data, v.data, out)), tile, block, root_c,
                buf, q_buf, part, shift)
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


@functools.cache
def _layout_rows(pg: PaddedGrid, pattern: SparsePattern,
                 batch: int) -> tuple[IndexMap, IndexMap, np.ndarray]:
    """The pattern map of `batch` items on pg's padded grid, with each
    layout row's real tokens (by pg.mask) moved ahead of its pad tokens,
    both in their layout order; its inverse; and each row's real count.
    Built once per (padding, pattern, batch) and read-only."""
    fwd = pattern_map(pg.padded, pattern, batch)
    real = pg.mask[fwd.src % pg.padded.seq_len]
    order = np.argsort(~real, axis=1, kind="stable")
    order += np.arange(0, fwd.total, fwd.out_seq)[:, None]
    fwd = IndexMap(fwd.out_batch, fwd.out_seq, order).compose(fwd)
    lengths = real.sum(axis=1)
    lengths.flags.writeable = False
    return fwd, fwd.invert(), lengths


def skiparse_attention(x: SequenceTensor, g: GridShape, pattern: SparsePattern,
                       pg: PaddedGrid | None = None) -> SequenceTensor:
    """Sparse attention: walk the pattern layout, each subsequence's real
    tokens first, in blocks of whole layout rows. Each block's rows are
    gathered from x alone, projected there (projection is per token, so it
    commutes with the gather) and run through one dense attention call on
    each row's real prefix; the block outputs fill one layout-order array,
    which one gather puts back. A block holds as many rows as keep its q, k
    and v within SCORE_TILE_BYTES, at least one, so a layout that fits in
    one block makes one call of each and copies nothing. ORIGINAL is full
    attention. x lives on the padded grid of `pg` (default pad_grid(g));
    whatever the pad rows hold, they are left out of every softmax and come
    back zero.
    """
    pg = _attention_grid(x, g, pg)
    fwd, back, lengths = _layout_rows(pg, pattern, x.batch)
    # rows per block; a layout of no items or no channels is one empty block
    step = max(1, SCORE_TILE_BYTES // max(1, 3 * 8 * fwd.out_seq * x.chan))
    starts = range(0, max(1, fwd.out_batch), step)
    out = np.empty((fwd.out_batch, fwd.out_seq, x.chan)) if len(starts) > 1 else None
    for a in starts:
        rows = slice(a, a + step)
        y = dense_attention(*project_qkv(fwd.apply(x, rows)), lengths[rows]).data
        if out is None:  # one block is the whole layout: no copy
            out = y
        else:
            out[rows] = y
    return back.apply(SequenceTensor(out))


def skiparse_reference(x: SequenceTensor, g: GridShape, pattern: SparsePattern,
                       pg: PaddedGrid | None = None) -> SequenceTensor:
    """Oracle: u and v interact iff they share a subsequence and both are
    real in `pg` (default pad_grid(g)). It lays out its own rows from the
    original layout, one per (item, subsequence) with the real tokens
    first, by a stable sort on (subsequence id, pad last), makes one
    dense_attention call on their real prefixes and puts the tokens back,
    so it scores only the pairs within a subsequence and no S×S array
    exists. Must match skiparse_attention to summation-order noise."""
    pg = _attention_grid(x, g, pg)
    a = assignment_of(pg.padded, pattern)
    order = np.argsort(2 * a.subseq + ~pg.mask, kind="stable")
    lengths = np.tile(pg.mask[order].reshape(a.num_subsequences, -1).sum(axis=1), x.batch)
    q, k, v = project_qkv(SequenceTensor(x.data[:, order].reshape(-1, a.subseq_len, x.chan)))
    rows = dense_attention(q, k, v, lengths).data.reshape(x.data.shape)
    out = np.empty(x.data.shape)
    out[:, order] = rows
    return SequenceTensor(out)


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
