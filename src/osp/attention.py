"""One dense attention kernel in 64-bit precision, plus the per-subsequence
sparse execution path and its masked dense oracle.

The sparse path masks only pad keys inside each subsequence; the full 2-D
pattern mask exists purely as an oracle to check the sparse path against.
Query/key/value come from three fixed seeded random projections of the
same input, which is all an equivalence check needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anyres import PaddedGrid
from .gridseq import GridShape, SequenceTensor, ShapeError
from .skiparse import SparsePattern, assignment_of, pattern_map

PROJECTION_SEED = 184594917  # fixed stream for the q/k/v projections


def qkv_projections(chan: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(PROJECTION_SEED))
    scale = 1.0 / np.sqrt(chan)
    wq, wk, wv = (rng.standard_normal((chan, chan)) * scale for _ in range(3))
    return wq, wk, wv


def project_qkv(x: SequenceTensor) -> tuple[SequenceTensor, SequenceTensor, SequenceTensor]:
    wq, wk, wv = qkv_projections(x.chan)
    return (SequenceTensor(x.data @ wq), SequenceTensor(x.data @ wk), SequenceTensor(x.data @ wv))


def _softmax_rows(scores: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
    """Row-stable softmax over the last axis; disallowed keys get weight 0
    and rows with no allowed key come out all-zero."""
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    row_max = np.max(scores, axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    weights = np.exp(scores - row_max)
    denom = np.sum(weights, axis=-1, keepdims=True)
    return np.where(denom > 0, weights / np.where(denom == 0, 1.0, denom), 0.0)


def dense_attention(q: SequenceTensor, k: SequenceTensor, v: SequenceTensor,
                    allowed: np.ndarray | None = None) -> SequenceTensor:
    """Scaled dot-product attention per batch item.

    allowed, when given, is a boolean (query, key) permission that
    broadcasts to (batch, query, key); disallowed keys are excluded from the
    softmax. Queries with no allowed key output zero vectors.
    """
    if q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeError("q, k, v must share (batch, seq, chan)")
    scores = np.einsum("bic,bjc->bij", q.data, k.data) / np.sqrt(q.chan)
    if allowed is not None:
        try:
            allowed = np.broadcast_to(np.asarray(allowed, dtype=bool), scores.shape)
        except ValueError:
            raise ShapeError(f"mask shape {np.shape(allowed)} does not broadcast to "
                             f"{scores.shape}") from None
    weights = _softmax_rows(scores, allowed)
    return SequenceTensor(np.einsum("bij,bjc->bic", weights, v.data))


def pattern_allow_matrix(g: GridShape, pattern: SparsePattern,
                         pg: PaddedGrid | None = None) -> np.ndarray:
    """(seq, seq) permission matrix: u and v interact iff they share a
    subsequence under the pattern and, when padded, both are real."""
    grid = pg.padded if pg is not None else g
    assign = assignment_of(grid, pattern)
    allow = assign.subseq[:, None] == assign.subseq[None, :]
    if pg is not None:
        allow &= pg.mask[:, None] & pg.mask[None, :]
    return allow


def skiparse_attention(x: SequenceTensor, g: GridShape, pattern: SparsePattern,
                       pg: PaddedGrid | None = None) -> SequenceTensor:
    """Sparse attention: rearrange to the pattern layout, run dense
    attention independently per subsequence, rearrange back.

    With a PaddedGrid, x must already live on the padded grid; pad keys
    are excluded from the softmax and pad query rows come back as zeros.
    """
    grid = pg.padded if pg is not None else g
    if x.seq != grid.seq_len:
        raise ShapeError(f"expected seq {grid.seq_len}, got {x.seq}")
    q, k, v = project_qkv(x)
    fwd = pattern_map(grid, pattern, batch=x.batch)
    qp, kp, vp = fwd.apply(q), fwd.apply(k), fwd.apply(v)
    valid = pg.mask_or_none() if pg is not None else None
    if valid is None:
        return fwd.invert().apply(dense_attention(qp, kp, vp))
    # the sub-mask follows the tokens through the same gather as q, k, v
    sub_valid = valid[fwd.src % fwd.in_seq]
    out = dense_attention(qp, kp, vp, sub_valid[:, None, :]).data.copy()
    out[~sub_valid] = 0.0
    return fwd.invert().apply(SequenceTensor(out))


def skiparse_reference(x: SequenceTensor, g: GridShape, pattern: SparsePattern,
                       pg: PaddedGrid | None = None) -> SequenceTensor:
    """Oracle: dense attention over the original layout with the 2-D
    pattern mask. Must match skiparse_attention to summation-order noise."""
    grid = pg.padded if pg is not None else g
    if x.seq != grid.seq_len:
        raise ShapeError(f"expected seq {grid.seq_len}, got {x.seq}")
    q, k, v = project_qkv(x)
    allow = pattern_allow_matrix(g, pattern, pg)
    return dense_attention(q, k, v, allow)


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
