import re
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import gsa_subseq, iter_coords, naive_attention, pattern_allow, tsa_subseq
from osp import attention, checks
from osp.anyres import pad_grid, pad_tensor, subsequence_mask
from osp.attention import (dense_attention, flop_report, project_qkv, skiparse_attention,
                           skiparse_reference)
from osp.checks import ATTN_TOLERANCE
from osp.gridseq import GridShape, IndexMap, SequenceTensor, ShapeError, random_tensor
from osp.skiparse import SparsePattern, build_layer_schedule


def _rand_qkv(batch, seq, chan, seed):
    return (random_tensor(batch, seq, chan, seed),
            random_tensor(batch, seq, chan, seed + 1),
            random_tensor(batch, seq, chan, seed + 2))


def _allow(labels, shape):
    """The boolean (..., query, key) mask that token labels make, broadcast
    to shape, as naive_attention takes it: equal and non-negative labels."""
    labels = np.atleast_1d(labels)
    same = labels[..., :, None] == labels[..., None, :]
    return np.broadcast_to(same & (labels >= 0)[..., :, None], shape)


def _naive_by_labels(q, k, v, labels):
    """naive_attention item by item under labels that broadcast to
    (batch, seq)."""
    labels = np.broadcast_to(labels, q.data.shape[:2])
    n = q.seq
    return np.concatenate([naive_attention(q.data[b:b + 1], k.data[b:b + 1], v.data[b:b + 1],
                                           allow=_allow(labels[b], (n, n)))
                           for b in range(q.batch)])


def _naive_by_lengths(q, k, v, lengths=None):
    """naive_attention row by row, row b's first lengths[b] tokens
    attending each other (all of them for None)."""
    lengths = np.full(q.batch, q.seq) if lengths is None else lengths
    real = np.arange(q.seq) < np.asarray(lengths)[:, None]
    return np.concatenate([naive_attention(q.data[b:b + 1], k.data[b:b + 1], v.data[b:b + 1],
                                           allow=real[b, :, None] & real[b, None, :])
                           for b in range(q.batch)])


def _label_rows(q, k, v, labels):
    """dense_attention over label groups laid out as rows, as
    skiparse_reference lays out subsequences: each item's tokens of one
    non-negative label, ascending, fill the front of one row of seq tokens,
    and the row's length is their count. The rest of the row repeats the
    group's last token, which the kernel must neither read nor write.
    Returns the output in the tokens' places, zero at negative labels."""
    labels = np.broadcast_to(labels, q.data.shape[:2])
    batch, seq = labels.shape
    groups = [b * seq + np.flatnonzero(labels[b] == label)
              for b in range(batch) for label in np.unique(labels[b][labels[b] >= 0])]
    rows = np.array([np.pad(m, (0, seq - len(m)), mode="edge") for m in groups],
                    dtype=int).reshape(-1, seq)
    lengths = np.array([len(m) for m in groups], dtype=int)
    flat = [SequenceTensor(a.data.reshape(batch * seq, -1)[rows]) for a in (q, k, v)]
    got = dense_attention(*flat, lengths).data
    assert (got[np.arange(seq) >= lengths[:, None]] == 0.0).all()
    out = np.zeros((batch * seq, q.chan))
    for m, row in zip(groups, got):
        out[m] = row[:len(m)]
    return out.reshape(q.data.shape)


def test_single_key_returns_value():
    q, k, v = _rand_qkv(2, 1, 3, seed=0)
    out = dense_attention(q, k, v)
    assert np.allclose(out.data, v.data, atol=1e-15)


def test_uniform_scores_average_values():
    # zero queries make every score equal, so the softmax is uniform
    k, v = random_tensor(1, 5, 3, 1), random_tensor(1, 5, 3, 2)
    q = SequenceTensor(np.zeros((1, 5, 3)))
    out = dense_attention(q, k, v)
    expected = np.broadcast_to(v.data.mean(axis=1, keepdims=True), v.data.shape)
    assert np.allclose(out.data, expected, atol=1e-14)


@pytest.mark.parametrize("shape", [(1, 4, 2), (2, 5, 3)])
def test_dense_matches_naive_double_loop(shape):
    q, k, v = _rand_qkv(*shape, seed=3)
    out = dense_attention(q, k, v)
    assert np.max(np.abs(out.data - naive_attention(q.data, k.data, v.data))) < 1e-12


def test_softmax_rows_sum_to_one_over_unmasked_keys():
    # with all-ones values the output is exactly the row weight sum
    q, k, _ = _rand_qkv(2, 6, 4, seed=4)
    ones = SequenceTensor(np.ones((2, 6, 4)))
    lengths = np.array([4, 6])
    out = dense_attention(q, k, ones, lengths).data
    real = np.arange(6) < lengths[:, None]
    assert np.allclose(out[real], 1.0, atol=1e-12)
    assert (out[~real] == 0.0).all()


def test_softmax_rows_returns_unnormalised_weights_and_their_row_sums():
    rng = np.random.Generator(np.random.PCG64(22))
    original = rng.standard_normal((2, 5, 7)) * 10
    for shift in (True, False):
        scores = original.copy()
        weights, denom = attention._softmax_rows(scores, shift)
        assert weights is scores and denom.shape == (2, 5, 1)
        assert np.array_equal(weights.sum(axis=-1, keepdims=True), denom)
        if shift:
            # the row maximum has weight exp(0) = 1: nothing was divided
            assert (weights.max(axis=-1) == 1.0).all()
        else:
            # each weight is exp(score) itself: nothing was shifted
            assert np.array_equal(weights, np.exp(original))


def _spy_tiles(monkeypatch) -> list:
    """Record the (query rows, keys, shift) of every score tile that
    _softmax_rows runs on."""
    tiles, softmax = [], attention._softmax_rows

    def spy(scores, shift):
        tiles.append((*scores.shape[1:], shift))
        return softmax(scores, shift)

    monkeypatch.setattr(attention, "_softmax_rows", spy)
    return tiles


def _score_bound(q, k, keep=True):
    return (np.linalg.norm(q.data, axis=-1).max(initial=0.0, where=keep) / np.sqrt(q.chan)
            * np.linalg.norm(k.data, axis=-1).max(initial=0.0, where=keep))


def test_large_norm_inputs_take_the_shifted_softmax_and_match_naive(monkeypatch):
    q, k, v = _rand_qkv(2, 9, 3, seed=23)
    q = SequenceTensor(q.data * 100)
    assert _score_bound(q, k) > attention.SCORE_BOUND
    tiles = _spy_tiles(monkeypatch)
    for lengths in (None, np.array([9, 5])):
        out = dense_attention(q, k, v, lengths).data
        assert np.max(np.abs(out - _naive_by_lengths(q, k, v, lengths))) < 1e-12
    # one score tile for both whole rows, then one per row of its own length
    assert len(tiles) == 3 and all(shift for *_, shift in tiles)


def test_scores_just_inside_and_just_outside_the_bound_agree(monkeypatch):
    q, k, v = _rand_qkv(2, 16, 64, seed=25)
    lengths = np.array([16, 11])
    keep = np.arange(16) < lengths[:, None]
    # scale q so that the bound over the real tokens sits just inside SCORE_BOUND
    q = SequenceTensor(q.data * (attention.SCORE_BOUND * (1 - 1e-6) / _score_bound(q, k, keep)))
    tiles = _spy_tiles(monkeypatch)
    inside = dense_attention(q, k, v, lengths).data
    assert tiles and not any(shift for *_, shift in tiles)
    tiles.clear()
    monkeypatch.setattr(attention, "SCORE_BOUND", attention.SCORE_BOUND * (1 - 2e-6))
    outside = dense_attention(q, k, v, lengths).data
    assert tiles and all(shift for *_, shift in tiles)
    assert np.max(np.abs(inside - outside)) <= 1e-12 * np.max(np.abs(outside))
    assert np.max(np.abs(inside - _naive_by_lengths(q, k, v, lengths))) < 1e-12


def test_all_keys_masked_outputs_zeros():
    q, k, v = _rand_qkv(1, 3, 2, seed=5)
    out = dense_attention(q, k, v, np.zeros(1, dtype=int))
    assert (out.data == 0.0).all()


def test_masked_dense_zeroes_blocked_queries():
    q, k, v = _rand_qkv(1, 4, 2, seed=6)
    # tokens 2 and 3 are pad tokens
    out = dense_attention(q, k, v, np.array([2]))
    assert (out.data[0, 2:] == 0.0).all()
    assert not (out.data[0, 0] == 0.0).all()


def test_shape_mismatch_raises():
    q, k, v = _rand_qkv(1, 4, 2, seed=7)
    for bad in [(q, k, random_tensor(1, 5, 2, seed=9)),   # v seq != k seq
                (q, random_tensor(1, 5, 2, seed=9), v),   # k seq != v seq
                (random_tensor(2, 4, 2, seed=9), k, v),   # batch
                (random_tensor(1, 4, 3, seed=9), k, v),   # chan
                (random_tensor(1, 5, 2, seed=9), k, v)]:  # more queries than keys
        with pytest.raises(ShapeError):
            dense_attention(*bad)


def test_fewer_queries_than_keys_raises_naming_all_three_shapes():
    q, (_, k, v) = random_tensor(1, 3, 2, seed=7), _rand_qkv(1, 4, 2, seed=8)
    with pytest.raises(ShapeError) as exc:
        dense_attention(q, k, v)
    assert all(f"{name} {t.data.shape}" in str(exc.value)
               for name, t in zip("qkv", (q, k, v)))


def test_tokens_past_the_length_never_attend_each_other_or_themselves(monkeypatch):
    q, k, v = _rand_qkv(3, 8, 3, seed=37)
    lengths = np.array([5, 0, 8])
    pad = np.arange(8) >= lengths[:, None]
    tiles = _spy_tiles(monkeypatch)
    out = dense_attention(q, k, v, lengths).data
    assert (out[pad] == 0.0).all()
    assert np.max(np.abs(out - _naive_by_lengths(q, k, v, lengths))) < 1e-12
    # whatever the pad tokens hold, the real rows see none of it, not even
    # through the softmax route
    for fill in (1e6, np.inf, np.nan):
        junk = [a.data.copy() for a in (q, k, v)]
        for a in junk:
            a[pad] = fill
        assert np.array_equal(dense_attention(*map(SequenceTensor, junk), lengths).data, out)
    assert tiles and not any(shift for *_, shift in tiles)


def test_each_run_of_one_length_is_read_in_place_as_one_block(monkeypatch):
    q, k, v = _rand_qkv(5, 7, 3, seed=39)
    blocks, attend = [], attention._attend

    def spy(q_rows, k_rows, v_rows, out_rows, *args):
        assert all(np.shares_memory(a, b.data) for a, b in zip((q_rows, k_rows, v_rows),
                                                                (q, k, v)))
        blocks.append(q_rows.shape)
        return attend(q_rows, k_rows, v_rows, out_rows, *args)

    monkeypatch.setattr(attention, "_attend", spy)
    lengths = np.array([4, 4, 0, 7, 4])
    out = dense_attention(q, k, v, lengths).data
    # rows 0-1 share length 4; row 2 has no real token, so no block
    assert blocks == [(2, 4, 3), (1, 7, 3), (1, 4, 3)]
    assert np.max(np.abs(out - _naive_by_lengths(q, k, v, lengths))) < 1e-12


def test_full_lengths_are_full_attention():
    q, k, v = _rand_qkv(2, 7, 3, seed=38)
    full = dense_attention(q, k, v).data
    assert np.max(np.abs(full - naive_attention(q.data, k.data, v.data))) < 1e-12
    for lengths in (np.full(2, 7), np.full(2, 7, dtype=np.uint8)):
        assert np.array_equal(dense_attention(q, k, v, lengths).data, full)
    # zero lengths everywhere are all pad tokens
    assert not dense_attention(q, k, v, np.zeros(2, dtype=int)).data.any()


def test_query_row_block_matches_full_call_and_leaves_inputs_alone():
    # a row's first n tokens attend only each other, so run alone with no
    # lengths they give the full call's rows
    q, k, v = _rand_qkv(2, 9, 3, seed=16)
    lengths = np.array([6, 6])
    before = [a.copy() for a in (q.data, k.data, v.data, lengths)]
    full = dense_attention(q, k, v, lengths).data
    for a, b in zip(before, (q.data, k.data, v.data, lengths)):
        assert np.array_equal(a, b)
    part = dense_attention(*(SequenceTensor(a.data[:, :6]) for a in (q, k, v))).data
    assert part.shape == (2, 6, 3)
    assert np.max(np.abs(part - full[:, :6])) < 1e-12
    assert (full[:, 6:] == 0.0).all()


def test_empty_sequence_returns_empty():
    q, k, v = _rand_qkv(2, 0, 4, seed=27)
    for lengths in (None, np.zeros(2, dtype=int)):
        out = dense_attention(q, k, v, lengths)
        assert out.data.shape == (2, 0, 4)


@pytest.mark.parametrize("shape", [(0, 16, 4), (2, 16, 0)], ids=["no-items", "no-channels"])
def test_empty_layout_is_one_empty_block(shape):
    g, x = GridShape(1, 4, 4, 2), SequenceTensor(np.zeros(shape))
    with np.errstate(divide="ignore"):  # the C = 0 projections scale by 1/√0
        for pattern in SparsePattern:
            assert skiparse_attention(x, g, pattern).data.shape == shape


def _tiling_labels(mask_shape, rng):
    """Token labels whose (query, key) mask has mask_shape before it
    broadcasts over the items: labels of shape mask_shape[:-2] + (key,).
    A 1-D or (items, 1, key) shape only marks pad tokens, 0 or -1; a full
    (query, key) one holds random labels 0 and 1 and one pad token, -7."""
    shape = mask_shape[:-2] + mask_shape[-1:]
    if mask_shape[-2:-1] in ((), (1,)):
        labels = np.where(rng.random(shape) < 0.6, 0, -1)
    else:
        labels = rng.integers(0, 2, shape)
        labels[..., 4] = -7
    if len(shape) > 1:
        labels[1] = -1                    # a whole item of pad tokens
    return labels


# 3 items of 10 x 10 scores at 800 B each
@pytest.mark.parametrize("tile_bytes,tile_shape", [
    (1600, (2, 10)),   # two whole items, then a ragged one
    (240, (1, 3)),     # tiles of 3 of one item's rows, then a ragged tile of 1
    (8, (1, 1)),       # less than one row's scores: one row per tile
], ids=["items", "rows", "one-row"])
@pytest.mark.parametrize("mask_shape", [(10,), (10, 10), (3, 1, 10), (3, 10, 10)], ids=str)
def test_score_tiles_match_one_tile_and_naive(tile_bytes, tile_shape, mask_shape, monkeypatch):
    # each call runs twice: on the label groups laid out as rows, and on
    # the items themselves, each item's count of labelled tokens its length
    q, k, v = _rand_qkv(3, 10, 4, seed=29)
    labels = _tiling_labels(mask_shape, np.random.Generator(np.random.PCG64(30)))
    lengths = np.broadcast_to(labels >= 0, (3, 10)).sum(axis=1)
    before = [np.copy(a) for a in (q.data, k.data, v.data, labels, lengths)]

    def run():
        return _label_rows(q, k, v, labels), dense_attention(q, k, v, lengths).data

    one_tile = run()
    monkeypatch.setattr(attention, "SCORE_TILE_BYTES", tile_bytes)
    # 10 keys are one key block, so every row scores all 10 at once
    assert attention._tile_shape(3, 10, 10) == tile_shape
    tiled = run()
    for a, b in zip(before, (q.data, k.data, v.data, labels, lengths)):
        assert np.array_equal(a, b)
    for got, want in zip(tiled, one_tile):
        assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(tiled[0] - _naive_by_labels(q, k, v, labels))) < 1e-12
    assert np.max(np.abs(tiled[1] - _naive_by_lengths(q, k, v, lengths))) < 1e-12
    pad = np.broadcast_to(labels < 0, (3, 10))
    assert pad.any() and (tiled[0][pad] == 0.0).all()


def test_score_memory_stays_within_one_tile():
    # clip-attn's GSA call: 4 layout rows of 960 tokens, of which 960, 900,
    # 960 and 900 are real; all 4 x 960 x 960 float64 scores at once would
    # take 28.1 MiB. One 1.0 MiB score tile (512 of a row's query rows
    # against one 256-key block), the 1.9 MiB output, one tile's scaled q
    # rows and one PV partial (0.25 MiB each) take 3.46 MiB; the keys and
    # values are views. Gathering each key block (+0.19 MiB), a fresh
    # scaled q tile per tile (+0.25) or a fresh PV partial per block
    # (+0.44), or a full-size scaled copy of q (+1.9) breaks the bound
    q, k, v = _rand_qkv(4, 960, 64, seed=31)
    tracemalloc.start()
    try:
        dense_attention(q, k, v, np.array([960, 900, 960, 900]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.55 * 2 ** 20


def test_score_tile_does_not_shrink_as_a_group_grows(monkeypatch):
    # one group of 8192 tokens at C = 8: every tile is 512 query rows
    # against 256 keys however many keys the group has, so the call holds
    # one score tile, its output, one tile's scaled q rows and one PV
    # partial, plus under 0.1 MiB of row sums and numpy's ufunc buffers
    q, k, v = _rand_qkv(1, 8192, 8, seed=44)
    tracemalloc.start()
    try:
        dense_attention(q, k, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = attention.SCORE_TILE_BYTES // (8 * attention.KEY_BLOCK)
    assert peak < attention.SCORE_TILE_BYTES + q.data.nbytes + 2 * rows * 8 * 8 + 0.1 * 2 ** 20
    tiles = _spy_tiles(monkeypatch)
    dense_attention(q, k, v)
    assert len(tiles) == (8192 // rows) * (8192 // attention.KEY_BLOCK)
    assert set(tiles) == {(rows, attention.KEY_BLOCK, False)}


# a group of two key blocks and 37 keys, longer than one row tile, in a
# row with 11 pad tokens
_BLOCKED = 2 * attention.KEY_BLOCK + 37


def test_key_blocks_add_up_across_a_ragged_last_block(monkeypatch):
    q, k, v = _rand_qkv(1, _BLOCKED + 11, 4, seed=42)
    lengths = np.array([_BLOCKED])
    tiles = _spy_tiles(monkeypatch)
    out = dense_attention(q, k, v, lengths).data
    # the group's query rows run in a tile of 512 and one of 37, each
    # walking key blocks of 256, 256 and 37 on the bounded route
    rows = attention.SCORE_TILE_BYTES // (8 * attention.KEY_BLOCK)
    assert rows < _BLOCKED
    assert tiles == [(r, c, False) for r in (rows, _BLOCKED - rows)
                     for c in (attention.KEY_BLOCK, attention.KEY_BLOCK, 37)]
    assert np.max(np.abs(out - _naive_by_lengths(q, k, v, lengths))) < 1e-12
    assert (out[0, _BLOCKED:] == 0.0).all()


def test_shifted_route_keeps_each_rows_keys_in_one_block(monkeypatch):
    q, k, v = _rand_qkv(1, _BLOCKED + 11, 4, seed=43)
    q = SequenceTensor(q.data * 30)
    lengths = np.array([_BLOCKED])
    assert _score_bound(q, k, np.arange(_BLOCKED + 11) < _BLOCKED) > attention.SCORE_BOUND
    tiles = _spy_tiles(monkeypatch)
    out = dense_attention(q, k, v, lengths).data
    # the running max would have to cross key blocks, so each tile holds
    # its rows' scores against all 549 keys, and more rows need more tiles
    rows = attention.SCORE_TILE_BYTES // (8 * _BLOCKED)
    assert rows < _BLOCKED
    assert tiles == [(min(rows, _BLOCKED - r), _BLOCKED, True) for r in range(0, _BLOCKED, rows)]
    assert np.max(np.abs(out - _naive_by_lengths(q, k, v, lengths))) < 1e-12
    assert (out[0, _BLOCKED:] == 0.0).all()


@pytest.mark.parametrize("mask_shape", [(5,), (4, 5), (2, 4, 4), (5, 4)])
def test_mask_that_does_not_broadcast_raises(mask_shape):
    # the lengths are the kernel's whole mask; none of these shapes is
    # (batch,) = (1,)
    q, k, v = _rand_qkv(1, 4, 2, seed=7)
    with pytest.raises(ShapeError, match=rf"lengths of shape {re.escape(str(mask_shape))}"):
        dense_attention(q, k, v, np.zeros(mask_shape, dtype=int))


@pytest.mark.parametrize("lengths,message", [
    (np.array([[4, 4]]), "of shape (1, 2)"),
    (np.array([4, -1]), "in 0..4, got -1..4"),
    (np.array([5, 4]), "in 0..4, got 4..5"),
    (np.array([4.0, 4.0]), "dtype float64"),
], ids=["shape", "negative", "above-seq", "float"])
def test_bad_lengths_raise(lengths, message):
    q, k, v = _rand_qkv(2, 4, 2, seed=7)
    with pytest.raises(ShapeError, match=re.escape(message)):
        dense_attention(q, k, v, lengths)


def test_original_pattern_equals_dense():
    g = GridShape(1, 4, 4, 2)
    x = random_tensor(1, g.seq_len, 4, seed=8)
    q, k, v = project_qkv(x)
    direct = dense_attention(q, k, v)
    via_pattern = skiparse_attention(x, g, SparsePattern.ORIGINAL)
    assert np.array_equal(via_pattern.data, direct.data)


@pytest.mark.parametrize("pattern", [SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE])
def test_sparse_path_is_one_kernel_call_on_the_layout(pattern, monkeypatch):
    # 1x5x6 pads to 1x8x8: with 2 items the layout is 8 rows of 16 tokens,
    # batch item innermost, each row's real tokens first
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    calls, kernel = [], attention.dense_attention

    def spy(q, k, v, lengths=None):
        calls.append((q.data.shape, lengths.tolist()))
        return kernel(q, k, v, lengths)

    monkeypatch.setattr(attention, "dense_attention", spy)
    skiparse_attention(pad_tensor(random_tensor(2, g.seq_len, 4, seed=40), pg), g, pattern, pg)
    real = subsequence_mask(pg, pattern).sum(axis=1)
    assert calls == [((8, 16, 4), np.repeat(real, 2).tolist())]


@pytest.mark.parametrize("pattern", list(SparsePattern))
@pytest.mark.parametrize("t,h,w", [(1, 60, 62), (2, 45, 80)])
def test_streamed_layer_equals_one_gather_projection_and_kernel_call(t, h, w, pattern):
    # each layout row's q, k and v (at least 960 tokens at C = 64) exceed
    # SCORE_TILE_BYTES, so TSA and GSA walk one row per block; ORIGINAL is
    # one row. Per row the blocks run the kernel's same tiles, so this host
    # reads the whole-layout pipeline bit for bit
    g = GridShape(t, h, w, 2)
    pg = pad_grid(g)
    x = pad_tensor(random_tensor(1, g.seq_len, 64, seed=t + h), pg)
    fwd, back, lengths = attention._layout_rows(pg, pattern, 1)
    whole = back.apply(dense_attention(*project_qkv(fwd.apply(x)), lengths)).data
    out = skiparse_attention(x, g, pattern, pg).data
    assert np.max(np.abs(out - whole)) <= 1e-15


@pytest.mark.parametrize("pattern", [SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE])
def test_streamed_layer_memory_holds_one_block(pattern):
    # clip-attn's layer: the 1x60x62 clip padded to 4 layout rows of 960
    # tokens at C = 64. One row's q, k and v (1.4 MiB) stand beside the
    # layout-order output and the gathered-back output (1.9 MiB each) and
    # the kernel's tiles; it reads 5.80 MiB, and q, k and v of the whole
    # clip at once (9.41) break the bound
    g = GridShape(1, 60, 62, 2)
    pg = pad_grid(g)
    x = pad_tensor(random_tensor(1, g.seq_len, 64, seed=50), pg)
    skiparse_attention(x, g, pattern, pg)  # the memoized layout and projections
    tracemalloc.start()
    try:
        skiparse_attention(x, g, pattern, pg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.1 * 2 ** 20


def test_report_all_layers_each_make_one_call_of_each_stage(monkeypatch):
    # every layer report-all runs fits in one block, so each makes today's
    # calls: one forward gather, one projection, one kernel call and one
    # gather back, in that order, and the kernel's output goes back as it is
    calls = []

    def spy(fn, name):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if sys._getframe(1).f_code is attention.skiparse_attention.__code__:
                calls.append((name, args, out))
            return out
        return wrapped

    for name in ("_attention_grid", "project_qkv", "dense_attention"):
        monkeypatch.setattr(attention, name, spy(getattr(attention, name), name))
    monkeypatch.setattr(IndexMap, "apply", spy(IndexMap.apply, "apply"))
    assert checks.build_full_report(7)["pass"]
    per_layer = ["_attention_grid", "apply", "project_qkv", "dense_attention", "apply"]
    layers = len(calls) // len(per_layer)
    assert layers > 0 and [name for name, _, _ in calls] == per_layer * layers
    for i in range(0, len(calls), len(per_layer)):
        kernel_out, back_in = calls[i + 3][2], calls[i + 4][1][1]
        assert np.shares_memory(back_in.data, kernel_out.data)


def test_layout_rows_are_built_once_per_grid_and_mask(monkeypatch):
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = pad_tensor(random_tensor(2, g.seq_len, 4, seed=41), pg)
    attention._layout_rows.cache_clear()
    first = skiparse_attention(x, g, SparsePattern.GROUP_WISE, pg).data
    builds = []
    for name in ("compose", "invert"):
        monkeypatch.setattr(IndexMap, name, lambda *a, _name=name: builds.append(_name))
    # a second call, on a fresh pad_grid(g), builds no map
    assert np.array_equal(skiparse_attention(x, g, SparsePattern.GROUP_WISE, pad_grid(g)).data,
                          first)
    assert builds == [] and attention._layout_rows.cache_info().misses == 1
    monkeypatch.undo()
    # the transposed grid pads to the same 8x8 grid but masks other tokens:
    # its rows and lengths are its own
    other = pad_grid(GridShape(1, 6, 5, 2))
    assert other.padded == pg.padded and not np.array_equal(other.mask, pg.mask)
    y = pad_tensor(random_tensor(2, other.original.seq_len, 4, seed=41), other)
    out = skiparse_attention(y, other.original, SparsePattern.GROUP_WISE, other).data
    assert attention._layout_rows.cache_info().misses == 2
    ref = skiparse_reference(y, other.original, SparsePattern.GROUP_WISE, other).data
    assert np.max(np.abs(out - ref)) < 1e-12 and (out[:, ~other.mask] == 0.0).all()
    assert not np.array_equal(out, first)


def test_projections_are_drawn_once_and_read_only():
    cached = attention.qkv_projections(8)
    assert attention.qkv_projections(8) is cached
    for w in cached:
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
    attention._projections.cache_clear()
    rebuilt = attention.qkv_projections(8)
    assert rebuilt is not cached
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt, cached))


def test_projections_are_keyed_on_the_seed(monkeypatch):
    cached = attention.qkv_projections(8)
    monkeypatch.setattr(attention, "PROJECTION_SEED", attention.PROJECTION_SEED + 1)
    reseeded = attention.qkv_projections(8)
    assert not any(np.array_equal(a, b) for a, b in zip(reseeded, cached))
    monkeypatch.undo()
    assert attention.qkv_projections(8) is cached


@pytest.mark.parametrize("pattern,subseq_fn", [
    (SparsePattern.TOKEN_WISE, tsa_subseq),
    (SparsePattern.GROUP_WISE, gsa_subseq),
])
def test_skiparse_equals_naive_masked_oracle(pattern, subseq_fn):
    g = GridShape(1, 4, 4, 2)
    x = random_tensor(1, g.seq_len, 4, seed=10)
    out = skiparse_attention(x, g, pattern)
    q, k, v = project_qkv(x)
    allow = pattern_allow(g, subseq_fn)
    expected = naive_attention(q.data, k.data, v.data, allow=allow)
    assert np.max(np.abs(out.data - expected)) < 1e-12


@pytest.mark.parametrize("g", [GridShape(2, 4, 4, 2), GridShape(1, 8, 8, 2),
                               GridShape(1, 9, 9, 3)], ids=str)
@pytest.mark.parametrize("pattern", [SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE])
def test_skiparse_equals_masked_reference(g, pattern):
    x = random_tensor(2, g.seq_len, 6, seed=11)
    out = skiparse_attention(x, g, pattern)
    ref = skiparse_reference(x, g, pattern)
    assert np.max(np.abs(out.data - ref.data)) < 1e-10


def _oracle_labels(pg, subseq_fn):
    """Token labels by a tests/oracles.py subsequence formula on the padded
    grid, with -1 for pad tokens."""
    ids = np.array([subseq_fn(pg.padded, *coord) for coord in iter_coords(pg.padded)])
    return np.where(pg.mask, ids, -1)


@pytest.mark.parametrize("subseq_fn", [tsa_subseq, gsa_subseq], ids=["tsa", "gsa"])
def test_group_labels_match_naive_on_a_padded_grid(subseq_fn):
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    q, k, v = project_qkv(pad_tensor(random_tensor(2, g.seq_len, 4, seed=33), pg))
    labels = _oracle_labels(pg, subseq_fn)
    allow = pattern_allow(pg.padded, subseq_fn, real=pg.mask)
    assert np.array_equal(_allow(labels, allow.shape), allow)
    out = _label_rows(q, k, v, labels)
    assert np.max(np.abs(out - naive_attention(q.data, k.data, v.data, allow=allow))) < 1e-12
    # pad tokens carry a negative label, so they come out exactly zero
    assert (out[:, ~pg.mask] == 0.0).all()


def test_oracle_is_one_kernel_call_however_many_tiles(monkeypatch):
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = pad_tensor(random_tensor(2, g.seq_len, 4, seed=34), pg)
    expected = skiparse_reference(x, g, SparsePattern.TOKEN_WISE, pg).data
    # TSA splits the 30 real tokens of each of the 2 items into subsequences
    # of 9, 9, 6 and 6, one row each. At 4 rows of 9 keys per tile, each of
    # the four rows of 9 is a block of 3 tiles, of 4, 4 and 1 query rows,
    # and each row of 6 a block of one tile: 16 tiles in 8 blocks
    monkeypatch.setattr(attention, "SCORE_TILE_BYTES", 4 * 9 * 8)
    calls = {"dense_attention": 0, "_max_row_norm": 0, "_softmax_rows": 0, "_attend": 0}

    def counted(name):
        real = getattr(attention, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(attention, name, counted(name))
    out = skiparse_reference(x, g, SparsePattern.TOKEN_WISE, pg).data
    assert calls == {"dense_attention": 1, "_max_row_norm": 3, "_softmax_rows": 16,
                     "_attend": 8}
    assert np.max(np.abs(out - expected)) < 1e-12


@pytest.mark.parametrize("pattern,subseq_fn", [
    (SparsePattern.TOKEN_WISE, tsa_subseq),
    (SparsePattern.GROUP_WISE, gsa_subseq),
], ids=["tsa", "gsa"])
def test_oracle_scores_only_pairs_within_a_subsequence(pattern, subseq_fn, monkeypatch):
    # the clip-attn grid: 60 x 62 pads to 60 x 64 (S = 3840, 3720 real). A
    # real token scores exactly the real tokens of its own subsequence, so
    # the oracle fills sum_s real_s^2 score entries: fewer than the S^2 / 4
    # of the padded subsequences, and not the S^2 of a masked pass over the
    # whole sequence
    g = GridShape(1, 60, 62, 2)
    pg = pad_grid(g)
    ids = np.array([subseq_fn(pg.padded, *coord) for coord in iter_coords(pg.padded)])
    real = np.bincount(ids[pg.mask])
    entries, softmax = [], attention._softmax_rows

    def spy(scores, *args):
        entries.append(scores.size)
        return softmax(scores, *args)

    monkeypatch.setattr(attention, "_softmax_rows", spy)
    skiparse_reference(pad_tensor(random_tensor(1, g.seq_len, 4, seed=35), pg), g, pattern, pg)
    assert sum(entries) == int((real ** 2).sum()) < pg.padded.seq_len ** 2 // 4


@pytest.mark.parametrize("pattern,subseq_fn", [
    (SparsePattern.TOKEN_WISE, tsa_subseq),
    (SparsePattern.GROUP_WISE, gsa_subseq),
])
@pytest.mark.parametrize("g", [GridShape(1, 8, 8, 2), GridShape(1, 5, 6, 2)], ids=str)
def test_row_blocked_oracle_matches_unblocked_and_naive(g, pattern, subseq_fn, monkeypatch):
    pg = pad_grid(g)
    x = pad_tensor(random_tensor(2, g.seq_len, 4, seed=18), pg)
    q, k, v = project_qkv(x)
    one_tile = _label_rows(q, k, v, _oracle_labels(pg, subseq_fn))
    # 7 rows of 16 keys per tile: each subsequence of 16 runs in tiles of 7,
    # 7 and a ragged 2 query rows; on the padded grid small groups share a
    # tile, and GSA's group of 12 real tokens runs in tiles of 9 and 3 rows
    monkeypatch.setattr(attention, "SCORE_TILE_BYTES", 7 * 16 * 8)
    ref = skiparse_reference(x, g, pattern, None if pg.trivial else pg).data
    allow = pattern_allow(pg.padded, subseq_fn, real=None if pg.trivial else pg.mask)
    naive = naive_attention(q.data, k.data, v.data, allow=allow)
    assert np.max(np.abs(ref - naive)) < 1e-10
    assert np.max(np.abs(ref - one_tile)) < 1e-12
    # pad query rows are the fully masked rows, and they come out exactly zero
    assert np.array_equal(~allow.any(axis=1), ~pg.mask)
    assert (ref[:, ~pg.mask] == 0.0).all()


def test_oracle_memory_stays_below_rows_times_seq():
    # S=4096: one float64 S x S array alone is 128 MiB
    g = GridShape(1, 64, 64, 2)
    x = random_tensor(1, g.seq_len, 64, seed=19)
    tracemalloc.start()
    try:
        skiparse_reference(x, g, SparsePattern.TOKEN_WISE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20


def test_padded_skiparse_with_multi_item_batch():
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = random_tensor(3, g.seq_len, 4, seed=15)
    xp = pad_tensor(x, pg)
    out = skiparse_attention(xp, g, SparsePattern.TOKEN_WISE, pg)
    ref = skiparse_reference(xp, g, SparsePattern.TOKEN_WISE, pg)
    assert np.max(np.abs(out.data - ref.data)) < 1e-10


def test_padded_skiparse_matches_real_token_oracle():
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = random_tensor(1, g.seq_len, 4, seed=12)
    xp = pad_tensor(x, pg)
    out = skiparse_attention(xp, g, SparsePattern.GROUP_WISE, pg)
    q, k, v = project_qkv(xp)
    allow = pattern_allow(pg.padded, gsa_subseq, real=pg.mask)
    expected = naive_attention(q.data, k.data, v.data, allow=allow)
    real = pg.mask
    assert np.max(np.abs(out.data[:, real] - expected[:, real])) < 1e-10
    # pad queries are defined as zero vectors on both routes
    assert (out.data[:, ~real] == 0.0).all()
    assert (expected[:, ~real] == 0.0).all()


def test_whole_and_partly_padded_items_in_one_call_match_naive():
    # GSA on 1x4x6, padded to 1x4x8: with 2 batch items, 4 layout items are
    # all real and 4 keep 4 of their 8 tokens, so one kernel call runs one
    # stack of whole items and one of half items
    g = GridShape(1, 4, 6, 2)
    pg = pad_grid(g)
    assert subsequence_mask(pg, SparsePattern.GROUP_WISE).sum(axis=1).tolist() == [8, 4, 8, 4]
    xp = pad_tensor(random_tensor(2, g.seq_len, 4, seed=36), pg)
    out = skiparse_attention(xp, g, SparsePattern.GROUP_WISE, pg).data
    q, k, v = project_qkv(xp)
    allow = pattern_allow(pg.padded, gsa_subseq, real=pg.mask)
    expected = naive_attention(q.data, k.data, v.data, allow=allow)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert (out[:, ~pg.mask] == 0.0).all()


def test_pad_content_never_leaks_into_real_outputs():
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = random_tensor(1, g.seq_len, 4, seed=13)
    rng = np.random.Generator(np.random.PCG64(99))
    fills = {"large": rng.standard_normal((int((~pg.mask).sum()), 4)) * 1e9,
             "inf": np.inf, "nan": np.nan}
    for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
        for fn in (skiparse_attention, skiparse_reference):
            clean = fn(pad_tensor(x, pg), g, pattern, pg).data[:, pg.mask]
            for fill, junk in fills.items():
                dirty = fn(pad_tensor(x, pg, pad_fill=junk), g, pattern, pg).data[:, pg.mask]
                case = f"{fn.__name__} {pattern.value} {fill} fill"
                assert np.isfinite(dirty).all(), case
                assert np.array_equal(clean, dirty), case


def test_permutation_equivariance_within_subsequence():
    # tokens 0 and 2 share TSA subsequence (0, 0) on a 4x4 grid
    g = GridShape(1, 4, 4, 2)
    x = random_tensor(1, g.seq_len, 4, seed=14)
    perm = np.arange(g.seq_len)
    perm[[0, 2]] = perm[[2, 0]]
    x_perm = SequenceTensor(x.data[:, perm, :])
    out = skiparse_attention(x, g, SparsePattern.TOKEN_WISE)
    out_perm = skiparse_attention(x_perm, g, SparsePattern.TOKEN_WISE)
    assert np.max(np.abs(out_perm.data - out.data[:, perm, :])) < 1e-10


def test_flop_report_values():
    assert flop_report(GridShape(1, 4, 4, 1), SparsePattern.TOKEN_WISE).ratio == 1.0
    rep = flop_report(GridShape(1, 8, 8, 2), SparsePattern.TOKEN_WISE, chan=16)
    assert rep.full_flops == 2 * 64 * 64 * 16
    assert rep.sparse_flops == 4 * 2 * 16 * 16 * 16
    assert rep.ratio == 0.25
    assert flop_report(GridShape(1, 9, 9, 3), SparsePattern.GROUP_WISE).ratio == pytest.approx(1 / 9)


def test_flop_report_original_ratio_one():
    rep = flop_report(GridShape(1, 8, 8, 2), SparsePattern.ORIGINAL)
    assert rep.ratio == 1.0


@pytest.mark.parametrize("fn", [skiparse_attention, skiparse_reference],
                         ids=lambda fn: fn.__name__)
def test_padding_built_for_another_grid_raises(fn):
    # 1x5x6 pads to 1x8x8, so x fits the padded grid and only the grids differ
    g, other = GridShape(1, 8, 8, 2), GridShape(1, 5, 6, 2)
    pg = pad_grid(other)
    x = random_tensor(1, pg.padded.seq_len, 4, seed=23)
    with pytest.raises(ShapeError) as exc:
        fn(x, g, SparsePattern.TOKEN_WISE, pg)
    assert str(g) in str(exc.value) and str(other) in str(exc.value)


def test_default_padding_is_pad_grid_of_g():
    for g in (GridShape(1, 8, 8, 2), GridShape(1, 9, 9, 3)):
        x = random_tensor(2, g.seq_len, 4, seed=24)
        for pattern in SparsePattern:
            for fn in (skiparse_attention, skiparse_reference):
                assert np.array_equal(fn(x, g, pattern).data,
                                      fn(x, g, pattern, pad_grid(g)).data), (g, pattern, fn)
    # an unpadded x on a grid k^2 does not divide is the wrong length for pad_grid(g)
    g = GridShape(1, 5, 6, 2)
    x = random_tensor(1, g.seq_len, 4, seed=25)
    for pattern in SparsePattern:
        with pytest.raises(ShapeError, match=f"expected seq {pad_grid(g).padded.seq_len}"):
            skiparse_attention(x, g, pattern)


def test_spindle_schedule_runs_layer_by_layer():
    # every schedule entry is the pattern argument, ORIGINAL included, on a padded grid
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = pad_tensor(random_tensor(2, g.seq_len, 8, seed=26), pg)
    for layer, pattern in enumerate(build_layer_schedule(6, 2)):
        out = skiparse_attention(x, g, pattern, pg)
        ref = skiparse_reference(x, g, pattern, pg)
        assert np.max(np.abs(out.data - ref.data)) <= ATTN_TOLERANCE, (layer, pattern)
        assert (out.data[:, ~pg.mask] == 0.0).all(), (layer, pattern)
        x = out
