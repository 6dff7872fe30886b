import struct

import numpy as np
import pytest

from oracles import gsa_subseq, iter_coords, tsa_subseq
from osp.anyres import (PaddedGrid, pad_grid, pad_tensor, read_mask, strip_padding,
                        subsequence_mask, write_mask)
from osp.gridseq import GridShape, ShapeError, random_tensor
from osp.skiparse import SparsePattern, assignment_of, orig_to_tsa, tsa_to_orig


def test_already_divisible_grid_is_trivial():
    pg = pad_grid(GridShape(1, 4, 4, 2))
    assert pg.trivial
    assert pg.padded == pg.original
    assert pg.mask.all()


def test_pad_5x6_to_8x8():
    pg = pad_grid(GridShape(1, 5, 6, 2))
    assert (pg.padded.h, pg.padded.w) == (8, 8)
    assert int(pg.mask.sum()) == 30
    assert pg.mask.size == 64


def test_pad_latent_720p_style_grid():
    # 45 rows are not a multiple of 4; 80 columns already are
    pg = pad_grid(GridShape(2, 45, 80, 2))
    assert (pg.padded.t, pg.padded.h, pg.padded.w) == (2, 48, 80)
    assert int(pg.mask.sum()) == 2 * 45 * 80


@pytest.mark.parametrize("g", [GridShape(1, 4, 4, 2), GridShape(2, 4, 4, 2), GridShape(1, 8, 8, 2),
                               GridShape(2, 8, 8, 2), GridShape(1, 9, 9, 3),
                               GridShape(2, 45, 80, 2)], ids=str)
def test_paddings_of_one_grid_are_equal_and_hash_alike(g):
    # the acceptance suite's grids and the padded 720p-style latent
    a, b = pad_grid(g), pad_grid(g)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a.padded == b.padded and np.array_equal(a.mask, b.mask)
    assert a != pad_grid(GridShape(g.t, g.h + 1, g.w, g.k))


def test_padded_grid_takes_only_its_original_grid():
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    assert PaddedGrid(g) == pg
    with pytest.raises(TypeError):
        PaddedGrid(g, pg.padded)
    with pytest.raises(TypeError):
        PaddedGrid(g, pg.padded, pg.mask, pg.embedding)


def test_derived_values_are_read_only():
    pg = pad_grid(GridShape(1, 5, 6, 2))
    for name in ("original", "padded", "mask", "embedding"):
        with pytest.raises(AttributeError):
            setattr(pg, name, getattr(pg, name))
    for arr in (pg.mask, pg.embedding):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]


def test_mask_marks_exactly_the_low_corner():
    g = GridShape(2, 5, 6, 2)
    pg = pad_grid(g)
    for i, (t, r, c) in enumerate(iter_coords(pg.padded)):
        assert pg.mask[i] == (r < g.h and c < g.w)


def test_pad_then_strip_identity():
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = random_tensor(2, g.seq_len, 3, seed=0)
    assert np.array_equal(strip_padding(pad_tensor(x, pg), pg).data, x.data)


def test_trivial_padding_leaves_tensor_unchanged():
    g = GridShape(1, 4, 4, 2)
    pg = pad_grid(g)
    x = random_tensor(1, g.seq_len, 2, seed=4)
    assert np.array_equal(pad_tensor(x, pg).data, x.data)
    assert np.array_equal(strip_padding(x, pg).data, x.data)


def test_strip_shape_mismatch():
    pg = pad_grid(GridShape(1, 5, 6, 2))
    with pytest.raises(ShapeError):
        strip_padding(random_tensor(1, 10, 2, seed=0), pg)


def test_pad_shape_mismatch():
    pg = pad_grid(GridShape(1, 5, 6, 2))
    with pytest.raises(ShapeError, match="expected seq 30, got 64"):
        pad_tensor(random_tensor(1, 64, 2, seed=0), pg)


def test_pad_positions_are_zero_by_default():
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    xp = pad_tensor(random_tensor(1, g.seq_len, 2, seed=1), pg)
    assert (xp.data[:, ~pg.mask, :] == 0.0).all()


def test_strip_after_padded_tsa_roundtrip():
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = random_tensor(1, g.seq_len, 3, seed=2)
    xp = pad_tensor(x, pg)
    back = tsa_to_orig(pg.padded).apply(orig_to_tsa(pg.padded).apply(xp))
    assert np.array_equal(strip_padding(back, pg).data, x.data)


@pytest.mark.parametrize("pattern", [SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE])
def test_subsequence_mask_preserves_real_count(pattern):
    pg = pad_grid(GridShape(1, 5, 6, 2))
    sm = subsequence_mask(pg, pattern)
    assert sm.shape == (4, 16)
    assert int(sm.sum()) == 30


def test_token_and_group_masks_differ_in_distribution():
    pg = pad_grid(GridShape(1, 5, 6, 2))
    sm_t = subsequence_mask(pg, SparsePattern.TOKEN_WISE)
    sm_g = subsequence_mask(pg, SparsePattern.GROUP_WISE)
    assert not np.array_equal(sm_t, sm_g)


def test_trivial_mask_all_positions_valid():
    pg = pad_grid(GridShape(1, 4, 4, 2))
    assert subsequence_mask(pg, SparsePattern.TOKEN_WISE).all()


def test_padding_keeps_subsequence_count():
    pg = pad_grid(GridShape(1, 5, 6, 2))
    for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
        assert assignment_of(pg.padded, pattern).num_subsequences == 4


@pytest.mark.parametrize("pattern,oracle", [(SparsePattern.TOKEN_WISE, tsa_subseq),
                                            (SparsePattern.GROUP_WISE, gsa_subseq)],
                         ids=["tsa", "gsa"])
def test_subsequence_stable_across_resolutions(pattern, oracle):
    # a real token's subsequence id depends only on its own (row, col), never
    # on how far its grid was padded
    for g in (GridShape(1, 5, 6, 2), GridShape(1, 11, 13, 2), GridShape(2, 6, 3, 2),
              GridShape(1, 10, 7, 3)):
        pg = pad_grid(g)
        subseq = assignment_of(pg.padded, pattern).subseq
        for i, coord in enumerate(iter_coords(g)):
            assert subseq[pg.embedding[i]] == oracle(pg.padded, *coord), (g, coord)


def test_mask_serialization_roundtrip(tmp_path):
    pg = pad_grid(GridShape(1, 5, 6, 2))
    path = tmp_path / "mask.bin"
    write_mask(path, pg)
    raw = path.read_bytes()
    assert len(raw) == 16 + 64
    assert raw[16:].count(1) == 30
    grid, mask = read_mask(path)
    assert grid == pg.padded
    assert np.array_equal(mask, pg.mask)


@pytest.mark.parametrize("payload", [
    struct.pack("<IIII", 2 ** 31 - 1, 8, 8, 2),
    struct.pack("<IIII", 1, 8, 8, 2) + bytes(63),
    struct.pack("<IIII", 1, 8, 8, 2) + bytes(65),
    struct.pack("<IIII", 1, 8, 8, 2)[:12],
], ids=["huge-header", "short-payload", "trailing-byte", "short-header"])
def test_read_mask_checks_header_against_file_size(payload, tmp_path):
    path = tmp_path / "mask.bin"
    path.write_bytes(payload)
    with pytest.raises(ValueError):
        read_mask(path)
