import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp.gridseq import (OSPT_MAGIC, CoordinateError, GridShape, IndexMap, SequenceTensor,
                         ShapeError, random_tensor, read_ospt, rearrange_map, write_ospt)


@pytest.mark.parametrize("grid,coord,expected", [
    ((1, 4, 4), (0, 0, 0), 0),
    ((1, 4, 4), (0, 2, 0), 8),
    ((2, 4, 4), (1, 0, 0), 16),
])
def test_flatten_examples(grid, coord, expected):
    g = GridShape(*grid)
    assert g.flatten_index(*coord) == expected


def test_flatten_unflatten_exhaustive_up_to_3_12_12():
    # independent oracle: a running counter over row-major enumeration
    for t in range(1, 4):
        for h in range(1, 13):
            for w in range(1, 13):
                g = GridShape(t, h, w)
                counter = 0
                for tt in range(t):
                    for hh in range(h):
                        for ww in range(w):
                            assert g.flatten_index(tt, hh, ww) == counter
                            counter += 1
                assert counter == g.seq_len


def test_coordinate_errors():
    g = GridShape(2, 3, 4)
    with pytest.raises(CoordinateError):
        g.flatten_index(2, 0, 0)
    with pytest.raises(CoordinateError):
        g.flatten_index(0, -1, 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridShape(0, 4, 4)
    with pytest.raises(ValueError):
        GridShape(1, 4, 4, 0)


def test_identity_map_is_noop():
    x = random_tensor(2, 5, 3, seed=0)
    out = IndexMap.identity(2, 5).apply(x)
    assert np.array_equal(out.data, x.data)


def test_swap_map_reverses_two_elements():
    x = SequenceTensor(np.array([[[1.0], [2.0]]]))
    swap = IndexMap(1, 2, np.array([[1, 0]]))
    out = swap.apply(x)
    assert out.data[0, :, 0].tolist() == [2.0, 1.0]


def _random_bijection(batch, seq, rng):
    perm = rng.permutation(batch * seq)
    return IndexMap(batch, seq, perm.reshape(batch, seq))


def test_composition_matches_sequential_application():
    rng = np.random.Generator(np.random.PCG64(42))
    x = random_tensor(2, 8, 3, seed=1)
    m1 = _random_bijection(2, 8, rng)
    m2 = _random_bijection(2, 8, rng)
    sequential = m2.apply(m1.apply(x))
    composed = m2.compose(m1).apply(x)
    assert np.array_equal(sequential.data, composed.data)


def test_invert_roundtrip():
    rng = np.random.Generator(np.random.PCG64(7))
    m = _random_bijection(3, 5, rng)
    x = random_tensor(3, 5, 2, seed=2)
    assert np.array_equal(m.invert().apply(m.apply(x)).data, x.data)
    assert m.invert().compose(m).same_permutation(IndexMap.identity(3, 5))


@pytest.mark.parametrize("src", [np.arange(6), np.arange(4).reshape(2, 2),
                                 np.array([[0, 1, 2], [3, 4, 6]]),
                                 np.array([[0, 1, 2], [-1, 4, 5]])],
                         ids=["one-dimensional", "wrong-size", "address-equals-total",
                              "negative-address"])
def test_src_must_be_2d_and_hold_every_input_address(src):
    with pytest.raises(ShapeError) as exc:
        IndexMap(2, 3, src)
    assert str(src.shape) in str(exc.value) and "(2, 3)" in str(exc.value)


def test_compose_and_invert_read_their_output_shape_from_src():
    # (2, 12) -> (6, 4) -> (24, 1): every step changes the shape
    m = rearrange_map([("b", 2)], [("x", 3), ("y", 4)], ["b", "x"], ["y"])
    flatten = rearrange_map([("a", 6)], [("s", 4)], ["a", "s"], [])
    composed, inverse = flatten.compose(m), m.invert()
    assert (composed.out_batch, composed.out_seq) == composed.src.shape == (24, 1)
    assert (inverse.out_batch, inverse.out_seq) == inverse.src.shape == (2, 12)
    assert (composed.in_batch, composed.in_seq) == (2, 12)
    assert (inverse.in_batch, inverse.in_seq) == (6, 4)


def test_compose_needs_chaining_shapes_and_invert_a_bijection():
    with pytest.raises(ShapeError, match="composition shapes do not chain"):
        IndexMap.identity(2, 3).compose(IndexMap.identity(3, 2))
    with pytest.raises(ShapeError, match="only bijective maps can be inverted"):
        IndexMap(1, 2, np.array([[0, 0]])).invert()


@pytest.mark.parametrize("codes", [False, True], ids=["float64", "hif8-codes"])
def test_apply_gathers_like_fancy_indexing_with_repeated_addresses(codes):
    rng = np.random.Generator(np.random.PCG64(5))
    # not a bijection: addresses repeat and some inputs are never read
    src = np.array([[0, 0, 5], [7, 2, 7], [11, 3, 0], [9, 9, 9]])
    m = IndexMap(3, 4, src)
    assert not m.is_bijection()
    data = rng.integers(0, 256, size=(3, 4, 2), dtype=np.uint8) if codes \
        else rng.standard_normal((3, 4, 2))
    x = SequenceTensor(data)
    out = m.apply(x)
    assert out.data.dtype == x.data.dtype
    assert np.array_equal(out.data, x.data.reshape(-1, 2)[src.ravel()].reshape(4, 3, 2))
    assert not out.data.flags.writeable


def test_apply_shape_mismatch():
    m = IndexMap.identity(2, 4)
    with pytest.raises(ShapeError):
        m.apply(random_tensor(2, 5, 1, seed=0))


@settings(deadline=None, max_examples=40)
@given(batch=st.integers(1, 4), seq=st.integers(1, 12), chan=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_apply_preserves_channel_vector_multiset(batch, seq, chan, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = _random_bijection(batch, seq, rng)
    assert m.is_bijection()
    x = random_tensor(batch, seq, chan, seed=seed + 1)
    out = m.apply(x)
    rows_in = np.sort(x.data.reshape(-1, chan), axis=0)
    rows_out = np.sort(out.data.reshape(-1, chan), axis=0)
    assert np.array_equal(rows_in, rows_out)


def test_rearrange_map_requires_axis_permutation():
    with pytest.raises(ValueError):
        rearrange_map([("b", 2)], [("s", 4)], ["b"], ["b"])
    with pytest.raises(ValueError):
        rearrange_map([("b", 2)], [("b", 4)], ["b"], ["b"])


def test_rearrange_map_simple_transpose():
    # splitting seq (2, 3) and swapping the factors is a transpose
    m = rearrange_map([("b", 1)], [("x", 2), ("y", 3)], ["b"], ["y", "x"])
    x = SequenceTensor(np.arange(6, dtype=float).reshape(1, 6, 1))
    out = m.apply(x)
    assert out.data[0, :, 0].tolist() == [0, 3, 1, 4, 2, 5]


def test_sequence_tensor_is_frozen():
    x = random_tensor(1, 3, 2, seed=0)
    with pytest.raises(ValueError):
        x.data[0, 0, 0] = 1.0


def test_sequence_tensor_data_must_be_three_dimensional():
    with pytest.raises(ShapeError, match=r"must be \(batch, seq, chan\), got shape \(4, 2\)"):
        SequenceTensor(np.zeros((4, 2)))


def test_hif8_kind_roundtrips_through_maps():
    codes = SequenceTensor(np.arange(12, dtype=np.uint8).reshape(1, 6, 2))
    m = rearrange_map([("b", 1)], [("x", 2), ("y", 3)], ["b"], ["y", "x"])
    out = m.apply(codes)
    assert out.data.dtype == np.uint8
    back = m.invert().apply(out)
    assert np.array_equal(back.data, codes.data)


def test_ospt_roundtrip(tmp_path):
    x = random_tensor(2, 7, 3, seed=9)
    path = tmp_path / "x.ospt"
    write_ospt(path, x)
    raw = path.read_bytes()
    assert raw[:4] == OSPT_MAGIC
    assert raw[4] == 1
    assert raw[5:17] == (2).to_bytes(4, "little") + (7).to_bytes(4, "little") + (3).to_bytes(4, "little")
    assert len(raw) == 17 + 8 * 2 * 7 * 3
    back = read_ospt(path)
    assert np.array_equal(back.data, x.data)


def test_ospt_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ospt"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError):
        read_ospt(path)


def test_ospt_shorter_than_its_header_names_the_header_not_the_version(tmp_path):
    # the magic alone: the version byte is missing, not wrong
    path = tmp_path / "short.ospt"
    path.write_bytes(OSPT_MAGIC)
    with pytest.raises(ValueError, match="OSPT file of 4 bytes is shorter than its 17-byte header"):
        read_ospt(path)


def test_ospt_stores_float64_only(tmp_path):
    path = tmp_path / "codes.ospt"
    with pytest.raises(ValueError, match="OSPT files store float64 tensors, got uint8"):
        write_ospt(path, SequenceTensor(np.zeros((1, 2, 1), dtype=np.uint8)))
    assert not path.exists()


def test_random_tensor_reproducible():
    a = random_tensor(1, 4, 2, seed=5)
    b = random_tensor(1, 4, 2, seed=5)
    c = random_tensor(1, 4, 2, seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
