import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osp
from osp import gridseq
from osp.gridseq import (OSPT_MAGIC, SPLIT_BYTES, CoordinateError, GridShape, IndexMap,
                         SequenceTensor, ShapeError, random_tensor, read_ospt, rearrange_map,
                         write_ospt)


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


# (output rows, bytes per row): AT rows of 512 bytes fill SPLIT_BYTES exactly, and
# AT, a power of two, and AT + 1 rows leave a remainder for 3 and 2 cores
AT = SPLIT_BYTES // 512


@pytest.mark.parametrize("rows,row_bytes", [
    (AT - 1, 512), (AT, 512), (AT + 1, 512), (2, SPLIT_BYTES),
], ids=["one-row-below", "at-threshold", "one-row-above", "fewer-rows-than-cores"])
@pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "hif8-codes"])
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_split_gather_equals_one_take(monkeypatch, rows, row_bytes, dtype, cores):
    rng = np.random.Generator(np.random.PCG64(rows))
    chan = row_bytes // np.dtype(dtype).itemsize
    data = rng.integers(0, 256, size=(1, rows, chan), dtype=np.uint8).astype(dtype)
    src = rng.integers(0, rows, size=(1, rows))
    src[0, -1] = src[0, 0]  # at least one address is read twice
    x, m = SequenceTensor(data), IndexMap(1, rows, src)
    before = x.data.copy()
    expected = np.take(x.data.reshape(rows, chan), src.reshape(-1), axis=0)
    take, runs = np.take, []

    def counted_take(a, indices, *args, **kwargs):
        runs.append(len(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(gridseq, "_CORES", cores)
    monkeypatch.setattr(np, "take", counted_take)
    out = m.apply(x)
    monkeypatch.undo()
    n = min(cores, rows) if rows * row_bytes >= SPLIT_BYTES else 1
    assert len(runs) == n and sum(runs) == rows and max(runs) - min(runs) <= 1
    assert out.data.dtype == dtype and out.data.tobytes() == expected.tobytes()
    assert not out.data.flags.writeable
    assert x.data.tobytes() == before.tobytes()


@pytest.mark.parametrize("row_tokens", [AT // 4, AT // 2], ids=["1-MiB-rows", "2-MiB-rows"])
@pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "hif8-codes"])
@pytest.mark.parametrize("cores", [1, 2])
def test_row_range_gathers_those_rows_of_the_full_gather(monkeypatch, kept, row_tokens, dtype,
                                                          cores):
    # 4 output rows of 512-byte tokens, read from 2 input rows: the whole
    # output fills SPLIT_BYTES or more, and a range of 1 to 3 rows falls
    # below it, reaches it or passes it
    rng = np.random.Generator(np.random.PCG64(row_tokens))
    chan = 512 // np.dtype(dtype).itemsize
    x = SequenceTensor(rng.integers(0, 256, size=(2, 2 * row_tokens, chan),
                                    dtype=np.uint8).astype(dtype))
    m = IndexMap(2, 2 * row_tokens, rng.permutation(4 * row_tokens).reshape(4, row_tokens))
    full = np.take(x.data.reshape(-1, chan), m.src, axis=0)
    take, runs = np.take, []

    def counted_take(a, indices, *args, **kwargs):
        runs.append(len(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(gridseq, "_CORES", cores)
    monkeypatch.setattr(np, "take", counted_take)
    for rows in [slice(0, 1), slice(1, 3), slice(2, None), slice(None), slice(3, 3)]:
        runs.clear()
        out = m.apply(x, rows)
        want = full[rows]
        assert out.data.dtype == dtype and out.data.shape == want.shape
        assert out.data.tobytes() == want.tobytes() and not out.data.flags.writeable
        n = cores if want.nbytes >= SPLIT_BYTES else 1
        assert len(runs) == n and sum(runs) == want.shape[0] * want.shape[1]


def _forked_child_finishes(fork: str) -> None:
    """Run `fork` in a fresh interpreter that has imported os, numpy as np
    and osp.gridseq. It forks, leaving the child's pid in `pid`, and the
    child must exit 0 within 60 s; the parent kills it after that."""
    script = "import os, sys, time\nimport numpy as np\nfrom osp import gridseq\n" + \
        textwrap.dedent(fork) + textwrap.dedent("""
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                sys.exit(os.waitstatus_to_exitcode(status))
            time.sleep(0.01)
        os.kill(pid, 9)
        sys.exit("the forked child did not finish in 60 s")
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(osp.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_split_gather_runs_in_a_forked_child():
    # the child inherits the parent's pool object without its threads, so
    # a split gather there must make a new pool instead of waiting forever
    _forked_child_finishes("""
        gridseq._CORES = 2
        m = gridseq.IndexMap.identity(1, 2 ** 14)
        x = gridseq.SequenceTensor(np.ones((1, 2 ** 14, 64)))
        m.apply(x)
        pid = os.fork()
        if pid == 0:
            os._exit(0 if (m.apply(x).data == 1).all() else 3)
        """)


@pytest.fixture
def kept(monkeypatch):
    """An empty list of kept output buffers, for this test alone."""
    monkeypatch.setattr(gridseq, "_kept", [])
    return gridseq._kept


def _large_gather(dtype, seed, rows=AT):
    """A random permutation map and an input whose output fills `rows` rows
    of 512 bytes: SPLIT_BYTES exactly at the default, so a kept buffer."""
    rng = np.random.Generator(np.random.PCG64(seed))
    chan = 512 // np.dtype(dtype).itemsize
    data = rng.integers(0, 256, size=(1, rows, chan), dtype=np.uint8).astype(dtype)
    return IndexMap(1, rows, rng.permutation(rows).reshape(1, rows)), SequenceTensor(data)


# what of a first output stays alive while a second large apply runs
HOLDERS = {
    "output": lambda out: out.data,
    "sub-view": lambda out: out.data[0, 5:9, 1:],
    "reshape": lambda out: out.data.reshape(-1),
    "base": lambda out: out.data.base,
    "memoryview": lambda out: memoryview(out.data),
}


@pytest.mark.parametrize("holder", HOLDERS)
@pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "hif8-codes"])
def test_reuse_leaves_a_buffer_that_any_live_view_holds(kept, holder, dtype):
    m, x = _large_gather(dtype, seed=1)
    first = m.apply(x)
    held = HOLDERS[holder](first)
    want = np.array(held, copy=True)
    del first
    y = SequenceTensor(x.data ^ 0x5A if dtype == np.uint8 else -x.data)
    second = m.apply(y)
    assert not np.shares_memory(second.data, np.asarray(held))
    assert np.asarray(held).tobytes() == want.tobytes()
    assert second.data.tobytes() == np.take(y.data, m.src.reshape(-1), axis=1).tobytes()
    assert not second.data.flags.writeable
    assert len(kept) == 2


@pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "hif8-codes"])
def test_reuse_takes_the_same_address_once_every_view_is_gone(kept, dtype):
    m, x = _large_gather(dtype, seed=2)
    first = m.apply(x)
    address, view = first.data.ctypes.data, first.data.reshape(-1)[3:]
    del first
    second = m.apply(x)
    assert second.data.ctypes.data != address
    del view, second
    third = m.apply(x)
    assert third.data.ctypes.data == address
    assert third.data.tobytes() == np.take(x.data, m.src.reshape(-1), axis=1).tobytes()
    assert not third.data.flags.writeable
    # the miss that made the second buffer dropped nothing: the first was busy
    assert len(kept) == 2


def test_reuse_miss_drops_every_unviewed_buffer_first(kept):
    m, x = _large_gather(np.float64, seed=3)
    busy = m.apply(x)
    m.apply(x)  # a second buffer, unviewed once the output is dropped
    assert len(kept) == 2
    bigger, x2 = _large_gather(np.float64, seed=4, rows=AT + 1)
    out = bigger.apply(x2)
    assert len(kept) == 2 and np.shares_memory(kept[0], busy.data)
    assert np.shares_memory(kept[1], out.data)


@pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "hif8-codes"])
def test_reuse_takes_a_row_range_outputs_buffer_again(kept, dtype):
    # two output rows of SPLIT_BYTES each: either row alone is a large output
    rng = np.random.Generator(np.random.PCG64(6))
    chan = 512 // np.dtype(dtype).itemsize
    x = SequenceTensor(rng.integers(0, 256, size=(1, 2 * AT, chan), dtype=np.uint8).astype(dtype))
    m = IndexMap(1, 2 * AT, rng.permutation(2 * AT).reshape(2, AT))
    first = m.apply(x, slice(1, 2))
    address = first.data.ctypes.data
    del first
    second = m.apply(x, slice(0, 1))
    assert second.data.ctypes.data == address and len(kept) == 1
    assert second.data.tobytes() == np.take(x.data[0], m.src[:1], axis=0).tobytes()
    assert not second.data.flags.writeable


@pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "hif8-codes"])
def test_reuse_never_takes_an_output_below_split_bytes(kept, dtype):
    m, x = _large_gather(dtype, seed=5, rows=AT - 1)
    for _ in range(2):
        out = m.apply(x)
        assert out.data.flags.owndata and not out.data.flags.writeable
    assert kept == []


def test_reuse_gives_threads_that_gather_at_once_disjoint_buffers(kept):
    # more threads than the reference host's 2 cores, switching often, each
    # holding its last two outputs while the others take and drop buffers
    maps = [_large_gather(dtype, seed=10 + i) for i, dtype in
            enumerate([np.float64, np.uint8, np.float64, np.uint8])]
    wants = [np.take(x.data, m.src.reshape(-1), axis=1).tobytes() for m, x in maps]
    held = [[] for _ in maps]
    errors = []

    def work(i):
        m, x = maps[i]
        for _ in range(24):
            out = m.apply(x)
            if out.data.tobytes() != wants[i]:
                errors.append(f"thread {i}: wrong bytes")
            held[i] = [*held[i][-1:], out]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(maps))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    outs = [(i, out) for i, pair in enumerate(held) for out in pair]
    assert len(outs) == 2 * len(maps)
    for a, (i, out) in enumerate(outs):
        assert out.data.tobytes() == wants[i]
        assert not any(np.shares_memory(out.data, other.data) for _, other in outs[a + 1:])


def test_reuse_waits_for_the_list_lock(kept):
    # the stress test above catches an unguarded list only now and then
    m, x = _large_gather(np.uint8, seed=20)
    done = threading.Event()
    worker = threading.Thread(target=lambda: (m.apply(x), done.set()))
    with gridseq._kept_lock:
        worker.start()
        assert not done.wait(0.2)
    worker.join(timeout=60)
    assert not worker.is_alive() and done.is_set()


def test_reuse_runs_in_a_child_forked_while_the_list_is_locked():
    # the child inherits the lock held, as it would from a thread that held
    # it at the fork, so a gather there must take a new lock instead of
    # waiting forever
    _forked_child_finishes("""
        m = gridseq.IndexMap.identity(1, 2 ** 13)
        x = gridseq.SequenceTensor(np.ones((1, 2 ** 13, 64)))
        m.apply(x)
        with gridseq._kept_lock:
            pid = os.fork()
            if pid == 0:
                address = m.apply(x).data.ctypes.data
                out = m.apply(x)
                os._exit(0 if (out.data == 1).all() and out.data.ctypes.data == address else 3)
        """)


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
