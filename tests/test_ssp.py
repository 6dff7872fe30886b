import sys
import tracemalloc

import numpy as np
import pytest

from oracles import transpose_chunks
from osp import checks, ssp
from osp.checks import comm_comparison
from osp.gridseq import GridShape, IndexMap, SequenceTensor, random_tensor
from osp.skiparse import PatternError, SparsePattern, gsa_to_tsa, pattern_map, tsa_to_gsa
from osp.ssp import (CollectiveError, CommLog, ProcessGroup, ProtocolError, ShardingError,
                     all_to_all, exchange_map, shard_pattern_layout, ssp_pattern_switch)


def _tsa_layout(g, chan=4, seed=0, batch=1):
    x = random_tensor(batch, g.seq_len, chan, seed)
    return pattern_map(g, SparsePattern.TOKEN_WISE, batch).apply(x)


def test_single_rank_shard_is_whole_input():
    g = GridShape(1, 4, 4, 2)
    x_tsa = _tsa_layout(g)
    group = shard_pattern_layout(x_tsa, 1)
    assert len(group.shards) == 1
    assert np.array_equal(group.shards[0].tensor.data, x_tsa.data)


@pytest.mark.parametrize("group_size,per_rank", [(4, 1), (2, 2)])
def test_shard_counts(group_size, per_rank):
    g = GridShape(1, 4, 4, 2)
    x_tsa = _tsa_layout(g)
    group = shard_pattern_layout(x_tsa, group_size)
    assert all(s.tensor.batch == per_rank for s in group.shards)
    assert np.array_equal(np.concatenate([s.tensor.data for s in group.shards]), x_tsa.data)


def test_shard_divisibility_error():
    g = GridShape(1, 4, 4, 2)
    with pytest.raises(ShardingError):
        shard_pattern_layout(_tsa_layout(g), 3)


def _received(send):
    """What each rank reads after all_to_all(send): its block of the
    sender-major buffer read through exchange_map."""
    n, lead, seq, chan = send.shape
    flat = SequenceTensor(send.reshape(n * lead, seq, chan))
    return np.split(exchange_map(n, lead, seq).apply(flat).data, n)


def test_all_to_all_single_rank_identity():
    log = CommLog()
    send = np.arange(6.0).reshape(1, 3, 2, 1)
    assert all_to_all(send.shape, log) is None
    assert exchange_map(1, 3, 2).same_permutation(IndexMap.identity(3, 2))
    assert np.array_equal(_received(send)[0], send[0])
    assert log.count("all_to_all") == 1


def test_all_to_all_two_rank_transpose():
    # send[0] = [A, B], send[1] = [C, D]  ->  recv[0] = [A, C], recv[1] = [B, D]
    a, b, c, d = (np.full((1, 2, 1), v) for v in (1.0, 2.0, 3.0, 4.0))
    send = np.stack([np.concatenate([a, b]), np.concatenate([c, d])])
    log = CommLog()
    all_to_all(send.shape, log)
    recv = _received(send)
    assert np.array_equal(recv[0], np.concatenate([a, c]))
    assert np.array_equal(recv[1], np.concatenate([b, d]))
    assert log.events[0].payload_per_rank == 4


def test_all_to_all_matches_transpose_oracle():
    # the routing itself: each address of the sender-major buffer is read
    # once, where transpose_chunks puts it
    n, lead, seq = 4, 8, 3
    addresses = np.arange(n * lead * seq).reshape(n, lead, seq)
    m = exchange_map(n, lead, seq)
    assert m.is_bijection()
    assert np.array_equal(m.src, np.concatenate(transpose_chunks(list(addresses), n)))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "hif8-codes"])
def test_all_to_all_fills_one_buffer_equal_to_concatenation(n, dtype):
    rng = np.random.Generator(np.random.PCG64(n))
    if dtype == np.uint8:
        send = rng.integers(0, 256, size=(n, 2 * n, 3, 2), dtype=np.uint8)
    else:
        send = rng.standard_normal((n, 2 * n, 3, 2))
    expected = transpose_chunks(list(send), n)
    before = send.copy()
    assert all_to_all(send.shape, CommLog()) is None
    assert np.array_equal(send, before)
    for got, want in zip(_received(send), expected, strict=True):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_switch_allocates_only_its_output():
    # one gather from the group into the output: no sender-major buffer, and
    # the output takes the dropped warm-up output's buffer
    g = GridShape(1, 64, 64, 2)
    group = shard_pattern_layout(_tsa_layout(g, chan=128, seed=15), 4)
    assert group.tensor.data.nbytes >= 4 * 2 ** 20
    ssp_pattern_switch(group, g)  # warm-up: builds and memoizes the plan
    tracemalloc.start()
    try:
        switched = ssp_pattern_switch(group, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 10
    assert np.array_equal(switched.tensor.data, tsa_to_gsa(g).apply(group.tensor).data)
    assert [e.payload_per_rank for e in group.log.events] == [group.local_elements] * 2


def test_switch_beside_a_live_output_allocates_only_its_output():
    g = GridShape(1, 64, 64, 2)
    group = shard_pattern_layout(_tsa_layout(g, chan=128, seed=15), 4)
    warm = ssp_pattern_switch(group, g)  # kept alive, so its buffer stays busy
    tracemalloc.start()
    try:
        switched = ssp_pattern_switch(group, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= switched.tensor.data.nbytes + 64 * 2 ** 10
    assert not np.shares_memory(warm.tensor.data, switched.tensor.data)
    assert np.array_equal(warm.tensor.data, switched.tensor.data)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_switch_reuse_adds_no_page_faults():
    # 16 MiB round trips at N = 4 and 16, all four outputs alive at once as
    # in a layer pair; a fresh 16 MiB output costs about 500 faults
    import resource

    g = GridShape(4, 128, 128, 4)
    x = _tsa_layout(g, chan=32, seed=16)
    assert x.data.nbytes == 16 * 2 ** 20

    def round_trips():
        outs = []
        for n in (4, 16):
            gsa = ssp_pattern_switch(shard_pattern_layout(x, n), g)
            outs += [gsa, ssp_pattern_switch(gsa, g)]
        return outs

    for _ in range(2):  # warm-up: plans, gather pool and kept buffers
        round_trips()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        round_trips()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 40, f"{faults} minor faults in 40 switches"
    outs = round_trips()
    assert np.array_equal(outs[1].tensor.data, x.data) and np.array_equal(outs[3].tensor.data, x.data)
    assert np.array_equal(outs[0].tensor.data, tsa_to_gsa(g).apply(x).data)


def test_all_to_all_unequal_chunk_error():
    with pytest.raises(CollectiveError, match="leading axis 3 not divisible into 2 chunks"):
        all_to_all((2, 3, 1, 1), CommLog())
    with pytest.raises(CollectiveError, match="leading axis 3 not divisible into 2 chunks"):
        exchange_map(2, 3, 1)


def test_all_to_all_with_no_ranks_is_a_collective_error():
    with pytest.raises(CollectiveError, match="at least one rank, got 0"):
        all_to_all((0, 4, 1, 1), CommLog())
    with pytest.raises(CollectiveError, match="at least one rank, got 0"):
        exchange_map(0, 4, 1)


def test_empty_process_group_is_a_sharding_error():
    with pytest.raises(ShardingError, match="group size must be at least 1, got 0"):
        ProcessGroup(SequenceTensor(np.zeros((4, 4, 2))), 0, CommLog())


def test_zero_group_size_is_a_sharding_error():
    with pytest.raises(ShardingError, match="group size must be at least 1, got 0"):
        shard_pattern_layout(_tsa_layout(GridShape(1, 4, 4, 2)), 0)


def test_process_group_batch_must_divide_by_ranks():
    with pytest.raises(ShardingError, match="batch 4 not divisible by group size 3"):
        ProcessGroup(SequenceTensor(np.zeros((4, 4, 2))), 3, CommLog())


def test_shards_are_read_only_views_of_row_blocks():
    group = shard_pattern_layout(_tsa_layout(GridShape(1, 8, 8, 2)), 2)
    blocks = np.split(group.tensor.data, 2)
    for shard, block in zip(group.shards, blocks, strict=True):
        assert not shard.tensor.data.flags.writeable
        assert np.shares_memory(shard.tensor.data, block)
        assert np.array_equal(shard.tensor.data, block)
    assert not np.shares_memory(group.shards[0].tensor.data, blocks[1])


SWITCH_CASES = [
    (GridShape(1, 4, 4, 2), 4),
    (GridShape(1, 8, 8, 2), 2),
    (GridShape(1, 8, 8, 2), 4),
]


@pytest.mark.parametrize("g,group_size", SWITCH_CASES, ids=str)
def test_switch_tsa_to_gsa_matches_gather_convert_reshard(g, group_size):
    x_tsa = _tsa_layout(g, seed=1)
    group = shard_pattern_layout(x_tsa, group_size)
    switched = ssp_pattern_switch(group, g)
    oracle = tsa_to_gsa(g).apply(x_tsa)
    per = x_tsa.batch // group_size
    for r in range(group_size):
        assert np.array_equal(switched.shards[r].tensor.data,
                              oracle.data[r * per:(r + 1) * per])


@pytest.mark.parametrize("g,group_size", SWITCH_CASES, ids=str)
def test_switch_gsa_to_tsa_matches_gather_convert_reshard(g, group_size):
    x_gsa = pattern_map(g, SparsePattern.GROUP_WISE).apply(random_tensor(1, g.seq_len, 4, 2))
    group = shard_pattern_layout(x_gsa, group_size)
    switched = ssp_pattern_switch(group, g)
    oracle = gsa_to_tsa(g).apply(x_gsa)
    per = x_gsa.batch // group_size
    for r in range(group_size):
        assert np.array_equal(switched.shards[r].tensor.data,
                              oracle.data[r * per:(r + 1) * per])


@pytest.mark.parametrize("g,group_size", SWITCH_CASES, ids=str)
def test_switch_ranks_read_only_their_own_chunk_of_each_sender(g, group_size):
    group = shard_pattern_layout(_tsa_layout(g, seed=14), group_size)
    switched = ssp_pattern_switch(group, g)
    reduced = GridShape(g.t, g.h // g.k, g.w // g.k, g.k)
    split, merge = ssp._switch_stages(reduced, group_size, 1)
    # sender-major rows (sender, chunk, row within chunk); chunk r is bound for rank r
    lead, seq = split.out_batch // group_size, split.out_seq
    chunk = (merge.src // seq) % lead // (lead // group_size)
    assert merge.is_bijection()
    for r, block in enumerate(np.split(chunk, group_size)):
        assert np.all(block == r)
    # sender j's rows of the buffer hold only rank j's input rows
    rank = split.src // split.in_seq // (split.in_batch // group_size)
    assert split.is_bijection()
    for j, block in enumerate(np.split(rank, group_size)):
        assert np.all(block == j)
    plan, sender_major = ssp._switch_plan(g, group_size, g.k * g.k // group_size)
    assert plan.same_permutation(merge.compose(split))
    assert sender_major == (group_size, lead, seq)
    for out in switched.shards:
        assert not out.tensor.data.flags.writeable
        assert not any(np.shares_memory(out.tensor.data, s.tensor.data) for s in group.shards)


def test_switch_logs_exactly_one_all_to_all_and_no_gathers():
    g = GridShape(1, 8, 8, 2)
    group = shard_pattern_layout(_tsa_layout(g, seed=3), 4)
    switched = ssp_pattern_switch(group, g)
    assert group.log.count("all_to_all") == 1
    assert group.log.count("all_gather") == 0
    ssp_pattern_switch(switched, g)
    assert group.log.count("all_to_all") == 2


def test_single_rank_switch_equals_local_conversion_and_still_logs():
    g = GridShape(1, 8, 8, 2)
    x_tsa = _tsa_layout(g, seed=4)
    group = shard_pattern_layout(x_tsa, 1)
    switched = ssp_pattern_switch(group, g)
    assert np.array_equal(switched.shards[0].tensor.data, tsa_to_gsa(g).apply(x_tsa).data)
    assert group.log.count("all_to_all") == 1


def test_switch_with_multi_item_batch():
    g = GridShape(1, 8, 8, 2)
    x_tsa = _tsa_layout(g, seed=5, batch=3)
    group = shard_pattern_layout(x_tsa, 2)
    switched = ssp_pattern_switch(group, g)
    oracle = tsa_to_gsa(g, batch=3).apply(x_tsa)
    per = x_tsa.batch // 2
    for r in range(2):
        assert np.array_equal(switched.shards[r].tensor.data,
                              oracle.data[r * per:(r + 1) * per])


def test_switch_plan_is_built_once_per_grid_group_and_batch():
    g = GridShape(1, 8, 8, 2)
    ssp._switch_plan.cache_clear()
    group = shard_pattern_layout(_tsa_layout(g, seed=13), 4)
    back = ssp_pattern_switch(ssp_pattern_switch(group, g), g)
    assert np.array_equal(np.concatenate([s.tensor.data for s in back.shards]),
                          _tsa_layout(g, seed=13).data)
    info = ssp._switch_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_group_size_must_divide_k_squared():
    g = GridShape(1, 4, 4, 2)
    x_tsa = _tsa_layout(g, batch=3)
    group = shard_pattern_layout(x_tsa, 3)  # divides batch 12, not k^2 = 4
    with pytest.raises(ShardingError):
        ssp_pattern_switch(group, g)


def test_switch_grid_error_names_the_callers_grid():
    # token-wise fits 6x6 at k=2, group-wise does not; the error names the
    # grid the caller passed, not the plan's reduced 3x3 grid
    g = GridShape(1, 6, 6, 2)
    group = shard_pattern_layout(_tsa_layout(g), 2)
    with pytest.raises(PatternError, match=r"got 6x6$"):
        ssp_pattern_switch(group, g)


def test_load_balance_preserved():
    g = GridShape(1, 8, 8, 2)
    group = shard_pattern_layout(_tsa_layout(g, seed=6), 4)
    switched = ssp_pattern_switch(group, g)
    sizes = {s.tensor.data.size for s in switched.shards}
    assert len(sizes) == 1


def test_switch_is_deterministic():
    g = GridShape(1, 8, 8, 2)
    runs = []
    for _ in range(2):
        group = shard_pattern_layout(_tsa_layout(g, seed=7), 4)
        switched = ssp_pattern_switch(group, g)
        runs.append(np.concatenate([s.tensor.data for s in switched.shards]))
    assert np.array_equal(runs[0], runs[1])


def test_head_split_composability():
    # switching each channel group separately and merging equals switching whole
    g = GridShape(1, 8, 8, 2)
    x_tsa = _tsa_layout(g, chan=8, seed=8)
    whole = ssp_pattern_switch(shard_pattern_layout(x_tsa, 4), g)
    parts = []
    for h in range(2):
        sub = SequenceTensor(x_tsa.data[:, :, h * 4:(h + 1) * 4])
        parts.append(ssp_pattern_switch(shard_pattern_layout(sub, 4), g))
    for r in range(4):
        merged = np.concatenate([p.shards[r].tensor.data for p in parts], axis=2)
        assert np.array_equal(merged, whole.shards[r].tensor.data)


def _run_switches(g, group_size, blocks, chan=4):
    """Run `blocks` alternating switches; return the ledger and the shard size."""
    group = shard_pattern_layout(_tsa_layout(g, chan=chan, seed=10), group_size)
    for _ in range(blocks):
        group = ssp_pattern_switch(group, g)
    return group.log, group.local_elements


def test_comm_comparison_counts_and_ratio():
    g = GridShape(1, 8, 8, 2)
    log, s = _run_switches(g, 4, blocks=3)
    rep = comm_comparison(log, 4, s, blocks=3)
    assert rep["ssp_events"] == 3
    assert rep["all_gather_events"] == 0
    assert rep["ulysses_events"] == 12
    assert rep["ssp_total_per_rank"] == 3 * s
    assert rep["volume_ratio"] == 0.25
    assert rep["volume_reduction_percent"] == 75.0
    assert rep["ssp_global_per_switch"] == 3 * s
    assert rep["naive_global_per_switch"] == 12 * s


def test_comm_comparison_reads_the_ledger_not_the_formula():
    log = CommLog()
    log.record("all_to_all", 200)
    rep = comm_comparison(log, 4, 100, blocks=1)
    assert rep["ssp_total_per_rank"] == 200
    assert rep["volume_ratio"] == 0.5
    assert rep["ssp_global_per_switch"] == 600


def test_switch_on_original_layout_rows_is_a_protocol_error():
    g = GridShape(1, 8, 8, 2)
    group = shard_pattern_layout(random_tensor(1, g.seq_len, 4, 11), 1)
    with pytest.raises(ProtocolError, match="local batch 1 not divisible by G=4"):
        ssp_pattern_switch(group, g)


def test_switch_on_full_length_rows_is_a_protocol_error():
    g = GridShape(1, 8, 8, 2)
    group = shard_pattern_layout(random_tensor(4, g.seq_len, 4, 12), 1)
    with pytest.raises(ProtocolError, match="shard seq 64 != subsequence length 16"):
        ssp_pattern_switch(group, g)


def test_switch_payload_matches_local_elements():
    g = GridShape(1, 8, 8, 2)
    group = shard_pattern_layout(_tsa_layout(g, chan=4, seed=9), 4)
    ssp_pattern_switch(group, g)
    assert group.log.events[0].payload_per_rank == group.local_elements


def test_ssp_check_names_the_first_mismatching_block_and_rank(monkeypatch):
    calls = []

    def corrupt_second_switch(group, g):
        out = ssp_pattern_switch(group, g)
        calls.append(g)
        if len(calls) == 2:
            data = out.tensor.data.copy()
            per = data.shape[0] // out.ranks
            data[per:2 * per] *= -1
            out = ProcessGroup(SequenceTensor(data), out.ranks, out.log)
        return out

    monkeypatch.setattr(checks, "ssp_pattern_switch", corrupt_second_switch)
    result = checks.ssp_check(GridShape(1, 8, 8, 2), 4, seed=4)
    assert result["first_mismatch"] == [1, 1]
    assert result["checks"]["switches_match_oracle"] is False
    assert result["checks"]["volume_ratio_one_quarter"] is True
    assert result["pass"] is False
