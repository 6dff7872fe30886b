import numpy as np
import pytest

from oracles import (brute_force_max_hops, gsa_position, gsa_subseq, iter_coords,
                     tsa_position, tsa_subseq)
from osp import skiparse
from osp.anyres import pad_grid
from osp.gridseq import GridShape, random_tensor
from osp.skiparse import (PatternError, ScheduleError, SparsePattern,
                          assignment_of, build_layer_schedule, gsa_to_orig, gsa_to_tsa,
                          layout_map, orig_to_gsa, orig_to_tsa, pattern_map, reachability_hops,
                          tsa_to_gsa, tsa_to_orig)

GRIDS = [
    GridShape(1, 4, 4, 2),
    GridShape(2, 4, 4, 2),
    GridShape(1, 8, 8, 2),
    GridShape(2, 8, 8, 2),
    GridShape(1, 9, 9, 3),
]

# k divides h and w but k^2 does not: token-wise only
TSA_ONLY_GRIDS = [
    GridShape(1, 6, 6, 2),
    GridShape(2, 8, 6, 2),
    GridShape(1, 6, 9, 3),
]


@pytest.mark.parametrize("g", GRIDS + TSA_ONLY_GRIDS, ids=str)
def test_tsa_assignment_matches_modular_oracle(g):
    a = assignment_of(g, SparsePattern.TOKEN_WISE)
    for i, coord in enumerate(iter_coords(g)):
        assert a.subseq[i] == tsa_subseq(g, *coord)
        assert a.position[i] == tsa_position(g, *coord)
    assert a.num_subsequences == g.k * g.k
    assert a.subseq_len == g.seq_len // (g.k * g.k)


@pytest.mark.parametrize("g", GRIDS, ids=str)
def test_gsa_assignment_matches_modular_oracle(g):
    a = assignment_of(g, SparsePattern.GROUP_WISE)
    for i, coord in enumerate(iter_coords(g)):
        assert a.subseq[i] == gsa_subseq(g, *coord)
        assert a.position[i] == gsa_position(g, *coord)


def test_tsa_frozen_parity_classes():
    a = assignment_of(GridShape(1, 4, 4, 2), SparsePattern.TOKEN_WISE)
    assert sorted(np.flatnonzero(a.subseq == 0)) == [0, 2, 8, 10]


def test_gsa_frozen_block_classes():
    a = assignment_of(GridShape(1, 4, 4, 2), SparsePattern.GROUP_WISE)
    assert sorted(np.flatnonzero(a.subseq == 0)) == [0, 1, 4, 5]
    assert sorted(np.flatnonzero(a.subseq == 3)) == [10, 11, 14, 15]


def test_tsa_on_2x2_grid_gives_singleton_subsequences():
    g = GridShape(1, 2, 2, 2)
    m = orig_to_tsa(g)
    x = random_tensor(1, 4, 1, seed=0)
    out = m.apply(x)
    assert (out.batch, out.seq) == (4, 1)
    # (p, q) order: token grid is [[a, b], [c, d]] flattened [a, b, c, d]
    assert np.array_equal(out.data[:, 0, 0], x.data[0, :, 0])


def test_k1_patterns_are_identity():
    g = GridShape(2, 3, 5, 1)
    x = random_tensor(1, g.seq_len, 2, seed=1)
    for builder in (orig_to_tsa, orig_to_gsa, tsa_to_gsa, gsa_to_tsa):
        m = builder(g)
        assert (m.out_batch, m.out_seq) == (1, g.seq_len)
        assert np.array_equal(m.apply(x).data, x.data)


def test_original_assignment_trivial():
    g = GridShape(1, 4, 4, 2)
    a = assignment_of(g, SparsePattern.ORIGINAL)
    assert a.num_subsequences == 1
    assert np.array_equal(a.position, np.arange(g.seq_len))
    assert (a.subseq == 0).all()


@pytest.mark.parametrize("g", [GridShape(2, 4, 4, 2), GridShape(1, 8, 8, 2)], ids=str)
def test_tsa_roundtrip_identity(g):
    x = random_tensor(2, g.seq_len, 3, seed=2)
    out = tsa_to_orig(g, 2).apply(orig_to_tsa(g, 2).apply(x))
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("g", [GridShape(1, 8, 8, 2), GridShape(1, 9, 9, 3)], ids=str)
def test_gsa_roundtrip_identity(g):
    x = random_tensor(1, g.seq_len, 3, seed=3)
    out = gsa_to_orig(g).apply(orig_to_gsa(g).apply(x))
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("g", [GridShape(1, 4, 4, 2), GridShape(2, 8, 8, 2)], ids=str)
def test_tsa_to_gsa_matches_composed_route(g):
    x = random_tensor(1, g.seq_len, 3, seed=4)
    via_direct = tsa_to_gsa(g).apply(orig_to_tsa(g).apply(x))
    via_orig = orig_to_gsa(g).apply(x)
    assert np.array_equal(via_direct.data, via_orig.data)


def test_direct_conversion_inverse_pair():
    g = GridShape(1, 8, 8, 2)
    x_tsa = orig_to_tsa(g).apply(random_tensor(1, g.seq_len, 2, seed=5))
    back = gsa_to_tsa(g).apply(tsa_to_gsa(g).apply(x_tsa))
    assert np.array_equal(back.data, x_tsa.data)


@pytest.mark.parametrize("g", GRIDS, ids=str)
def test_conversion_coherence_as_permutations(g):
    assert tsa_to_gsa(g).compose(orig_to_tsa(g)).same_permutation(orig_to_gsa(g))
    assert gsa_to_tsa(g).compose(orig_to_gsa(g)).same_permutation(orig_to_tsa(g))


@pytest.mark.parametrize("g", GRIDS, ids=str)
def test_all_maps_bijective(g):
    for builder in (orig_to_tsa, tsa_to_orig, orig_to_gsa, gsa_to_orig, tsa_to_gsa, gsa_to_tsa):
        assert builder(g, 2).is_bijection()


def test_declared_inverses_equal_computed_inverses():
    g = GridShape(1, 8, 8, 2)
    assert tsa_to_orig(g, 3).same_permutation(orig_to_tsa(g, 3).invert())
    assert gsa_to_orig(g, 3).same_permutation(orig_to_gsa(g, 3).invert())
    # the attention path and the probe take their inverse from the memo
    padded = pad_grid(GridShape(1, 10, 13, 2)).padded
    for p in SparsePattern:
        back = layout_map(padded, p, SparsePattern.ORIGINAL, 2)
        assert back.same_permutation(layout_map(padded, SparsePattern.ORIGINAL, p, 2).invert())


def test_layout_maps_are_built_once_and_read_only():
    g = GridShape(2, 8, 8, 2)
    cached = layout_map(g, SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE, 3)
    assert tsa_to_gsa(g, 3) is cached
    with pytest.raises(ValueError):
        cached.src[0, 0] = 0
    skiparse._build_layout_map.cache_clear()
    rebuilt = tsa_to_gsa(g, 3)
    assert rebuilt is not cached and rebuilt.same_permutation(cached)


def test_divisibility_errors():
    with pytest.raises(PatternError):
        orig_to_tsa(GridShape(1, 5, 6, 2))
    for g in TSA_ONLY_GRIDS:  # divisible by k but not k^2
        with pytest.raises(PatternError):
            orig_to_gsa(g)
    with pytest.raises(PatternError):
        tsa_to_gsa(GridShape(1, 6, 6, 2))
    # token-wise alone only needs divisibility by k
    assert orig_to_tsa(GridShape(1, 6, 6, 2)).is_bijection()


@pytest.mark.parametrize("g", GRIDS, ids=str)
def test_equal_subsequence_lengths(g):
    for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
        a = assignment_of(g, pattern)
        counts = np.bincount(a.subseq, minlength=a.num_subsequences)
        assert (counts == a.subseq_len).all()
        # assignment is a bijection onto (subsequence, position) pairs
        pairs = set(zip(a.subseq.tolist(), a.position.tolist()))
        assert len(pairs) == g.seq_len


@pytest.mark.parametrize("g", [GridShape(1, 4, 4, 2), GridShape(1, 9, 9, 3), GridShape(2, 4, 4, 2),
                               GridShape(1, 4, 8, 2), GridShape(1, 8, 8, 2)], ids=str)
def test_reachability_matches_brute_force(g):
    expected = brute_force_max_hops(g)
    assert reachability_hops(g) == expected
    assert expected == 2


def test_reachability_k1_single_subsequence():
    assert reachability_hops(GridShape(1, 3, 3, 1)) == 1


def test_reachability_requires_k2_divisibility():
    with pytest.raises(PatternError):
        reachability_hops(GridShape(1, 6, 6, 2))


def test_layer_schedule_40_8():
    s = build_layer_schedule(40, 8)
    assert s[:4] == [SparsePattern.ORIGINAL] * 4
    assert s[-4:] == [SparsePattern.ORIGINAL] * 4
    middle = s[4:36]
    assert middle == [SparsePattern.TOKEN_WISE if i % 2 == 0 else SparsePattern.GROUP_WISE
                      for i in range(32)]


def test_layer_schedule_edge_cases():
    assert build_layer_schedule(4, 4) == [SparsePattern.ORIGINAL] * 4
    assert build_layer_schedule(6, 2) == [
        SparsePattern.ORIGINAL, SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE,
        SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE, SparsePattern.ORIGINAL,
    ]


def test_layer_schedule_errors():
    with pytest.raises(ScheduleError):
        build_layer_schedule(10, 3)
    with pytest.raises(ScheduleError):
        build_layer_schedule(4, 6)


def test_pattern_map_original_is_identity():
    g = GridShape(1, 4, 4, 2)
    x = random_tensor(2, g.seq_len, 2, seed=6)
    assert np.array_equal(pattern_map(g, SparsePattern.ORIGINAL, 2).apply(x).data, x.data)
