"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with -s to see them on success)."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
from oracles import (brute_force_max_hops, gsa_subseq, hif8_value_table,
                     naive_attention, ou_euler_moments, ou_marginal, pattern_allow, tsa_subseq)
from osp.anyres import pad_grid, pad_tensor
from osp.attention import flop_report, project_qkv, skiparse_attention
from osp.checks import comm_comparison
from osp.cli import main
from osp.gridseq import GridShape, SequenceTensor, random_tensor
from osp.hif8 import (MANTISSA_WIDTH, MAX_VALUE, VALUES, code_fields, decode_array, encode_array,
                      quantize_tensor)
from osp.mixflow import OuProcess, marginal_report, mixed_rollout, ode_step, uniform_schedule
from osp.skiparse import (SparsePattern, gsa_to_tsa, orig_to_gsa, orig_to_tsa, pattern_map,
                          reachability_hops, tsa_to_gsa, tsa_to_orig, gsa_to_orig)
from osp.ssp import CommLog, shard_pattern_layout, ssp_pattern_switch

GRIDS = [
    GridShape(1, 4, 4, 2),
    GridShape(2, 4, 4, 2),
    GridShape(1, 8, 8, 2),
    GridShape(2, 8, 8, 2),
    GridShape(1, 9, 9, 3),
]


@contextmanager
def criterion(num, desc, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s, limit {limit_s}s"
    print(f"ACCEPTANCE {num:02d} PASS  {desc} ({elapsed:.2f}s)")


def test_criterion_1_rearrange_oracle_suite():
    with criterion(1, "rearrange round-trips and conversion coherence", 5.0):
        for g in GRIDS:
            x = random_tensor(2, g.seq_len, 3, seed=g.seq_len)
            to_tsa, to_gsa = orig_to_tsa(g, 2), orig_to_gsa(g, 2)
            assert np.array_equal(tsa_to_orig(g, 2).apply(to_tsa.apply(x)).data, x.data)
            assert np.array_equal(gsa_to_orig(g, 2).apply(to_gsa.apply(x)).data, x.data)
            assert tsa_to_gsa(g, 2).compose(to_tsa).same_permutation(to_gsa)
            assert gsa_to_tsa(g, 2).compose(to_gsa).same_permutation(to_tsa)
            assert np.array_equal(tsa_to_gsa(g, 2).apply(to_tsa.apply(x)).data,
                                  to_gsa.apply(x).data)


def test_criterion_2_two_hop_reachability():
    with criterion(2, "any token pair interacts within two hops", 30.0):
        for g in GRIDS:
            brute = brute_force_max_hops(g)
            assert brute <= 2
            assert reachability_hops(g) == brute


def test_criterion_3_local_equivalence():
    with criterion(3, "global rearrange equals per-subfigure rearrange", 5.0):
        for g in (GridShape(1, 8, 8, 2), GridShape(1, 9, 9, 3)):
            k, unit = g.k, g.k * g.k
            small = GridShape(1, unit, unit, k)
            x = random_tensor(1, g.seq_len, 3, seed=31)
            for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
                y_big = pattern_map(g, pattern).apply(x)
                m_small = pattern_map(small, pattern)
                for bi in range(g.h // unit):
                    for bj in range(g.w // unit):
                        tokens = [g.flatten_index(0, bi * unit + dr, bj * unit + dc)
                                  for dr in range(unit) for dc in range(unit)]
                        y_small = m_small.apply(SequenceTensor(x.data[:, tokens, :]))
                        if pattern is SparsePattern.TOKEN_WISE:
                            pos = [(bi * k + pr) * (g.w // k) + bj * k + pc
                                   for pr in range(k) for pc in range(k)]
                        else:
                            pos = [((bi * k + p2) * (g.w // unit) + bj) * k + q2
                                   for p2 in range(k) for q2 in range(k)]
                        assert np.array_equal(y_big.data[:, pos, :], y_small.data)


def test_criterion_4_any_resolution_correctness():
    with criterion(4, "padded masked attention equals 2-D mask oracle", 5.0):
        g = GridShape(1, 5, 6, 2)
        pg = pad_grid(g)
        x = random_tensor(1, g.seq_len, 4, seed=41)
        xp = pad_tensor(x, pg)
        q, k, v = project_qkv(xp)
        rng = np.random.Generator(np.random.PCG64(42))
        junk = rng.standard_normal((int((~pg.mask).sum()), 4)) * 1e7
        for pattern, subseq_fn in ((SparsePattern.TOKEN_WISE, tsa_subseq),
                                   (SparsePattern.GROUP_WISE, gsa_subseq)):
            out = skiparse_attention(xp, g, pattern, pg)
            allow = pattern_allow(pg.padded, subseq_fn, real=pg.mask)
            expected = naive_attention(q.data, k.data, v.data, allow=allow)
            assert np.max(np.abs(out.data[:, pg.mask] - expected[:, pg.mask])) <= 1e-10
            dirty = skiparse_attention(pad_tensor(x, pg, pad_fill=junk), g, pattern, pg)
            assert np.array_equal(out.data[:, pg.mask], dirty.data[:, pg.mask])


def test_criterion_5_ssp_protocol():
    with criterion(5, "pattern switch equals gather/convert/reshard oracle", 5.0):
        for g, n in ((GridShape(1, 4, 4, 2), 4), (GridShape(1, 8, 8, 2), 2),
                     (GridShape(1, 8, 8, 2), 4)):
            x = random_tensor(1, g.seq_len, 4, seed=51)
            for pattern, convert in ((SparsePattern.TOKEN_WISE, tsa_to_gsa),
                                     (SparsePattern.GROUP_WISE, gsa_to_tsa)):
                layout = pattern_map(g, pattern).apply(x)
                log = CommLog()
                group = shard_pattern_layout(layout, n, log)
                switched = ssp_pattern_switch(group, g)
                oracle = convert(g).apply(layout)
                per = layout.batch // n
                for r in range(n):
                    assert np.array_equal(switched.shards[r].tensor.data,
                                          oracle.data[r * per:(r + 1) * per])
                assert log.count("all_to_all") == 1
                assert log.count("all_gather") == 0
                assert len({s.tensor.data.size for s in switched.shards}) == 1


def test_criterion_6_communication_accounting():
    with criterion(6, "1 vs 4 collectives per block, 75% volume cut, N(N-1)S naive", 1.0):
        for g, n in ((GridShape(1, 4, 4, 2), 2), (GridShape(1, 8, 8, 2), 4),
                     (GridShape(1, 16, 16, 4), 8)):
            x = pattern_map(g, SparsePattern.TOKEN_WISE).apply(random_tensor(1, g.seq_len, 4, 6))
            log = CommLog()
            group = shard_pattern_layout(x, n, log)
            ssp_pattern_switch(group, g)
            s = group.local_elements
            rep = comm_comparison(log, n, s, blocks=1)
            assert rep["ssp_events"] == 1
            assert rep["all_gather_events"] == 0
            assert rep["ulysses_events"] == 4
            assert rep["ssp_total_per_rank"] == s
            assert rep["ulysses_total_per_rank"] == 4 * s
            assert rep["volume_ratio"] == 0.25
            assert rep["naive_global_per_switch"] == n * (n - 1) * s
            assert rep["ssp_global_per_switch"] == (n - 1) * s
            assert rep["naive_global_per_switch"] == n * rep["ssp_global_per_switch"]


def test_criterion_7_hif8_format():
    with criterion(7, "256 distinct values, 38 exponents, taper, binade bound", 10.0):
        table = hif8_value_table({e: MANTISSA_WIDTH[e] for e in range(-22, 16)})
        values = VALUES
        assert values.tolist() == table
        assert len(set(table)) == 256
        exps = sorted({f["exponent"] for f in map(code_fields, range(256))
                       if f["exponent"] is not None})
        assert exps == list(range(-22, 16)) and len(exps) == 38
        widths = MANTISSA_WIDTH
        assert all(widths[e] == 3 for e in range(-3, 4))
        assert widths[-22] == 1 and widths[15] == 1
        assert np.array_equal(encode_array(values), np.arange(256))

        half = 500_000
        mags = np.geomspace(2.0 ** -22, MAX_VALUE, half)
        xs = np.concatenate([mags, -mags])
        rel = np.abs(decode_array(encode_array(xs)) - xs) / np.abs(xs)
        e_of = np.clip(np.floor(np.log2(np.abs(xs))).astype(int), -22, 15)
        bound = np.array([2.0 ** -(widths[e] + 1) for e in e_of])
        remapped = (xs < 0) & (np.abs(xs) < 1.5 * 2.0 ** -22)
        assert (rel[~remapped] <= bound[~remapped]).all()
        assert (rel[remapped] <= 0.5).all()


def test_criterion_8_quantizer_scales():
    with criterion(8, "scale = target / (amax + eps) for amax in {30, 448}", 1.0):
        for amax in (30.0, 448.0):
            x = SequenceTensor(np.array([[[amax], [-amax / 2]]]))
            fwd = quantize_tensor(x, "forward")
            bwd = quantize_tensor(x, "backward")
            assert abs(fwd.scale - 15.0 / (amax + 1e-12)) <= 1e-12
            assert abs(bwd.scale - 224.0 / (amax + 1e-12)) <= 1e-12


def test_criterion_9_mixed_sampler_marginals():
    with criterion(9, "25-step mixed rollout matches its exact Euler moments", 60.0):
        data_mean, data_var = (1.0, -0.5), 0.25
        proc = OuProcess(np.array(data_mean), data_var)
        sched = uniform_schedule(25, 10)
        means, variances = ou_euler_moments(25, 10, data_mean, data_var)
        rng = np.random.Generator(np.random.PCG64(7))
        x0 = np.array(means[0]) + math.sqrt(variances[0]) * rng.standard_normal((10_000, 2))
        result = mixed_rollout(x0, sched, proc, rng)
        report = marginal_report(result, sched, np.array(means), np.array(variances)[:, None])
        assert report["pass"], [s for s in report["steps"] if not (s["mean_ok"] and s["var_ok"])]
        assert result.noise_draws == 10 * 2 * 10_000
        # the exact discrete moments stray O(dt) from the analytic marginals
        for j, t in enumerate(sched.times):
            m, v = ou_marginal(t, data_mean, data_var)
            assert abs(variances[j] - v) <= 1 / 25
            assert max(abs(a - b) for a, b in zip(means[j], m)) <= 1 / 25
        # with no stochastic step the rollout is bitwise the manual
        # deterministic-step loop and consumes no randomness
        ode_sched = uniform_schedule(25)
        pure = mixed_rollout(x0, ode_sched, proc)
        x = x0
        for i in range(25):
            x = ode_step(x, float(ode_sched.times[i]),
                         float(ode_sched.times[i + 1] - ode_sched.times[i]), proc)
        assert np.array_equal(pure.final, x)
        assert pure.noise_draws == 0


def test_criterion_10_flop_report_ratio():
    with criterion(10, "sparse/full FLOP ratio is 1/k^2, both phrasings shown", 1.0):
        for g in (GridShape(1, 8, 8, 2), GridShape(2, 8, 8, 2), GridShape(1, 9, 9, 3)):
            rep = flop_report(g, SparsePattern.TOKEN_WISE, chan=8)
            assert rep.ratio == 1.0 / (g.k * g.k)
        from osp.checks import flops_check
        payload = flops_check()
        assert payload["pass"]
        for row in payload["rows"]:
            assert row["measured_ratio"] == row["one_over_k_squared"]
            assert row["one_over_k"] == 1.0 / row["k"]


def test_criterion_11_report_all_determinism(tmp_path):
    with criterion(11, "report-all --seed 7 is byte-identical across runs", 30.0):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        assert main(["report-all", "--seed", "7", "--out", str(first)]) == 0
        assert main(["report-all", "--seed", "7", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["pass"] is True
