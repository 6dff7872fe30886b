"""The check registry: every verification routine behind the CLI
subcommands, the standard grids, and the report-all section table.

Each routine returns a JSON-ready dict whose "checks" names the invariants
it exercises and whose "pass" is decided in one place, `_verdict`, so a
failure can always be reported by name. `check_paths` is the one reader of
that tree: the CLI's FAIL line and the tests' mutation matrix both walk a
report through it.

The comparisons and baselines the mechanisms are judged against live here
too, so the mechanism modules only compute. `comm_comparison` sets the SSP
switch's counts and volumes, read from the `CommLog` ledger, beside
Ulysses-style attention at the same per-rank volume S: four all-to-alls
per block (query, key, value, output). It also carries the global volume
per switch, (N-1) * S for the all-to-all against N * (N-1) * S for a naive
gather-and-reshard switch. `quantized_attention_probe` measures the
forward error the HiF8 round trip adds to sparse attention."""

from __future__ import annotations

import math

import numpy as np

from .anyres import pad_grid, pad_tensor, strip_padding, subsequence_mask
from .attention import flop_report, skiparse_attention, skiparse_reference
from .gridseq import GridShape, SequenceTensor, random_tensor
from .hif8 import (DEFAULT_EPS, EXP_MAX, EXP_MIN, MANTISSA_WIDTH, MAX_VALUE, VALUES, code_fields,
                   decode_array, dequantize, encode_array, quantize_tensor, roundtrip)
from .mixflow import OuProcess, marginal_report, mixed_rollout, ode_step, uniform_schedule
from .skiparse import (SparsePattern, assignment_of, build_layer_schedule, gsa_to_orig,
                       gsa_to_tsa, layout_map, orig_to_gsa, orig_to_tsa, pattern_map,
                       reachability_hops, tsa_to_gsa, tsa_to_orig)
from .ssp import CommLog, shard_pattern_layout, ssp_pattern_switch

ATTN_TOLERANCE = 1e-10

# the sampler check's toy: OU noising of N(SAMPLER_DATA_MEAN, SAMPLER_DATA_VAR * I),
# non-stationary, so its flow has a drift a wrong step coefficient shows in
SAMPLER_DATA_MEAN = (1.0, -0.5)
SAMPLER_DATA_VAR = 0.25
# a rollout element may differ from a * x + b + c * xi by this times
# 1 + |x| + |xi|: hundreds of ulps of the step's terms (|dt| <= 1 and
# v(t) >= 0.25 keep each O(|x| + |xi|)), so only rounding passes
STEP_ROUNDING = 1e-13
# each exact discrete moment stays within MOMENT_ORDER * |dt| of the analytic
# one at every grid time; over every schedule of 1..1024 steps and every
# count of leading SDE steps the largest ratio is 0.76, at one SDE step
MOMENT_ORDER = 1.0
# doubling the steps must cut each moment error by at least this; over the
# same schedules the cut lies in 1.85..2.70
MOMENT_HALVING = 1.8

ACCEPTANCE_GRIDS = (
    GridShape(1, 4, 4, 2),
    GridShape(2, 4, 4, 2),
    GridShape(1, 8, 8, 2),
    GridShape(2, 8, 8, 2),
    GridShape(1, 9, 9, 3),
)


def _verdict(checks: dict, **fields) -> dict:
    """A routine's result: its fields, its named checks, each made a Python
    bool here, and pass iff every check holds."""
    checks = {name: bool(ok) for name, ok in checks.items()}
    return {**fields, "checks": checks, "pass": all(checks.values())}


def rearrange_checks(g: GridShape, seed: int) -> dict:
    """Round-trip, inverse-consistency and conversion-coherence checks for
    all six pattern maps on one grid, applied to a random tensor."""
    x = random_tensor(2, g.seq_len, 3, seed)
    to_tsa, from_tsa = orig_to_tsa(g, 2), tsa_to_orig(g, 2)
    to_gsa, from_gsa = orig_to_gsa(g, 2), gsa_to_orig(g, 2)
    t2g, g2t = tsa_to_gsa(g, 2), gsa_to_tsa(g, 2)

    maps = {
        "orig_to_tsa": to_tsa, "tsa_to_orig": from_tsa,
        "orig_to_gsa": to_gsa, "gsa_to_orig": from_gsa,
        "tsa_to_gsa": t2g, "gsa_to_tsa": g2t,
    }
    bijective = {name: m.is_bijection() for name, m in maps.items()}
    inverses = (from_tsa.same_permutation(to_tsa.invert())
                and from_gsa.same_permutation(to_gsa.invert()))
    roundtrip_tsa = np.array_equal(from_tsa.apply(to_tsa.apply(x)).data, x.data)
    roundtrip_gsa = np.array_equal(from_gsa.apply(to_gsa.apply(x)).data, x.data)
    conversion_roundtrip = np.array_equal(g2t.apply(t2g.apply(to_tsa.apply(x))).data,
                                          to_tsa.apply(x).data)
    coherence_fwd = t2g.compose(to_tsa).same_permutation(to_gsa)
    coherence_bwd = g2t.compose(to_gsa).same_permutation(to_tsa)
    tsa_assign = assignment_of(g, SparsePattern.TOKEN_WISE)
    gsa_assign = assignment_of(g, SparsePattern.GROUP_WISE)
    counts_tsa = np.bincount(tsa_assign.subseq, minlength=tsa_assign.num_subsequences)
    counts_gsa = np.bincount(gsa_assign.subseq, minlength=gsa_assign.num_subsequences)
    equal_lengths = (counts_tsa == tsa_assign.subseq_len).all() and \
        (counts_gsa == gsa_assign.subseq_len).all()

    checks = {
        "all_maps_bijective": all(bijective.values()),
        "declared_inverses_match": inverses,
        "tsa_roundtrip_identity": roundtrip_tsa,
        "gsa_roundtrip_identity": roundtrip_gsa,
        "conversion_roundtrip_identity": conversion_roundtrip,
        "tsa_to_gsa_after_orig_to_tsa_equals_orig_to_gsa": coherence_fwd,
        "gsa_to_tsa_after_orig_to_gsa_equals_orig_to_tsa": coherence_bwd,
        "equal_subsequence_lengths": equal_lengths,
    }
    return _verdict(checks, grid=[g.t, g.h, g.w], k=g.k,
                    num_subsequences=tsa_assign.num_subsequences,
                    subseq_len=tsa_assign.subseq_len)


def reach_check(g: GridShape) -> dict:
    hops = reachability_hops(g)
    return _verdict({"max_hops_at_most_two": hops <= 2}, grid=[g.t, g.h, g.w], k=g.k,
                    max_hops=hops if hops == float("inf") else int(hops))


def local_equivalence_check(g: GridShape, seed: int) -> dict:
    """The global rearrange restricted to any k^2-by-k^2 subfigure must equal
    the rearrange of that subfigure alone, up to the subfigure's offsets
    inside each subsequence. Verified by value comparison on a random
    tensor, exhaustively over subfigures and both patterns."""
    k = g.k
    unit = k * k
    if g.t != 1 or g.h % unit or g.w % unit:
        raise ValueError("local equivalence check expects t=1 and h, w multiples of k^2")
    small = GridShape(1, unit, unit, k)
    x = random_tensor(1, g.seq_len, 3, seed)
    wred, wgrp = g.w // k, g.w // unit
    ok = True
    for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
        y_big = pattern_map(g, pattern).apply(x)
        m_small = pattern_map(small, pattern)
        for bi in range(g.h // unit):
            for bj in range(g.w // unit):
                token_idx = [
                    g.flatten_index(0, bi * unit + dr, bj * unit + dc)
                    for dr in range(unit) for dc in range(unit)
                ]
                y_small = m_small.apply(SequenceTensor(x.data[:, token_idx, :]))
                if pattern is SparsePattern.TOKEN_WISE:
                    # positions form the k-by-k block at (bi*k, bj*k) in the
                    # reduced (h/k, w/k) position grid
                    pos = [
                        (bi * k + pr) * wred + (bj * k + pc)
                        for pr in range(k) for pc in range(k)
                    ]
                else:
                    # position factors (row-group, p2, col-group, q2); the
                    # subfigure occupies row-group bi, col-group bj
                    pos = [
                        ((bi * k + p2) * wgrp + bj) * k + q2
                        for p2 in range(k) for q2 in range(k)
                    ]
                ok = ok and np.array_equal(y_big.data[:, pos, :], y_small.data)
    return _verdict({"global_equals_per_subfigure_rearrange": ok},
                    grid=[g.t, g.h, g.w], k=g.k)


def attention_check(g: GridShape, pattern: SparsePattern, seed: int, chan: int = 8) -> dict:
    """Sparse path versus the dense oracle on every token, padding first
    when the grid is not a multiple of k^2. The oracle is one
    `dense_attention` call on rows it lays out itself, one per subsequence
    with its real tokens first, in which a real token attends the real
    tokens of its own subsequence; its pad tokens lie past each row's
    length and attend nothing, so the sparse path's must come out zero."""
    pg = pad_grid(g)
    xp = pad_tensor(random_tensor(1, g.seq_len, chan, seed), pg)
    out = skiparse_attention(xp, g, pattern, pg)
    ref = skiparse_reference(xp, g, pattern, pg)
    max_err = float(np.max(np.abs(out.data - ref.data)))
    fl = flop_report(pg.padded, pattern, chan)
    return _verdict({"skiparse_matches_masked_dense_oracle": max_err <= ATTN_TOLERANCE},
                    grid=[g.t, g.h, g.w], k=g.k, pattern=pattern.value,
                    padded=not pg.trivial, max_abs_err=max_err, flop_ratio=fl.ratio)


def anyres_check(seed: int) -> dict:
    """Padding, 1-D mask, pad-content independence and subsequence
    stability on a 5x6 grid, which pads to 8x8 at k = 2. Whether masked
    attention on a padded grid matches the oracle is the `attention`
    section's padded cases."""
    g = GridShape(1, 5, 6, 2)
    pg = pad_grid(g)
    x = random_tensor(1, g.seq_len, 6, seed)
    xp = pad_tensor(x, pg)

    real = int(pg.mask.sum())
    mask_counts_ok = True
    for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
        sm = subsequence_mask(pg, pattern)
        mask_counts_ok = mask_counts_ok and int(sm.sum()) == real
        mask_counts_ok = mask_counts_ok and sm.shape[0] == g.k * g.k

    strip_ok = np.array_equal(strip_padding(xp, pg).data, x.data)

    invariance_ok = True
    rng = np.random.Generator(np.random.PCG64(seed + 100))
    junk = rng.standard_normal(((~pg.mask).sum(), x.chan)) * 1e6
    for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
        out = skiparse_attention(xp, g, pattern, pg)
        xp_junk = pad_tensor(x, pg, pad_fill=junk)
        out_junk = skiparse_attention(xp_junk, g, pattern, pg)
        invariance_ok = invariance_ok and np.array_equal(
            out.data[:, pg.mask, :], out_junk.data[:, pg.mask, :])

    # each real token keeps its subsequence on a grid padded by other
    # amounts (11x13 pads to 12x16); positions may differ across widths
    big = GridShape(1, 11, 13, 2)
    other = pad_grid(big)
    coords = np.unravel_index(np.arange(g.seq_len), (g.t, g.h, g.w))
    in_other = other.embedding[np.ravel_multi_index(coords, (big.t, big.h, big.w))]
    stability_ok = True
    for pattern in (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE):
        here = assignment_of(pg.padded, pattern).subseq[pg.embedding]
        there = assignment_of(other.padded, pattern).subseq[in_other]
        stability_ok = stability_ok and np.array_equal(here, there)

    checks = {
        "real_token_count": real == g.seq_len,
        "mask_counts_preserved": mask_counts_ok,
        "strip_after_pad_identity": strip_ok,
        "pad_content_independent": invariance_ok,
        "subsequence_stable_across_resolutions": stability_ok,
    }
    return _verdict(checks, grid=[g.t, g.h, g.w], k=g.k,
                    padded_grid=[pg.padded.t, pg.padded.h, pg.padded.w],
                    real_tokens=real, pad_tokens=int((~pg.mask).sum()))


def comm_comparison(log: CommLog, group_size: int, per_rank_elements: int,
                    blocks: int) -> dict:
    """Side-by-side accounting of `blocks` executed switches. The sparse
    side is read from `log`, the ledger those switches wrote. The baselines
    are stated at the same per-rank volume S: Ulysses-style attention needs
    four all-to-alls per block (query, key, value, output), each moving S,
    and a gather-and-reshard switch's all-gather moves N * (N-1) * S
    globally. A working switch logs one all-to-all of S per block, a
    quarter of the Ulysses volume, and moves (N-1) * S globally, N times
    less than the naive switch."""
    n, s = group_size, per_rank_elements
    ssp_total = log.total_payload("all_to_all")
    ulysses_total = 4 * blocks * s
    return {
        "group_size": n,
        "per_rank_elements": s,
        "blocks": blocks,
        "ssp_events": log.count("all_to_all"),
        "all_gather_events": log.count("all_gather"),
        "ulysses_events": 4 * blocks,
        "ssp_total_per_rank": ssp_total,
        "ulysses_total_per_rank": ulysses_total,
        "volume_ratio": ssp_total / ulysses_total,
        "volume_reduction_percent": 100.0 * (1.0 - ssp_total / ulysses_total),
        "ssp_global_per_switch": (n - 1) * ssp_total // blocks,
        "naive_global_per_switch": n * (n - 1) * s,
    }


def ssp_check(g: GridShape, group_size: int, seed: int, blocks: int = 2) -> dict:
    """`blocks` pattern switches of a 4-channel tensor, alternating
    TSA->GSA->TSA..., each checked rank by rank against the
    gather/convert/reshard oracle. The collective counts and volumes are
    read from the ledger those switches wrote."""
    x_tsa = pattern_map(g, SparsePattern.TOKEN_WISE).apply(random_tensor(1, g.seq_len, 4, seed))
    convert = (tsa_to_gsa(g), gsa_to_tsa(g))
    log = CommLog()
    group = shard_pattern_layout(x_tsa, group_size, log)
    shard_elements = group.local_elements
    oracle, mismatch = x_tsa, None
    for block in range(blocks):
        group = ssp_pattern_switch(group, g)
        oracle = convert[block % 2].apply(oracle)
        bad = (group.tensor.data != oracle.data).reshape(group_size, -1).any(axis=1)
        if bad.any() and mismatch is None:
            mismatch = [block, int(bad.argmax())]
    comm = comm_comparison(log, group_size, shard_elements, blocks)

    checks = {
        "switches_match_oracle": mismatch is None,
        "one_all_to_all_per_block": comm["ssp_events"] == blocks,
        "one_shard_per_event": all(e.payload_per_rank == shard_elements for e in log.events),
        "volume_ratio_one_quarter": comm["volume_ratio"] == 0.25,
    }
    return _verdict(checks, grid=[g.t, g.h, g.w], k=g.k, group_size=group_size,
                    per_rank_elements=shard_elements, first_mismatch=mismatch,
                    comparison=comm)


def flops_check() -> dict:
    """Single-pattern cost ratio for k in {2, 3}. The measured ratio is
    1/k^2 for the 2-D pattern; 1/k is the per-axis reading of the sparse
    ratio, printed alongside rather than asserted."""
    rows = []
    ok = True
    for g in (GridShape(1, 8, 8, 2), GridShape(1, 9, 9, 3)):
        fl = flop_report(g, SparsePattern.TOKEN_WISE, chan=1)
        expected = 1.0 / (g.k * g.k)
        ok = ok and fl.ratio == expected
        rows.append({
            "grid": [g.t, g.h, g.w],
            "k": g.k,
            "full_flops": fl.full_flops,
            "sparse_flops": fl.sparse_flops,
            "measured_ratio": fl.ratio,
            "one_over_k": 1.0 / g.k,
            "one_over_k_squared": expected,
        })
    return _verdict({"measured_ratio_is_one_over_k_squared": ok}, rows=rows,
                    note="the 2-D pattern measures 1/k^2 per application; 1/k reads k as "
                         "the per-axis skip interval, both shown side by side")


def hif8_format_check() -> dict:
    """Exhaustive format properties, plus rounding and the per-binade
    round-trip bound on every point that decides them: each value, each
    midpoint between adjacent values and its two one-ulp neighbours,
    +/-2^EXP_MIN, and one point beyond each saturation end. Each binade's
    worst relative error sits on a midpoint, so the bound is met exactly
    here rather than approached by sampling.

    The forced zero remap leaves the interval (-1.5 * 2^-22, -2^-22]
    without its lower neighbour; there the achievable relative error is
    1/2 and it is asserted at that bound instead."""
    vals = VALUES
    distinct = len(set(vals.tolist()))  # np.unique would import numpy.ma
    ascending = (np.diff(vals) > 0).all()
    nonzero_exps = sorted({f["exponent"] for f in map(code_fields, range(256))
                           if f["exponent"] is not None})
    codes = np.arange(256)
    fixpoint = (encode_array(vals) == codes).all()

    widths = MANTISSA_WIDTH
    taper_ok = all(widths[e] == 3 for e in range(-3, 4)) and widths[EXP_MIN] == 1 \
        and widths[EXP_MAX] == 1
    mono_ok = all(widths[e + 1] <= widths[e] for e in range(3, EXP_MAX)) and \
        all(widths[e - 1] <= widths[e] for e in range(-3, EXP_MIN, -1))

    mids = (vals[:-1] + vals[1:]) / 2
    below, above = np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)
    nearest_ok = ((encode_array(below) == codes[:-1]).all()
                  and (encode_array(above) == codes[1:]).all())
    even_ok = (encode_array(mids) == codes[:-1] + codes[:-1] % 2).all()
    ends = np.array([2.0 ** EXP_MIN, -2.0 ** EXP_MIN, 2 * MAX_VALUE, -2 * MAX_VALUE])
    xs = np.sort(np.concatenate([vals, mids, below, above, ends]))
    swept = encode_array(xs)
    saturating_ok = ((np.diff(swept.astype(np.int64)) >= 0).all()
                     and swept[0] == 0 and swept[-1] == 255)

    xs = xs[(np.abs(xs) >= 2.0 ** EXP_MIN) & (np.abs(xs) <= MAX_VALUE)]
    rel = np.abs(decode_array(encode_array(xs)) - xs) / np.abs(xs)
    exps = np.frexp(np.abs(xs))[1] - 1
    width_lut = np.array([widths[e] for e in range(EXP_MIN, EXP_MAX + 1)])
    bound = 2.0 ** -(width_lut[exps - EXP_MIN] + 1)
    remapped = (xs < 0) & (np.abs(xs) < 1.5 * 2.0 ** EXP_MIN)
    binade_ok = (rel[~remapped] <= bound[~remapped]).all()
    remap_ok = (rel[remapped] <= 0.5).all()

    checks = {
        "distinct_256_values": distinct == 256,
        "strictly_ascending_codes": ascending,
        "exponent_range": nonzero_exps[0] == EXP_MIN and nonzero_exps[-1] == EXP_MAX,
        "exponent_count_38": len(nonzero_exps) == 38,
        "taper_center_and_extremes": taper_ok,
        "taper_monotone_outward": mono_ok,
        "encode_decode_fixpoint": fixpoint,
        "nearest_on_both_sides_of_every_midpoint": nearest_ok,
        "ties_to_even_code": even_ok,
        "encode_monotone_and_saturating": saturating_ok,
        "binade_bound_holds": binade_ok,
        "remapped_interval_bounded_by_half": remap_ok,
    }
    return _verdict(checks, distinct_values=distinct,
                    exponent_min=nonzero_exps[0], exponent_max=nonzero_exps[-1],
                    exponent_count=len(nonzero_exps), max_value=MAX_VALUE,
                    boundary_points=int(swept.size),
                    max_rel_over_bound=float(np.max(rel[~remapped] / bound[~remapped])))


def quantizer_check() -> dict:
    """Scale formula against independently computed targets, the all-zero
    degenerate case, and current-scaling freshness."""
    rows = []
    ok = True
    for amax in (30.0, 448.0):
        for mode, target in (("forward", 15.0), ("backward", 224.0)):
            x = SequenceTensor(np.array([[[amax], [-amax / 2]]]))
            q = quantize_tensor(x, mode)
            expected = target / (amax + DEFAULT_EPS)
            err = abs(q.scale - expected)
            ok = ok and err <= 1e-12
            rows.append({"amax": amax, "mode": mode, "scale": q.scale,
                         "expected": expected, "abs_err": err})

    zeros = SequenceTensor.zeros(1, 4, 2)
    qz = quantize_tensor(zeros, "forward")
    zeros_ok = (dequantize(qz).data == 0.0).all()
    fresh = quantize_tensor(SequenceTensor(np.full((1, 2, 1), 3.0)), "forward").scale != \
        quantize_tensor(SequenceTensor(np.full((1, 2, 1), 7.0)), "forward").scale

    checks = {
        "scale_formula": ok,
        "all_zero_degenerate_case": zeros_ok,
        "current_scaling_fresh": fresh,
    }
    return _verdict(checks, rows=rows)


def ou_marginals(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sampler toy's analytic mean m(t), (len(times), dim), and variance
    v(t), (len(times),): OU noising shrinks the data mean by e^(-t/2) and
    mixes the data variance with 1 by weight e^-t. The exponentials and
    roots are math's, one per time, so no SIMD kernel of numpy rounds them."""
    decay = np.array([math.exp(-t) for t in np.asarray(times, dtype=np.float64).tolist()])
    mean = np.multiply.outer([math.sqrt(d) for d in decay.tolist()], SAMPLER_DATA_MEAN)
    return mean, SAMPLER_DATA_VAR * decay + 1.0 - decay


def ou_euler_steps(steps: int, sde_steps: int) -> tuple[np.ndarray, ...]:
    """The sampler toy's grid linspace(1, 0, steps + 1) and each Euler step
    x' = a * x + b + c * xi on it, the first `sde_steps` steps stochastic.

    With drift -x/2, unit diffusion and score -(x - m_t) / v_t, a step of
    score weight w (1/2 deterministic, 1 stochastic) has
    a = 1 + dt * (w / v_t - 1/2), b = -w * dt * m_t / v_t, and
    c = sqrt(|dt|) on stochastic steps, 0 elsewhere."""
    times = np.linspace(1.0, 0.0, steps + 1)
    dt = np.diff(times)
    m, v = ou_marginals(times[:-1])
    sde = np.arange(steps) < sde_steps
    w = np.where(sde, 1.0, 0.5)
    a = 1.0 + dt * (w / v - 0.5)
    b = (-w * dt / v)[:, None] * m
    c = np.where(sde, np.sqrt(np.abs(dt)), 0.0)
    return times, a, b, c


def ou_exact_moments(steps: int, sde_steps: int) -> tuple[np.ndarray, ...]:
    """The grid and the exact per-dimension mean and variance of the Euler
    rollout at every grid time, started from the analytic marginal at t = 1:
    mean' = a * mean + b and var' = a^2 * var + c^2. Scalar work only."""
    times, a, b, c = ou_euler_steps(steps, sde_steps)
    m0, v0 = ou_marginals(times[:1])
    means, variances = [m0[0].tolist()], [float(v0[0])]
    for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist()):
        means.append([ai * mu + bd for mu, bd in zip(means[-1], bi)])
        variances.append(ai * ai * variances[-1] + ci * ci)
    return times, np.array(means), np.array(variances)


def ou_moment_errors(times: np.ndarray, mean: np.ndarray, var: np.ndarray) -> tuple[float, float]:
    """Largest distance over the grid of exact discrete moments, as
    `ou_exact_moments` gives them, from the analytic m(t) (over dimensions
    too) and v(t)."""
    m, v = ou_marginals(times)
    return float(np.abs(mean - m).max()), float(np.abs(var - v).max())


def sampler_check(seed: int, steps: int = 25, sde_steps: int = 10, ensemble: int = 256) -> dict:
    """A mixed rollout of the sampler toy, its first `sde_steps` steps
    stochastic, against the exact Euler steps, with no statistical gate:
    - every snapshot element equals a * x + b + c * xi of the one before
      within STEP_ROUNDING, xi replayed from a fresh generator of the seed;
    - the exact discrete moments stay within MOMENT_ORDER * |dt| of the
      analytic marginals, and their errors shrink by MOMENT_HALVING or
      more at twice the steps (weak order 1);
    - the noise draws are counted exactly, and the noise-free schedule is
      bitwise a plain loop of deterministic steps that draws no noise.
    The oracle uses its own grid and marginals and no formula of `mixflow`.
    The ensemble's sample moments are reported against the exact discrete
    ones by `marginal_report`, whose band no gate reads."""
    dim = len(SAMPLER_DATA_MEAN)
    proc = OuProcess(np.array(SAMPLER_DATA_MEAN), SAMPLER_DATA_VAR)
    sched = uniform_schedule(steps, sde_steps)
    times, a, b, c = ou_euler_steps(steps, sde_steps)
    _, mean, var = ou_exact_moments(steps, sde_steps)
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = mean[0] + np.sqrt(var[0]) * rng.standard_normal((ensemble, dim))
    result = mixed_rollout(x0, sched, proc, rng)

    # replay the variates: x0's draw, then one (ensemble, dim) draw per SDE step
    replay = np.random.Generator(np.random.PCG64(seed))
    replay.standard_normal(x0.shape)
    mismatch = None
    for i in range(steps):
        x, got = result.snapshots[i], result.snapshots[i + 1]
        xi = replay.standard_normal(x0.shape) if i < sde_steps else np.zeros(x0.shape)
        want = a[i] * x + b[i] + c[i] * xi
        bad = ~(np.abs(got - want) <= STEP_ROUNDING * (1.0 + np.abs(x) + np.abs(xi)))
        if bad.any():
            member, d = np.unravel_index(int(bad.argmax()), bad.shape)
            mismatch = {"step": i, "member": int(member), "dim": int(d),
                        "got": float(got[member, d]), "want": float(want[member, d])}
            break

    errors = ou_moment_errors(times, mean, var)
    finer = ou_moment_errors(*ou_exact_moments(2 * steps, 2 * sde_steps))
    bound = MOMENT_ORDER / steps
    report = marginal_report(result, sched, mean, var[:, None])

    # with no SDE step the rollout is an explicit ode_step loop, bit for bit,
    # and its generator is never touched; 3 steps of 8 members show both
    ode_sched = uniform_schedule(3)
    idle = np.random.Generator(np.random.PCG64(seed))
    idle_state = idle.bit_generator.state
    ode = mixed_rollout(x0[:8], ode_sched, proc, idle)
    pure = [x0[:8]]
    for t, t_next in zip(ode_sched.times[:-1], ode_sched.times[1:]):
        pure.append(ode_step(pure[-1], float(t), float(t_next - t), proc))
    bitwise_ok = (np.array_equal(ode.snapshots, pure) and ode.noise_draws == 0
                  and idle.bit_generator.state == idle_state)

    checks = {
        "trajectory_matches_exact_steps": mismatch is None,
        "exact_moments_within_order_dt": max(errors) <= bound,
        "moment_error_halves_at_twice_the_steps": all(
            fine * MOMENT_HALVING <= err for err, fine in zip(errors, finer)),
        "noise_draws_exact": result.noise_draws == sde_steps * dim * ensemble,
        "no_sde_steps_is_pure_ode": bitwise_ok,
    }
    return _verdict(checks, steps=steps, sde_steps=sde_steps, ensemble=ensemble, seed=seed,
                    data_mean=list(SAMPLER_DATA_MEAN), data_var=SAMPLER_DATA_VAR,
                    noise_draws=result.noise_draws,
                    trajectory={"rounding": STEP_ROUNDING, "first_mismatch": mismatch},
                    moments={"mean_error": errors[0], "var_error": errors[1],
                             "bound": bound, "mean_error_at_twice_the_steps": finer[0],
                             "var_error_at_twice_the_steps": finer[1],
                             "halving": MOMENT_HALVING},
                    marginals=report)


def schedule_check() -> dict:
    full, tsa, gsa = SparsePattern.ORIGINAL, SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE
    s40 = build_layer_schedule(40, 8)
    ok = (s40 == [full] * 4 + [tsa, gsa] * 16 + [full] * 4
          and build_layer_schedule(4, 4) == [full] * 4
          and build_layer_schedule(6, 2) == [full, tsa, gsa, tsa, gsa, full])
    return _verdict({"full_ends_around_alternating_tsa_gsa": ok},
                    layers_40_8=[l.value for l in s40])


def _error_stats(reference: np.ndarray, approx: np.ndarray) -> dict:
    diff = np.abs(approx - reference)
    denom = np.abs(reference)
    nz = denom > 0
    rel = diff[nz] / denom[nz] if nz.any() else np.zeros(1)
    return {
        "max_abs": float(diff.max(initial=0.0)),
        "mean_abs": float(diff.mean()) if diff.size else 0.0,
        "max_rel": float(rel.max(initial=0.0)),
        "mean_rel": float(rel.mean()) if rel.size else 0.0,
    }


def quantized_attention_probe(x: SequenceTensor, g: GridShape, pattern: SparsePattern) -> dict:
    """Forward-error probe: run the sparse attention path on the
    quantization round-trip of x and on x itself, and report input-side
    and output-side error statistics.

    The round trip runs on x in the pattern's layout and is mapped back, so
    the input-side statistics are independent of the pattern exactly when
    the per-tensor scale is permutation invariant.
    """
    fwd = pattern_map(g, pattern, batch=x.batch)
    back = layout_map(g, pattern, SparsePattern.ORIGINAL, x.batch)
    xq = back.apply(roundtrip(fwd.apply(x), "forward"))
    reference = skiparse_attention(x, g, pattern)
    probed = skiparse_attention(xq, g, pattern)
    return {
        "mode": "forward",
        "pattern": pattern.value,
        "input": _error_stats(x.data, xq.data),
        "output": _error_stats(reference.data, probed.data),
    }


def probe_check(seed: int) -> dict:
    """Quantized attention probe on an 8x8 grid at k = 2; input-side
    statistics must be identical across patterns because the per-tensor
    scale ignores token order."""
    g = GridShape(1, 8, 8, 2)
    x = random_tensor(1, g.seq_len, 8, seed)
    reports = {p.value: quantized_attention_probe(x, g, p)
               for p in (SparsePattern.ORIGINAL, SparsePattern.TOKEN_WISE,
                         SparsePattern.GROUP_WISE)}
    inputs = [r["input"] for r in reports.values()]
    input_invariant = all(r == inputs[0] for r in inputs)
    return _verdict({"input_error_pattern_independent": input_invariant},
                    grid=[g.t, g.h, g.w], reports=reports)


def _cases(key: str, results: list[dict]) -> dict:
    """A section of several runs of one routine: pass iff every run passes."""
    return {key: results, "pass": all(r["pass"] for r in results)}


def _run_section(build) -> dict:
    """One report-all section, or its failure if it raises. report-all's
    only input is a seed the parser has checked, so an exception other than
    MemoryError is a broken mechanism: the section fails and names it."""
    try:
        return build()
    except MemoryError:
        raise
    except Exception as exc:
        return {"raised": f"{type(exc).__name__}: {exc}", "pass": False}


def check_paths(node, prefix: str = "") -> list[tuple[str, bool]]:
    """Every named check of a report as (dotted path, value), depth first, a
    dict's own checks before its other keys; a section that raised is one
    failing path, "<path> raised <Type>: <message>"."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if not isinstance(node, dict):
        return []
    if "raised" in node:
        return [(f"{prefix.removesuffix('.')} raised {node['raised']}", False)]
    return [(prefix + name, ok) for name, ok in node.get("checks", {}).items()] + [
        path for key, value in node.items() if key != "checks"
        for path in check_paths(value, f"{prefix}{key}.")]


def build_full_report(seed: int) -> dict:
    """Every verification on the standard grids, as one deterministic JSON
    document. Byte-identical across runs for a fixed seed."""
    g882, g993 = GridShape(1, 8, 8, 2), GridShape(1, 9, 9, 3)
    patterns = (SparsePattern.TOKEN_WISE, SparsePattern.GROUP_WISE)
    sections = {
        "rearrange": lambda: _cases("grids", [rearrange_checks(g, seed)
                                              for g in ACCEPTANCE_GRIDS]),
        "reachability": lambda: _cases("grids", [reach_check(g) for g in ACCEPTANCE_GRIDS]),
        "local_equivalence": lambda: _cases("grids", [local_equivalence_check(g, seed + 1)
                                                      for g in (g882, g993)]),
        "attention": lambda: _cases("cases", [attention_check(g, p, seed + 2)
                                              for g in (GridShape(1, 4, 4, 2), g882, g993,
                                                        GridShape(1, 5, 6, 2))
                                              for p in patterns]),
        "anyres": lambda: anyres_check(seed + 3),
        "ssp": lambda: _cases("cases", [ssp_check(g, n, seed + 4) for g, n in
                                        ((GridShape(1, 4, 4, 2), 4), (g882, 2), (g882, 4))]),
        "flops": flops_check,
        "hif8_format": hif8_format_check,
        "quantizer": quantizer_check,
        "quantized_attention_probe": lambda: probe_check(seed + 5),
        "sampler": lambda: sampler_check(seed),
        "layer_schedule": schedule_check,
    }
    report = {name: _run_section(build) for name, build in sections.items()}
    return {"seed": seed, "sections": report,
            "pass": all(s["pass"] for s in report.values())}
