import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hif8_nearest_codes, hif8_value_table
from osp.checks import hif8_format_check, quantized_attention_probe
from osp.gridseq import GridShape, SequenceTensor, random_tensor
from osp.hif8 import (MANTISSA_WIDTH, MAX_VALUE, MIDPOINTS, VALUES, ZERO_CODE, EncodeError,
                      QuantizedTensor, code_fields, decode, decode_array, dequantize, encode,
                      _ENCODE_STEP, encode_array, quantize_tensor, roundtrip)
from osp.skiparse import SparsePattern


def _default_widths():
    widths = {}
    for e in range(-22, 16):
        if -3 <= e <= 3:
            widths[e] = 3
        elif e in (-5, -4, 4, 5, 6):
            widths[e] = 2
        else:
            widths[e] = 1
    return widths


def test_value_set_matches_independent_enumeration():
    expected = hif8_value_table(_default_widths())
    assert VALUES.tolist() == expected


def test_enumeration_has_256_distinct_values():
    values = VALUES.tolist()
    assert len(values) == 256
    assert len(set(values)) == 256
    assert values == sorted(values)
    assert values.count(0.0) == 1


def test_exponent_coverage():
    exps = sorted({f["exponent"] for f in map(code_fields, range(256))
                   if f["exponent"] is not None})
    assert exps == list(range(-22, 16))
    assert len(exps) == 38


def test_taper_shape():
    w = MANTISSA_WIDTH
    assert all(w[e] == 3 for e in range(-3, 4))
    assert w[-22] == 1 and w[15] == 1
    for e in range(3, 15):
        assert w[e + 1] <= w[e]
    for e in range(-3, -22, -1):
        assert w[e - 1] <= w[e]


def test_max_value_and_extremes():
    assert MAX_VALUE == 1.5 * 2.0 ** 15
    assert decode(0) == -1.5 * 2.0 ** 15
    assert decode(255) == 1.5 * 2.0 ** 15


def test_zero_code_roundtrip():
    code = encode(0.0)
    assert code == ZERO_CODE
    assert decode(code) == 0.0


def test_one_is_exactly_representable():
    code = encode(1.0)
    assert decode(code) == 1.0
    fields = code_fields(code)
    assert fields["exponent"] == 0 and fields["fraction"] == 0


def test_encode_decode_fixpoint_all_codes():
    values = VALUES
    codes = encode_array(values)
    assert np.array_equal(codes, np.arange(256, dtype=np.uint8))


@pytest.mark.parametrize("codes", [np.array([-1]), np.array([1.7]), np.array([256])],
                         ids=["int64-minus-one", "float", "int64-256"])
def test_decode_array_takes_uint8_codes_only(codes):
    # neither wraps -1 to code 255, truncates 1.7 to code 1 nor escapes as IndexError
    with pytest.raises(ValueError, match="HiF8 codes must be uint8"):
        decode_array(codes)


@pytest.mark.parametrize("fn", [decode, code_fields], ids=["decode", "code_fields"])
@pytest.mark.parametrize("code", [1.7, 2.0, True, np.True_, "1"],
                         ids=["float", "integral-float", "bool", "numpy-bool", "str"])
def test_scalar_codes_must_be_integers(fn, code):
    # decode neither truncates 1.7 nor reads True as code 1; code_fields
    # raises no TypeError
    with pytest.raises(ValueError, match=f"HiF8 code must be an integer, got {code!r}"):
        fn(code)


@pytest.mark.parametrize("code", [np.uint8(200), np.int64(3)], ids=["uint8", "int64"])
def test_scalar_codes_take_numpy_integers(code):
    assert decode(code) == decode(int(code))
    assert code_fields(code) == code_fields(int(code))


def test_scalar_code_out_of_range():
    for fn in (decode, code_fields):
        with pytest.raises(ValueError, match="code 256 out of range"):
            fn(256)
        with pytest.raises(ValueError, match="code -1 out of range"):
            fn(-1)


def test_saturation():
    assert encode(1e9) == 255
    assert encode(-1e9) == 0
    assert decode(encode(1e9)) == MAX_VALUE


def test_non_finite_rejected():
    with pytest.raises(EncodeError):
        encode(float("nan"))
    with pytest.raises(EncodeError):
        encode_array(np.array([1.0, np.inf]))


def test_ties_to_even():
    # 224 sits exactly between 192 (e=7) and 256 (e=8) in the default table
    code_192 = encode(192.0)
    code_256 = encode(256.0)
    assert decode(code_192) == 192.0 and decode(code_256) == 256.0
    assert code_256 == code_192 + 1
    winner = encode(224.0)
    assert winner in (code_192, code_256)
    assert winner % 2 == 0


def _boundary_set():
    """Every value, every midpoint between neighbours and its two one-ulp
    neighbours, both zeros, the smallest binade edge and points at and past
    both saturation ends, from the test's own table."""
    table = np.array(hif8_value_table(_default_widths()))
    mids = (table[:-1] + table[1:]) / 2
    top = table[-1]
    edges = [0.0, -0.0, 2.0 ** -22, -2.0 ** -22, np.nextafter(top, np.inf),
             np.nextafter(-top, -np.inf), 2 * top, -2 * top, 1e300, -1e300]
    return np.concatenate([table, mids, np.nextafter(mids, -np.inf),
                           np.nextafter(mids, np.inf), edges])


def test_midpoints_are_exact_and_read_only():
    table = np.array(hif8_value_table(_default_widths()))
    assert np.array_equal(MIDPOINTS - table[:-1], table[1:] - MIDPOINTS)
    assert ((table[:-1] < MIDPOINTS) & (MIDPOINTS < table[1:])).all()
    with pytest.raises(ValueError):
        MIDPOINTS[0] = 0.0


def test_encode_matches_two_neighbour_oracle_on_boundary_set():
    xs = _boundary_set()
    assert xs.size == 1031
    assert np.array_equal(encode_array(xs), hif8_nearest_codes(_default_widths(), xs))


def test_encode_matches_two_neighbour_oracle_on_seeded_values():
    # 4M values: every binade from 2^-25 to 2^17 (past both saturation
    # ends), both signs, and both zeros; every other chunk snaps the
    # significand to 1/64 so values and midpoints are hit exactly
    rng = np.random.Generator(np.random.PCG64(2026))
    widths, seen = _default_widths(), set()
    for chunk in range(4):
        n = 1_000_000
        exps = rng.integers(-25, 18, n)
        sig = rng.uniform(1.0, 2.0, n)
        if chunk % 2:
            sig = np.round(sig * 64) / 64
        xs = rng.choice([-1.0, 1.0], n) * sig * 2.0 ** exps
        xs[:2] = 0.0, -0.0
        seen.update(np.unique(exps).tolist())
        assert np.array_equal(encode_array(xs), hif8_nearest_codes(widths, xs)), chunk
    assert seen == set(range(-25, 18))


_LOW48 = np.uint64((1 << 48) - 1)


def test_every_midpoint_is_the_first_float_of_its_bucket():
    # a bucket is every float64 with the same top 16 bits (sign, exponent,
    # 4 fraction bits); zero low bits put each midpoint at a bucket's start
    assert not (MIDPOINTS.view(np.uint64) & _LOW48).any()


def test_encode_matches_two_neighbour_oracle_on_every_bucket():
    # No midpoint lies inside a bucket, so the encoder gives every float of a
    # bucket after its first one code, and the oracle is monotone. Agreement
    # at each finite bucket's first float, the float after it and its last
    # float therefore covers every finite float64.
    heads = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
    heads = heads[np.isfinite(heads.view(np.float64))]
    assert heads.size == (1 << 16) - 32  # 16 inf/NaN buckets per sign
    widths = _default_widths()
    for bits in (heads, heads + np.uint64(1), heads | _LOW48):
        xs = bits.view(np.float64)
        assert np.isfinite(xs).all()
        assert np.array_equal(encode_array(xs), hif8_nearest_codes(widths, xs))


_GRID = np.linspace(-300.0, 300.0, 60)


@pytest.mark.parametrize("x", [
    np.array(1.3), np.float64(-224.0), 224.0, np.empty((0, 3)), _GRID.reshape(6, 10)[:, ::3],
    _GRID.reshape(6, 10).T, _GRID.astype(">f8"), _GRID.astype(np.float32),
    np.array([0.0, -0.0]), np.array([5e-324, -5e-324, 2.2e-308, -1e-310]),
], ids=["0-d", "scalar", "float", "empty", "strided", "transposed", "big-endian", "float32",
        "zeros", "subnormals"])
def test_encode_array_keeps_shape_on_any_float_input(x):
    xs = np.asarray(x, dtype=np.float64)
    codes = encode_array(x)
    assert codes.dtype == np.uint8 and codes.shape == xs.shape
    assert np.array_equal(codes, hif8_nearest_codes(_default_widths(), xs))
    if xs.size and (np.abs(xs) < 2.0 ** -23).all():
        assert (codes == ZERO_CODE).all()


def test_format_check_reaches_the_binade_supremum():
    report = hif8_format_check()
    assert report["pass"]
    assert report["max_rel_over_bound"] == 16 / 17
    assert {"nearest_on_both_sides_of_every_midpoint", "ties_to_even_code",
            "encode_monotone_and_saturating"} <= set(report["checks"])


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=-49152.0, max_value=49152.0, allow_nan=False))
def test_monotone_nearest_rounding(x):
    # the round-trip lands on a nearest neighbour, so its error is at most
    # half the gap between the two values bracketing x
    table = np.array(hif8_value_table(_default_widths()))
    back = decode(encode(x))
    hi = min(int(np.searchsorted(table, x, side="left")), 255)
    lo = max(hi - 1, 0)
    best = min(abs(x - table[lo]), abs(x - table[hi]))
    assert abs(x - back) == best
    assert best <= (table[hi] - table[lo]) / 2 or lo == hi


def test_per_binade_relative_error_bound_dense_sweep():
    widths = _default_widths()
    half = 100_000
    mags = np.geomspace(2.0 ** -22, MAX_VALUE, half)
    xs = np.concatenate([mags, -mags])
    back = decode_array(encode_array(xs))
    rel = np.abs(back - xs) / np.abs(xs)
    exps = np.clip(np.floor(np.log2(np.abs(xs))).astype(int), -22, 15)
    bound = np.array([2.0 ** -(widths[e] + 1) for e in exps])
    remapped = (xs < 0) & (np.abs(xs) < 1.5 * 2.0 ** -22)
    assert (rel[~remapped] <= bound[~remapped]).all()
    # the zero remap leaves this sliver with its lower neighbour missing
    assert (rel[remapped] <= 0.5).all()


def test_central_binade_bound_is_one_sixteenth():
    rng = np.random.Generator(np.random.PCG64(0))
    xs = rng.uniform(1.0, 16.0, 10_000)  # exponents 0..3, all 3-bit binades
    back = decode_array(encode_array(xs))
    assert (np.abs(back - xs) / xs <= 2.0 ** -4).all()


@pytest.mark.parametrize("amax,mode,target", [
    (30.0, "forward", 15.0),
    (448.0, "backward", 224.0),
    (30.0, "backward", 224.0),
    (448.0, "forward", 15.0),
])
def test_scale_formula(amax, mode, target):
    x = SequenceTensor(np.array([[[amax], [-amax / 3]]]))
    q = quantize_tensor(x, mode)
    assert q.amax == amax
    assert abs(q.scale - target / (amax + 1e-12)) <= 1e-12


def test_scale_examples_are_about_half():
    x30 = SequenceTensor(np.array([[[30.0], [1.0]]]))
    assert quantize_tensor(x30, "forward").scale == pytest.approx(0.5, rel=1e-9)
    x448 = SequenceTensor(np.array([[[448.0], [-2.0]]]))
    assert quantize_tensor(x448, "backward").scale == pytest.approx(0.5, rel=1e-9)


def test_all_zero_tensor_degenerate_case():
    q = quantize_tensor(SequenceTensor.zeros(1, 4, 2), "forward")
    assert q.scale == 15.0 / 1e-12
    assert (q.codes.data == ZERO_CODE).all()
    assert (dequantize(q).data == 0.0).all()


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        quantize_tensor(SequenceTensor.zeros(1, 2, 1), "sideways")


def test_quantize_tensor_takes_float64_only():
    with pytest.raises(ValueError, match="quantize_tensor expects a float64 tensor, got uint8"):
        quantize_tensor(SequenceTensor(np.zeros((1, 2, 1), dtype=np.uint8)), "forward")


@pytest.mark.parametrize("codes,scale,error", [
    (np.zeros((1, 2, 1)), 1.0, "codes must be a uint8 tensor, got float64"),
    (np.zeros((1, 2, 1), dtype=np.uint8), 0.0, "scale must be positive"),
], ids=["float-codes", "zero-scale"])
def test_quantized_tensor_needs_uint8_codes_and_a_positive_scale(codes, scale, error):
    with pytest.raises(ValueError, match=error):
        QuantizedTensor(SequenceTensor(codes), scale, "forward", 0.0)


def test_roundtrip_exact_on_representable_grid(monkeypatch):
    # with eps = 0 and amax a power-of-two multiple of 15, every x * scale
    # lands exactly on a representable value
    monkeypatch.setattr("osp.hif8.DEFAULT_EPS", 0.0)
    reps = VALUES[(np.abs(VALUES) <= 15.0) & (VALUES != 0.0)]
    assert reps.max() == 15.0
    x = SequenceTensor((reps * 4.0).reshape(1, -1, 1))  # amax = 60 = 15 * 2^2
    q = quantize_tensor(x, "forward")
    assert q.scale == 0.25
    assert np.array_equal(dequantize(q).data, x.data)


def test_roundtrip_relative_error_within_range():
    rng = np.random.Generator(np.random.PCG64(1))
    x = SequenceTensor(rng.uniform(-30.0, 30.0, (1, 64, 8)))
    q = quantize_tensor(x, "forward")
    back = dequantize(q)
    scaled = np.abs(x.data * q.scale)
    in_range = scaled >= 2.0 ** -22
    rel = np.abs(back.data[in_range] - x.data[in_range]) / np.abs(x.data[in_range])
    assert rel.max() <= 0.25  # loosest binade bound is 2^-(1+1)


def test_current_scaling_recomputes_every_call():
    a = quantize_tensor(SequenceTensor(np.full((1, 2, 1), 3.0)), "forward")
    b = quantize_tensor(SequenceTensor(np.full((1, 2, 1), 7.0)), "forward")
    assert a.scale != b.scale


@pytest.mark.parametrize("data", [
    -np.random.Generator(np.random.PCG64(8)).uniform(0.5, 30.0, (1, 64, 8)),
    np.full((1, 4, 2), -0.0),
    np.array([[[0.0], [-0.0]]]),
], ids=["all-negative", "negative-zeros", "signed-zeros"])
def test_amax_is_max_abs_bit_for_bit(data):
    q = quantize_tensor(SequenceTensor(data), "forward")
    want = np.max(np.abs(data))
    assert np.float64(q.amax).view(np.int64) == want.view(np.int64)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("at", [0, 5])
def test_quantize_tensor_rejects_non_finite(bad, at):
    data = np.linspace(-2.0, 3.0, 6).reshape(1, 6, 1)
    data[0, at, 0] = bad
    with pytest.raises(EncodeError, match="non-finite"):
        quantize_tensor(SequenceTensor(data), "forward")


def test_roundtrip_peak_memory_stays_below_one_and_a_half_inputs():
    # clip-attn's 1.9 MiB padded clip: the output, the codes and the
    # encoder's bounded steps; a decoded array before the division, or an
    # |x * scale| array for the overflow check, would add a whole input
    x = random_tensor(1, 3840, 64, seed=9)
    tracemalloc.start()
    try:
        roundtrip(x, "forward")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.data.nbytes


@pytest.mark.parametrize("mode", ["forward", "backward"])
def test_quantized_codes_equal_the_codes_of_the_scaled_tensor(mode):
    # three whole encoder steps and a ragged fourth, with zeros of both signs
    rng = np.random.Generator(np.random.PCG64(23))
    data = rng.standard_normal((1, 3 * _ENCODE_STEP + 1001, 1))
    data[0, ::97] = 0.0
    data[0, 1::89] = -0.0
    q = quantize_tensor(SequenceTensor(data), mode)
    scaled = data * q.scale
    assert np.array_equal(q.codes.data, encode_array(scaled))
    oracle = hif8_nearest_codes(_default_widths(), scaled.ravel())
    assert np.array_equal(q.codes.data.ravel(), oracle)


def test_roundtrip_holds_the_codes_the_output_and_one_encoder_step():
    # clip-attn's 245760-value clip: a scaled copy of the whole input
    # (1.9 MiB) beside the codes would break the bound
    x = random_tensor(1, 3840, 64, seed=9)
    tracemalloc.start()
    try:
        roundtrip(x, "forward")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.data.size + x.data.nbytes + 8 * _ENCODE_STEP


def test_hif8_codes_travel_through_rearranges():
    # per-tensor scale is permutation invariant, so dequantize commutes
    # with any pattern map applied to the code tensor
    from osp.skiparse import orig_to_tsa
    g = GridShape(1, 4, 4, 2)
    x = random_tensor(1, g.seq_len, 3, seed=2)
    q = quantize_tensor(x, "forward")
    m = orig_to_tsa(g)
    moved_codes = m.apply(q.codes)
    moved_then_decoded = decode_array(moved_codes.data) / q.scale
    decoded_then_moved = m.apply(dequantize(q)).data
    assert np.array_equal(moved_then_decoded, decoded_then_moved)


def test_probe_zero_tensor_zero_error():
    g = GridShape(1, 4, 4, 2)
    rep = quantized_attention_probe(SequenceTensor.zeros(1, g.seq_len, 4), g,
                                    SparsePattern.TOKEN_WISE)
    assert rep["input"]["max_abs"] == 0.0
    assert rep["output"]["max_abs"] == 0.0


def test_probe_input_stats_pattern_independent():
    g = GridShape(1, 8, 8, 2)
    x = random_tensor(1, g.seq_len, 8, seed=3)
    reports = [quantized_attention_probe(x, g, p)
               for p in (SparsePattern.ORIGINAL, SparsePattern.TOKEN_WISE,
                         SparsePattern.GROUP_WISE)]
    assert reports[0]["input"] == reports[1]["input"] == reports[2]["input"]


def test_probe_input_error_obeys_binade_bound():
    g = GridShape(1, 8, 8, 2)
    x = random_tensor(1, g.seq_len, 8, seed=4)
    rep = quantized_attention_probe(x, g, SparsePattern.TOKEN_WISE)
    xq = roundtrip(x, "forward")
    scaled = np.abs(x.data) * (15.0 / (np.abs(x.data).max() + 1e-12))
    in_range = scaled >= 2.0 ** -22
    rel = np.abs(xq.data - x.data)[in_range] / np.abs(x.data)[in_range]
    assert rel.max() <= 0.25
    assert rep["output"]["max_abs"] > 0.0

