"""Bit-exact software codec for HiF8, an 8-bit float with tapered precision,
plus the per-tensor current-scaling quantizer.

Format summary (the fixed HiFloat8 taper table, `MANTISSA_WIDTH`):

    exponent range   [-22, 15], 38 exponents, contiguous
    mantissa width   m(e) = 3 for e in [-3, 3]
                     m(e) = 2 for e in {-5, -4, 4, 5, 6}
                     m(e) = 1 elsewhere
    nonzero values   +/- (1 + f / 2**m(e)) * 2**e,  f in [0, 2**m(e))
    zero             the smallest-magnitude negative value is remapped to
                     exact zero

The widths sum to 128 magnitudes per sign; with the zero remap the code
space holds one zero plus 255 nonzero values, 256 distinct values total
(a fully sign-symmetric set with a dedicated zero would need an odd code
count, so one asymmetry is unavoidable). Codes are assigned in ascending
numeric order, making the code byte the rank of its value: decoding is a
table lookup. The rounding rule counts the `MIDPOINTS` between adjacent
values that lie below x; an x exactly on a midpoint takes the even code of
its two neighbours. That count is round-to-nearest, ties-to-even, and
saturates at both ends with no extra step.

Encoding applies that rule through two 65536-entry code tables indexed by
the top 16 bits of a float64 (sign, exponent and 4 fraction bits). Every
midpoint has at most 4 fraction bits, so it is the first float of such a
bucket and never lies inside one: all floats of a bucket after its first
share one code, and only the first can differ (when it is a midpoint).
The tables are built at import by evaluating the rule on the first and
second float of each bucket where the code can change. The table,
`VALUES` and `MIDPOINTS` are module constants; `checks.hif8_format_check`
verifies the published constraints on them (range, center width, outward
monotonicity, 256 distinct values) and the rounding at every midpoint.

Quantization uses current scaling at per-tensor granularity: every call
recomputes amax = max |x|, read as max(max x, -min x) with no |x| array,
and scale = target / (amax + eps), where eps is DEFAULT_EPS = 1e-12 and
the target is 15.0 in forward mode and 224.0 in backward mode, then
stores encode(x * scale) with the single scale, scaling and encoding one
bounded step of x at a time, so no scaled copy of x exists. Dequantizing
is one lookup into the 256 values divided by that scale. The module only
computes: `checks.quantized_attention_probe` measures the error the
round trip adds to sparse attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .gridseq import SequenceTensor

EXP_MIN = -22
EXP_MAX = 15
CENTER_LO = -3
CENTER_HI = 3
FORWARD_MAX = 15.0
BACKWARD_MAX = 224.0
DEFAULT_EPS = 1e-12

_MODE_MAX = {"forward": FORWARD_MAX, "backward": BACKWARD_MAX}


class EncodeError(ValueError):
    """Input cannot be encoded (non-finite)."""


MANTISSA_WIDTH: Mapping[int, int] = MappingProxyType({
    e: 3 if CENTER_LO <= e <= CENTER_HI else 2 if e in (-5, -4, 4, 5, 6) else 1
    for e in range(EXP_MIN, EXP_MAX + 1)
})

# (exponent, fraction) of each positive magnitude, ascending
_FIELDS = [(e, f) for e, m in MANTISSA_WIDTH.items() for f in range(1 << m)]
_MAGNITUDES = np.array([(1.0 + f / (1 << MANTISSA_WIDTH[e])) * 2.0 ** e for e, f in _FIELDS])

ZERO_CODE = 127  # the slot of the smallest-magnitude negative value
VALUES = np.concatenate([-_MAGNITUDES[::-1], _MAGNITUDES])  # ascending; index equals code
VALUES[ZERO_CODE] = 0.0
VALUES.flags.writeable = False
MAX_VALUE = float(VALUES[-1])
# the 255 rounding boundaries; exact, because the values are short dyadics
MIDPOINTS = (VALUES[:-1] + VALUES[1:]) / 2
MIDPOINTS.flags.writeable = False


def _midpoint_rule(x: np.ndarray) -> np.ndarray:
    """The rounding rule: the number of midpoints below x, plus one when x
    is a midpoint and that number is odd (ties to the even code)."""
    codes = np.searchsorted(MIDPOINTS, x, side="left")
    tie = MIDPOINTS[np.minimum(codes, 254)] == x
    return (codes + (tie & (codes % 2 == 1))).astype(np.uint8)


# A bucket is every float64 with the same top 16 bits. The code of a
# bucket's later floats can change only at a bucket that starts with a
# midpoint, or at either zero, where the sign flips, so the rule runs at
# those starts and each code repeats up to the next start. The starts are
# sorted in Python: numpy's uint64 sort maps about 192 KB more code into
# every process that imports osp, and np.union1d imports numpy.ma (12 ms).
_KEY_SHIFT = np.uint64(48)
_STARTS = np.array(sorted({0, 1 << 15, *(MIDPOINTS.view(np.uint64) >> _KEY_SHIFT).tolist()}),
                   np.uint64)
_INNER_CODE = np.repeat(
    _midpoint_rule(((_STARTS << _KEY_SHIFT) + np.uint64(1)).view(np.float64)),
    np.diff(_STARTS, append=np.uint64(1 << 16)).astype(np.int64))
_HEAD_CODE = _INNER_CODE.copy()
_HEAD_CODE[_STARTS.astype(np.int64)] = _midpoint_rule((_STARTS << _KEY_SHIFT).view(np.float64))
_INNER_CODE.flags.writeable = _HEAD_CODE.flags.writeable = False
# values per encoding step: whole-array temporaries of 4M values ran at
# about half the speed of steps that stay in cache
_ENCODE_STEP = 1 << 15


def _code_index(code: int) -> int:
    """A scalar code as a table index. Only an int or numpy integer in
    [0, 255] is a code; a bool, float or string is a ValueError rather than
    a truncated or coerced index."""
    if isinstance(code, bool) or not isinstance(code, (int, np.integer)):
        raise ValueError(f"HiF8 code must be an integer, got {code!r}")
    if not 0 <= code <= 255:
        raise ValueError(f"code {code} out of range")
    return int(code)


def code_fields(code: int) -> dict:
    """Sign / exponent / mantissa metadata for one code (the zero code
    reports sign 0 and no exponent)."""
    code = _code_index(code)
    if code == ZERO_CODE:
        return {"code": code, "sign": 0, "exponent": None, "mantissa_width": None,
                "fraction": None, "value": 0.0}
    sign = 1 if code > ZERO_CODE else -1
    e, f = _FIELDS[code - 128 if sign > 0 else 127 - code]
    return {
        "code": code,
        "sign": sign,
        "exponent": e,
        "mantissa_width": MANTISSA_WIDTH[e],
        "fraction": f,
        "value": float(VALUES[code]),
    }


def encode_array(x: np.ndarray) -> np.ndarray:
    """Vectorized nearest-value encoding with ties-to-even and saturation,
    by the midpoint rule through the bucket code tables. Returns uint8 codes
    of x's shape."""
    return _encode_scaled(np.asarray(x, dtype=np.float64), 1.0)


def _encode_scaled(x: np.ndarray, scale: float) -> np.ndarray:
    """The codes of x * scale for a float64 x, bit for bit. Each step of x
    is scaled into one step-sized buffer, which then takes the step's
    bucket keys in place, so no scaled copy of x exists."""
    flat = x.ravel()
    codes = np.empty(flat.size, np.uint8)
    buf = np.empty(min(flat.size, _ENCODE_STEP))
    for start in range(0, flat.size, _ENCODE_STEP):
        step = flat[start:start + _ENCODE_STEP]
        step = np.multiply(step, scale, out=buf[:step.size])
        if not np.isfinite(step).all():
            raise EncodeError("cannot encode non-finite values")
        bits = step.view(np.int64)  # an int64 compare maps no new numpy code; uint64 does
        heads = np.flatnonzero(bits << 16 == 0)  # low 48 bits zero
        np.right_shift(bits.view(np.uint64), _KEY_SHIFT, out=bits.view(np.uint64))
        out = np.take(_INNER_CODE, bits, out=codes[start:start + _ENCODE_STEP])
        out[heads] = np.take(_HEAD_CODE, bits[heads])
    return codes.reshape(x.shape)


def decode_array(codes: np.ndarray) -> np.ndarray:
    """Total over all 256 bit patterns; codes of any dtype but uint8 are a
    ValueError, as an out-of-range code is for `decode`."""
    codes = np.asarray(codes)
    if codes.dtype != np.uint8:
        raise ValueError(f"HiF8 codes must be uint8, got {codes.dtype}")
    return VALUES[codes]


def encode(x: float) -> int:
    return int(encode_array(np.array([x]))[0])


def decode(code: int) -> float:
    return float(VALUES[_code_index(code)])


@dataclass(frozen=True)
class QuantizedTensor:
    """Encoded tensor plus the single per-tensor scale that produced it."""

    codes: SequenceTensor  # uint8 codes
    scale: float
    mode: str
    amax: float

    def __post_init__(self) -> None:
        if self.codes.data.dtype != np.uint8:
            raise ValueError(f"codes must be a uint8 tensor, got {self.codes.data.dtype}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def quantize_tensor(x: SequenceTensor, mode: str) -> QuantizedTensor:
    """Current scaling at per-tensor granularity.

    amax is recomputed from the live tensor on every call; scale is
    target / (amax + DEFAULT_EPS) with target 15.0 (forward) or 224.0
    (backward). An all-zero tensor degenerates to scale = target /
    DEFAULT_EPS with every code
    at exact zero. After scaling, |x * scale| <= target by construction,
    far below the format maximum, so saturation never engages here.
    """
    if mode not in _MODE_MAX:
        raise ValueError(f"mode must be one of {sorted(_MODE_MAX)}, got {mode!r}")
    if x.data.dtype != np.float64:
        raise ValueError(f"quantize_tensor expects a float64 tensor, got {x.data.dtype}")
    # max |x| without an |x| array: the larger of max x and -min x is never
    # negative, and abs() turns its -0.0 (a tensor of zeros) into +0.0;
    # a NaN anywhere makes both NaN
    amax = abs(max(float(x.data.max()), -float(x.data.min()))) if x.data.size else 0.0
    if not np.isfinite(amax):
        raise EncodeError(f"cannot quantize a tensor with non-finite values (amax {amax})")
    scale = _MODE_MAX[mode] / (amax + DEFAULT_EPS)
    # rounding is monotone, so amax * scale is exactly max |x * scale|
    assert amax * scale <= MAX_VALUE, "current scaling cannot overflow"
    return QuantizedTensor(SequenceTensor(_encode_scaled(x.data, scale)), scale, mode, amax)


def dequantize(q: QuantizedTensor) -> SequenceTensor:
    """decode(code) / scale for every code, as one lookup into the 256
    scaled values: no full-size decoded array precedes the output."""
    return SequenceTensor((VALUES / q.scale)[q.codes.data])


def roundtrip(x: SequenceTensor, mode: str) -> SequenceTensor:
    return dequantize(quantize_tensor(x, mode))
