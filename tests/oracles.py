"""Independent oracles for the test suite.

Everything here is deliberately naive (double loops, direct modular
arithmetic, explicit chunk shuffling) and shares no code with the package
paths it checks.
"""

import math

import numpy as np


def naive_attention(q, k, v, allow=None):
    """Double-loop softmax attention. allow is an optional (S, S) boolean
    permission matrix; rows with no allowed key output zeros."""
    B, S, C = q.shape
    out = np.zeros((B, S, C))
    for b in range(B):
        for i in range(S):
            keys = [j for j in range(S) if allow is None or allow[i, j]]
            if not keys:
                continue
            scores = [
                sum(q[b, i, c] * k[b, j, c] for c in range(C)) / math.sqrt(C)
                for j in keys
            ]
            m = max(scores)
            ws = [math.exp(s - m) for s in scores]
            z = sum(ws)
            for c in range(C):
                out[b, i, c] = sum(w * v[b, j, c] for w, j in zip(ws, keys)) / z
    return out


def tsa_subseq(g, t, r, c):
    return (r % g.k) * g.k + (c % g.k)


def tsa_position(g, t, r, c):
    return (t * (g.h // g.k) + r // g.k) * (g.w // g.k) + c // g.k


def gsa_subseq(g, t, r, c):
    return ((r // g.k) % g.k) * g.k + ((c // g.k) % g.k)


def gsa_position(g, t, r, c):
    k, k2 = g.k, g.k * g.k
    txh = t * (g.h // k2) + r // k2
    return ((txh * k + r % k) * (g.w // k2) + c // k2) * k + c % k


def iter_coords(g):
    for t in range(g.t):
        for r in range(g.h):
            for c in range(g.w):
                yield t, r, c


def pattern_allow(g, subseq_fn, real=None):
    """(S, S) permission matrix from a subsequence-id formula and an
    optional per-token validity flag array."""
    ids = [subseq_fn(g, *coord) for coord in iter_coords(g)]
    n = len(ids)
    allow = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            ok = ids[u] == ids[v]
            if real is not None:
                ok = ok and bool(real[u]) and bool(real[v])
            allow[u, v] = ok
    return allow


def brute_force_max_hops(g):
    """Minimum alternating hop count, maximised over all ordered pairs, by
    direct enumeration over the modular-arithmetic subsequence ids."""
    ids = [(tsa_subseq(g, *coord), gsa_subseq(g, *coord)) for coord in iter_coords(g)]
    occupied = set(ids)
    worst = 1
    for tu, gu in ids:
        for tv, gv in ids:
            if tu == tv or gu == gv:
                continue
            if (tu, gv) in occupied or (tv, gu) in occupied:
                worst = 2
            else:
                return math.inf
    return worst


def transpose_chunks(send, n):
    """All-to-all reference: received[r] concatenates rank j's r-th chunk."""
    recv = []
    for r in range(n):
        parts = []
        for j in range(n):
            rows = send[j].shape[0] // n
            parts.append(send[j][r * rows:(r + 1) * rows])
        recv.append(np.concatenate(parts, axis=0))
    return recv


def hif8_value_table(widths):
    """Rebuild the signed value set from a width table, in ascending order,
    with the smallest-magnitude negative slot remapped to zero."""
    mags = []
    for e in sorted(widths):
        m = widths[e]
        for f in range(1 << m):
            mags.append((1.0 + f / (1 << m)) * 2.0 ** e)
    values = [-v for v in reversed(mags)] + mags
    values[len(mags) - 1] = 0.0
    return values


def hif8_nearest_codes(widths, xs):
    """Encode by the two-neighbour rule over the table `hif8_value_table`
    builds from `widths`: take the values on either side of x, keep the
    nearer one, send an exact tie to the even code, and saturate at both
    ends."""
    vals = np.array(hif8_value_table(widths))
    xs = np.asarray(xs, dtype=np.float64)
    top = len(vals) - 1
    hi = np.searchsorted(vals, xs, side="left")
    lo = np.clip(hi - 1, 0, top)
    hi = np.clip(hi, 0, top)
    d_lo = np.abs(xs - vals[lo])
    d_hi = np.abs(vals[hi] - xs)
    codes = np.where(d_hi < d_lo, hi, lo)
    codes = np.where(d_hi == d_lo, np.where(hi % 2 == 0, hi, lo), codes)
    return codes.astype(np.uint8)


def ou_marginal(t, data_mean, data_var):
    """Mean (per dimension) and variance at time t of the VP-OU process
    dx = -x/2 dt + dw started from N(data_mean, data_var * I)."""
    return ([mu * math.exp(-t / 2) for mu in data_mean],
            data_var * math.exp(-t) + 1 - math.exp(-t))


def ou_euler_moments(steps, sde_steps, data_mean, data_var):
    """Exact mean and variance after each Euler step of the VP-OU process
    on `steps` equal steps from t = 1 to 0, the first `sde_steps` of them
    stochastic, started from the t = 1 marginal: lists of `steps + 1`
    per-dimension means and of as many variances.

    With drift -x/2, unit diffusion and score -(x - m)/v, the deterministic
    step is x + (-x/2 + (x - m) / (2v)) dt and the stochastic one
    x + (-x/2 + (x - m) / v) dt + sqrt(|dt|) xi. Both are one slope times x
    plus an offset (plus the noise), so the mean maps through slope and
    offset and the variance through the slope squared, plus |dt| for noise."""
    mean, var = ou_marginal(1.0, data_mean, data_var)
    means, variances = [mean], [var]
    for i in range(steps):
        t, dt = 1 - i / steps, -1 / steps
        m, v = ou_marginal(t, data_mean, data_var)
        weight = 1.0 if i < sde_steps else 0.5
        slope = 1 - dt / 2 + weight * dt / v
        mean = [slope * mu - weight * dt * mk / v for mu, mk in zip(mean, m)]
        var = slope * slope * var + (abs(dt) if i < sde_steps else 0.0)
        means.append(mean)
        variances.append(var)
    return means, variances
