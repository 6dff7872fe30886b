"""Reverse-time flow integrators with a mixed stochastic/deterministic
schedule, on an analytically tractable Ornstein-Uhlenbeck toy.

A flow process supplies drift f(x, t), diffusion g(t) and the exact score
s(x, t) of its time-t marginal. Two Euler discretizations share those
marginals:

    deterministic:  x' = x + (f - 0.5 * g^2 * s) * dt
    stochastic:     x' = x + (f - g^2 * s) * dt + g * sqrt(|dt|) * xi

with dt negative on a decreasing time grid and xi standard normal. The
mixed rollout applies the stochastic branch on the first `sde_steps` steps
and the deterministic branch after them. Both Euler schemes are
weak order 1, so the moments of a rollout stray O(dt) from the analytic
flow's.

On an OU process with Gaussian data both steps are affine in x,
x' = a * x + b + c * xi, so every element of a rollout and its exact
discrete moments follow from a, b and c with no Monte Carlo.
`osp.checks.sampler_check` checks rollouts that way on a non-stationary toy
(data mean (1, -0.5), data variance 0.25). There the exact discrete
variance of the default 25-step schedule, whose first 10 steps are
stochastic, stays within 0.0122 of the analytic one at every grid time,
and within 0.0060 at 50 steps. `marginal_report` compares an ensemble's
sample moments with reference moments its caller passes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MARGINAL_FALSE_ALARM = 1e-6  # chance that marginal_report fails an exact ensemble


@dataclass(frozen=True)
class OuProcess:
    """Variance-preserving Ornstein-Uhlenbeck process with Gaussian data.

    Forward dynamics dx = -0.5 * x dt + dw started from
    N(data_mean, data_var * I) give the Gaussian marginal at time t:

        mean(t) = data_mean * exp(-0.5 * t)
        var(t)  = data_var * exp(-t) + 1 - exp(-t)

    and the exact score s(x, t) = -(x - mean(t)) / var(t).
    """

    data_mean: np.ndarray
    data_var: float = 1.0

    def __post_init__(self) -> None:
        mean = np.ascontiguousarray(self.data_mean, dtype=np.float64)
        mean.flags.writeable = False
        object.__setattr__(self, "data_mean", mean)
        if self.data_var <= 0:
            raise ValueError("data_var must be positive")

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        return -0.5 * x

    def diffusion(self, t: float) -> float:
        return 1.0

    # math.exp, not np.exp: numpy's exp rounds by the SIMD kernel it
    # dispatches to, so a sampler report would differ from machine to machine
    def mean_at(self, t: float) -> np.ndarray:
        return self.data_mean * math.exp(-0.5 * t)

    def var_at(self, t: float) -> float:
        decay = math.exp(-t)
        return 1.0 + (self.data_var - 1.0) * decay

    def score(self, x: np.ndarray, t: float) -> np.ndarray:
        # subtract a full-shape mean: numpy runs (n, dim) - (dim,) as n inner
        # loops of dim values, which for dim = 2 is slower than tiling first
        return -(x - np.tile(self.mean_at(t), (*x.shape[:-1], 1))) / self.var_at(t)


@dataclass(frozen=True)
class SamplerSchedule:
    """Decreasing time grid plus the count of leading steps run stochastically.

    Step i integrates from times[i] to times[i + 1]; steps i < sde_steps
    use the stochastic branch, all later ones are noise-free.
    """

    times: np.ndarray  # (num_steps + 1,), strictly decreasing
    sde_steps: int

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times must be a 1-D grid with at least one step")
        if not (np.diff(times) < 0).all():
            raise ValueError("times must be strictly decreasing")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        if not 0 <= self.sde_steps <= self.num_steps:
            raise ValueError(f"sde_steps must lie in [0, {self.num_steps}]")

    @property
    def num_steps(self) -> int:
        return self.times.size - 1


def uniform_schedule(num_steps: int, sde_steps: int = 0) -> SamplerSchedule:
    """num_steps equal steps from t = 1 down to t = 0."""
    return SamplerSchedule(np.linspace(1.0, 0.0, num_steps + 1), sde_steps)


def ode_step(x: np.ndarray, t: float, dt: float, proc) -> np.ndarray:
    """Explicit Euler step of the deterministic flow."""
    g2 = proc.diffusion(t) ** 2
    return x + (proc.drift(x, t) - 0.5 * g2 * proc.score(x, t)) * dt


def sde_step(x: np.ndarray, t: float, dt: float, proc, rng: np.random.Generator) -> np.ndarray:
    """Euler-Maruyama step of the marginal-matched stochastic flow."""
    g = proc.diffusion(t)
    noise = rng.standard_normal(x.shape)
    return x + (proc.drift(x, t) - g * g * proc.score(x, t)) * dt + g * np.sqrt(abs(dt)) * noise


@dataclass(frozen=True)
class RolloutResult:
    """Marginal snapshots of a rollout: snapshots[j] is the ensemble at
    schedule.times[j]. noise_draws counts the normal variates consumed."""

    snapshots: np.ndarray  # (num_steps + 1, ensemble, dim)
    noise_draws: int

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


def mixed_rollout(x0: np.ndarray, schedule: SamplerSchedule, proc,
                  rng: np.random.Generator | None = None) -> RolloutResult:
    """Integrate an ensemble through the schedule, applying the stochastic
    branch on the first sde_steps steps and the deterministic branch after
    them. With sde_steps = 0 the generator is never touched and the result
    is bitwise equal to a pure deterministic rollout."""
    if schedule.sde_steps and rng is None:
        raise ValueError("stochastic steps require a generator")
    x = np.asarray(x0, dtype=np.float64)
    snapshots = np.empty((schedule.num_steps + 1,) + x.shape)
    snapshots[0] = x
    draws = 0
    for i in range(schedule.num_steps):
        t = float(schedule.times[i])
        dt = float(schedule.times[i + 1] - schedule.times[i])
        if i < schedule.sde_steps:
            x = sde_step(x, t, dt, proc, rng)
            draws += x.size
        else:
            x = ode_step(x, t, dt, proc)
        snapshots[i + 1] = x
    return RolloutResult(snapshots, draws)


def marginal_report(result: RolloutResult, schedule: SamplerSchedule, ref_mean: np.ndarray,
                    ref_var: np.ndarray) -> dict:
    """Per-dimension sample mean and variance of every snapshot against the
    reference moments the caller passes in, broadcast to (snapshots, dim).

    The band assumes every snapshot's members are independent draws of a
    Gaussian with exactly the reference moments, as an affine rollout of a
    Gaussian start is. A Bonferroni split of MARGINAL_FALSE_ALARM gives each
    of the `tests` comparisons a two-sided tail of p = MARGINAL_FALSE_ALARM
    / tests, so an exact ensemble fails with probability at most
    MARGINAL_FALSE_ALARM per run. With x = ln(2 / p):
    - a sample mean is Gaussian, and P(|Z| >= z) <= 2 exp(-z^2 / 2), so it
      may stray sqrt(2 x) standard errors;
    - (n - 1) * var / ref_var is chi-square with k = n - 1 degrees of
      freedom, and Laurent and Massart (Ann. Statist. 2000, Lemma 1) bound
      each tail by exp(-x), so var / ref_var may lie in
      [1 - 2 sqrt(x / k), 1 + 2 sqrt(x / k) + 2 x / k].
    An ensemble of one member has no sample variance: its rows carry the
    mean comparison only.
    """
    snaps = result.snapshots
    count, members, dim = snaps.shape
    ref_mean = np.broadcast_to(ref_mean, (count, dim))
    ref_var = np.broadcast_to(ref_var, (count, dim))
    with_var = members >= 2
    tests = count * dim * (2 if with_var else 1)
    x = math.log(2.0 * tests / MARGINAL_FALSE_ALARM)
    z = math.sqrt(2.0 * x)
    # members last: numpy reduces the middle axis of (count, members, dim) as
    # many dim-wide inner loops, several times slower than a contiguous axis
    by_member = snaps.transpose(0, 2, 1).copy()
    mean = by_member.mean(axis=-1)
    mean_ok = (np.abs(mean - ref_mean) <= z * np.sqrt(ref_var / members)).all(axis=1)
    band = None
    if with_var:
        k = members - 1
        band = [1.0 - 2.0 * math.sqrt(x / k), 1.0 + 2.0 * math.sqrt(x / k) + 2.0 * x / k]
        var = by_member.var(axis=-1, ddof=1)
        var_ok = ((var >= band[0] * ref_var) & (var <= band[1] * ref_var)).all(axis=1)
    steps = []
    for j in range(count):
        row = {"step": j, "t": float(schedule.times[j]), "mean": mean[j].tolist(),
               "ref_mean": ref_mean[j].tolist(), "ref_var": ref_var[j].tolist(),
               "mean_ok": bool(mean_ok[j])}
        if with_var:
            row.update(var=var[j].tolist(), var_ok=bool(var_ok[j]))
        steps.append(row)
    return {
        "pass": all(r["mean_ok"] and r.get("var_ok", True) for r in steps),
        "false_alarm": MARGINAL_FALSE_ALARM,
        "tests": tests,
        "mean_z": z,
        "var_band": band,
        "steps": steps,
    }
