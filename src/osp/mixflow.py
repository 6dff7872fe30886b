"""Reverse-time flow integrators with a mixed stochastic/deterministic
schedule, validated on an analytically tractable Ornstein-Uhlenbeck toy.

A flow process supplies drift f(x, t), diffusion g(t) and the exact score
s(x, t) of its time-t marginal. Two Euler discretizations share those
marginals:

    deterministic:  x' = x + (f - 0.5 * g^2 * s) * dt
    stochastic:     x' = x + (f - g^2 * s) * dt + g * sqrt(|dt|) * xi

with dt negative on a decreasing time grid and xi standard normal. The
mixed rollout applies the stochastic branch only on a chosen set of step
indices and the deterministic branch elsewhere, so marginal statistics
must agree with the analytic flow at every step up to Monte Carlo and
O(dt) discretization error (both Euler schemes are weak order 1).

The bundled toy uses standard normal data, whose marginals
are closed-form Gaussians at every t, making the agreement falsifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MARGINAL_Z = 4.0  # standard errors each moment may stray from the analytic marginal


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

    @property
    def dim(self) -> int:
        return self.data_mean.size

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        return -0.5 * x

    def diffusion(self, t: float) -> float:
        return 1.0

    def mean_at(self, t: float) -> np.ndarray:
        return self.data_mean * np.exp(-0.5 * t)

    def var_at(self, t: float) -> float:
        decay = np.exp(-t)
        return float(1.0 + (self.data_var - 1.0) * decay)

    def score(self, x: np.ndarray, t: float) -> np.ndarray:
        # subtract a full-shape mean: numpy runs (n, dim) - (dim,) as n inner
        # loops of dim values, which for dim = 2 is slower than tiling first
        return -(x - np.tile(self.mean_at(t), (*x.shape[:-1], 1))) / self.var_at(t)


def standard_ou(dim: int) -> OuProcess:
    """The bundled toy: standard normal data, so every marginal is
    N(0, I)."""
    return OuProcess(data_mean=np.zeros(dim))


@dataclass(frozen=True)
class SamplerSchedule:
    """Decreasing time grid plus the set of step indices run stochastically.

    Step i integrates from times[i] to times[i + 1]; indices in sde_steps
    use the stochastic branch, all others are noise-free.
    """

    times: np.ndarray  # (num_steps + 1,), strictly decreasing
    sde_steps: frozenset[int]

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times must be a 1-D grid with at least one step")
        if not (np.diff(times) < 0).all():
            raise ValueError("times must be strictly decreasing")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        steps = frozenset(int(i) for i in self.sde_steps)
        if steps and (min(steps) < 0 or max(steps) >= self.num_steps):
            raise ValueError(f"sde_steps must lie in [0, {self.num_steps})")
        object.__setattr__(self, "sde_steps", steps)

    @property
    def num_steps(self) -> int:
        return self.times.size - 1


def uniform_schedule(num_steps: int,
                     sde_steps: frozenset[int] | set[int] = frozenset()) -> SamplerSchedule:
    """num_steps equal steps from t = 1 down to t = 0."""
    return SamplerSchedule(np.linspace(1.0, 0.0, num_steps + 1), frozenset(sde_steps))


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
    branch on sde_steps and the deterministic branch elsewhere. With an
    empty sde_steps set the generator is never touched and the result is
    bitwise equal to a pure deterministic rollout."""
    if schedule.sde_steps and rng is None:
        raise ValueError("stochastic steps require a generator")
    x = np.asarray(x0, dtype=np.float64)
    snapshots = np.empty((schedule.num_steps + 1,) + x.shape)
    snapshots[0] = x
    draws = 0
    for i in range(schedule.num_steps):
        t = float(schedule.times[i])
        dt = float(schedule.times[i + 1] - schedule.times[i])
        if i in schedule.sde_steps:
            x = sde_step(x, t, dt, proc, rng)
            draws += x.size
        else:
            x = ode_step(x, t, dt, proc)
        snapshots[i + 1] = x
    return RolloutResult(snapshots, draws)


def marginal_report(result: RolloutResult, proc: OuProcess, schedule: SamplerSchedule) -> dict:
    """Compare pooled ensemble mean/variance against the analytic marginals
    at every recorded step, within MARGINAL_Z standard errors per moment.

    Pooling treats all ensemble-by-dimension entries as one sample, which
    is exact for the isotropic zero-mean toy this report targets. Standard
    errors use the analytic sigma. With ~2 checks per step at z = 4 the
    per-run false-alarm rate stays well under 1% even without a Bonferroni
    correction; the note records the comparison count.
    """
    steps = []
    n = result.snapshots.shape[1] * result.snapshots.shape[2]
    ok = True
    for j in range(result.snapshots.shape[0]):
        t = float(schedule.times[j])
        sample = result.snapshots[j].reshape(-1)
        sample_mean = float(sample.mean())
        sample_var = float(sample.var(ddof=1))
        a_mean = float(np.mean(proc.mean_at(t)))
        a_var = proc.var_at(t)
        mean_se = float(np.sqrt(a_var / n))
        var_se = float(a_var * np.sqrt(2.0 / (n - 1)))
        mean_ok = abs(sample_mean - a_mean) <= MARGINAL_Z * mean_se
        var_ok = abs(sample_var - a_var) <= MARGINAL_Z * var_se
        ok = ok and mean_ok and var_ok
        steps.append({
            "step": j,
            "t": t,
            "mean": sample_mean,
            "var": sample_var,
            "analytic_mean": a_mean,
            "analytic_var": a_var,
            "mean_se": mean_se,
            "var_se": var_se,
            "mean_ok": mean_ok,
            "var_ok": var_ok,
        })
    return {
        "pass": ok,
        "z": MARGINAL_Z,
        "comparisons": 2 * len(steps),
        "note": f"{2 * len(steps)} moment checks at {MARGINAL_Z} standard errors each, "
                "no multiplicity correction applied",
        "steps": steps,
    }
