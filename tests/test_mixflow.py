import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import osp
from oracles import ou_euler_moments, ou_marginal
from osp import checks
from osp.mixflow import (OuProcess, SamplerSchedule, marginal_report, mixed_rollout,
                         ode_step, sde_step, uniform_schedule)


class _StubProcess:
    """Constant-coefficient process for limit-case checks."""

    def __init__(self, drift=0.0, diffusion=0.0, score=0.0):
        self._f, self._g, self._s = drift, diffusion, score

    def drift(self, x, t):
        return np.full_like(x, self._f)

    def diffusion(self, t):
        return self._g

    def score(self, x, t):
        return np.full_like(x, self._s)


class _ZeroNoise:
    def standard_normal(self, shape):
        return np.zeros(shape)


def test_ode_step_zero_diffusion_is_pure_drift():
    proc = _StubProcess(drift=2.0, diffusion=0.0, score=5.0)
    x = np.array([1.0, -1.0])
    assert np.allclose(ode_step(x, 0.5, -0.1, proc), x + 2.0 * -0.1)


def test_ode_step_zero_drift_zero_score_is_identity():
    proc = _StubProcess()
    x = np.array([0.3, 0.7])
    assert np.array_equal(ode_step(x, 0.5, -0.1, proc), x)


def test_ode_step_hand_derived_value():
    # beta = 1, data mean (1, -2), data var 0.25, t = 1, x = (0.3, 0.7), dt = -0.04:
    # mean(1) = (0.60653066, -1.21306132), var(1) = 0.72409042,
    # score = (0.42333202, -2.64201993), x' = x + (-x/2 - score/2) * dt
    proc = OuProcess(data_mean=np.array([1.0, -2.0]), data_var=0.25)
    got = ode_step(np.array([0.3, 0.7]), 1.0, -0.04, proc)
    assert np.allclose(got, [0.31446664, 0.66115960], atol=1e-8)


def test_sde_step_zero_diffusion_reduces_to_drift():
    proc = _StubProcess(drift=1.5, diffusion=0.0, score=3.0)
    rng = np.random.Generator(np.random.PCG64(0))
    x = np.array([2.0])
    # with g = 0 the score term and the noise both vanish
    assert np.allclose(sde_step(x, 0.5, -0.2, proc, rng), x + 1.5 * -0.2)


def test_sde_step_reproducible_under_seed():
    proc = OuProcess(np.zeros(2))
    x = np.zeros((4, 2))
    a = sde_step(x, 1.0, -0.04, proc, np.random.Generator(np.random.PCG64(11)))
    b = sde_step(x, 1.0, -0.04, proc, np.random.Generator(np.random.PCG64(11)))
    c = sde_step(x, 1.0, -0.04, proc, np.random.Generator(np.random.PCG64(12)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sde_step_one_step_moments_match_closed_form():
    # from a fixed start the Euler-Maruyama update is Gaussian with
    # mean x + (f - g^2 s) dt and variance g^2 |dt| per dimension
    proc = OuProcess(data_mean=np.array([1.0, -2.0]), data_var=0.25)
    x0 = np.tile([0.3, 0.7], (10_000, 1))
    t, dt = 1.0, -0.04
    rng = np.random.Generator(np.random.PCG64(5))
    out = sde_step(x0, t, dt, proc, rng)
    expected_mean = np.array([0.32293328, 0.60831920])  # hand-derived drift-only value
    expected_var = 1.0 * abs(dt)
    se_mean = np.sqrt(expected_var / 10_000)
    se_var = expected_var * np.sqrt(2.0 / (10_000 - 1))
    assert (np.abs(out.mean(axis=0) - expected_mean) <= 4 * se_mean).all()
    assert (np.abs(out.var(axis=0, ddof=1) - expected_var) <= 4 * se_var).all()


def test_sde_minus_ode_is_the_extra_score_drift():
    # zeroing the noise, the stochastic branch differs from the
    # deterministic one by exactly -0.5 * g^2 * s * dt
    proc = OuProcess(np.zeros(2))
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.standard_normal((8, 2))
    t, dt = 0.7, -0.05
    zeroed = sde_step(x, t, dt, proc, _ZeroNoise())
    extra = -0.5 * proc.diffusion(t) ** 2 * proc.score(x, t) * dt
    assert np.allclose(zeroed, ode_step(x, t, dt, proc) + extra, atol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        SamplerSchedule(np.array([0.0, 1.0]), 0)  # increasing
    for count in (-1, 3):  # outside 0..num_steps
        with pytest.raises(ValueError, match="sde_steps must lie in"):
            SamplerSchedule(np.array([1.0, 0.5, 0.0]), count)
    with pytest.raises(ValueError, match="at least one step"):
        SamplerSchedule(np.array([1.0]), 0)  # one point, no step
    for count in (0, 4):
        sched = uniform_schedule(4, count)
        assert sched.num_steps == 4
        assert sched.sde_steps == count


def test_ou_process_needs_a_positive_data_variance():
    with pytest.raises(ValueError, match="data_var must be positive"):
        OuProcess(np.zeros(2), data_var=0.0)


def test_no_sde_steps_is_bitwise_pure_ode_and_consumes_no_rng():
    proc = OuProcess(np.zeros(2))
    sched = uniform_schedule(25)
    rng = np.random.Generator(np.random.PCG64(9))
    state_before = rng.bit_generator.state
    x0 = np.random.Generator(np.random.PCG64(1)).standard_normal((128, 2))
    mixed = mixed_rollout(x0, sched, proc, rng)
    pure = mixed_rollout(x0, sched, proc)
    assert np.array_equal(mixed.snapshots, pure.snapshots)
    assert mixed.noise_draws == 0
    assert rng.bit_generator.state == state_before


def test_all_sde_steps_equals_manual_sde_loop():
    proc = OuProcess(np.zeros(2))
    sched = uniform_schedule(5, 5)
    x0 = np.random.Generator(np.random.PCG64(2)).standard_normal((32, 2))
    rolled = mixed_rollout(x0, sched, proc, np.random.Generator(np.random.PCG64(21)))
    rng = np.random.Generator(np.random.PCG64(21))
    x = x0
    for i in range(5):
        t = float(sched.times[i])
        dt = float(sched.times[i + 1] - sched.times[i])
        x = sde_step(x, t, dt, proc, rng)
    assert np.array_equal(rolled.final, x)
    assert rolled.noise_draws == 5 * 32 * 2


def test_rng_draw_count_is_exact():
    proc = OuProcess(np.zeros(3))
    sched = uniform_schedule(10, 3)
    x0 = np.zeros((50, 3))
    result = mixed_rollout(x0, sched, proc, np.random.Generator(np.random.PCG64(4)))
    assert result.noise_draws == 3 * 50 * 3


def test_missing_rng_with_sde_steps_rejected():
    with pytest.raises(ValueError):
        mixed_rollout(np.zeros((4, 2)), uniform_schedule(3, 1), OuProcess(np.zeros(2)))


def test_mixed_terminal_moments_match_pure_ode_ensemble():
    # the stationary toy: the deterministic flow freezes the ensemble while
    # the stochastic steps resample it, so both ends stay N(0, 1)
    proc = OuProcess(np.zeros(2))
    n = 10_000
    x0 = np.random.Generator(np.random.PCG64(6)).standard_normal((n, 2))
    mixed = mixed_rollout(x0, uniform_schedule(25, 10), proc,
                          np.random.Generator(np.random.PCG64(7)))
    pure = mixed_rollout(x0, uniform_schedule(25), proc)
    pooled_mixed = mixed.final.reshape(-1)
    pooled_pure = pure.final.reshape(-1)
    se_mean = np.sqrt(2.0 / pooled_mixed.size)  # difference of two sample means
    se_var = np.sqrt(2.0) * np.sqrt(2.0 / (pooled_mixed.size - 1))
    assert abs(pooled_mixed.mean() - pooled_pure.mean()) <= 4 * se_mean
    assert abs(pooled_mixed.var(ddof=1) - pooled_pure.var(ddof=1)) <= 4 * se_var


def _toy_rollout(ensemble, steps=25, sde_steps=10, seed=7):
    """A rollout of the sampler check's toy from its t = 1 marginal, with
    the oracle's exact discrete moments."""
    data_mean, data_var = (1.0, -0.5), 0.25
    means, variances = ou_euler_moments(steps, sde_steps, data_mean, data_var)
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = np.array(means[0]) + np.sqrt(variances[0]) * rng.standard_normal((ensemble, 2))
    sched = uniform_schedule(steps, sde_steps)
    result = mixed_rollout(x0, sched, OuProcess(np.array(data_mean), data_var), rng)
    return result, sched, np.array(means), np.array(variances)[:, None]


def test_marginal_report_structure_and_pass():
    result, sched, means, variances = _toy_rollout(10_000)
    report = marginal_report(result, sched, means, variances)
    assert report["pass"]
    assert report["tests"] == 26 * 2 * 2
    assert len(report["steps"]) == 26
    for j, row in enumerate(report["steps"]):
        assert row["t"] == sched.times[j]
        assert row["ref_mean"] == means[j].tolist()
        assert row["ref_var"] == [variances[j, 0]] * 2
        assert len(row["mean"]) == len(row["var"]) == 2


def test_marginal_report_band_is_a_bonferroni_split():
    result, sched, means, variances = _toy_rollout(100)
    report = marginal_report(result, sched, means, variances)
    x = math.log(2 * report["tests"] / 1e-6)
    assert report["false_alarm"] == 1e-6
    assert report["mean_z"] == pytest.approx(math.sqrt(2 * x))
    k = 99
    assert report["var_band"] == pytest.approx(
        [1 - 2 * math.sqrt(x / k), 1 + 2 * math.sqrt(x / k) + 2 * x / k])


def test_marginal_report_compares_each_dimension():
    # opposite shifts cancel in a pooled mean, and not in per-dimension ones
    result, sched, means, variances = _toy_rollout(10_000)
    shifted = means + np.array([0.1, -0.1])
    report = marginal_report(result, sched, shifted, variances)
    assert not report["pass"]
    assert not any(row["mean_ok"] for row in report["steps"])
    assert all(row["var_ok"] for row in report["steps"])


def test_marginal_report_catches_a_wrong_variance():
    result, sched, means, variances = _toy_rollout(10_000)
    report = marginal_report(result, sched, means, variances * 1.1)
    assert not report["pass"]
    assert all(row["mean_ok"] and not row["var_ok"] for row in report["steps"])


def test_marginal_report_of_one_member_has_no_variance_row():
    result, sched, means, variances = _toy_rollout(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = marginal_report(result, sched, means, variances)
    assert report["tests"] == 26 * 2
    assert report["var_band"] is None
    assert all("var" not in row and "var_ok" not in row for row in report["steps"])


# the sampler check's exact-step oracle


def test_sampler_check_passes_the_seeds_its_monte_carlo_gate_failed():
    for seed in (420, 2298):
        payload = checks.sampler_check(seed)
        assert payload["pass"], payload["checks"]


def test_sampler_check_passes_every_leading_count_of_short_schedules():
    # the trajectory oracle replays both ends of the run: no SDE step and all
    for steps in range(1, 9):
        for sde_steps in range(steps + 1):
            payload = checks.sampler_check(7, steps, sde_steps)
            assert payload["pass"], (steps, sde_steps, payload["checks"])
            assert payload["noise_draws"] == sde_steps * 2 * 256


def test_check_recurrence_agrees_with_the_test_oracle():
    for steps, sde_steps in ((25, 10), (1, 1), (7, 0), (40, 40), (1024, 300)):
        times, mean, var = checks.ou_exact_moments(steps, sde_steps)
        means, variances = ou_euler_moments(steps, sde_steps, checks.SAMPLER_DATA_MEAN,
                                             checks.SAMPLER_DATA_VAR)
        assert np.array_equal(times, np.linspace(1.0, 0.0, steps + 1))
        assert np.allclose(mean, means, rtol=1e-12, atol=1e-14)
        assert np.allclose(var, variances, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("fraction", [0.0, 0.4, 1.0], ids=["ode", "mixed", "sde"])
def test_moment_error_halves_at_25_50_100_200_steps(fraction):
    data_mean, data_var = checks.SAMPLER_DATA_MEAN, checks.SAMPLER_DATA_VAR

    def errors(steps):
        means, variances = ou_euler_moments(steps, round(fraction * steps), data_mean, data_var)
        exact = [ou_marginal(1 - j / steps, data_mean, data_var) for j in range(steps + 1)]
        return (max(abs(a - b) for got, (m, _) in zip(means, exact) for a, b in zip(got, m)),
                max(abs(got - v) for got, (_, v) in zip(variances, exact)))

    errs = [errors(n) for n in (25, 50, 100, 200)]
    for coarse, fine in zip(errs, errs[1:]):
        for e_coarse, e_fine in zip(coarse, fine):
            assert 1.9 <= e_coarse / e_fine <= 2.1


def test_moment_gates_hold_on_every_short_schedule():
    # the bounds the check states, on every schedule of 1..40 steps and every
    # count of leading SDE steps
    for steps in range(1, 41):
        for sde_steps in range(steps + 1):
            times, mean, var = checks.ou_exact_moments(steps, sde_steps)
            errs = checks.ou_moment_errors(times, mean, var)
            finer = checks.ou_moment_errors(*checks.ou_exact_moments(2 * steps, 2 * sde_steps))
            assert max(errs) <= checks.MOMENT_ORDER / steps
            assert all(f * checks.MOMENT_HALVING <= e for e, f in zip(errs, finer))


def test_sampler_check_names_the_first_wrong_element():
    # a rollout whose step 3 moves member 5's second coordinate
    def shifted(x0, schedule, proc, rng=None):
        result = mixed_rollout(x0, schedule, proc, rng)
        result.snapshots[4:, 5, 1] += 1e-6
        return result

    with mock.patch.object(checks, "mixed_rollout", shifted):
        payload = checks.sampler_check(7)
    assert payload["checks"]["trajectory_matches_exact_steps"] is False
    mismatch = payload["trajectory"]["first_mismatch"]
    assert (mismatch["step"], mismatch["member"], mismatch["dim"]) == (3, 5, 1)
    assert mismatch["got"] - mismatch["want"] == pytest.approx(1e-6, rel=1e-6)


def test_nonstationary_ou_moments():
    proc = OuProcess(data_mean=np.array([2.0, 0.0]), data_var=0.25)
    assert np.allclose(proc.mean_at(0.0), [2.0, 0.0])
    assert proc.var_at(0.0) == 0.25
    # far in the future the marginal forgets the data distribution
    assert proc.var_at(50.0) == pytest.approx(1.0)
    assert np.allclose(proc.mean_at(50.0), [0.0, 0.0], atol=1e-10)
    x = np.array([1.0, 1.0])
    assert np.allclose(proc.score(x, 0.0), -(x - proc.mean_at(0.0)) / 0.25)


# every kernel numpy dispatches to above its x86-64 baseline
_SIMD_OFF = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def test_sampler_check_reads_the_same_bytes_on_numpy_baseline_kernels():
    # the sampler's exponentials are math's, so numpy's SIMD exp cannot
    # move a last digit of its report
    env = {**os.environ, "PYTHONPATH": str(Path(osp.__file__).parents[1])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)

    def run(script, **extra):
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**env, **extra}, timeout=120)

    probe = run("import numpy", NPY_DISABLE_CPU_FEATURES=_SIMD_OFF)
    if probe.returncode:
        pytest.skip(probe.stderr.strip().splitlines()[-1])
    script = ("import json\nfrom osp.checks import sampler_check\n"
              "print(json.dumps(sampler_check(7)))")
    default, baseline = run(script), run(script, NPY_DISABLE_CPU_FEATURES=_SIMD_OFF)
    assert default.returncode == baseline.returncode == 0, default.stderr + baseline.stderr
    assert default.stdout == baseline.stdout
