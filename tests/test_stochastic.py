"""Noisy simulation: reproducibility, hitting times, good-set classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulselab import (
    BrownianRecord,
    ImpulseSchedule,
    NoiseParams,
    ParameterError,
    ResolutionError,
    RunawayError,
    SystemSpec,
    classify_good_set,
    constant_drift,
    deterministic_trajectory,
    good_set_probability_bound,
    linear_reset,
    replica_seed_sequence,
    simulate_batch,
    simulation_grid,
    uniform_distance,
)

ALPHA = float(np.pi / 2)


@pytest.fixture
def noise() -> NoiseParams:
    return NoiseParams(epsilon=0.2, p=2.0)


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    data = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), data, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), data, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def one_replica(spec, noise, horizon, dt, seed):
    """Replica 0 of master seed `seed`, as `impulselab simulate --seed` writes it."""
    batch = simulate_batch(spec, noise, horizon=horizon, dt=dt, master_seed=seed, n_replicas=1)
    return batch.path(0), batch.schedule(0)


def collect_tau(spec, noise, horizon, dt, seed, n_replicas, column=0, chunk=2500):
    out = []
    for offset in range(0, n_replicas, chunk):
        batch = simulate_batch(spec, noise, horizon=horizon, dt=dt, master_seed=seed,
                               n_replicas=min(chunk, n_replicas - offset),
                               replica_offset=offset)
        out.append(batch.tau[:, : column + 1])
    return np.vstack(out)


class TestNoiseParams:
    def test_epsilon_range(self):
        with pytest.raises(ParameterError):
            NoiseParams(epsilon=1.0, p=2.0)
        with pytest.raises(ParameterError):
            NoiseParams(epsilon=-0.1, p=2.0)

    def test_p_must_exceed_one(self):
        with pytest.raises(ParameterError):
            NoiseParams(epsilon=0.1, p=1.0)

    def test_sigma_switch(self):
        with pytest.raises(ParameterError):
            NoiseParams(epsilon=0.1, p=2.0, sigma=0.5)

    def test_angular_scale(self):
        assert NoiseParams(epsilon=0.2, p=2.0).angular_scale == pytest.approx(0.04)
        assert NoiseParams(epsilon=0.2, p=2.0, sigma=0).angular_scale == 0.0


class TestZeroNoiseDegeneracy:
    def test_matches_deterministic_trajectory(self):
        spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5),
                                      alpha=1.0, r0=1.0)
        zero = NoiseParams(epsilon=0.0, p=2.0)
        path, schedule = one_replica(spec, zero, horizon=2.5, dt=1e-4, seed=0)
        det_path, det_schedule = deterministic_trajectory(spec, horizon=2.5, dt=1e-4)
        assert uniform_distance(path, det_path) <= 1e-6
        assert np.max(np.abs(schedule.times - det_schedule.times)) <= 1e-4

    def test_no_angular_noise_gives_sawtooth(self, halving_spec):
        quiet = NoiseParams(epsilon=0.2, p=2.0, sigma=0)
        for seed in (0, 1, 7):
            _, schedule = one_replica(halving_spec, quiet, horizon=4.0, dt=ALPHA / 400,
                                      seed=seed)
            expected = ALPHA * np.arange(1, schedule.times.shape[0] + 1)
            assert np.max(np.abs(schedule.times - expected)) <= ALPHA / 400


class TestReproducibility:
    def test_bit_identical_repeat(self, halving_spec, noise):
        a = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                           master_seed=5, n_replicas=8, store_increments=True)
        b = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                           master_seed=5, n_replicas=8, store_increments=True)
        np.testing.assert_array_equal(a.r_values, b.r_values)
        np.testing.assert_array_equal(a.theta_values, b.theta_values)
        np.testing.assert_array_equal(a.tau, b.tau, strict=True)
        np.testing.assert_array_equal(a.w_increments, b.w_increments)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 10**6),
           cuts=st.sets(st.integers(1, 5), max_size=4))
    @example(seed=9, offset=0, cuts={3})
    def test_chunking_does_not_change_replicas(self, halving_spec, seed, offset, cuts):
        noise = NoiseParams(epsilon=0.2, p=2.0)
        run = dict(horizon=4.0, dt=ALPHA / 400, master_seed=seed)
        whole = simulate_batch(halving_spec, noise, n_replicas=6, replica_offset=offset, **run)
        bounds = [0, *sorted(cuts), 6]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = simulate_batch(halving_spec, noise, n_replicas=hi - lo,
                                  replica_offset=offset + lo, **run)
            np.testing.assert_array_equal(whole.r_values[:, lo:hi], part.r_values)
            np.testing.assert_array_equal(whole.theta_values[:, lo:hi], part.theta_values)
            assert np.array_equal(whole.tau[lo:hi], part.tau, equal_nan=True)

    def test_replica_streams_differ(self):
        a = replica_seed_sequence(0, 0).generate_state(4)
        b = replica_seed_sequence(0, 1).generate_state(4)
        assert not np.array_equal(a, b)

    def test_record_needs_a_seed_sequence(self):
        grid = simulation_grid(ALPHA, 4.0, ALPHA / 400)
        with pytest.raises(ParameterError):
            BrownianRecord.generate(grid, 5, 8)

    def test_single_path_matches_batch_replica(self, halving_spec, noise):
        single = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                                master_seed=5, n_replicas=1, replica_offset=2)
        batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                               master_seed=5, n_replicas=4)
        np.testing.assert_array_equal(single.schedule(0).times, batch.schedule(2).times)
        assert uniform_distance(single.path(0), batch.path(2)) == 0.0


NARROW = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=1e-3, r0=1.0)
# Wedge, horizon, step and impulse cap. On the narrow wedge a step is 1/200
# of alpha, so strong angular noise can cross twice within one step.
SYSTEMS = {"wedge": (ALPHA, 4.0, ALPHA / 400, None),
           "narrow": (1e-3, 2.5e-3, 5e-6, 400)}
BATCH_FIELDS = ("r_values", "theta_values", "tau", "pre", "post", "counts")


def level_block(batch, e, m):
    """Column block of level e in a batch of m replicas per level."""
    cols = slice(e * m, (e + 1) * m)
    return {"r_values": batch.r_values[:, cols], "theta_values": batch.theta_values[:, cols],
            "tau": batch.tau[cols], "pre": batch.pre[cols], "post": batch.post[cols],
            "counts": batch.counts[cols]}


def scalar_replica(spec, level, grid, record):
    """One replica stepped in plain floats, in simulate_batch's arithmetic
    order: grid samples of r and theta, and impulse times."""
    def drift(r):
        return float(spec.drift(np.array([r]))[0])

    def reset(r):
        return float(spec.reset(np.array([r]))[0])

    eps, eps_ang, alpha = level.epsilon, level.angular_scale, grid.alpha
    r, th, k = spec.r0, 0.0, 0
    rs, ths, taus = [r], [th], []
    for j, h in enumerate(grid.steps.tolist()):
        rem, dw, db = h, eps * record.w_increments[j], eps_ang * record.b_increments[j]
        while rem > 0.0:
            r_prop = r + drift(r) * rem + dw
            th_prop = th + rem + db
            if th_prop < alpha:
                r, th = r_prop, th_prop
                break
            frac = (alpha - th) / (th_prop - th)
            taus.append(float(grid.times[j + 1]) - rem * (1.0 - frac))
            r, th = reset(r + frac * (r_prop - r)), 0.0
            rem = (1.0 - frac) * rem
            sq = math.sqrt(rem)
            dw, db = eps * record.aux_w[k] * sq, eps_ang * record.aux_b[k] * sq
            k += 1
        rs.append(r)
        ths.append(th)
    return np.array(rs), np.array(ths), np.array(taus)


class TestNoiseLevels:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 10**6),
           levels=st.lists(st.tuples(st.sampled_from([0.0, 0.05, 0.2, 0.9]) | st.floats(0.0, 0.95),
                                     st.sampled_from([1.05, 1.5, 2.0])), min_size=1, max_size=4),
           sigma=st.sampled_from([0, 1]), system=st.sampled_from(sorted(SYSTEMS)))
    @example(seed=0, offset=0, levels=[(0.0, 2.0), (0.2, 2.0)], sigma=1, system="wedge")
    @example(seed=4, offset=3, levels=[(0.2, 2.0), (0.5, 1.5)], sigma=1, system="wedge")
    @example(seed=0, offset=0, levels=[(0.05, 2.0), (0.9, 1.05)], sigma=1,
             system="narrow")  # two crossings in one step at 0.9
    def test_each_level_block_equals_a_single_level_batch(self, seed, offset, levels, sigma,
                                                          system):
        alpha, horizon, dt, n_max = SYSTEMS[system]
        spec = NARROW if system == "narrow" else SystemSpec.from_models(
            constant_drift(0.2), linear_reset(0.5), alpha=alpha, r0=1.0)
        noise = tuple(NoiseParams(epsilon=eps, p=p, sigma=sigma) for eps, p in levels)
        run = dict(horizon=horizon, dt=dt, master_seed=seed, n_replicas=3,
                   replica_offset=offset, n_max=n_max, store_increments=True)
        joint = simulate_batch(spec, noise, **run)
        assert len(joint) == 3 * len(noise)
        for e, level in enumerate(noise):
            single = simulate_batch(spec, level, **run)
            np.testing.assert_array_equal(joint.w_increments, single.w_increments)
            block = level_block(joint, e, 3)
            for name in BATCH_FIELDS:
                assert np.array_equal(block[name], getattr(single, name), equal_nan=True), name

    @pytest.mark.parametrize("system, eps", [("wedge", (0.0, 0.2, 0.5)),
                                             ("narrow", (0.05, 0.9))])
    def test_columns_equal_a_scalar_step_loop(self, system, eps):
        alpha, horizon, dt, n_max = SYSTEMS[system]
        spec = NARROW if system == "narrow" else SystemSpec.from_models(
            constant_drift(0.2), linear_reset(0.5), alpha=alpha, r0=1.0)
        levels = tuple(NoiseParams(epsilon=e, p=1.05 if system == "narrow" else 2.0)
                       for e in eps)
        # seed 0 at 0.9 crosses twice in one step (next test)
        batch = simulate_batch(spec, levels, horizon, dt, 0, 3, n_max=n_max)
        for e, level in enumerate(levels):
            for i in range(3):
                record = BrownianRecord.generate(batch.grid, replica_seed_sequence(0, i),
                                                 batch.tau.shape[1])
                r, theta, taus = scalar_replica(spec, level, batch.grid, record)
                col = e * 3 + i
                np.testing.assert_array_equal(batch.r_values[:, col], r)
                np.testing.assert_array_equal(batch.theta_values[:, col], theta)
                np.testing.assert_array_equal(batch.impulse_times(col), taus)

    def test_narrow_wedge_crosses_twice_in_one_step(self):
        _, horizon, dt, n_max = SYSTEMS["narrow"]
        batch = simulate_batch(NARROW, NoiseParams(epsilon=0.9, p=1.05), horizon, dt, 0, 3,
                               n_max=n_max)
        steps = np.searchsorted(batch.grid.times, batch.tau, side="left")
        same_step = [np.diff(row[:c]) == 0 for row, c in zip(steps, batch.counts)]
        assert any(pair.any() for pair in same_step)

    def test_needs_a_level(self, halving_spec):
        with pytest.raises(ParameterError):
            simulate_batch(halving_spec, (), 4.0, ALPHA / 400, 0, 2)


class TestPathStructure:
    def test_radius_resets_only_at_impulses(self, halving_spec, noise):
        path, schedule = one_replica(halving_spec, noise, horizon=4.0, dt=ALPHA / 400, seed=12)
        np.testing.assert_array_equal(path.jump_times, schedule.times)
        for tau, pre, post in zip(schedule.times, schedule.pre_values, schedule.post_values):
            assert path.value_at(tau, side="left")[0] == pytest.approx(pre, abs=1e-12)
            assert path.value_at(tau, side="right")[0] == pytest.approx(post, abs=1e-12)
        np.testing.assert_allclose(schedule.post_values,
                                   halving_spec.reset(schedule.pre_values), atol=1e-12)

    def test_theta_stays_in_wedge(self, halving_spec, noise):
        batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                               master_seed=3, n_replicas=500)
        # strictly below alpha on the stored grid; small negative transients
        # near 0 come from the additive angular noise and stay noise-sized
        assert float(batch.theta_values.max()) < ALPHA
        assert float(batch.theta_values.min()) > -0.05 * ALPHA

    def test_runaway_cap(self, halving_spec, noise):
        with pytest.raises(RunawayError):
            simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                           master_seed=0, n_replicas=4, n_max=1)

    def test_coarse_step_rejected(self, halving_spec, noise):
        with pytest.raises(ResolutionError):
            simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 100,
                           master_seed=0, n_replicas=1)


class TestStatisticalInvariants:
    def test_inter_impulse_times_exchangeable(self, halving_spec, noise):
        taus = collect_tau(halving_spec, noise, horizon=2.5 * ALPHA, dt=ALPHA / 2000,
                           seed=103, n_replicas=5000, column=1)
        gaps_first = taus[:, 0]
        gaps_second = taus[:, 1] - taus[:, 0]
        d = two_sample_ks(gaps_first, gaps_second)
        critical = 1.628 * math.sqrt(2.0 / 5000.0)
        assert d < critical

    def test_first_impulse_law_stable_under_refinement(self, halving_spec, noise):
        coarse = collect_tau(halving_spec, noise, horizon=1.5 * ALPHA,
                             dt=ALPHA / 2000, seed=21, n_replicas=5000)[:, 0]
        fine = collect_tau(halving_spec, noise, horizon=1.5 * ALPHA,
                           dt=ALPHA / 4000, seed=22, n_replicas=5000)[:, 0]
        assert two_sample_ks(coarse, fine) < 0.02


class TestClassifyGoodSet:
    def test_within_threshold(self):
        schedule = ImpulseSchedule(times=np.array([1.02, 2.03]),
                                   pre_values=np.zeros(2), post_values=np.zeros(2))
        record = classify_good_set(schedule, alpha=1.0, n_expected=2, delta=0.05)
        assert record.is_good
        np.testing.assert_allclose(record.deviations, [0.02, 0.03], atol=1e-12)

    def test_one_deviation_too_large(self):
        schedule = ImpulseSchedule(times=np.array([1.02, 2.06]),
                                   pre_values=np.zeros(2), post_values=np.zeros(2))
        assert not classify_good_set(schedule, alpha=1.0, n_expected=2, delta=0.05).is_good

    def test_missing_impulse_is_bad(self):
        schedule = ImpulseSchedule(times=np.array([1.0]),
                                   pre_values=np.zeros(1), post_values=np.zeros(1))
        assert not classify_good_set(schedule, alpha=1.0, n_expected=2, delta=0.05).is_good

    def test_extra_impulse_is_bad(self):
        schedule = ImpulseSchedule(times=np.array([1.0, 2.0, 2.2]),
                                   pre_values=np.zeros(3), post_values=np.zeros(3))
        assert not classify_good_set(schedule, alpha=1.0, n_expected=2, delta=0.05).is_good

    def test_delta_must_stay_below_quarter_wedge(self):
        schedule = ImpulseSchedule(times=np.array([1.0]),
                                   pre_values=np.zeros(1), post_values=np.zeros(1))
        with pytest.raises(ParameterError):
            classify_good_set(schedule, alpha=1.0, n_expected=1, delta=0.25)


class TestGoodSetBound:
    def test_closed_form_example(self):
        # unit prefactor: tail_constant chosen so K*T*(T+1) = 1
        bound = good_set_probability_bound(1, alpha=1.0, epsilon=math.sqrt(0.05),
                                           p=2.0, delta=0.3, tail_constant=0.5)
        assert bound == pytest.approx((0.05 / 0.3) * math.exp(-9.0), rel=1e-9)
        assert bound == pytest.approx(2.057e-5, rel=1e-3)

    def test_vanishes_with_epsilon(self):
        bounds = [good_set_probability_bound(4, ALPHA, eps, 2.0, 0.25)
                  for eps in (0.2, 0.1, 0.05)]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[2] < 1e-60

    def test_delta_range_enforced(self):
        with pytest.raises(ParameterError):
            good_set_probability_bound(4, ALPHA, 0.2, 2.0, ALPHA)
        with pytest.raises(ParameterError):
            good_set_probability_bound(0, ALPHA, 0.2, 2.0, 0.25)

    def test_empirical_bad_frequency_below_bound(self, halving_spec, noise):
        bad = 0
        total = 10000
        for offset in range(0, total, 2500):
            batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                                   master_seed=7, n_replicas=2500, replica_offset=offset)
            for i in range(2500):
                record = classify_good_set(batch.schedule(i), ALPHA, 2, 0.25)
                bad += not record.is_good
        bound = good_set_probability_bound(4, ALPHA, 0.2, 2.0, 0.25)
        freq = bad / total
        # allow three binomial standard errors on top of the bound
        slack = 3.0 * math.sqrt(bound * (1 - bound) / total)
        assert freq <= bound + slack
