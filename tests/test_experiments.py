"""Monte Carlo harness: rate fitting, KS checks, experiment drivers."""

import math

import numpy as np
import pytest
from scipy.stats import invgauss

import impulselab.experiments as experiments
import impulselab.stochastic as stochastic
from impulselab import (
    ConfigError,
    DataError,
    ExperimentConfig,
    FptParams,
    NoiseParams,
    ParameterError,
    SystemSpec,
    clt_experiment,
    fit_rate,
    fpt_cdf,
    good_set_probability_bound,
    integrate_deterministic,
    ks_test,
    lln_experiment,
    saturating_reset,
    simulate_batch,
    simulation_grid,
    tanh_drift,
)
from impulselab.cadlag import batch_skorohod_upper
from impulselab.experiments import EpsilonRow
from impulselab.fluctuation import fluctuation_trace
from impulselab.stochastic import good_set_mask

ALPHA = float(np.pi / 2)


def small_config(**overrides) -> ExperimentConfig:
    kwargs = dict(eps_grid=(0.05, 0.1, 0.2), replicas=200, beta=1, nu=1.5, p=2.0,
                  dt=1e-3, horizon=4.0, master_seed=2)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(eps_grid=())
        with pytest.raises(ConfigError):
            small_config(eps_grid=(0.1, 1.5))
        with pytest.raises(ConfigError):
            small_config(replicas=0)
        with pytest.raises(ConfigError):
            small_config(beta=3)
        with pytest.raises(ConfigError):
            small_config(nu=0.9)
        with pytest.raises(ConfigError):
            small_config(nu=2.0)  # must stay strictly below p
        with pytest.raises(ConfigError):
            small_config(dt=0.0)
        with pytest.raises(ConfigError):
            small_config(chunk_size=0)

    @pytest.mark.parametrize("name, value, field", [
        ("master_seed", -1, "seed"), ("dt", math.nan, "dt"), ("horizon", math.nan, "horizon"),
        ("horizon", math.inf, "horizon"), ("replicas", 2.5, "replicas"),
        ("chunk_size", 10.0, "chunk_size"), ("master_seed", 1.5, "seed"), ("p", math.inf, "p"),
        ("p", math.nan, "p"),
    ])
    def test_rejected_when_built(self, name, value, field):
        with pytest.raises(ConfigError) as info:
            small_config(**{name: value})
        assert info.value.field == field

    @pytest.mark.parametrize("grid", [0.1, "0.1", "123", np.array(0.1), [0.1, "0.2"],
                                      (0.1, None)],
                             ids=["float", "string", "digits", "0-d array", "string entry",
                                  "None entry"])
    def test_grid_must_be_a_sequence_of_numbers(self, grid):
        with pytest.raises(ConfigError, match="sequence of numbers") as info:
            small_config(eps_grid=grid)
        assert info.value.field == "eps_grid"

    @pytest.mark.parametrize("grid", [[0.05, 0.1], (0.05, 0.1), np.array([0.05, 0.1])],
                             ids=["list", "tuple", "array"])
    def test_grid_may_be_any_sequence_of_numbers(self, grid):
        assert small_config(eps_grid=grid).eps_grid == (0.05, 0.1)

    def test_numpy_integers_are_counts(self, halving_spec):
        config = small_config(replicas=np.int64(2), chunk_size=np.int32(3),
                              master_seed=np.uint8(2))
        want = small_config(replicas=2, chunk_size=3)
        assert lln_experiment(config, halving_spec).rows == lln_experiment(want, halving_spec).rows

    def test_seed_error_comes_after_the_other_fields(self):
        with pytest.raises(ConfigError) as info:
            small_config(master_seed=-1, beta=3)
        assert info.value.field == "beta"

    def test_repeated_epsilon_rejected(self):
        # One record drives a replica at every level, so a repeated epsilon
        # would only copy a row, and the rate fit needs distinct epsilons.
        with pytest.raises(ConfigError, match="distinct") as info:
            small_config(eps_grid=(0.1, 0.1, 0.1))
        assert info.value.field == "eps_grid"

    def test_oversized_delta_rejected_at_run(self, halving_spec):
        config = small_config(eps_grid=(0.9,), replicas=1)
        with pytest.raises(ConfigError):
            lln_experiment(config, halving_spec)


class TestFitRate:
    def test_exact_square_law(self):
        eps = [0.02, 0.05, 0.1, 0.2]
        fit = fit_rate([(e, e ** 2) for e in eps])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)

    def test_linear_law_with_prefactor(self):
        eps = [0.02, 0.05, 0.1, 0.2]
        fit = fit_rate([(e, 3.0 * e) for e in eps])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_jittered_power_law(self):
        rng = np.random.default_rng(11)
        eps = np.geomspace(0.01, 0.3, 10)
        mean = 2.0 * eps ** 1.7 * (1.0 + 0.05 * rng.standard_normal(10))
        fit = fit_rate(list(zip(eps, mean)))
        assert fit.slope == pytest.approx(1.7, abs=0.05)

    def test_needs_three_points(self):
        with pytest.raises(DataError):
            fit_rate([(0.1, 0.1), (0.2, 0.2)])

    def test_needs_distinct_epsilons(self):
        with pytest.raises(DataError, match="distinct"):
            fit_rate([(0.1, 0.01), (0.1, 0.02), (0.1, 0.03)])

    @pytest.mark.parametrize("point", [(0.2, 0.0), (0.2, -0.1), (0.2, np.nan), (0.2, np.inf),
                                       (0.0, 0.2), (-0.2, 0.2), (np.nan, 0.2), (np.inf, 0.2)],
                             ids=["zero", "negative", "nan", "inf", "zero-epsilon",
                                  "negative-epsilon", "nan-epsilon", "inf-epsilon"])
    def test_needs_positive_means(self, point, capfd):
        with pytest.raises(DataError, match="positive finite"):
            fit_rate([(0.1, 0.1), point, (0.3, 0.3)])
        assert capfd.readouterr() == ("", "")


class TestKsTest:
    def test_null_calibration(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        lam = params.shape
        sample = invgauss.rvs(mu=1.0 / lam, scale=lam, size=5000,
                              random_state=np.random.default_rng(8))
        stat, passed = ks_test(sample, lambda c: fpt_cdf(params, c))
        assert passed
        assert stat < 0.02

    def test_shifted_sample_fails(self):
        params = FptParams(alpha=1.0, eps_p=0.2)
        lam = params.shape
        sample = invgauss.rvs(mu=1.0 / lam, scale=lam, size=5000,
                              random_state=np.random.default_rng(8))
        stat, passed = ks_test(sample + 0.2, lambda c: fpt_cdf(params, c))
        assert not passed
        assert stat > 0.1

    def test_needs_hundred_samples(self):
        with pytest.raises(DataError):
            ks_test(np.ones(50), lambda c: np.clip(c, 0.0, 1.0))
        with pytest.raises(ParameterError):
            ks_test(np.linspace(0.0, 1.0, 100), lambda c: np.clip(c, 0.0, 1.0), level=1.5)


class TestLlnExperiment:
    def test_single_replica_reproducible(self, halving_spec):
        config = small_config(eps_grid=(0.1,), replicas=1, master_seed=3)
        first = lln_experiment(config, halving_spec)
        second = lln_experiment(config, halving_spec)
        assert first.rows[0].mean_distance == second.rows[0].mean_distance
        assert first.rows[0].replicas == 1
        assert first.fit is None  # fewer than 3 grid points

    def test_zero_noise_control(self, halving_spec):
        config = small_config(eps_grid=(1e-8,), replicas=3, master_seed=1)
        row = lln_experiment(config, halving_spec).rows[0]
        assert row.mean_distance <= 1e-6
        assert row.bad_freq == 0.0

    def test_replica_counts_exact(self, halving_spec):
        config = small_config(replicas=50)
        report = lln_experiment(config, halving_spec)
        assert all(row.replicas == 50 for row in report.rows)
        assert report.fit is not None
        assert report.mode == "lln"

    def test_refinement_in_dt_does_not_grow_distance(self, halving_spec):
        coarse_cfg = small_config(eps_grid=(0.1,), replicas=400, dt=2e-3, master_seed=5)
        fine_cfg = small_config(eps_grid=(0.1,), replicas=400, dt=1e-3, master_seed=5)
        coarse = lln_experiment(coarse_cfg, halving_spec).rows[0]
        fine = lln_experiment(fine_cfg, halving_spec).rows[0]
        allowance = 2.0 * math.hypot(coarse.stderr, fine.stderr)
        assert fine.mean_distance <= coarse.mean_distance + allowance

    def test_bad_frequency_below_probability_bound(self, halving_spec):
        config = small_config()
        report = lln_experiment(config, halving_spec)
        for row in report.rows:
            delta = row.epsilon ** config.nu
            bound = good_set_probability_bound(4, ALPHA, row.epsilon, config.p, delta)
            slack = 3.29 * math.sqrt(max(bound * (1 - bound), 1e-12) / row.replicas)
            assert row.bad_freq <= min(1.0, bound) + slack


class TestCltExperiment:
    def test_zero_fluctuation_degenerates_to_baseline(self, halving_spec):
        """The clt baseline is the lln experiment on the same replicas."""
        config = small_config(eps_grid=(0.1, 0.2), replicas=40)
        baseline = lln_experiment(config, halving_spec)
        assert clt_experiment(config, halving_spec).baseline_rows == baseline.rows

    # The curved system is the one whose reset is nonlinear, so its
    # first-order path runs the reset's derivative.
    @pytest.mark.parametrize("models, overrides", [
        (None, {}),
        ((tanh_drift(0.5), saturating_reset(1.5)),
         dict(eps_grid=(0.02, 0.05, 0.1), replicas=100, dt=2e-3)),
    ], ids=["acceptance", "curved"])
    def test_refinement_beats_baseline_per_epsilon(self, halving_spec, models, overrides):
        spec = halving_spec if models is None else SystemSpec.from_models(*models, alpha=ALPHA,
                                                                          r0=1.0)
        report = clt_experiment(small_config(**overrides), spec)
        for refined, base in zip(report.rows, report.baseline_rows):
            allowance = 2.0 * math.hypot(refined.stderr, base.stderr)
            assert refined.mean_distance <= base.mean_distance + allowance

    @pytest.mark.parametrize("driver", [lln_experiment, clt_experiment])
    def test_report_carries_the_config_it_ran(self, halving_spec, driver):
        config = small_config(replicas=20)
        assert driver(config, halving_spec).config is config

    def test_report_carries_both_fits(self, halving_spec):
        report = clt_experiment(small_config(replicas=40), halving_spec)
        assert report.mode == "clt"
        assert report.fit is not None and report.baseline_fit is not None
        assert len(report.rows) == len(report.baseline_rows) == 3


def per_epsilon_reference(config, spec):
    """(baseline rows, refined rows) from one single-level batch per epsilon."""
    grid = simulation_grid(spec.alpha, config.horizon, config.dt)
    det = integrate_deterministic(spec, grid)
    base_rows, refined_rows = [], []
    for eps in config.eps_grid:
        batch = simulate_batch(spec, NoiseParams(epsilon=eps, p=config.p), config.horizon,
                               config.dt, config.master_seed, config.replicas,
                               store_increments=True)
        good = good_set_mask(batch.tau, batch.counts, spec.alpha, grid.n_impulses,
                             eps ** config.nu)
        trace = fluctuation_trace(spec, det, batch.w_increments)
        cost, sup = batch_skorohod_upper(det, batch, good, trace)
        for rows, d in zip((base_rows, refined_rows), np.maximum(cost, sup)):
            powered = d ** config.beta
            rows.append(EpsilonRow(epsilon=eps, mean_distance=float(np.mean(powered)),
                                   stderr=float(np.std(powered, ddof=1) / math.sqrt(d.size)),
                                   bad_freq=int(np.count_nonzero(~good)) / d.size,
                                   replicas=d.size))
    return tuple(base_rows), tuple(refined_rows)


class TestSharedNoiseDriver:
    """Each chunk runs every epsilon in one simulation over shared noise."""

    GRID = (0.02, 0.05, 0.1, 0.2)

    @pytest.fixture(scope="class")
    def reference(self, halving_spec):
        config = small_config(eps_grid=self.GRID, replicas=9, master_seed=4)
        base, refined = per_epsilon_reference(config, halving_spec)
        assert any(row.bad_freq > 0 for row in base)  # the identity distortion is exercised
        return base, refined

    @pytest.mark.parametrize("chunk_size", [1, 3, 250])
    def test_rows_equal_per_epsilon_reference(self, halving_spec, reference, chunk_size):
        config = small_config(eps_grid=self.GRID, replicas=9, master_seed=4,
                              chunk_size=chunk_size)
        base, refined = reference
        clt = clt_experiment(config, halving_spec)
        assert clt.baseline_rows == base
        assert clt.rows == refined
        assert lln_experiment(config, halving_spec).rows == base

    @pytest.mark.parametrize("driver", [lln_experiment, clt_experiment])
    def test_noise_drawn_once_per_replica_and_traced_once_per_chunk(self, halving_spec,
                                                                    monkeypatch, driver):
        calls = {"streams": 0, "trace": 0, "batch_columns": []}
        draw, trace, simulate = (stochastic._draw_block, experiments.fluctuation_trace,
                                 experiments.simulate_batch)

        def counting_draw(seqs, *args):
            calls["streams"] += len(seqs)
            return draw(seqs, *args)

        def counting_trace(*args, **kwargs):
            calls["trace"] += 1
            return trace(*args, **kwargs)

        def recording_simulate(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            calls["batch_columns"].append(len(batch))
            return batch

        monkeypatch.setattr(stochastic, "_draw_block", counting_draw)
        monkeypatch.setattr(experiments, "fluctuation_trace", counting_trace)
        monkeypatch.setattr(experiments, "simulate_batch", recording_simulate)
        # chunk_size 10 over 4 levels: chunks of 2 replicas, the last one of 1
        config = small_config(eps_grid=self.GRID, replicas=5, chunk_size=10)
        driver(config, halving_spec)
        assert calls["streams"] == 5
        assert calls["batch_columns"] == [8, 8, 4]
        assert calls["trace"] == (3 if driver is clt_experiment else 0)
