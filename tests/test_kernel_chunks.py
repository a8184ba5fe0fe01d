"""The distance kernel's grid lookups and its one-call-per-chunk level layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impulselab.cadlag as cadlag
import impulselab.experiments as experiments
from impulselab import (
    ExperimentConfig,
    InvalidInputError,
    NoiseParams,
    clt_experiment,
    integrate_deterministic,
    lln_experiment,
    simulate_batch,
    simulation_grid,
)
from impulselab.cadlag import batch_skorohod_upper
from impulselab.fluctuation import fluctuation_trace
from impulselab.stochastic import good_set_mask


def grid_of(times):
    times = np.asarray(times, dtype=float)
    det = (np.zeros_like(times), np.zeros_like(times), np.zeros(0), np.zeros(0))
    return cadlag._Grid(times, np.zeros(0, dtype=np.intp), 1.0, det)


def queries(times, rng):
    """0, T, every grid point, its two floating-point neighbours, random points."""
    return np.concatenate([[0.0, times[-1]], times, np.nextafter(times, -np.inf),
                           np.nextafter(times, np.inf), rng.uniform(0.0, times[-1], 500)])


def assert_locates(times, rng):
    t = queries(times, rng)
    want = np.searchsorted(times, t, side="right") - 1
    assert np.array_equal(grid_of(times).locate(t), want)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 3.0), n_imp=st.integers(1, 3), frac=st.floats(0.02, 0.98),
       steps=st.integers(3, 3000), seed=st.integers(0, 2**31 - 1))
def test_locator_matches_searchsorted_on_simulation_grids(alpha, n_imp, frac, steps, seed):
    horizon = (n_imp + frac) * alpha
    grid = simulation_grid(alpha, horizon, horizon / steps)
    assert_locates(grid.times, np.random.default_rng(seed))


@pytest.mark.parametrize("times", [
    [0.0, 1.0],
    [0.0, 1e-9, 2e-9, 1.0, 2.0, 3.0],                     # a crowded first bucket
    [0.0, 0.5, 0.5000000000000001, 0.75, 3.0],           # adjacent floats
    np.geomspace(1e-6, 5.0, 200).tolist(),               # starts above 0
    np.concatenate([[0.0], np.cumsum(np.random.default_rng(3).exponential(size=300))]).tolist(),
    (np.arange(41) * 0.1).tolist() + [4.05, 4.0500001, 7.0],
])
def test_locator_matches_searchsorted_on_non_uniform_grids(times):
    assert_locates(np.asarray(times), np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 12), jitter=st.floats(0.0, 0.24))
def test_near_grid_index_matches_locator_on_aligning_distortions(seed, rows, jitter):
    """u = lambda(lambda^-1(t_i)) for random aligning distortions lands next
    to t_i, on either side of it; the locator must index it, and points
    pushed further away, as searchsorted does."""
    rng = np.random.default_rng(seed)
    alpha, horizon = 1.0, 2.6
    times = simulation_grid(alpha, horizon, 1e-2).times
    jump_index = np.flatnonzero(np.isin(times, [1.0, 2.0]))
    n = times.shape[0]
    det = (np.zeros(n), np.zeros(n), np.zeros(2), np.zeros(2))
    grid = cadlag._Grid(times, jump_index, alpha, det)
    tau = np.array([1.0, 2.0]) + rng.uniform(-jitter, jitter, size=(rows, 2)) * alpha
    good = rng.random(rows) < 0.8
    block = cadlag._ReplicaBlock(grid, np.zeros((rows, n)), np.zeros((rows, n)), tau,
                                 np.zeros((rows, 2)), np.zeros((rows, 2)), np.full(rows, 2), good)
    u = block.lam(block.lam_inv(times))
    want = np.searchsorted(times, u, side="right") - 1
    assert np.array_equal(grid.locate(u), want)
    pushed = u + rng.choice([0.0, 0.03, -0.03], size=u.shape)
    pushed = np.clip(pushed, 0.0, horizon)
    assert np.array_equal(grid.locate(pushed),
                          np.searchsorted(times, pushed, side="right") - 1)


LEVELS = (0.05, 0.1, 0.2, 0.3)


@pytest.fixture(scope="module")
def level_batch(halving_spec):
    """37 replicas at four levels on a coarse grid: a block holds more than
    one level's columns and straddles the level boundaries."""
    horizon, dt, m = 4.0, halving_spec.alpha / 200, 37
    grid = simulation_grid(halving_spec.alpha, horizon, dt)
    det = integrate_deterministic(halving_spec, grid)
    batch = simulate_batch(halving_spec, tuple(NoiseParams(epsilon=e, p=2.0) for e in LEVELS),
                           horizon, dt, 5, m, store_increments=True)
    good = np.concatenate([
        good_set_mask(batch.tau[e * m:(e + 1) * m], batch.counts[e * m:(e + 1) * m],
                      halving_spec.alpha, grid.n_impulses, eps ** 1.5)
        for e, eps in enumerate(LEVELS)])
    trace = fluctuation_trace(halving_spec, det, batch.w_increments)
    block = cadlag._POINT_BUDGET // grid.times.shape[0]
    assert m < block < len(LEVELS) * m and block % m != 0
    assert 0 < np.count_nonzero(good) < good.shape[0]
    return halving_spec, det, batch, good, trace, m


def call(spec, det, batch, cols, good, trace, epsilon):
    grid = det.grid
    return batch_skorohod_upper(
        grid.times, grid.boundary_indices, spec.alpha,
        (det.r_values, det.theta_values, det.pre_radii, det.post_radii),
        (batch.r_values[:, cols], batch.theta_values[:, cols], batch.tau[cols],
         batch.pre[cols], batch.post[cols], batch.counts[cols]), good[cols], trace, epsilon)


@pytest.mark.parametrize("with_trace", [True, False])
def test_one_call_over_levels_equals_one_call_per_level(level_batch, with_trace):
    spec, det, batch, good, trace, m = level_batch
    trace = trace if with_trace else None
    everything = slice(None)
    to_det, to_first = call(spec, det, batch, everything, good, trace, LEVELS)
    for e, eps in enumerate(LEVELS):
        cols = slice(e * m, (e + 1) * m)
        want_det, want_first = call(spec, det, batch, cols, good, trace, eps)
        assert np.array_equal(to_det[cols], want_det)
        if with_trace:
            assert np.array_equal(to_first[cols], want_first)
        else:
            assert to_first is None and want_first is None


def test_columns_must_split_over_the_levels(level_batch):
    spec, det, batch, good, trace, m = level_batch
    with pytest.raises(InvalidInputError):
        call(spec, det, batch, slice(0, 4 * m - 1), good, trace, LEVELS)


@pytest.mark.parametrize("driver", [lln_experiment, clt_experiment])
def test_driver_scores_each_chunk_in_one_kernel_call(halving_spec, monkeypatch, driver):
    columns = []
    kernel = experiments.batch_skorohod_upper

    def counting_kernel(*args, **kwargs):
        columns.append(len(args[5]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(experiments, "batch_skorohod_upper", counting_kernel)
    config = ExperimentConfig(eps_grid=LEVELS, replicas=9, beta=1, nu=1.5, p=2.0, dt=2e-3,
                              horizon=4.0, master_seed=4, chunk_size=8)
    driver(config, halving_spec)
    assert columns == [2 * len(LEVELS)] * 4 + [len(LEVELS)]
