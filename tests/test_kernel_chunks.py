"""The distance kernel's grid lookups and its one-call-per-chunk level layout."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impulselab.cadlag as cadlag
import impulselab.experiments as experiments
from impulselab import (
    DataError,
    DeterministicSolution,
    ExperimentConfig,
    NoiseParams,
    ParameterError,
    SimulationGrid,
    clt_experiment,
    integrate_deterministic,
    lln_experiment,
    simulate_batch,
    simulation_grid,
)
from impulselab.cadlag import batch_skorohod_upper
from impulselab.fluctuation import fluctuation_trace
from impulselab.stochastic import good_set_mask


def flat_grid(grid):
    """The kernel's tables for `grid`, around a deterministic path that is 0."""
    n, k = grid.times.shape[0], grid.n_impulses
    return cadlag._Grid(DeterministicSolution(grid, np.zeros(n), np.zeros(n), np.zeros(k)))


def grid_of(times):
    times = np.asarray(times, dtype=float)
    return flat_grid(SimulationGrid(times=times, boundary_indices=np.zeros(0, dtype=int),
                                    alpha=1.0))


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
    grid = flat_grid(simulation_grid(alpha, horizon, 1e-2))
    times = grid.times
    n = times.shape[0]
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


def test_lambda_maps_knots_to_knots_and_fixes_identity_rows():
    """On good rows lambda sends each knot time to its image and lambda^-1
    back, bitwise; on identity rows both return their input bitwise."""
    rng = np.random.default_rng(4)
    rows, horizon = 6, 2.6
    grid = flat_grid(simulation_grid(1.0, horizon, 1e-2))
    n = grid.times.shape[0]
    tau = np.array([1.0, 2.0]) + rng.uniform(-0.2, 0.2, size=(rows, 2))
    good = np.array([True, False, True, True, False, True])
    block = cadlag._ReplicaBlock(grid, np.zeros((rows, n)), np.zeros((rows, n)), tau,
                                 np.zeros((rows, 2)), np.zeros((rows, 2)), np.full(rows, 2), good)
    kt, kv = block.kt, block.kv
    assert np.array_equal(kv[good, 1:-1], tau[good]) and np.array_equal(kv[~good], kt[~good])
    assert np.array_equal(block.lam(kt), kv)
    assert np.array_equal(block.lam_inv(kv), kt)
    x = rng.uniform(0.0, horizon, size=(rows, 50))
    assert np.array_equal(block.lam(x)[~good], x[~good])
    assert np.array_equal(block.lam_inv(x)[~good], x[~good])


LEVELS = (0.05, 0.1, 0.2, 0.3)


def simulate_levels(spec, levels, m):
    return simulate_batch(spec, tuple(NoiseParams(epsilon=e, p=2.0) for e in levels), 4.0,
                          spec.alpha / 200, 5, m, store_increments=True)


@pytest.fixture(scope="module")
def level_batch(halving_spec):
    """37 replicas at four levels on a coarse grid: a block holds more than
    one level's columns and straddles the level boundaries."""
    m = 37
    batch = simulate_levels(halving_spec, LEVELS, m)
    grid = batch.grid
    det = integrate_deterministic(halving_spec, grid)
    good = np.concatenate([
        good_set_mask(batch.tau[e * m:(e + 1) * m], batch.counts[e * m:(e + 1) * m],
                      halving_spec.alpha, grid.n_impulses, eps ** 1.5)
        for e, eps in enumerate(LEVELS)])
    trace = fluctuation_trace(halving_spec, det, batch.w_increments)
    block = cadlag._POINT_BUDGET // grid.times.shape[0]
    assert m < block < len(LEVELS) * m and block % m != 0
    assert 0 < np.count_nonzero(good) < good.shape[0]
    return halving_spec, det, batch, good, trace, m


@pytest.mark.parametrize("with_trace", [True, False])
def test_one_call_over_levels_equals_one_call_per_level(level_batch, with_trace):
    """Each level block scores as a one-level batch at its epsilon, whose
    arrays are bitwise the block's."""
    spec, det, batch, good, trace, m = level_batch
    trace = trace if with_trace else None
    cost, sup = batch_skorohod_upper(det, batch, good, trace)
    assert sup.shape == (2 if with_trace else 1, len(batch))
    for e, eps in enumerate(LEVELS):
        cols = slice(e * m, (e + 1) * m)
        alone = simulate_levels(spec, (eps,), m)
        want_cost, want_sup = batch_skorohod_upper(det, alone, good[cols], trace)
        assert np.array_equal(cost[cols], want_cost)
        assert np.array_equal(sup[:, cols], want_sup)


def test_good_set_mask_takes_one_delta_per_column(level_batch):
    """One call with each level's delta repeated over its columns flags the
    columns as one call per level does."""
    spec, det, batch, good, trace, m = level_batch
    deltas = np.repeat([eps ** 1.5 for eps in LEVELS], m)
    got = good_set_mask(batch.tau, batch.counts, spec.alpha, det.grid.n_impulses, deltas)
    assert np.array_equal(got, good)
    deltas[m] = spec.alpha / 4.0
    with pytest.raises(ParameterError):
        good_set_mask(batch.tau, batch.counts, spec.alpha, det.grid.n_impulses, deltas)


def test_good_set_mask_refuses_a_bad_count_or_delta_length(level_batch):
    spec, det, batch, good, trace, m = level_batch
    n = det.grid.n_impulses
    for n_expected in (2.5, -1, "2"):
        with pytest.raises(ParameterError, match="n_expected"):
            good_set_mask(batch.tau, batch.counts, spec.alpha, n_expected, 0.01)
    for deltas in (np.full(2, 0.01), np.full(len(batch) + 1, 0.01)):
        with pytest.raises(ParameterError, match="delta needs"):
            good_set_mask(batch.tau, batch.counts, spec.alpha, n, deltas)
    for counts in (batch.counts[1:], np.append(batch.counts, n), batch.counts[:, None]):
        with pytest.raises(ParameterError, match="counts needs"):
            good_set_mask(batch.tau, counts, spec.alpha, n, 0.01)


def test_columns_must_split_over_the_levels(level_batch):
    spec, det, batch, good, trace, m = level_batch
    with pytest.raises(DataError, match="split evenly"):
        replace(batch, levels=batch.levels[:3])


def test_relevelling_a_batch_moves_its_angles_and_refined_distances(level_batch):
    """The batch rebuilds each block's angle at, and the kernel reads each
    block's epsilon from, the batch's levels: the same radii and impulses
    labelled with other levels keep their costs and get other angles, and
    the kernel scores those angles and epsilons in every block."""
    spec, det, batch, good, trace, m = level_batch
    cost, sup = batch_skorohod_upper(det, batch, good, trace)
    relevelled = replace(batch, levels=batch.levels[::-1])
    other_cost, other_sup = batch_skorohod_upper(det, relevelled, good, trace)
    assert np.array_equal(other_cost, cost)
    for e in range(len(LEVELS)):
        cols = np.arange(e * m, (e + 1) * m)
        assert not np.array_equal(relevelled.theta_rows(cols), batch.theta_rows(cols))
        assert not np.array_equal(other_sup[:, cols], sup[:, cols])
    # The relabelled batch scored one level block at a time, as one-level
    # batches of the same arrays at the new level.
    for e, level in enumerate(relevelled.levels):
        cols = slice(e * m, (e + 1) * m)
        alone = replace(batch, r_values=batch.r_values[:, cols], tau=batch.tau[cols],
                        pre=batch.pre[cols], post=batch.post[cols], counts=batch.counts[cols],
                        jump_step=batch.jump_step[cols], theta_end=batch.theta_end[cols],
                        levels=(level,))
        want_cost, want_sup = batch_skorohod_upper(det, alone, good[cols], trace)
        assert np.array_equal(other_cost[cols], want_cost)
        assert np.array_equal(other_sup[:, cols], want_sup)


@pytest.mark.parametrize("driver", [lln_experiment, clt_experiment])
def test_driver_scores_each_chunk_in_one_kernel_call(halving_spec, monkeypatch, driver):
    """One good-set call and one kernel call per chunk, each over all of the
    chunk's columns."""
    columns = {"batch_skorohod_upper": [], "good_set_mask": []}

    def counting(name, column_arg):
        original = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            columns[name].append(len(args[column_arg]))
            return original(*args, **kwargs)
        return wrapper

    for name, column_arg in (("batch_skorohod_upper", 2), ("good_set_mask", 0)):
        monkeypatch.setattr(experiments, name, counting(name, column_arg))
    config = ExperimentConfig(eps_grid=LEVELS, replicas=9, beta=1, nu=1.5, p=2.0, dt=2e-3,
                              horizon=4.0, master_seed=4, chunk_size=8)
    driver(config, halving_spec)
    per_chunk = [2 * len(LEVELS)] * 4 + [len(LEVELS)]
    assert columns == {"batch_skorohod_upper": per_chunk, "good_set_mask": per_chunk}
