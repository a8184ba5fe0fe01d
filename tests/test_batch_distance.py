"""The batched distance kernel against the per-replica oracle, skorohod_upper."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import impulselab.cadlag as cadlag
import impulselab.experiments as experiments
import impulselab.stochastic as stochastic
from impulselab import (
    BatchResult,
    DataError,
    ExperimentConfig,
    NoiseParams,
    SystemSpec,
    build_aligning_distortion,
    classify_good_set,
    clt_experiment,
    constant_drift,
    distortion_cost,
    integrate_deterministic,
    linear_reset,
    simulate_batch,
    simulation_grid,
    skorohod_upper,
    solution_to_path,
)
from impulselab.cadlag import batch_skorohod_upper
from impulselab.fluctuation import first_order_on_grid, fluctuation_trace
from impulselab.stochastic import good_set_mask

ALPHA = float(np.pi / 2)


def oracle(det, batch, good, trace, eps):
    """skorohod_upper on the path objects, one replica at a time."""
    grid = det.grid
    det_path = solution_to_path(det)
    to_det, to_first = [], []
    for i in range(len(batch)):
        noisy = batch.path(i)
        lam = build_aligning_distortion(grid.impulse_times(), batch.impulse_times(i),
                                        grid.horizon, bool(good[i]))
        to_det.append(skorohod_upper(det_path, noisy, lam))
        values, pre = trace
        approx = first_order_on_grid(det, values[:, i], pre[:, i], eps)
        to_first.append(skorohod_upper(approx, noisy, lam))
    return np.array(to_det), np.array(to_first)


def assert_matches_oracle(det, batch, good, trace, eps):
    cost, sup = batch_skorohod_upper(det, batch, good, trace)
    to_det, to_first = np.maximum(cost, sup)
    want_det, want_first = oracle(det, batch, good, trace, eps)
    np.testing.assert_allclose(to_det, want_det, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(to_first, want_first, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), eps=st.floats(0.02, 0.4), p=st.sampled_from([1.5, 2.0, 3.0]),
       n_imp=st.integers(1, 3), frac=st.floats(0.03, 0.97), shrink=st.floats(0.05, 0.95))
@example(seed=0, eps=0.4, p=1.5, n_imp=2, frac=0.97, shrink=0.5)  # counts 3 != 2
@example(seed=1, eps=0.4, p=1.5, n_imp=2, frac=0.03, shrink=0.5)  # counts 1 != 2
def test_kernel_matches_oracle_on_simulated_batches(seed, eps, p, n_imp, frac, shrink):
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=ALPHA, r0=1.0)
    horizon = (n_imp + frac) * ALPHA
    dt = ALPHA / 200
    det = integrate_deterministic(spec, simulation_grid(ALPHA, horizon, dt))
    batch = simulate_batch(spec, NoiseParams(epsilon=eps, p=p), horizon, dt, seed, 5,
                           store_increments=True)
    # delta below the final leg, so good replicas end their impulses before T
    delta = shrink * min(ALPHA / 4, horizon - n_imp * ALPHA)
    good = good_set_mask(batch.tau, batch.counts, ALPHA, n_imp, delta)
    trace = fluctuation_trace(spec, det, batch.w_increments)
    assert_matches_oracle(det, batch, good, trace, eps)


def test_simulated_examples_reach_impulse_counts_other_than_n():
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=ALPHA, r0=1.0)
    seen = set()
    for seed, frac in ((0, 0.97), (1, 0.03)):
        batch = simulate_batch(spec, NoiseParams(epsilon=0.4, p=1.5), (2 + frac) * ALPHA,
                               ALPHA / 200, seed, 5)
        seen.update(batch.counts.tolist())
    assert {1, 3} <= seen


def test_kernel_matches_oracle_on_a_simulated_impulse_at_a_grid_time():
    """A draw source no seed produces: one angular increment brings the angle
    to alpha exactly at the end of a step (frac = 1, no time left), so the
    step loop puts the impulse on a grid time and the kernel scores it there."""
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=1.0, r0=1.0)
    grid = simulation_grid(1.0, 2.5, 1 / 256)  # dyadic, so every grid time is exact
    level = NoiseParams(epsilon=0.5, p=2.0)  # angular scale 0.25, exact

    def source(start, stop, w, b, aux_w, aux_b):
        for block in (w, b, aux_w, aux_b):
            block[:] = 0.0
        w[:, ::7] = 1 / 64
        b[:, 199] = 0.875  # 199/256 + 1/256 + 0.25 * 0.875 = 1

    batch = stochastic._advance_batch(spec, (level,), grid, 1, 8, source, True)
    assert batch.tau[0, 0] == grid.times[200] == 0.78125
    assert batch.counts[0] == 2
    good = good_set_mask(batch.tau, batch.counts, 1.0, grid.n_impulses, 0.24)
    assert good[0]
    det = integrate_deterministic(spec, grid)
    trace = fluctuation_trace(spec, det, batch.w_increments)
    cost, sup = batch_skorohod_upper(det, batch, good, trace)
    want = oracle(det, batch, good, trace, level.epsilon)
    np.testing.assert_array_equal(np.maximum(cost, sup), np.array(want), strict=True)


def test_kernel_matches_oracle_on_a_simulated_path_without_impulses():
    """A draw source that turns the angle back every step, so it never
    reaches alpha: the noisy path has no jump and no query falls in a step
    that holds one, while the deterministic path still jumps twice."""
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=1.0, r0=1.0)
    grid = simulation_grid(1.0, 2.5, 1 / 256)
    level = NoiseParams(epsilon=0.5, p=2.0)

    def source(start, stop, w, b, aux_w, aux_b):
        for block in (w, aux_w, aux_b):
            block[:] = 0.0
        w[:, ::7] = 1 / 64
        b[:] = -1 / 32  # 1/256 - 0.25/32 < 0 per step

    batch = stochastic._advance_batch(spec, (level,), grid, 1, 8, source, True)
    assert batch.counts.tolist() == [0]
    good = np.array([False])
    det = integrate_deterministic(spec, grid)
    trace = fluctuation_trace(spec, det, batch.w_increments)
    cost, sup = batch_skorohod_upper(det, batch, good, trace)
    want = oracle(det, batch, good, trace, level.epsilon)
    np.testing.assert_array_equal(np.maximum(cost, sup), np.array(want), strict=True)


@dataclass(frozen=True, eq=False)
class HandBuiltBatch(BatchResult):
    """A batch whose angles are given outright, (n_steps + 1, columns), not
    rebuilt from increments."""

    theta_values: np.ndarray = None

    def theta_rows(self, columns):
        return np.ascontiguousarray(self.theta_values[:, columns].T)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), first=st.integers(8, 12), on_grid=st.integers(1, 25),
       inside=st.integers(0, 24), fractions=st.lists(st.floats(0.01, 0.99), min_size=3,
                                                       max_size=3, unique=True),
       eps=st.floats(0.0, 0.5))
def test_kernel_matches_oracle_on_hand_built_jumps(seed, first, on_grid, inside, fractions, eps):
    """Grid 0, 0.1, ..., 2.5 with deterministic jumps at 1 and 2. Replica 0 is
    good with its first jump on grid time `first`/10; replica 1 has two jumps
    inside step `inside`; replica 2 has three jumps, one on grid index
    `on_grid` (possibly the horizon); replica 3 has one jump."""
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=1.0, r0=1.0)
    grid = simulation_grid(1.0, 2.5, 0.1)
    det = integrate_deterministic(spec, grid)
    times, n = grid.times, grid.times.shape[0]
    a, b, c = sorted(fractions)
    step = times[inside + 1] - times[inside]
    rows = [
        [times[first], times[19] + a * step],
        [times[inside] + a * step, times[inside] + b * step],
        sorted({times[on_grid], times[3] + c * (times[4] - times[3]), times[6]}),
        [times[14] + b * (times[15] - times[14])],
    ]
    # Distinct fractions can still round to one jump time (0.01 and
    # 0.010000000000000002 inside one step), which is no path at all.
    assume(rows[1][0] < rows[1][1])
    rng = np.random.default_rng(seed)
    m, width = len(rows), 4
    tau = np.full((m, width), np.nan)
    counts = np.array([len(r) for r in rows])
    for i, r in enumerate(rows):
        tau[i, : len(r)] = r
    pre = np.where(np.isnan(tau), np.nan, rng.normal(size=(m, width)))
    post = np.where(np.isnan(tau), np.nan, rng.normal(size=(m, width)))
    r_values = rng.normal(size=(n, m))
    theta_values = rng.uniform(0.0, 1.0, size=(n, m))
    # A grid sample at a jump time is not part of the noisy path; a large one
    # shows up in the distance if it is used.
    for i, r in enumerate(rows):
        hit = np.isin(times, r)
        r_values[hit, i] = theta_values[hit, i] = 1e3
    batch = HandBuiltBatch(grid=grid, r_values=r_values, b_increments=None, tau=tau, pre=pre,
                           post=post, counts=counts, jump_step=None, theta_end=None,
                           levels=(NoiseParams(epsilon=eps, p=2.0),), theta_values=theta_values)
    good = np.array([True, False, False, False])
    trace = (rng.normal(size=(n, m)), rng.normal(size=(2, m)))
    assert_matches_oracle(det, batch, good, trace, eps)


@pytest.fixture(scope="module")
def acceptance_batch():
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=ALPHA, r0=1.0)
    det = integrate_deterministic(spec, simulation_grid(ALPHA, 4.0, 1e-3))
    batch = simulate_batch(spec, NoiseParams(epsilon=0.2, p=2.0), 4.0, 1e-3, 0, 40,
                           store_increments=True)
    good = good_set_mask(batch.tau, batch.counts, ALPHA, 2, 0.2 ** 1.5)
    return spec, det, batch, good


def test_kernel_is_bitwise_equal_on_acceptance_grid(acceptance_batch):
    spec, det, batch, good = acceptance_batch
    assert 0 < np.count_nonzero(good) < len(batch)
    trace = fluctuation_trace(spec, det, batch.w_increments)
    cost, sup = batch_skorohod_upper(det, batch, good, trace)
    want = oracle(det, batch, good, trace, 0.2)
    assert sup.shape == (2, len(batch))
    assert np.array_equal(np.maximum(cost, sup[0]), want[0])
    assert np.array_equal(np.maximum(cost, sup[1]), want[1])


def test_cost_is_the_aligning_distortion_cost(acceptance_batch):
    """The first term of the bound, column by column: the cost of the
    distortion the oracle builds, 0.0 under the identity."""
    spec, det, batch, good = acceptance_batch
    grid = det.grid
    cost, _ = batch_skorohod_upper(det, batch, good)
    want = [distortion_cost(build_aligning_distortion(grid.impulse_times(),
                                                      batch.impulse_times(i), grid.horizon,
                                                      bool(good[i])))
            for i in range(len(batch))]
    assert cost.shape == (len(batch),) and np.array_equal(cost, want)
    assert np.all(cost[~good] == 0.0) and np.all(cost[good] > 0.0)


def test_zero_fluctuation_refined_equals_baseline_exactly(acceptance_batch):
    spec, det, batch, good = acceptance_batch
    n, m = batch.r_values.shape[0], len(batch)
    zeros = (np.zeros((n, m)), np.zeros((2, m)))
    cost, sup = batch_skorohod_upper(det, batch, good, zeros)
    assert np.array_equal(sup[1], sup[0])
    alone_cost, alone = batch_skorohod_upper(det, batch, good)
    assert alone.shape == (1, m) and np.array_equal(alone[0], sup[0])
    assert np.array_equal(alone_cost, cost)


def test_good_row_needs_n_increasing_impulses(acceptance_batch):
    spec, det, batch, good = acceptance_batch
    row = int(np.flatnonzero(batch.counts == 2)[0])
    tau = batch.tau.copy()
    tau[row, 1] = 5.0  # beyond the horizon
    forced = good.copy()
    forced[row] = True
    broken = replace(batch, tau=tau)
    with pytest.raises(DataError, match="one increasing impulse time per"):
        batch_skorohod_upper(det, broken, forced)


def test_kernel_refuses_a_malformed_mask_or_trace(acceptance_batch):
    spec, det, batch, good = acceptance_batch
    for mask in (good.astype(int), good[:-1], good[None, :]):
        with pytest.raises(DataError, match="bool array"):
            batch_skorohod_upper(det, batch, mask)
    values, pre = fluctuation_trace(spec, det, batch.w_increments)
    wide = np.hstack([values, values]), np.hstack([pre, pre])
    for trace in (wide, (values[:-1], pre), (values, pre[:1]), (values, pre, pre), (values,)):
        with pytest.raises(DataError, match="trace arrays"):
            batch_skorohod_upper(det, batch, good, trace)


def test_batch_on_another_grid_is_refused(acceptance_batch):
    spec, det, batch, good = acceptance_batch
    coarse = simulate_batch(spec, NoiseParams(epsilon=0.2, p=2.0), 4.0, 2e-3, 0, 3)
    nudged = replace(batch, grid=replace(batch.grid, times=np.nextafter(batch.grid.times, 5.0)))
    for other, mask in ((coarse, np.zeros(3, dtype=bool)), (nudged, good)):
        with pytest.raises(DataError, match="different grids"):
            batch_skorohod_upper(det, other, mask)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_expected=st.integers(0, 3), delta=st.floats(0.01, 0.24))
def test_good_set_mask_matches_classify(seed, n_expected, delta):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, size=12)
    tau = np.full((12, 5), np.nan)
    for i, c in enumerate(counts):
        tau[i, :c] = np.arange(1, c + 1) + rng.normal(scale=0.1, size=c)
    mask = good_set_mask(tau, counts, 1.0, n_expected, delta)
    for i, c in enumerate(counts):
        # The good set written out: exactly n_expected impulses, the k-th
        # within delta of k*alpha (alpha = 1).
        want = c == n_expected and all(abs(tau[i, k] - (k + 1)) <= delta for k in range(c))
        assert mask[i] == want
        assert classify_good_set(tau[i, :c], 1.0, n_expected, delta).is_good == want


def test_driver_builds_no_per_replica_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-replica path code called by the driver")

    for owner, name in ((experiments, "skorohod_upper"), (experiments, "first_order_on_grid"),
                        (experiments, "build_aligning_distortion"),
                        (experiments, "classify_good_set"), (stochastic.BatchResult, "path"),
                        (cadlag.CadlagPath, "__init__"),
                        (cadlag.TimeDistortion, "__post_init__")):
        monkeypatch.setattr(owner, name, refuse)
    spec = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=ALPHA, r0=1.0)
    config = ExperimentConfig(eps_grid=(0.1, 0.2), replicas=8, beta=1, nu=1.5, p=2.0,
                              dt=2e-3, horizon=4.0, master_seed=1)
    report = clt_experiment(config, spec)
    assert all(row.mean_distance > 0 for row in report.rows + report.baseline_rows)
