"""Noisy simulation: reproducibility, hitting times, good-set classification."""

import dataclasses
import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import impulselab.stochastic as stochastic
from impulselab import (
    BrownianRecord,
    NoiseParams,
    ParameterError,
    SystemSpec,
    classify_good_set,
    constant_drift,
    derived_tail_constant,
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
    """Replica 0 of master seed `seed`, as `impulselab simulate --seed` writes it,
    and its impulse times."""
    batch = simulate_batch(spec, noise, horizon=horizon, dt=dt, master_seed=seed, n_replicas=1)
    return batch.path(0), batch.impulse_times(0)


def theta_values(batch):
    """Every column's angle, laid out as `r_values`: (n_steps + 1, columns)."""
    return batch.theta_rows(np.arange(len(batch))).T


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
        path, times = one_replica(spec, zero, horizon=2.5, dt=1e-4, seed=0)
        det_path = deterministic_trajectory(spec, horizon=2.5, dt=1e-4)
        assert uniform_distance(path, det_path) <= 1e-6
        assert np.max(np.abs(times - det_path.jump_times)) <= 1e-4

    def test_no_angular_noise_gives_sawtooth(self, halving_spec):
        quiet = NoiseParams(epsilon=0.2, p=2.0, sigma=0)
        for seed in (0, 1, 7):
            _, times = one_replica(halving_spec, quiet, horizon=4.0, dt=ALPHA / 400, seed=seed)
            expected = ALPHA * np.arange(1, times.shape[0] + 1)
            assert np.max(np.abs(times - expected)) <= ALPHA / 400


def bits(value):
    """`value` in a form whose equality is bitwise equality of its arrays,
    also of the arrays inside a dataclass such as the grid."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(bits(getattr(value, field.name)) for field in dataclasses.fields(value))
    return value


_PINNED_BATCH = "0ea1038696ca24c42e3c4582eaaa68baaaa08cf2f789f796f3c34de41a907eec"


class TestReproducibility:
    def test_bit_identical_repeat(self, halving_spec, noise):
        a = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                           master_seed=5, n_replicas=8, store_increments=True)
        b = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                           master_seed=5, n_replicas=8, store_increments=True)
        np.testing.assert_array_equal(a.r_values, b.r_values)
        np.testing.assert_array_equal(theta_values(a), theta_values(b))
        np.testing.assert_array_equal(a.tau, b.tau, strict=True)
        np.testing.assert_array_equal(a.w_increments, b.w_increments)
        np.testing.assert_array_equal(a.b_increments, b.b_increments)

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
            np.testing.assert_array_equal(whole.theta_rows(np.arange(lo, hi)),
                                          part.theta_rows(np.arange(hi - lo)))
            assert np.array_equal(whole.tau[lo:hi], part.tau, equal_nan=True)

    def test_n_max_moves_nothing_before_the_first_impulse(self, halving_spec, noise):
        # n_max is part of the seed convention: the angular aux draws follow
        # n_max radial ones. The step increments, the first impulse and the
        # path up to the step that holds it do not depend on it.
        run = dict(horizon=4.0, dt=ALPHA / 400, master_seed=0, n_replicas=50,
                   store_increments=True)
        a = simulate_batch(halving_spec, noise, **run)
        b = simulate_batch(halving_spec, noise, n_max=35, **run)
        assert a.tau.shape[1] == 30
        np.testing.assert_array_equal(a.w_increments, b.w_increments, strict=True)
        np.testing.assert_array_equal(a.b_increments, b.b_increments, strict=True)
        for name in ("tau", "pre", "post"):
            np.testing.assert_array_equal(getattr(a, name)[:, 0], getattr(b, name)[:, 0],
                                          strict=True)
        # Rows 0..j, where the step (t_j, t_j+1] holds the first impulse.
        before = np.arange(a.grid.times.shape[0])[:, None] < np.searchsorted(a.grid.times,
                                                                             a.tau[:, 0])
        np.testing.assert_array_equal(a.r_values[before], b.r_values[before])
        np.testing.assert_array_equal(theta_values(a)[before], theta_values(b)[before])
        assert not np.array_equal(theta_values(a), theta_values(b))

    def test_batch_is_pinned(self, halving_spec):
        # Seeded outputs are a contract: this digest of every array of one
        # four-level batch moves only with a declared change of seeded numbers.
        # The angle enters as the (n_steps + 1, columns) array it once was.
        levels = tuple(NoiseParams(epsilon=e, p=2.0) for e in (0.0, 0.05, 0.3, 0.9))
        batch = simulate_batch(halving_spec, levels, horizon=4.0, dt=ALPHA / 400,
                               master_seed=11, n_replicas=40, replica_offset=3,
                               store_increments=True)
        digest = hashlib.sha256()
        for name in (*BATCH_FIELDS, "w_increments"):
            digest.update(batch_field(batch, name).tobytes())
        assert digest.hexdigest() == _PINNED_BATCH

    def test_stored_increments_are_the_records(self, halving_spec, noise):
        # Both records, radial (stored on request) and angular (always).
        replicas, offset = 70, 3
        assert replicas > 2 * stochastic._NOISE_BLOCK  # the last noise block is partial
        batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                               master_seed=6, n_replicas=replicas, replica_offset=offset,
                               store_increments=True)
        for i in range(replicas):
            record = BrownianRecord.generate(batch.grid, replica_seed_sequence(6, offset + i),
                                             batch.tau.shape[1])
            np.testing.assert_array_equal(batch.w_increments[:, i], record.w_increments,
                                          strict=True)
            np.testing.assert_array_equal(batch.b_increments[:, i], record.b_increments,
                                          strict=True)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("replicas", [
        70,  # three blocks, the last one partial
        5,  # below one block
        96,  # three full blocks: an exact multiple of 3 * _NOISE_BLOCK
    ])
    def test_thread_count_changes_no_bits(self, halving_spec, monkeypatch, workers, replicas):
        assert replicas == 96 or replicas % stochastic._NOISE_BLOCK
        levels = (NoiseParams(epsilon=0.2, p=2.0), NoiseParams(epsilon=0.6, p=1.5))
        run = dict(horizon=4.0, dt=ALPHA / 400, master_seed=8, n_replicas=replicas,
                   replica_offset=2, store_increments=True)
        want = simulate_batch(halving_spec, levels, **run)
        monkeypatch.setattr(stochastic, "_WORKERS", workers)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over between bytecodes
        try:
            got = simulate_batch(halving_spec, levels, **run)
        finally:
            sys.setswitchinterval(switch)
        for field in dataclasses.fields(stochastic.BatchResult):
            assert bits(getattr(got, field.name)) == bits(getattr(want, field.name)), field.name

    def test_a_failing_share_raises_once_every_share_has_stopped(self, halving_spec,
                                                                 monkeypatch):
        """Three blocks over two shares: share 0 draws blocks 0 and 2, share 1
        block 1 on a helper thread, and the draw fails from block 1 on. The
        failure of the lowest share comes out, with no thread left running;
        an exception left uncaught in a thread would be a warning, which the
        test settings make an error."""
        monkeypatch.setattr(stochastic, "_WORKERS", 2)
        grid = simulation_grid(ALPHA, 4.0, ALPHA / 400)
        raised = {}

        def source(start, stop, w, b, aux_w, aux_b):
            if start >= stochastic._NOISE_BLOCK:
                raised[start] = RuntimeError(f"no noise for replica {start}")
                raise raised[start]
            for block in (w, b, aux_w, aux_b):
                block[:] = 0.0

        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            stochastic._advance_batch(halving_spec, (NoiseParams(epsilon=0.2, p=2.0),), grid,
                                      3 * stochastic._NOISE_BLOCK, 8, source, False)
        assert sorted(raised) == [stochastic._NOISE_BLOCK, 2 * stochastic._NOISE_BLOCK]
        assert info.value is raised[2 * stochastic._NOISE_BLOCK]
        assert threading.active_count() == threads

    def test_replica_streams_differ(self):
        a = replica_seed_sequence(0, 0).generate_state(4)
        b = replica_seed_sequence(0, 1).generate_state(4)
        assert not np.array_equal(a, b)

    def test_numpy_integers_are_seeds(self):
        a = replica_seed_sequence(np.int64(3), np.uint32(2)).generate_state(4)
        np.testing.assert_array_equal(a, replica_seed_sequence(3, 2).generate_state(4))

    @pytest.mark.parametrize("seed, index, field", [
        (-1, 0, "master_seed"), (1.5, 0, "master_seed"), (np.float64(2.0), 0, "master_seed"),
        (0, -1, "replica_index"), (0, 0.5, "replica_index"),
    ])
    def test_seed_and_index_are_nonnegative_integers(self, seed, index, field):
        with pytest.raises(ParameterError) as info:
            replica_seed_sequence(seed, index)
        assert info.value.field == field

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_batch_refuses_a_seed_that_is_not_a_count(self, halving_spec, noise, seed):
        with pytest.raises(ParameterError) as info:
            simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                           master_seed=seed, n_replicas=1)
        assert info.value.field == "master_seed"

    @pytest.mark.parametrize("seeds, field, shown", [
        ({"master_seed": -1}, "master_seed", "-1"),
        ({"replica_offset": -40}, "replica_offset", "-40"),
        ({"replica_offset": 2.5}, "replica_offset", "2.5"),
    ])
    def test_batch_checks_its_seeds_before_it_allocates(self, halving_spec, noise, monkeypatch,
                                                        seeds, field, shown):
        def allocate(*args):
            raise AssertionError("the batch allocated before it checked its seeds")

        monkeypatch.setattr(stochastic, "_advance_batch", allocate)
        run = {"master_seed": 0, "replica_offset": 0, **seeds}
        with pytest.raises(ParameterError) as info:
            simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400, n_replicas=70,
                           **run)
        assert info.value.field == field
        assert str(info.value) == f"{field} must be a nonnegative integer, got {shown}"

    @pytest.mark.parametrize("field", ["n_replicas", "n_max"])
    def test_batch_refuses_counts_that_are_not_integers(self, halving_spec, noise, field):
        counts = {"n_replicas": 1, "n_max": 8, field: 2.5}
        with pytest.raises(ParameterError) as info:
            simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400, master_seed=0,
                           **counts)
        assert info.value.field == field

    def test_batch_needs_a_replica(self, halving_spec, noise):
        with pytest.raises(ParameterError) as info:
            simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400, master_seed=0,
                           n_replicas=0)
        assert info.value.field == "n_replicas"

    def test_record_needs_a_seed_sequence(self):
        grid = simulation_grid(ALPHA, 4.0, ALPHA / 400)
        with pytest.raises(ParameterError):
            BrownianRecord.generate(grid, 5, 8)

    def test_single_path_matches_batch_replica(self, halving_spec, noise):
        single = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                                master_seed=5, n_replicas=1, replica_offset=2)
        batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                               master_seed=5, n_replicas=4)
        np.testing.assert_array_equal(single.impulse_times(0), batch.impulse_times(2))
        assert uniform_distance(single.path(0), batch.path(2)) == 0.0


NARROW = SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5), alpha=1e-3, r0=1.0)
# Wedge, horizon, step and impulse cap. On the narrow wedge a step is 1/200
# of alpha, so strong angular noise can cross twice within one step.
SYSTEMS = {"wedge": (ALPHA, 4.0, ALPHA / 400, None),
           "narrow": (1e-3, 2.5e-3, 5e-6, 400)}
BATCH_FIELDS = ("r_values", "theta_values", "tau", "pre", "post", "counts")


def batch_field(batch, name):
    return theta_values(batch) if name == "theta_values" else getattr(batch, name)


def level_block(batch, e, m):
    """Column block of level e in a batch of m replicas per level."""
    cols = slice(e * m, (e + 1) * m)
    return {"r_values": batch.r_values[:, cols], "theta_values": theta_values(batch)[:, cols],
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
                assert np.array_equal(block[name], batch_field(single, name),
                                      equal_nan=True), name

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
                np.testing.assert_array_equal(batch.theta_rows([col])[0], theta)
                np.testing.assert_array_equal(batch.impulse_times(col), taus)

    @pytest.mark.parametrize("offset, count", [(0, 2), (2, 1)])
    def test_angle_rows_equal_a_scalar_step_loop_across_chunks(self, offset, count):
        """The rebuilt angle of any columns, in any order, is the scalar
        loop's, in chunks on either side of a boundary, each of which holds
        a step with two impulses."""
        _, horizon, dt, n_max = SYSTEMS["narrow"]
        levels = (NoiseParams(epsilon=0.05, p=1.05), NoiseParams(epsilon=0.9, p=1.05))
        batch = simulate_batch(NARROW, levels, horizon, dt, 0, count, replica_offset=offset,
                               n_max=n_max)
        columns = np.arange(len(batch))[::-1]
        rows = batch.theta_rows(columns)
        assert rows.shape == (len(batch), batch.grid.times.shape[0])
        for row, col in zip(rows, columns):
            e, i = divmod(int(col), count)
            record = BrownianRecord.generate(batch.grid,
                                             replica_seed_sequence(0, offset + i), n_max)
            _, theta, _ = scalar_replica(NARROW, levels[e], batch.grid, record)
            np.testing.assert_array_equal(row, theta, strict=True)
        shared = batch.jump_step[:, 1:] == batch.jump_step[:, :-1]
        assert (shared & (np.arange(1, n_max) < batch.counts[:, None])).any()
        assert np.isnan(batch.theta_end[:, :-1][shared]).all()

    def test_a_batch_stores_no_angle_path(self, halving_spec):
        """Its arrays add up to the radius path, the (n_steps, M) increment
        records and the per-impulse rows: no (n_steps + 1, E*M) angle path."""
        levels = tuple(NoiseParams(epsilon=e, p=2.0) for e in (0.05, 0.1, 0.2, 0.3))
        batch = simulate_batch(halving_spec, levels, horizon=4.0, dt=ALPHA / 400,
                               master_seed=2, n_replicas=40, store_increments=True)
        stored = [getattr(batch, f.name) for f in dataclasses.fields(batch)]
        total = sum(a.nbytes for a in stored if isinstance(a, np.ndarray))
        n, m = batch.b_increments.shape
        records = 2 * n * m * 8
        per_impulse = 5 * batch.tau.nbytes + batch.counts.nbytes
        assert total <= batch.r_values.nbytes + records + per_impulse

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

    @pytest.mark.parametrize("levels", [(0.1, 0.2), 0.1, [NoiseParams(epsilon=0.1, p=2.0), 0.2]],
                             ids=["floats", "float", "mixed"])
    def test_levels_must_be_noise_params(self, halving_spec, monkeypatch, levels):
        def build(*args):
            raise AssertionError("the batch built its grid before it checked its levels")

        monkeypatch.setattr(stochastic, "simulation_grid", build)
        monkeypatch.setattr(stochastic, "_advance_batch", build)
        with pytest.raises(ParameterError, match="noise must be NoiseParams") as info:
            simulate_batch(halving_spec, levels, 4.0, ALPHA / 400, 0, 2)
        assert info.value.field == "noise"


class TestPathStructure:
    def test_radius_resets_only_at_impulses(self, halving_spec, noise):
        batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                               master_seed=12, n_replicas=1)
        path, c = batch.path(0), int(batch.counts[0])
        times, pres, posts = batch.tau[0, :c], batch.pre[0, :c], batch.post[0, :c]
        np.testing.assert_array_equal(path.jump_times, times)
        for tau, pre, post in zip(times, pres, posts):
            assert path.value_at(tau, side="left")[0] == pytest.approx(pre, abs=1e-12)
            assert path.value_at(tau, side="right")[0] == pytest.approx(post, abs=1e-12)
        # The path's one-sided limits are the batch rows bit for bit.
        np.testing.assert_array_equal(path.values_at(times, "left")[:, 0], pres)
        np.testing.assert_array_equal(path.values_at(times, "right")[:, 0], posts)
        np.testing.assert_allclose(posts, halving_spec.reset(pres), atol=1e-12)

    def test_theta_stays_in_wedge(self, halving_spec, noise):
        batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                               master_seed=3, n_replicas=500)
        # strictly below alpha on the stored grid; small negative transients
        # near 0 come from the additive angular noise and stay noise-sized
        theta = batch.theta_rows(np.arange(len(batch)))
        assert float(theta.max()) < ALPHA
        assert float(theta.min()) > -0.05 * ALPHA

    def test_runaway_cap(self, halving_spec, noise):
        with pytest.raises(ParameterError, match="cap of 1"):
            simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                           master_seed=0, n_replicas=4, n_max=1)

    def test_coarse_step_rejected(self, halving_spec, noise):
        with pytest.raises(ParameterError, match="alpha/200"):
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
        record = classify_good_set(np.array([1.02, 2.03]), alpha=1.0, n_expected=2, delta=0.05)
        assert record.is_good

    def test_one_deviation_too_large(self):
        times = np.array([1.02, 2.06])
        assert not classify_good_set(times, alpha=1.0, n_expected=2, delta=0.05).is_good

    def test_missing_impulse_is_bad(self):
        times = np.array([1.0])
        assert not classify_good_set(times, alpha=1.0, n_expected=2, delta=0.05).is_good

    def test_extra_impulse_is_bad(self):
        times = np.array([1.0, 2.0, 2.2])
        assert not classify_good_set(times, alpha=1.0, n_expected=2, delta=0.05).is_good

    def test_delta_must_stay_below_quarter_wedge(self):
        with pytest.raises(ParameterError):
            classify_good_set(np.array([1.0]), alpha=1.0, n_expected=1, delta=0.25)


class TestGoodSetBound:
    def test_closed_form_example(self):
        # T*(T+1) = 2 times the hitting-time tail bound at eps^p = 0.05
        bound = good_set_probability_bound(1, alpha=1.0, epsilon=math.sqrt(0.05),
                                           p=2.0, delta=0.3)
        assert bound == pytest.approx(
            2 * derived_tail_constant(1.0) * (0.05 / 0.3) * math.exp(-9.0), rel=1e-9)
        assert bound == pytest.approx(4.783e-5, rel=1e-3)

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
        with pytest.raises(ParameterError, match="epsilon in"):
            good_set_probability_bound(2, 1.0, 1.5, 2.0, 0.1)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 1.0])
    def test_p_out_of_range_is_reported_as_p(self, p):
        with pytest.raises(ParameterError, match="p > 1") as info:
            good_set_probability_bound(2, ALPHA, 0.1, p, 0.01)
        assert info.value.field == "p"

    def test_horizon_index_is_an_integer(self):
        for index in (2.5, 2.0, "2"):
            with pytest.raises(ParameterError, match="horizon_index"):
                good_set_probability_bound(index, 1.0, 0.1, 2.0, 0.1)
        assert (good_set_probability_bound(np.int64(2), 1.0, 0.1, 2.0, 0.1)
                == good_set_probability_bound(2, 1.0, 0.1, 2.0, 0.1))

    def test_empirical_bad_frequency_below_bound(self, halving_spec, noise):
        bad = 0
        total = 10000
        for offset in range(0, total, 2500):
            batch = simulate_batch(halving_spec, noise, horizon=4.0, dt=ALPHA / 400,
                                   master_seed=7, n_replicas=2500, replica_offset=offset)
            for i in range(2500):
                record = classify_good_set(batch.impulse_times(i), ALPHA, 2, 0.25)
                bad += not record.is_good
        bound = good_set_probability_bound(4, ALPHA, 0.2, 2.0, 0.25)
        freq = bad / total
        # allow three binomial standard errors on top of the bound
        slack = 3.0 * math.sqrt(bound * (1 - bound) / total)
        assert freq <= bound + slack
