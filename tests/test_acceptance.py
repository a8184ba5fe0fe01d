"""End-to-end acceptance checks; one summary line per criterion is printed
after the run. Heavy Monte Carlo fixtures are shared across criteria."""

import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from impulselab import (
    CadlagPath,
    ExperimentConfig,
    FptParams,
    NoiseParams,
    SystemSpec,
    TimeDistortion,
    aligning_cost_bound,
    aligning_slope_deviation_bound,
    build_aligning_distortion,
    clt_experiment,
    constant_drift,
    deterministic_trajectory,
    distortion_cost,
    fpt_cdf,
    fpt_density,
    fpt_laplace,
    fpt_tail_bound,
    ks_test,
    linear_reset,
    renewal_mgf_bound,
    simulate_batch,
    skorohod_oracle,
    skorohod_upper,
    uniform_distance,
)
from conftest import record_criterion

ALPHA = float(np.pi / 2)


@pytest.fixture(scope="session")
def acceptance_spec() -> SystemSpec:
    return SystemSpec.from_models(constant_drift(0.2), linear_reset(0.5),
                                  alpha=ALPHA, r0=1.0)


@pytest.fixture(scope="session")
def clt_p2_report(acceptance_spec):
    config = ExperimentConfig(eps_grid=(0.02, 0.05, 0.1, 0.2), replicas=2000,
                              beta=1, nu=1.5, p=2.0, dt=1e-3, horizon=4.0,
                              master_seed=0)
    return clt_experiment(config, acceptance_spec)


@pytest.fixture(scope="session")
def clt_p3_report(acceptance_spec):
    config = ExperimentConfig(eps_grid=(0.02, 0.05, 0.1, 0.2), replicas=2000,
                              beta=1, nu=2.5, p=3.0, dt=1e-3, horizon=4.0,
                              master_seed=0)
    return clt_experiment(config, acceptance_spec)


def test_criterion_01_lln_rate(clt_p2_report):
    """Fitted log-log slope of the baseline mean distance lies in [0.85, 1.30]."""
    slope = clt_p2_report.baseline_fit.slope
    passed = 0.85 <= slope <= 1.30
    record_criterion(1, passed, f"baseline slope {slope:.3f} in [0.85, 1.30] "
                                f"(M=2000, seed 0)")
    assert passed


def test_criterion_02_clt_refinement(clt_p2_report, clt_p3_report):
    """Refined-distance slopes: margin over baseline >= 0.3; p=2 slope within
    0.25 of 1.5; p=3 slope within 0.3 of 2."""
    lln_slope = clt_p2_report.baseline_fit.slope
    p2_slope = clt_p2_report.fit.slope
    p3_slope = clt_p3_report.fit.slope
    margin_ok = (p2_slope - lln_slope) >= 0.3
    p2_ok = abs(p2_slope - 1.5) <= 0.25
    p3_ok = abs(p3_slope - 2.0) <= 0.3
    passed = margin_ok and p2_ok and p3_ok
    record_criterion(
        2, passed,
        f"p=2 slope {p2_slope:.3f} (target 1.5+-0.25: {'ok' if p2_ok else 'MISS'}), "
        f"margin over baseline +{p2_slope - lln_slope:.2f} "
        f"(>=0.3: {'ok' if margin_ok else 'MISS'}), "
        f"p=3 slope {p3_slope:.3f} (target 2+-0.3: {'ok' if p3_ok else 'MISS'}); "
        "realized distances follow the actual deviation scale, not the "
        "good-set threshold scale; see the repository notes")
    if not passed:
        pytest.fail(
            f"refined slopes p2={p2_slope:.3f}, p3={p3_slope:.3f} fall outside "
            "the target windows centered on the good-set exponents; the "
            "measured distances are genuine and the windows are not met",
            pytrace=False)


def test_criterion_03_first_passage_law(acceptance_spec):
    """5000 simulated first hitting times pass a KS test against the closed
    form distribution at level 0.01."""
    noise = NoiseParams(epsilon=0.2, p=2.0)
    samples = []
    for offset in range(0, 5000, 2500):
        batch = simulate_batch(acceptance_spec, noise, horizon=1.5 * ALPHA,
                               dt=ALPHA / 2000, master_seed=101,
                               n_replicas=2500, replica_offset=offset)
        samples.append(batch.tau[:, 0])
    tau1 = np.concatenate(samples)
    params = FptParams(alpha=ALPHA, eps_p=0.2 ** 2)
    stat, passed = ks_test(tau1, lambda c: fpt_cdf(params, c), level=0.01)
    critical = math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(5000)
    record_criterion(3, passed, f"KS statistic {stat:.4f} < {critical:.4f} "
                                f"(n=5000, seed 101)")
    assert passed


def test_criterion_04_cdf_matches_quadrature():
    """Closed-form CDF matches adaptive quadrature of the density at 1e-8
    across 50 log-spaced arguments for three parameter settings."""
    worst = 0.0
    for alpha, eps_p in ((math.pi / 2, 0.01), (1.0, 0.2), (2.2, 0.05)):
        params = FptParams(alpha=alpha, eps_p=eps_p)
        f = lambda t: fpt_density(params, np.atleast_1d(t))[0]
        for c in np.geomspace(alpha / 4, 4 * alpha, 50):
            pts = [alpha] if alpha < c else None
            numeric, _ = quad(f, 0.0, c, points=pts, limit=200)
            worst = max(worst, abs(fpt_cdf(params, c) - numeric))
    passed = worst <= 1e-8
    record_criterion(4, passed, f"max |cdf - quadrature| = {worst:.2e} <= 1e-8 "
                                "over 150 evaluations")
    assert passed


def test_criterion_05_tail_bound_domination():
    """Explicit-constant tail bound dominates the exact two-sided probability
    on a 20x20 parameter grid per level; zero violations."""
    violations = 0
    checked = 0
    for alpha in (1.0, math.pi / 2):
        deltas = np.linspace(0.02, 0.98 * min(1.0, alpha / 2.0), 20)
        scales = np.geomspace(0.01, 0.3, 20)
        for delta in deltas:
            for eps_p in scales:
                params = FptParams(alpha=alpha, eps_p=float(eps_p))
                exact = (fpt_cdf(params, alpha - delta)
                         + 1.0 - fpt_cdf(params, alpha + delta))
                checked += 1
                if fpt_tail_bound(params, float(delta)) < exact:
                    violations += 1
    passed = violations == 0
    record_criterion(5, passed, f"{violations} violations in {checked} "
                                "(delta, scale) cells across two levels")
    assert passed


def test_criterion_06_distortion_bounds():
    """Cost and slope bounds hold on 1000 random good-set configurations.

    The per-slope bound is checked in its corrected form max(2d/a, d/(T-Na)):
    the min of the two terms is disprovable by explicit configurations (the
    unit suite records one), while the max form holds with zero violations.
    """
    rng = np.random.default_rng(5)
    cost_viol = 0
    slope_viol = 0
    min_form_viol = 0
    accepted = 0
    while accepted < 1000:
        alpha = rng.uniform(0.5, 2.5)
        n = int(rng.integers(1, 6))
        u = rng.uniform(0.4, 0.95)
        horizon = (n + u) * alpha
        if horizon < 1.05 or u < 1.05 / (2.0 * horizon):
            continue
        delta = rng.uniform(0.2, 1.0) * min(alpha / (4.0 * horizon), u * alpha / 2.0)
        det_times = alpha * np.arange(1, n + 1)
        for _ in range(200):
            taus = det_times + rng.uniform(-delta, delta, size=n)
            if np.all(np.diff(taus) > 0) and taus[0] > 0 and taus[-1] < horizon:
                break
        else:
            continue
        lam = build_aligning_distortion(det_times, taus, horizon, good=True)
        gamma = distortion_cost(lam)
        dev = float(np.max(np.abs(lam.slopes() - 1.0)))
        if gamma > aligning_cost_bound(delta, alpha, horizon):
            cost_viol += 1
        if dev > aligning_slope_deviation_bound(delta, alpha, horizon):
            slope_viol += 1
        if dev > min(2.0 * delta / alpha, delta / (horizon - n * alpha)):
            min_form_viol += 1
        accepted += 1
    passed = cost_viol == 0 and slope_viol == 0
    record_criterion(6, passed,
                     f"cost bound {cost_viol}/1000 violations, slope bound "
                     f"(corrected max form) {slope_viol}/1000; the stated min "
                     f"form would fail on {min_form_viol}/1000")
    assert passed


def test_criterion_07_analytic_step_instance():
    """Aligned step paths: upper bound equals ln 1.25 within 1e-6 and the
    brute-force search lands within 1e-3 of it."""
    def step(jump):
        return CadlagPath(
            1.0,
            [(np.array([0.0, jump]), np.array([0.0, 0.0])),
             (np.array([jump, 1.0]), np.array([1.0, 1.0]))],
            jump_times=[jump])

    x1, x2 = step(0.4), step(0.5)
    lam = TimeDistortion(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.5, 1.0]))
    aligned = skorohod_upper(x1, x2, lam)
    oracle = skorohod_oracle(x1, x2)
    target = math.log(1.25)
    passed = abs(aligned - target) <= 1e-6 and abs(oracle - target) <= 1e-3
    record_criterion(7, passed,
                     f"aligned bound {aligned:.7f} vs ln 1.25 = {target:.7f}; "
                     f"search value {oracle:.6f} within 1e-3")
    assert passed


def test_criterion_08_zero_noise_degeneracy(acceptance_spec):
    """Nearly noiseless simulation reproduces the deterministic trajectory."""
    noise = NoiseParams(epsilon=1e-8, p=2.0)
    batch = simulate_batch(acceptance_spec, noise, horizon=4.0, dt=1e-4,
                           master_seed=0, n_replicas=1)
    path, schedule = batch.path(0), batch.schedule(0)
    det_path, det_schedule = deterministic_trajectory(acceptance_spec,
                                                      horizon=4.0, dt=1e-4)
    sup = uniform_distance(path, det_path)
    tau_dev = float(np.max(np.abs(schedule.times - det_schedule.times)))
    passed = sup <= 1e-6 and tau_dev <= 1e-4
    record_criterion(8, passed, f"sup distance {sup:.2e} <= 1e-6, "
                                f"max impulse-time deviation {tau_dev:.2e} <= dt")
    assert passed


def test_criterion_09_laplace_and_renewal_bound(acceptance_spec):
    """Transform identity against quadrature at 1e-7; the renewal bound
    dominates the Monte Carlo exponential moment of the impulse count."""
    params = FptParams(alpha=1.0, eps_p=0.2)
    f = lambda t: fpt_density(params, np.atleast_1d(t))[0]
    worst = 0.0
    for lam in np.geomspace(0.05, 20.0, 20):
        head, _ = quad(lambda t: math.exp(-lam * t) * f(t), 0.0, 2.0,
                       points=[1.0], limit=200)
        tail, _ = quad(lambda t: math.exp(-lam * t) * f(t), 2.0, np.inf, limit=200)
        worst = max(worst, abs(fpt_laplace(params, lam) - (head + tail)))
    quad_ok = worst <= 1e-7

    noise = NoiseParams(epsilon=0.2, p=2.0)
    moments = []
    for offset in range(0, 5000, 2500):
        batch = simulate_batch(acceptance_spec, noise, horizon=4.0,
                               dt=ALPHA / 400, master_seed=17,
                               n_replicas=2500, replica_offset=offset)
        moments.append(np.exp(0.5 * batch.counts))
    estimate = float(np.mean(np.concatenate(moments)))
    bound = renewal_mgf_bound(0.5, ALPHA, 0.2, 2.0, 4.0)
    mc_ok = estimate <= bound
    passed = quad_ok and mc_ok
    record_criterion(9, passed,
                     f"max transform error {worst:.2e} <= 1e-7; Monte Carlo "
                     f"moment {estimate:.4f} <= bound {bound:.2f} (seed 17)")
    assert passed


def _cli_command():
    exe = shutil.which("impulselab")
    if exe is not None:
        return [exe]
    return [sys.executable, "-m", "impulselab"]


def test_criterion_10_cli_reproducibility(tmp_path):
    """Repeated seeded command line invocations produce identical bytes."""
    base = _cli_command()
    all_equal = True

    sim_outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(base + ["simulate", "--epsilon", "0.2", "--seed", "11",
                                      "--dt", "0.005", "--out", str(out)],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        sidecar = tmp_path / f"{name}.impulses.csv"
        sim_outputs.append(out.read_bytes() + sidecar.read_bytes())
    all_equal &= sim_outputs[0] == sim_outputs[1]

    fpt_outputs = []
    for name in ("f1", "f2"):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(base + ["fpt", "--alpha", "1.0", "--eps-p", "0.2",
                                      "--grid", "0.2:3.0:40", "--out", str(out)],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        fpt_outputs.append(out.read_bytes())
    all_equal &= fpt_outputs[0] == fpt_outputs[1]

    cfg = tmp_path / "exp.ini"
    cfg.write_text("[numerics]\ndt = 2e-3\nseed = 4\n"
                   "[experiment]\neps_grid = 0.1, 0.15, 0.2\nreplicas = 6\n")
    exp_outputs = []
    for name in ("e1", "e2"):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(base + ["experiment", "--config", str(cfg),
                                      "--out", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        summary = tmp_path / f"{name}.summary.json"
        exp_outputs.append(out.read_bytes() + summary.read_bytes())
    all_equal &= exp_outputs[0] == exp_outputs[1]

    record_criterion(10, bool(all_equal),
                     "simulate, fpt, and experiment invocations repeated "
                     "byte-identically (seeds 11/4)")
    assert all_equal
