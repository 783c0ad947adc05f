"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
the criteria execute.  Criterion 9's vanishing-tail threshold is marked
xfail: the limit budget function decays like 3 log(t)/t, so its value at
t = 100 sits near 5.7e-2 for delta = 1e-3 and the 1e-3 threshold cannot
be met; the assertion is kept as stated and expected to fail.
"""

import time

import numpy as np
import pytest

from hmflab.config import config_from_text
from hmflab.diagnostics import fit_decay_values
from hmflab.evolution import EvolutionParams, forward_solve
from hmflab.norms import a_infinity, functional_M, solve_a
from hmflab.profiles import (
    bgk_to_field,
    kernel_j,
    make_asymptotic_datum,
    maxwellian,
    omega_of_nu,
    solve_bgk,
)
from hmflab.runner import run as run_scenario
from hmflab.scattering import ScatteringConfig, backward_solve, continue_in_T
from hmflab.spectral import make_grid, sample_mode
from hmflab.volterra import KernelFunction, laplace, resolvent, solve_volterra, stability_margin


def report(n, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n:>2}: {status}  {detail}  [{elapsed:.1f}s]")


def test_criterion_01_laplace_oracle_and_stability():
    t0 = time.time()
    kernel = kernel_j(maxwellian(), 1).sample(25.0, 1e-3)
    lap = laplace(kernel, 0.0)
    err = abs(lap.value - (-0.5)) + lap.tail_bound
    # the scan quadrature is fourth order; a 5e-3 grid is ample for the margin
    rep = stability_margin(kernel_j(maxwellian(), 1).sample(25.0, 5e-3), 20.0, 801)
    elapsed = time.time() - t0
    ok = err < 1e-6 and rep.satisfied and elapsed < 1.0
    report(1, ok, f"L[j1](0)={lap.value.real:+.9f} margin={rep.margin:.4f}", elapsed)
    assert err < 1e-6
    assert rep.satisfied
    assert elapsed < 1.0


def test_criterion_02_resolvent_closed_form():
    t0 = time.time()
    c, a = 0.3, 1.0
    kernel = KernelFunction(
        fn=lambda t: c * np.exp(-a * np.asarray(t, dtype=float)),
        decay_rate=a,
        decay_coeff=c,
    ).sample(20.0, 1e-3)
    r = resolvent(kernel)
    err = float(np.max(np.abs(r.values - c * np.exp(-(a + c) * kernel.t))))
    elapsed = time.time() - t0
    ok = err < 1e-8 and elapsed < 5.0
    report(2, ok, f"max resolvent error {err:.2e}", elapsed)
    assert err < 1e-8
    assert elapsed < 5.0


def _backward_setup(T, epsilon, width=1.0, amplitude=0.5, shape="gaussian",
                    xi_max=None, tol=1e-6):
    xi_max = xi_max if xi_max is not None else T + 4.0
    grid = make_grid(4, xi_max, 0.05, T)
    terminal = make_asymptotic_datum(amplitude, {1: 1.0, -1: 1.0}, width, grid, shape=shape)
    cfg = ScatteringConfig(
        terminal=terminal,
        background=maxwellian(),
        epsilon=epsilon,
        T=T,
        d_t=1e-2,
        picard_tol=tol,
        snap_stride=10,
    )
    return grid, cfg


def test_criterion_03_linear_cross_validation():
    t0 = time.time()
    grid, cfg = _backward_setup(T=20.0, epsilon=0.0)
    traj, trace = backward_solve(cfg)
    kernel = kernel_j(cfg.background, -1).sample(cfg.T, cfg.d_t / 2)
    forcing = sample_mode(cfg.terminal.coeffs, grid, 1, kernel.t)
    ref = solve_volterra(forcing, kernel, "backward")
    err = float(np.max(np.abs(traj.series.zeta1 - ref[::2])))
    elapsed = time.time() - t0
    ok = trace.converged and err < 1e-6 and elapsed < 30.0
    report(3, ok, f"sup |zeta_sweep - zeta_volterra| = {err:.2e}", elapsed)
    assert trace.converged
    assert err < 1e-6
    assert elapsed < 30.0


def test_criterion_04_nonlinear_contraction_and_uniform_m():
    t0 = time.time()
    grid, cfg = _backward_setup(T=40.0, epsilon=0.01)
    result = continue_in_T(cfg, [10.0, 20.0, 40.0])
    m_values = []
    for T, trace, series in zip(result.t_values, result.traces, result.series):
        assert trace.converged, f"window T={T} did not converge"
        assert trace.iterations <= 10
        assert all(r < 0.5 for r in trace.contraction_ratios), f"ratios at T={T}"
        assert np.isfinite(trace.n_norms[-1])  # weighted state norm bounded in T
        m_values.append(functional_M(series, 0.3).value)
    spread = (max(m_values) - min(m_values)) / max(m_values)
    elapsed = time.time() - t0
    ok = spread <= 0.10 and elapsed < 180.0
    report(4, ok, f"M(0.3) per T = {[f'{m:.6f}' for m in m_values]} spread {spread:.2%}", elapsed)
    assert spread <= 0.10
    assert elapsed < 180.0


def test_criterion_05_scattering_damping_and_round_trip():
    t0 = time.time()
    # exponential-tail datum: the field history inherits a clean e^{-t/width}
    # envelope, which a log-linear fit can certify (a Gaussian datum decays
    # log-quadratically and is flagged as non-exponential by design)
    grid, cfg = _backward_setup(
        T=40.0, epsilon=0.01, width=4.0, shape="exponential", xi_max=48.0, tol=1e-6
    )
    traj, trace = backward_solve(cfg)
    assert trace.converged
    # terminal condition holds exactly by construction
    assert np.array_equal(traj.final().coeffs, cfg.terminal.coeffs)
    deviation = np.array(
        [float(np.max(np.abs(s - cfg.terminal.coeffs[grid.n_max :]))) for s in traj.snapshots]
    )
    # the imposed h(T) = datum pins the deviation to zero at T, so the last
    # ~1 time unit dives below any exponential; sampling the read-out every
    # 0.5 units (5 samples per fitted e-folding) keeps that structural layer
    # to a single partially-saturated node while the asymptotic regime,
    # which is what the damping statement concerns, dominates the fit
    fit = fit_decay_values(traj.times[::5], deviation[::5], (20.0, 40.0))
    params = EvolutionParams(
        profile=cfg.background, epsilon=cfg.epsilon, d_t=cfg.d_t, t_final=cfg.T,
        snap_stride=1000,
    )
    fwd = forward_solve(traj.initial(), params)
    round_trip = float(np.max(np.abs(fwd.final().coeffs - cfg.terminal.coeffs)))
    elapsed = time.time() - t0
    ok = fit.rate > 0 and fit.residual < 0.2 and round_trip <= 5 * cfg.picard_tol
    report(
        5, ok,
        f"rate={fit.rate:.4f} residual={fit.residual:.3f} round_trip={round_trip:.2e}",
        elapsed,
    )
    assert fit.rate > 0
    assert fit.residual < 0.2
    assert round_trip <= 5 * cfg.picard_tol


def test_criterion_06_cauchy_in_t():
    t0 = time.time()
    grid, cfg = _backward_setup(T=40.0, epsilon=0.01, width=5.0, amplitude=0.2)
    result = continue_in_T(cfg, [10.0, 20.0, 30.0, 40.0])
    diffs = np.array([max(z, h) for z, h in zip(result.zeta_diffs, result.h_diffs)])
    t_star = np.array(result.t_values[:-1])
    monotone = bool(np.all(np.diff(diffs) < 0))
    rate = -float(np.polyfit(t_star, np.log(diffs), 1)[0])
    elapsed = time.time() - t0
    ok = monotone and rate > 0
    report(
        6, ok,
        f"diffs={[f'{d:.2e}' for d in diffs]} fitted rate {rate:.3f}",
        elapsed,
    )
    assert monotone
    assert rate > 0


def test_criterion_07_forward_conservation_and_damping():
    t0 = time.time()
    grid = make_grid(4, 24.0, 0.05, 20.0)
    h0 = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)
    params = EvolutionParams(profile=maxwellian(), epsilon=0.01, d_t=1e-2, t_final=20.0)
    traj = forward_solve(h0, params)
    drift = traj.max_mean_drift()
    mags = traj.series.magnitude()
    half = len(mags) // 2
    first, second = float(np.max(mags[:half])), float(np.max(mags[half:]))
    elapsed = time.time() - t0
    ok = drift < 1e-10 and second < first and elapsed < 60.0
    report(7, ok, f"mass drift {drift:.1e}, |zeta| halves {first:.3f} -> {second:.2e}", elapsed)
    assert drift < 1e-10
    assert second < first
    assert elapsed < 60.0


def test_criterion_08_bgk_bifurcation():
    t0 = time.time()
    none_state = solve_bgk(1.5)
    state = solve_bgk(3.0)
    residual = abs(omega_of_nu(3.0, state.nu) - state.nu)
    h = 1e-4
    slope = (omega_of_nu(3.0, h) - omega_of_nu(3.0, -h)) / (2 * h)
    elapsed = time.time() - t0
    ok = none_state is None and residual < 1e-8 and abs(slope - 1.5) < 1e-3 and elapsed < 5.0
    report(8, ok, f"nu(3)={state.nu:.8f} residual={residual:.1e} slope={slope:.6f}", elapsed)
    assert none_state is None
    assert residual < 1e-8
    assert abs(slope - 1.5) < 1e-3
    assert elapsed < 5.0


def test_criterion_09_weight_ode_scaling_and_positivity():
    t0 = time.time()
    deltas = np.array([1e-4, 1e-3, 1e-2])
    a0s = np.array([solve_a(200.0, d, 0.01).a0 for d in deltas])
    slope = float(np.polyfit(np.log(deltas), np.log(a0s), 1)[0])
    w_inf = a_infinity(1e-3, 100.0, 0.01)
    positive = bool(np.all(w_inf.a > 0))
    elapsed = time.time() - t0
    ok = abs(slope - 1.0 / 3.0) <= 0.1 and positive and elapsed < 5.0
    report(9, ok, f"slope={slope:.4f} a_inf(100)={float(w_inf.a[-1]):.4e} (tail clause xfail)", elapsed)
    assert abs(slope - 1.0 / 3.0) <= 0.1
    assert positive
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="the limit budget decays like 3 log(t)/t: at delta=1e-3 its value "
    "at t=100 is ~5.7e-2, so the stated 1e-3 threshold is unattainable",
)
def test_criterion_09_tail_threshold_as_stated():
    w_inf = a_infinity(1e-3, 100.0, 0.01)
    value = float(w_inf.a[-1])
    report(9, value < 1e-3, f"a_inf(100) = {value:.4e} vs stated 1e-3", 0.0)
    assert value < 1e-3


def test_criterion_10_nonperturbative_window():
    t0 = time.time()
    grid = make_grid(4, 44.0, 0.05, 40.0)
    state = solve_bgk(3.0)
    terminal, background = bgk_to_field(state, grid)

    def solve_at(tau, d_t=1e-2, max_iters=12):
        cfg = ScatteringConfig(
            terminal=terminal,
            background=background,
            epsilon=1.0,
            T=40.0,
            tau=tau,
            d_t=d_t,
            sign=-1.0,
            picard_max_iters=max_iters,
            picard_tol=1e-8,
            snap_stride=10,
        )
        from hmflab.scattering import nonperturbative_solve

        return nonperturbative_solve(cfg)

    traj, trace, split = solve_at(20.0)
    main_ok = trace.converged and all(r < 1.0 for r in trace.contraction_ratios)

    sweep_report = {}
    for tau in (0.0, 10.0, 20.0):
        _, tr, _ = solve_at(tau, d_t=2e-2, max_iters=5)
        sweep_report[tau] = {
            "converged": tr.converged,
            "max_ratio": max(tr.contraction_ratios) if tr.contraction_ratios else None,
            "failure": tr.failure,
        }
    converging = [tau for tau, r in sweep_report.items() if r["converged"]]
    smallest = min(converging) if converging else None
    elapsed = time.time() - t0
    ok = main_ok and elapsed < 600.0
    report(
        10, ok,
        f"tau=20 iters={trace.iterations}, smallest converging tau={smallest}, "
        f"tau=0 -> {sweep_report[0.0]}",
        elapsed,
    )
    assert main_ok
    assert split is not None
    assert elapsed < 600.0


def test_criterion_11a_rk4_order():
    t0 = time.time()
    grid = make_grid(2, 12.0, 0.02, 8.0)
    h0 = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)

    def final_state(d_t):
        params = EvolutionParams(
            profile=maxwellian(), epsilon=0.2, d_t=d_t, t_final=4.0, snap_stride=10**6
        )
        return forward_solve(h0, params).final().coeffs

    ref = final_state(0.005)
    ratio = float(
        np.max(np.abs(final_state(0.08) - ref)) / np.max(np.abs(final_state(0.04) - ref))
    )
    elapsed = time.time() - t0
    ok = 10.0 < ratio < 24.0
    report(11, ok, f"RK4 error reduction on halving d_t: {ratio:.1f}x", elapsed)
    assert 10.0 < ratio < 24.0


def test_criterion_11b_interpolation_order():
    t0 = time.time()
    errs = []
    for d_xi in (0.1, 0.05):
        grid = make_grid(2, 24.0, d_xi, 20.0)
        fld = make_asymptotic_datum(1.0, {1: 1.0, -1: 1.0}, 1.0, grid)
        shift = 1.7 + 0.4 * d_xi
        got = sample_mode(fld.coeffs, grid, 1, grid.xi + shift)
        exact = np.exp(-((grid.xi + shift) ** 2) / 2)
        exact[np.abs(grid.xi + shift) > grid.xi_max] = 0.0
        errs.append(float(np.max(np.abs(got - exact))))
    ratio = errs[0] / errs[1]
    elapsed = time.time() - t0
    ok = ratio >= 8.0
    report(11, ok, f"interpolation error reduction on halving d_xi: {ratio:.1f}x", elapsed)
    assert ratio >= 8.0


def test_criterion_11c_determinism(tmp_path):
    t0 = time.time()
    text = """
run.scenario = backward
run.id = det
grid.n_max = 3
grid.xi_max = 12
grid.d_xi = 0.1
grid.t_final = 8
datum.amplitude = 0.4
evolve.epsilon = 0.01
evolve.d_t = 0.02
evolve.T = 8
"""
    cfg = config_from_text(text)
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    identical = all(
        (tmp_path / "a" / "det" / name).read_bytes()
        == (tmp_path / "b" / "det" / name).read_bytes()
        for name in ("zeta.csv", "picard.csv", "norms.json", "snapshots.bin", "snapshots.json")
    )
    elapsed = time.time() - t0
    report(11, identical, "re-run outputs bit-identical", elapsed)
    assert identical
