import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from hmflab import evolution, scattering, volterra
from hmflab.evolution import EvolutionParams, FieldSeries, Trajectory, forward_solve
from hmflab.norms import functional_M, functional_N
from hmflab.outputs import read_snapshots, write_snapshots
from hmflab.profiles import (
    bgk_to_field,
    kernel_j,
    make_asymptotic_datum,
    maxwellian,
    solve_bgk,
)
from hmflab.scattering import (
    ScatteringConfig,
    backward_solve,
    _Workspace,
    continue_in_T,
    nonperturbative_solve,
)
from hmflab.spectral import FourierField, make_grid, sample_mode, trapezoid
from hmflab.volterra import solve_volterra


GRID = make_grid(4, 24.0, 0.05, 20.0)
PROFILE = maxwellian()
ZERO = FourierField(GRID, np.zeros((GRID.n_modes, GRID.n_xi), dtype=complex))


def datum(amplitude=0.5, width=1.0, grid=GRID, shape="gaussian"):
    return make_asymptotic_datum(amplitude, {1: 1.0, -1: 1.0}, width, grid, shape=shape)


def config(**kw):
    base = dict(
        terminal=datum(),
        background=PROFILE,
        epsilon=0.01,
        T=10.0,
        d_t=0.01,
        picard_tol=1e-8,
        snap_stride=10,
    )
    base.update(kw)
    return ScatteringConfig(**base)


def reference_coupling(ws, snaps, zeta_fine):
    """The coupling term Phi on the half-step nodes, as a trapezoid over the
    snapshots with a partial leading interval, evaluated for a given field
    (on the state steps): the explicit form the one-pass solve folds into
    its march."""
    cfg, grid, t = ws.cfg, ws.grid, ws.t_z
    m_count = len(ws.snap_times)
    integrand = np.empty((m_count, len(t)), dtype=np.complex128)
    for m, (si, s) in enumerate(zip(ws.snap_idx, ws.snap_times)):
        z1 = zeta_fine[si]
        row_p = sample_mode(snaps[m], grid, 0, t - s)
        row_m = sample_mode(snaps[m], grid, 2, t + s)
        integrand[m] = (z1 * row_p - np.conj(z1) * row_m) * (s - t)
    cum = np.zeros_like(integrand)
    for m in range(m_count - 2, -1, -1):
        ds = ws.snap_times[m + 1] - ws.snap_times[m]
        cum[m] = cum[m + 1] + 0.5 * ds * (integrand[m] + integrand[m + 1])
    first = np.minimum(np.searchsorted(ws.snap_times, t - 1e-12), m_count - 1)
    cols = np.arange(len(t))
    partial = 0.5 * (ws.snap_times[first] - t) * integrand[first, cols]
    return -(cfg.epsilon / 2.0) * (partial + cum[first, cols])


def field_equation_solution(ws, snaps, zeta_fine):
    """Plain Volterra march with the coupling evaluated on ``zeta_fine``."""
    forcing = ws.datum_readout + ws.cfg.sign * reference_coupling(ws, snaps, zeta_fine)
    return solve_volterra(forcing, ws.kernel, "backward")


def fixed_point_residual(cfg, traj):
    """Sup change of the stored field when its equation, with the coupling
    evaluated on that field and the converged snapshots, is marched again."""
    new = field_equation_solution(_Workspace(cfg), traj.snapshots, traj.series.zeta1)
    return float(np.max(np.abs(new[::2] - traj.series.zeta1)))


class TestBackwardSolve:
    def test_zero_datum(self):
        cfg = config(terminal=ZERO)
        traj, trace = backward_solve(cfg)
        assert trace.converged
        assert trace.iterations == 1
        assert np.max(np.abs(traj.snapshots)) == 0.0

    def test_linear_case_two_sweeps_and_volterra_match(self):
        cfg = config(epsilon=0.0)
        traj, trace = backward_solve(cfg)
        assert trace.converged
        assert trace.iterations <= 2
        # independent route: second-kind equation marched on the same grid
        kern = kernel_j(PROFILE, -1).sample(cfg.T, cfg.d_t / 2)
        g = sample_mode(cfg.terminal.coeffs, GRID, 1, kern.t)
        ref = solve_volterra(g, kern, "backward")
        assert np.max(np.abs(traj.series.zeta1 - ref[::2])) < 1e-6

    def test_weak_coupling_contracts(self):
        cfg = config()
        traj, trace = backward_solve(cfg)
        assert trace.converged
        assert trace.iterations <= 10
        assert all(r < 0.5 for r in trace.contraction_ratios)

    def test_terminal_condition_exact(self):
        cfg = config()
        traj, _ = backward_solve(cfg)
        assert np.array_equal(traj.final().coeffs, cfg.terminal.coeffs)

    def test_fixed_point_property(self):
        cfg = config()
        traj, trace = backward_solve(cfg)
        assert fixed_point_residual(cfg, traj) < cfg.picard_tol

    def test_round_trip_forward(self):
        cfg = config(picard_tol=1e-8)
        traj, _ = backward_solve(cfg)
        params = EvolutionParams(
            profile=PROFILE, epsilon=cfg.epsilon, d_t=cfg.d_t, t_final=cfg.T,
            snap_stride=1000,
        )
        fwd = forward_solve(traj.initial(), params)
        err = np.max(np.abs(fwd.final().coeffs - cfg.terminal.coeffs))
        assert err < 5 * 1e-6  # readout/march consistency floor, not the sweep tol

    def test_strong_coupling_reported_not_raised(self):
        cfg = config(
            terminal=datum(amplitude=40.0),
            epsilon=1.0,
            T=10.0,
            picard_max_iters=4,
        )
        traj, trace = backward_solve(cfg)
        assert trace.diverged
        assert not trace.converged
        assert trace.failure is not None

    @pytest.mark.parametrize("mode", [1, 3])
    def test_nan_datum_diverges_in_first_sweep(self, mode):
        # mode 1 feeds the field readout (caught by the field solve), mode 3
        # reaches the field only through transport, which checks the cap after
        # every step: the failure names the first step's time T - d_t
        grid = make_grid(3, 12.0, 0.1, 8.0)
        coeffs = datum(grid=grid).coeffs.copy()
        j = grid.n_half + 20
        coeffs[grid.mode_index(mode), j] = np.nan
        coeffs[grid.mode_index(-mode), grid.n_xi - 1 - j] = np.nan
        cfg = config(terminal=FourierField(grid, coeffs), T=4.0, d_t=0.02)
        _, trace = backward_solve(cfg)
        assert trace.diverged
        assert not trace.converged
        assert trace.failure
        assert trace.iterations == 1
        expected = {1: "field solve overflowed", 3: "exceeded the overflow cap at t=3.980"}
        assert expected[mode] in trace.failure

    def test_late_blow_up_keeps_last_completed_sweep(self, tmp_path):
        # sweep 3's transport overflows; the run returns sweep 2's snapshots,
        # byte for byte those of the same window stopped after two sweeps
        grid = make_grid(3, 12.0, 0.1, 8.0)
        cfg = config(terminal=datum(amplitude=16.0, width=2.0, grid=grid), epsilon=1.0,
                     T=2.0, d_t=0.02, picard_max_iters=8)
        blown, trace = backward_solve(cfg)
        assert trace.diverged and trace.iterations == 3
        assert "exceeded the overflow cap" in trace.failure
        stopped, short = backward_solve(replace(cfg, picard_max_iters=2))
        assert short.failure == "no convergence in 2 iterations"
        assert blown.snapshots.tobytes() == stopped.snapshots.tobytes()
        for name, traj in (("blown", blown), ("stopped", stopped)):
            write_snapshots(tmp_path / f"{name}.bin", tmp_path / f"{name}.json", traj)
        assert (tmp_path / "blown.bin").read_bytes() == (tmp_path / "stopped.bin").read_bytes()

    def test_deviation_decreasing_over_last_quarter(self):
        cfg = config(
            terminal=datum(amplitude=0.5, width=2.0, shape="exponential"), T=16.0
        )
        traj, trace = backward_solve(cfg)
        assert trace.converged
        dev = np.array(
            [float(np.max(np.abs(s - cfg.terminal.coeffs[GRID.n_max :]))) for s in traj.snapshots]
        )
        tail = dev[traj.times >= 12.0]
        assert np.all(np.diff(tail) <= 0)

    def test_reality_of_solution(self):
        cfg = config()
        traj, _ = backward_solve(cfg)
        for m in range(len(traj.times)):
            s = traj.full_state(m)
            assert np.max(np.abs(s - np.conj(s[::-1, ::-1]))) < 1e-12

    def test_snapshots_are_one_block(self, tmp_path):
        # 205 steps at stride 10: steps 0, 10, ..., 200 and the off-cadence end;
        # the diverged run returns its never-transported initial history
        grid = make_grid(3, 12.0, 0.1, 8.0)
        nan_datum = datum(grid=grid).coeffs.copy()
        nan_datum[grid.mode_index(1), grid.n_half + 20] = np.nan
        for terminal, converged in ((datum(grid=grid), True), (FourierField(grid, nan_datum), False)):
            traj, trace = backward_solve(config(terminal=terminal, T=2.05))
            assert trace.converged is converged
            snaps = traj.snapshots
            assert snaps.shape == (22, grid.n_max + 1, grid.n_xi)  # rows n = 0 .. n_max
            assert snaps.dtype == np.complex128 and snaps.flags.c_contiguous
            assert np.array_equal(snaps[-1], terminal.coeffs[grid.n_max :], equal_nan=True)
            write_snapshots(tmp_path / "s.bin", tmp_path / "s.json", traj)
            start = read_snapshots(tmp_path / "s.bin", grid)[-1]
            # a real datum is its own mirror expansion; the NaN one is not real
            assert start.tobytes() == traj.final().coeffs.tobytes()
            assert (start.tobytes() == terminal.coeffs.tobytes()) is converged

    def test_trace_norms_read_the_block_in_place(self):
        # N reads 11 of 41 snapshots (every 4th and the last); reading them where
        # they lie keeps one call's allocations under 4 snapshots' bytes
        ws = _Workspace(config(T=4.0))  # 400 steps at stride 10 on 9 x 961
        rng = np.random.default_rng(0)
        shape = (len(ws.snap_times), GRID.n_max + 1, GRID.n_xi)
        snaps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zeta = rng.standard_normal(len(ws.t_z)) + 1j * rng.standard_normal(len(ws.t_z))
        sub = evolution._snapshot_steps(len(ws.snap_times) - 1, 4)
        traj = Trajectory(grid=GRID, times=ws.snap_times[sub], snapshots=snaps[sub],
                          series=FieldSeries(t=ws.t_fine, zeta1=zeta[::2]))
        expected = (functional_M(traj.series, 0.3).value,
                    functional_N(traj, 0.3, ws.weight, mu_points=32).value)
        tracemalloc.start()
        try:
            got = scattering._trace_norms(ws, zeta, snaps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(snaps) == 41 and len(sub) == 11
        assert got == expected and got[1] > 0.0
        assert peak < 4 * snaps[0].nbytes

    def test_mean_mode_conserved(self):
        cfg = config()
        traj, _ = backward_solve(cfg)
        assert traj.max_mean_drift() < 1e-12


class TestFieldSolve:
    @staticmethod
    def _window(name):
        grid = make_grid(4, 12.0, 0.1, 8.0)
        if name == "weak":
            return config(terminal=datum(grid=grid), T=8.0, d_t=0.05)
        terminal, background = bgk_to_field(solve_bgk(3.0), grid)
        return config(terminal=terminal, background=background, epsilon=1.0, sign=-1.0,
                      T=8.0, d_t=0.05)

    @pytest.mark.parametrize("name", ["weak", "strong_tau0"])
    def test_one_pass_solves_field_equation(self, name):
        # the one march must be the exact discrete solution: re-evaluating the
        # explicit trapezoid coupling on its field and marching reproduces it
        cfg = self._window(name)
        ws = _Workspace(cfg)
        half = cfg.terminal.coeffs[ws.grid.n_max :]
        first = np.broadcast_to(half, (len(ws.snap_idx),) + half.shape)
        snaps = ws.transport(ws.solve_field(first))  # the history after one sweep
        zeta = ws.solve_field(snaps)
        uncoupled = solve_volterra(ws.datum_readout, ws.kernel, "backward")
        assert np.max(np.abs(zeta - uncoupled)) > 1e-6  # the coupling is felt
        assert np.max(np.abs(field_equation_solution(ws, snaps, zeta[::2]) - zeta)) <= 1e-12

    def test_one_march_per_sweep(self):
        _, trace = backward_solve(self._window("weak"))
        assert trace.iterations > 1
        assert trace.inner_iterations == [1] * trace.iterations
        assert "inner_converged" not in asdict(trace)

    def test_transport_call_counts(self, monkeypatch):
        # every RK4 stage of every sweep is one rhs_coeffs call, and each
        # makes two shift_rows reads; each sweep's field solve is one backward
        # solve_volterra call that runs as one forward call: the counts a
        # traced run checks, with every module's binding of a name counted
        calls = {"rhs_coeffs": 0, "shift_rows": 0, "solve_volterra": 0}

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for module, name in ((evolution, "rhs_coeffs"), (evolution, "shift_rows"),
                             (scattering, "solve_volterra"), (volterra, "solve_volterra")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        cfg = self._window("weak")
        _, trace = backward_solve(cfg)
        steps = round((cfg.T - cfg.tau) / cfg.d_t)
        assert cfg.epsilon != 0.0 and trace.iterations > 1
        assert calls["rhs_coeffs"] == 4 * steps * trace.iterations
        assert calls["shift_rows"] == 2 * calls["rhs_coeffs"]
        assert calls["solve_volterra"] == 2 * trace.iterations


class TestContinuation:
    def test_repeated_horizon_zero_diff(self):
        cfg = config(T=6.0, epsilon=0.0)
        res = continue_in_T(cfg, [6.0, 6.0])
        assert res.zeta_diffs[0] == 0.0
        assert res.h_diffs[0] == 0.0

    def test_linear_diffs_track_datum_tail(self):
        # exponential-tail datum: successive-window differences shrink at
        # roughly the datum readout rate
        cfg = config(
            terminal=datum(amplitude=0.5, width=2.0, shape="exponential"),
            epsilon=0.0,
            T=18.0,
        )
        res = continue_in_T(cfg, [6.0, 10.0, 14.0, 18.0])
        d = np.array(res.zeta_diffs)
        assert np.all(np.diff(np.log(d)) < 0)
        rate = -np.polyfit([6.0, 10.0, 14.0], np.log(d), 1)[0]
        assert 0.3 < rate < 0.7  # datum tail rate is 1/width = 0.5

    def test_weakly_nonlinear_monotone(self):
        cfg = config(terminal=datum(width=2.5), T=18.0)
        res = continue_in_T(cfg, [6.0, 12.0, 18.0])
        assert all(t.converged for t in res.traces)
        assert res.zeta_diffs[1] < res.zeta_diffs[0]
        assert res.h_diffs[1] < res.h_diffs[0]

    def test_off_cadence_endpoint_has_no_partner(self):
        # h_diff compares the snapshots both windows store at the same time:
        # 1.55 ends off the stride-10 cadence, so its endpoint is left out
        grid = make_grid(3, 12.0, 0.1, 8.0)
        cfg = config(terminal=datum(grid=grid), T=3.0)
        res = continue_in_T(cfg, [1.55, 3.0])
        short, _ = backward_solve(replace(cfg, T=1.55))
        long = res.last_trajectory
        by_time = {round(float(t), 9): s for t, s in zip(long.times, long.snapshots)}
        shared = [(s, by_time[round(float(t), 9)]) for t, s in zip(short.times, short.snapshots)
                  if round(float(t), 9) in by_time]
        assert len(shared) == len(short.times) - 1
        assert res.h_diffs == [max(float(np.max(np.abs(a - b))) for a, b in shared)]

    def test_horizon_beyond_grid_rejected(self):
        cfg = config()
        with pytest.raises(ValueError):
            continue_in_T(cfg, [10.0, 30.0])


class TestNonperturbative:
    def test_zero_datum(self):
        cfg = config(terminal=ZERO, epsilon=1.0, tau=2.0)
        traj, trace, split = nonperturbative_solve(cfg)
        assert trace.converged
        assert np.max(np.abs(traj.snapshots)) == 0.0

    def test_requires_unit_epsilon(self):
        cfg = config(epsilon=0.5)
        with pytest.raises(ValueError):
            nonperturbative_solve(cfg)

    def test_bgk_late_window_converges(self):
        grid = make_grid(4, 24.0, 0.05, 20.0)
        state = solve_bgk(3.0)
        terminal, background = bgk_to_field(state, grid)
        cfg = ScatteringConfig(
            terminal=terminal,
            background=background,
            epsilon=1.0,
            T=20.0,
            tau=10.0,
            d_t=0.01,
            sign=-1.0,
            picard_tol=1e-8,
        )
        traj, trace, split = nonperturbative_solve(cfg)
        assert trace.converged
        assert all(r < 1.0 for r in trace.contraction_ratios)
        assert split is not None
        sups = split.sup_values()
        assert np.isfinite(sups["sup_b_plus"])
        # the mode-0 reconstruction identity holds on the converged run
        assert sups["reconstruction_defect"] <= 0.05 * max(sups["sup_b_plus"], 1e-30) + 1e-12

    def test_bgk_window_from_tau_5_contracts(self):
        # on the grid of configs/nonperturbative.cfg the shipped window [20, 40]
        # converges in sweep 1 with a field of 1e-29; from tau = 5 the field
        # reaches about 1.3e-2 and the sweeps contract (measured: 3 sweeps,
        # ratios 7.4e-6 and 1.2e-7, reconstruction defect 4.5% of sup B_+)
        grid = make_grid(4, 44.0, 0.05, 40.0)
        terminal, background = bgk_to_field(solve_bgk(3.0), grid)
        cfg = ScatteringConfig(
            terminal=terminal,
            background=background,
            epsilon=1.0,
            T=40.0,
            tau=5.0,
            d_t=0.02,
            sign=-1.0,
            picard_tol=1e-8,
        )
        traj, trace, split = nonperturbative_solve(cfg)
        assert trace.converged
        assert trace.iterations >= 2
        assert len(trace.contraction_ratios) == trace.iterations - 1
        assert all(r < 1.0 for r in trace.contraction_ratios)
        assert np.max(np.abs(traj.series.zeta1)) > 1e-3
        assert split is not None
        sups = split.sup_values()
        assert sups["sup_b_plus"] > 1e-12
        assert sups["reconstruction_defect"] <= 0.1 * sups["sup_b_plus"]

    @pytest.mark.parametrize("T", [8.0, 7.95])
    def test_echo_split_is_the_direct_quadrature(self, T):
        """B_+ and B_- against a trapezoid of single-point reads at t_i -+ s_m.

        At T = 7.95 the last snapshot is off the cadence, so the split reads its
        h_0 row at the nearest u column; that row is the datum's, which is zero.
        """
        grid = make_grid(4, 12.0, 0.05, 8.0)  # 9 x 481
        terminal, background = bgk_to_field(solve_bgk(3.0), grid)
        cfg = ScatteringConfig(terminal=terminal, background=background, epsilon=1.0, T=T,
                               d_t=0.05, sign=-1.0, picard_tol=1e-10, picard_max_iters=40)
        traj, trace, split = nonperturbative_solve(cfg)
        assert trace.converged
        ts = traj.times
        zeta = np.array([traj.series.zeta1[traj.series.t == s][0] for s in ts])

        def reads(n, i, sign):  # h_n(s_m, t_i + sign s_m) for m >= i, one point per read
            return np.array([sample_mode(traj.snapshots[m], grid, n, [ts[i] + sign * ts[m]])[0]
                             for m in range(i, len(ts))])

        b_plus, b_minus = np.zeros((2, len(ts)), dtype=complex)
        for i, t_i in enumerate(ts[:-1]):
            s, lag = ts[i:], t_i - ts[i:]
            b_plus[i] = trapezoid(zeta[i:] * reads(0, i, -1) * lag, s)
            b_minus[i] = trapezoid(-np.conj(zeta[i:]) * reads(2, i, 1) * lag, s)
        assert np.max(np.abs(b_plus)) > 0.1 and np.max(np.abs(b_minus)) > 0.1
        np.testing.assert_array_equal(split.b_plus, b_plus)
        np.testing.assert_array_equal(split.b_minus, b_minus)

    def test_echo_split_zero_run(self):
        cfg = config(terminal=ZERO, epsilon=1.0, tau=2.0)
        traj, trace, split = nonperturbative_solve(cfg)
        assert np.max(np.abs(split.b_plus)) == 0.0
        assert np.max(np.abs(split.b_minus)) == 0.0


class TestConfigValidation:
    def test_window_ordering(self):
        with pytest.raises(ValueError):
            config(tau=10.0, T=10.0)

    def test_horizon_vs_grid(self):
        with pytest.raises(ValueError):
            config(T=24.5)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(d_t=0.0), "d_t=0.0,"),
            (dict(d_t=-0.05), "d_t=-0.05,"),
            (dict(snap_stride=0), "snap_stride=0"),
            (dict(snap_stride=-3), "snap_stride=-3"),
        ],
    )
    def test_step_and_stride_checked(self, kw, message):
        with pytest.raises(ValueError, match=message):
            config(**kw)

    def test_datum_must_be_real(self):
        coeffs = datum().coeffs.copy()
        coeffs[GRID.mode_index(2), GRID.n_half + 7] += 1e-9  # no mirror partner
        with pytest.raises(ValueError, match="reality symmetry by 1.000e-09"):
            config(terminal=FourierField(GRID, coeffs))
        coeffs[GRID.mode_index(-2), GRID.n_half - 7] += 1e-9
        config(terminal=FourierField(GRID, coeffs))

    def test_step_commensurate(self):
        with pytest.raises(ValueError):
            config(T=10.0, d_t=0.013)
