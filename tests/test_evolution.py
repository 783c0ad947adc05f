import numpy as np
import pytest

from hmflab import evolution
from hmflab.evolution import (
    BlowUpError,
    EvolutionParams,
    RealityDriftError,
    _RK4Work,
    extract_zeta,
    forward_solve,
    rhs_coeffs,
)
from hmflab.outputs import read_snapshots, write_snapshots
from hmflab.profiles import kernel_j, make_asymptotic_datum, maxwellian
from hmflab.spectral import FourierField, TruncationCounters, _padded, make_grid, sample_mode
from hmflab.volterra import solve_volterra


GRID = make_grid(4, 24.0, 0.05, 20.0)
PROFILE = maxwellian()


def datum(amplitude=0.5, width=1.0, grid=GRID):
    return make_asymptotic_datum(amplitude, {1: 1.0, -1: 1.0}, width, grid)


def rhs(coeffs, t, zeta1, epsilon, sign=1.0):
    """The data columns of ``rhs_coeffs`` on GRID with PROFILE, into a fresh work and output.

    ``rhs_coeffs`` reads and writes blocks in the padded row layout, so
    ``coeffs`` is copied into one.
    """
    block, data = _padded(coeffs.shape)
    data[...] = coeffs
    out, got = _padded((GRID.n_max + 1, GRID.n_xi))
    rhs_coeffs(block, t, zeta1, _RK4Work(GRID, PROFILE, epsilon, sign), out)
    return got


def readout(coeffs, t):
    return extract_zeta(coeffs, GRID, t, TruncationCounters())


class TestRhs:
    # rhs_coeffs returns the rows n = 0 .. n_max, mode n in row n

    def test_linear_term_only_on_coupled_modes(self):
        coeffs = np.zeros((GRID.n_modes, GRID.n_xi), dtype=np.complex128)
        inc = rhs(coeffs, 3.0, 0.2 + 0.1j, 0.0)
        assert inc.shape == (GRID.n_max + 1, GRID.n_xi)
        assert np.max(np.abs(inc[3])) == 0.0
        assert np.max(np.abs(inc[0])) == 0.0
        assert np.max(np.abs(inc[1])) > 0.0

    def test_mean_entry_is_conserved(self):
        fld = datum()
        for eps in (0.0, 0.3):
            inc = rhs(fld.coeffs, 2.17, 0.4 + 0.2j, eps)
            assert inc[0, GRID.n_half] == 0.0

    def test_single_entry_hand_formula(self):
        # one coefficient h_2(xi0) = 1; the coupling writes onto modes 1 and 3
        coeffs = np.zeros((GRID.n_modes, GRID.n_xi), dtype=complex)
        j0 = GRID.n_half + 40  # xi0 = 2.0
        coeffs[GRID.mode_index(2), j0] = 1.0
        t = 0.6  # shift lands back on grid nodes: t / d_xi = 12
        z1 = 0.3 + 0.1j
        eps = 0.2
        inc = rhs(coeffs, t, z1, eps)
        xi0 = GRID.xi[j0]
        # k = +1 pushes mode 2 content to mode 3 at xi = xi0 + t
        j3 = j0 + 12
        expected3 = -eps * (+1) * (z1 / 2) * 1.0 * (GRID.xi[j3] - 3 * t)
        # k = -1 pushes mode 2 content to mode 1 at xi = xi0 - t
        j1 = j0 - 12
        expected1 = -eps * (-1) * (np.conj(z1) / 2) * 1.0 * (GRID.xi[j1] - 1 * t)
        linear1 = (1 * 0.5j * z1) * PROFILE.eta_prime_hat(GRID.xi[j1] - t)
        assert abs(inc[3, j3] - expected3) < 1e-14
        assert abs(inc[1, j1] - (expected1 + linear1)) < 1e-14

    def test_reality_preserved_exactly(self):
        # row 0 is its own mirror partner; below it only row -1 is read
        fld = datum()
        inc = rhs(fld.coeffs, 7.305, 0.3 + 0.17j, 0.01)
        assert np.max(np.abs(inc[0] - np.conj(inc[0, ::-1]))) < 1e-16
        unread = fld.coeffs.copy()
        unread[: GRID.mode_index(-1)] = np.nan
        again = rhs(unread, 7.305, 0.3 + 0.17j, 0.01)
        assert again.tobytes() == inc.tobytes()

    def test_attractive_sign_flips(self):
        fld = datum()
        a = rhs(fld.coeffs, 1.3, 0.2 + 0.05j, 0.1, sign=1.0)
        b = rhs(fld.coeffs, 1.3, 0.2 + 0.05j, 0.1, sign=-1.0)
        assert np.max(np.abs(a + b)) == 0.0


class TestExtractZeta:
    def test_on_grid_value(self):
        fld = datum(amplitude=1.0)
        assert readout(fld.coeffs, 0.0) == fld.coeffs[GRID.mode_index(1), GRID.n_half]

    def test_gaussian_readout(self):
        fld = datum(amplitude=1.0)
        for t in (0.33, 1.7, 4.44):
            assert abs(readout(fld.coeffs, t) - np.exp(-t**2 / 2)) < 1e-6

    def test_conjugation_cross_check(self):
        # the direct mode -1 read at -t agrees with the conjugation shortcut
        fld = datum()
        z1 = readout(fld.coeffs, 2.34)
        zm1 = sample_mode(fld.coeffs, GRID, -1, np.array([-2.34]))[0]
        assert abs(zm1 - np.conj(z1)) < 1e-12

    def test_bit_identical_to_sample_mode(self):
        # extract_zeta's promise: the scalar readout is the vector read at [t], counters included
        rng = np.random.RandomState(9)
        coeffs = rng.randn(GRID.n_modes, GRID.n_xi) + 1j * rng.randn(GRID.n_modes, GRID.n_xi)
        coeffs[:, ::7] = complex(-0.0, 0.0)
        coeffs[:, 3::7] = 0.0
        nodes = GRID.xi[rng.randint(0, GRID.n_xi, 30)]
        times = np.concatenate([
            nodes, nodes + 4e-10, nodes - 4e-10,
            rng.uniform(-GRID.xi_max, GRID.xi_max, 60),
            GRID.xi_max - rng.uniform(0.0, 2.0, 20) * GRID.d_xi,
            [GRID.xi_max, -GRID.xi_max, GRID.xi_max - 4e-10],
        ])
        k1, k2 = TruncationCounters(), TruncationCounters()
        for t in times:
            z1 = np.complex128(extract_zeta(coeffs, GRID, float(t), k1))
            z2 = sample_mode(coeffs, GRID, 1, [t], k2)[0]
            assert np.array([z1]).view(np.int64).tolist() == np.array([z2]).view(np.int64).tolist(), t
        assert k1.as_dict() == k2.as_dict()

    def test_beyond_cutoff_rejected(self):
        with pytest.raises(ValueError):
            readout(datum().coeffs, 30.0)


class TestForwardSolve:
    def test_traced_call_counts(self, monkeypatch):
        # the counts a traced run checks for n steps: four right-hand sides
        # per step, two shift_rows reads each, and a field readout at every
        # stage and every step, plus the initial one
        calls = dict.fromkeys(("rhs_coeffs", "shift_rows", "extract_zeta"), 0)

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(evolution, name, counted(name, getattr(evolution, name)))
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.05, t_final=2.0)
        forward_solve(datum(), params)
        n = 40
        assert calls == {"rhs_coeffs": 4 * n, "shift_rows": 8 * n, "extract_zeta": 5 * n + 1}

    def test_zero_initial_state(self):
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.01, t_final=2.0)
        zero = FourierField(GRID, np.zeros((GRID.n_modes, GRID.n_xi), dtype=np.complex128))
        traj = forward_solve(zero, params)
        assert np.max(np.abs(traj.snapshots)) == 0.0
        assert np.max(np.abs(traj.series.zeta1)) == 0.0

    def test_snapshots_are_one_block(self, tmp_path):
        # 105 steps at stride 10: steps 0, 10, ..., 100 and the off-cadence endpoint
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.01, t_final=1.05)
        h0 = datum()
        traj = forward_solve(h0, params)
        snaps = traj.snapshots
        assert snaps.shape == (12, GRID.n_max + 1, GRID.n_xi)  # rows n = 0 .. n_max
        assert snaps.dtype == np.complex128 and snaps.flags.c_contiguous
        assert np.allclose(traj.times, np.r_[np.arange(11) * 0.1, 1.05])
        # every full state is made on request; the datum is its own expansion
        write_snapshots(tmp_path / "s.bin", tmp_path / "s.json", traj)
        assert read_snapshots(tmp_path / "s.bin", GRID)[0].tobytes() == h0.coeffs.tobytes()
        final = traj.final().coeffs
        assert not np.shares_memory(final, snaps)
        assert final[GRID.n_max :].tobytes() == snaps[-1].tobytes()

    def test_mass_conservation(self):
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.01, t_final=10.0)
        traj = forward_solve(datum(), params)
        assert traj.max_mean_drift() < 1e-10

    def test_reality_preserved(self):
        # the march advances rows 0 .. n_max and a full state adds the rows
        # n < 0 as their mirror, so only row 0 can drift; the first is h0 as given
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.01, t_final=10.0)
        h0 = datum()
        traj = forward_solve(h0, params)
        assert traj.full_state(0).tobytes() == h0.coeffs.tobytes()
        m = GRID.n_max
        for i in range(1, len(traj.times)):
            s = traj.full_state(i)
            assert s[:m].tobytes() == np.conj(s[:m:-1, ::-1]).tobytes()
            assert np.max(np.abs(s[m] - np.conj(s[m, ::-1]))) < 1e-10

    def test_linear_regime_volterra_oracle(self):
        params = EvolutionParams(profile=PROFILE, epsilon=0.0, d_t=0.01, t_final=10.0)
        h0 = datum()
        traj = forward_solve(h0, params)
        # independent route: the field solves zeta = readout + j_1-convolution
        d_t = 1e-3
        kern = kernel_j(PROFILE, 1).sample(params.t_final, d_t)
        g = sample_mode(h0.coeffs, GRID, 1, kern.t)
        zeta_ref = solve_volterra(g, kern, "forward")
        step = round(params.d_t / d_t)
        diff = np.abs(traj.series.zeta1 - zeta_ref[::step])
        assert np.max(diff) < 1e-6

    def test_damping_property(self):
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.01, t_final=16.0)
        traj = forward_solve(datum(), params)
        mags = traj.series.magnitude()
        half = len(mags) // 2
        assert np.max(mags[half:]) < np.max(mags[:half])

    def test_rk4_fourth_order(self):
        # d_xi fine enough that the readout-interpolation floor stays far
        # below the time-stepping errors being compared
        grid = make_grid(2, 12.0, 0.02, 8.0)
        h0 = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)

        def final_state(d_t):
            params = EvolutionParams(
                profile=PROFILE, epsilon=0.2, d_t=d_t, t_final=4.0, snap_stride=10**6
            )
            return forward_solve(h0, params).final().coeffs

        ref = final_state(0.005)
        err_coarse = np.max(np.abs(final_state(0.08) - ref))
        err_fine = np.max(np.abs(final_state(0.04) - ref))
        assert 10.0 < err_coarse / err_fine < 24.0

    def test_overflow_abort(self, monkeypatch):
        monkeypatch.setattr(evolution, "_OVERFLOW_CAP", 0.3)
        params = EvolutionParams(profile=PROFILE, epsilon=0.5, d_t=0.01, t_final=10.0)
        with pytest.raises(BlowUpError):
            forward_solve(datum(), params)

    def test_reality_checked_at_the_last_step(self, monkeypatch):
        # row 0 is checked every 100 steps and at the end, so a drift that starts
        # after step 100 of 120 still stops the run before it returns
        grid = make_grid(4, 12.0, 0.05, 8.0)
        inner = evolution.rhs_coeffs

        def drifting(h, t, zeta, work, out):
            inner(h, t, zeta, work, out)
            if t > 5.0:
                out[0, 1] += 1e-3  # the first data column; column 0 is padding
            return out

        monkeypatch.setattr(evolution, "rhs_coeffs", drifting)
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.05, t_final=6.0)
        with pytest.raises(RealityDriftError, match=r"at t=6\.000"):
            forward_solve(datum(grid=grid), params)

    def test_initial_state_validation(self):
        params = EvolutionParams(profile=PROFILE, epsilon=0.0, d_t=0.01, t_final=1.0)
        bad = np.zeros((GRID.n_modes, GRID.n_xi), dtype=complex)
        bad[GRID.mode_index(1), 3] = 1.0  # no mirror partner
        with pytest.raises(ValueError):
            forward_solve(FourierField(GRID, bad), params)
        bad2 = np.zeros((GRID.n_modes, GRID.n_xi), dtype=complex)
        bad2[GRID.mode_index(0), GRID.n_half] = 1.0  # carries mean
        with pytest.raises(ValueError):
            forward_solve(FourierField(GRID, bad2), params)

    def test_nan_initial_state_rejected(self):
        params = EvolutionParams(profile=PROFILE, epsilon=0.0, d_t=0.01, t_final=1.0)
        bad = datum().coeffs.copy()
        bad[GRID.mode_index(2), 40] = np.nan
        with pytest.raises(ValueError):
            forward_solve(FourierField(GRID, bad), params)

    def test_horizon_guard(self):
        params = EvolutionParams(profile=PROFILE, epsilon=0.0, d_t=0.01, t_final=25.0)
        with pytest.raises(ValueError):
            forward_solve(datum(), params)
