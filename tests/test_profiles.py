import math

import numpy as np
import pytest
from scipy.special import ive

from hmflab import profiles
from hmflab.profiles import (
    bgk_to_field,
    kernel_j,
    lorentzian,
    make_asymptotic_datum,
    maxwellian,
    omega_curve,
    omega_of_nu,
    solve_bgk,
)
from hmflab.spectral import expand_half, make_grid


class TestMaxwellian:
    def test_closed_forms(self):
        p = maxwellian()
        assert p.eta_hat(0.0) == 1.0
        assert abs(p.eta_hat(1.0) - np.exp(-0.5)) < 1e-15
        assert abs(p.eta_prime_hat(1.0) - 1j * np.exp(-0.5)) < 1e-15

    def test_derivative_rule(self):
        p = maxwellian(beta=2.5)
        xi = np.linspace(-8, 8, 161)
        assert np.max(np.abs(p.eta_prime_hat(xi) - 1j * xi * p.eta_hat(xi))) < 1e-14

    def test_decay_certificate(self):
        p = maxwellian()
        t = np.linspace(0, 30, 3001)
        j = kernel_j(p, 1)
        assert np.all(np.abs(j(t)) <= p.decay_coeff * np.exp(-p.decay_rate * t) + 1e-15)


class TestLorentzian:
    def test_closed_forms(self):
        p = lorentzian()
        assert p.eta_hat(0.0) == 1.0
        assert abs(p.eta_hat(2.0) - np.exp(-2.0)) < 1e-15

    def test_decay_certificate(self):
        p = lorentzian(scale=0.7)
        t = np.linspace(0, 40, 4001)
        j = kernel_j(p, 1)
        assert np.all(np.abs(j(t)) <= p.decay_coeff * np.exp(-p.decay_rate * t) + 1e-15)


class TestKernel:
    def test_maxwell_closed_form(self):
        j1 = kernel_j(maxwellian(), 1)
        t = np.linspace(0, 10, 501)
        expected = -(t / 2) * np.exp(-t**2 / 2)
        assert np.max(np.abs(j1(t) - expected)) < 1e-15

    def test_vanishes_at_zero(self):
        assert kernel_j(maxwellian(), 1)(0.0) == 0.0

    def test_conjugate_pair(self):
        p = maxwellian()
        j1, jm1 = kernel_j(p, 1), kernel_j(p, -1)
        t = np.linspace(0, 12, 241)
        assert np.max(np.abs(jm1(t) - np.conj(j1(t)))) < 1e-15

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            kernel_j(maxwellian(), 2)


class TestAsymptoticDatum:
    def setup_method(self):
        self.grid = make_grid(4, 24.0, 0.05, 20.0)

    def test_zero_amplitude(self):
        fld = make_asymptotic_datum(0.0, {1: 1.0, -1: 1.0}, 1.0, self.grid)
        assert np.max(np.abs(fld.coeffs)) == 0.0

    def test_reality_and_mean_zero(self):
        fld = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0, 2: 0.3, -2: 0.3}, 1.0, self.grid)
        assert fld.reality_defect() == 0.0
        assert fld.mean_mode_at_zero() == 0.0

    def test_one_sided_weights_symmetrized(self):
        fld = make_asymptotic_datum(1.0, {1: 1.0}, 1.0, self.grid)
        assert fld.reality_defect() == 0.0

    def test_exponential_shape_tail(self):
        fld = make_asymptotic_datum(1.0, {1: 1.0, -1: 1.0}, 4.0, self.grid, shape="exponential")
        row = np.abs(fld.coeffs[self.grid.mode_index(1)])
        xi = self.grid.xi
        expected = np.exp(-np.sqrt(1 + xi**2) / 4.0)
        assert np.max(np.abs(row - 0.5 * expected - 0.5 * expected)) < 1e-14

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_asymptotic_datum(1.0, {1: 1.0}, 0.0, self.grid)
        with pytest.raises(ValueError):
            make_asymptotic_datum(1.0, {0: 1.0}, 1.0, self.grid)
        with pytest.raises(ValueError):
            make_asymptotic_datum(1.0, {1: 1.0}, 1.0, self.grid, shape="boxcar")
        with pytest.raises(ValueError):
            make_asymptotic_datum(1.0, {7: 1.0}, 1.0, self.grid)


def reference_omega_of_nu(beta, nu):
    """The per-nu magnetization ``omega_curve`` was blocked from."""
    if nu == 0.0:
        return 0.0
    x = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    w = np.exp(beta * nu * np.cos(x))
    return float(np.sum(np.cos(x) * w) / np.sum(w))


def reference_solve_bgk(beta):
    """``solve_bgk`` on the per-nu magnetization: (nu, z_norm, residual) or None."""
    g = lambda nu: reference_omega_of_nu(beta, nu) - nu
    grid = np.linspace(1e-6, 2.0, 800)
    vals = np.array([g(v) for v in grid])
    crossings = np.where((vals[:-1] > 0) & (vals[1:] <= 0))[0]
    if crossings.size == 0:
        return None
    lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    nu = 0.5 * (lo + hi)
    x = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    z_norm = math.sqrt(2.0 * math.pi / beta) * float(np.mean(np.exp(beta * nu * np.cos(x))))
    return nu, z_norm, abs(g(nu))


BGK_BETAS = [0.5, 2.05, 3.0, 10.0]


class TestOmegaCurve:
    @pytest.mark.parametrize("beta", BGK_BETAS)
    @pytest.mark.parametrize(
        "nus",
        [
            # the bracket scan of solve_bgk and the rows of bgk.csv (nu = 0
            # included) both end in a partial block
            np.linspace(1e-6, 2.0, 800),
            np.linspace(0.0, 1.5, 151),
            np.linspace(-2.0, 2.0, 2 * profiles._NU_BLOCK),
            np.array([0.3]),
        ],
        ids=["scan-800", "csv-151", "two-blocks", "one"],
    )
    def test_bit_identical_to_per_nu_formula(self, beta, nus):
        ref = np.array([reference_omega_of_nu(beta, v) for v in nus])
        assert np.array_equal(omega_curve(beta, nus), ref)

    @pytest.mark.parametrize("beta", BGK_BETAS)
    def test_solve_bgk_bit_identical(self, beta):
        state = solve_bgk(beta)
        ref = reference_solve_bgk(beta)
        if ref is None:
            assert state is None
        else:
            assert (state.beta, state.nu, state.z_norm, state.residual) == (beta, *ref)

    def test_rejects_bad_beta(self):
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError):
                omega_curve(beta, np.array([0.5]))
            with pytest.raises(ValueError):
                omega_of_nu(beta, 0.0)


class TestOmegaOfNu:
    def test_zero_magnetization(self):
        assert omega_of_nu(3.0, 0.0) == 0.0

    def test_bessel_ratio_oracle(self):
        for beta, nu in ((3.0, 0.5), (3.0, 0.72), (1.5, 0.3), (2.5, 1.1)):
            z = beta * nu
            oracle = ive(1, z) / ive(0, z)
            assert abs(omega_of_nu(beta, nu) - oracle) < 1e-12

    def test_small_nu_slope(self):
        h = 1e-4
        for beta in (1.5, 2.0, 3.0):
            slope = (omega_of_nu(beta, h) - omega_of_nu(beta, -h)) / (2 * h)
            assert abs(slope - beta / 2) < 1e-3

    def test_saturates_at_one(self):
        assert omega_of_nu(3.0, 50.0) > 0.99

    def test_monotone_increasing(self):
        vals = [omega_of_nu(3.0, nu) for nu in np.linspace(0.01, 1.4, 60)]
        assert np.all(np.diff(vals) > 0)


class TestSolveBGK:
    def test_subcritical_none(self):
        assert solve_bgk(1.5) is None
        assert solve_bgk(2.0 - 1e-3) is None

    def test_beta3_fixed_point(self):
        state = solve_bgk(3.0)
        assert state is not None
        # frozen from the bisection against the quadrature oracle
        assert abs(state.nu - 0.7241587176) < 1e-6
        assert state.residual < 1e-10

    def test_just_above_bifurcation(self):
        state = solve_bgk(2.0 + 1e-6)
        assert state is not None
        assert 0.0 < state.nu < 0.01

    def test_scan_over_betas(self):
        for beta in (2.1, 2.5, 4.0):
            state = solve_bgk(beta)
            assert state is not None and state.residual < 1e-10


class TestBGKToField:
    def test_mode_ratios_match_bessel(self):
        grid = make_grid(4, 24.0, 0.05, 20.0)
        state = solve_bgk(3.0)
        fld, background = bgk_to_field(state, grid)
        z = state.beta * state.nu
        mid = grid.n_half
        for n in range(1, 5):
            oracle = ive(n, z) / ive(0, z)
            assert abs(fld.coeffs[grid.mode_index(n), mid] - oracle) < 1e-10
        assert abs(fld.coeffs[grid.mode_index(1), mid] - state.nu) < 1e-9  # self-consistency readout

    def test_mean_row_vanishes_and_reality(self):
        grid = make_grid(3, 24.0, 0.05, 20.0)
        state = solve_bgk(2.5)
        fld, background = bgk_to_field(state, grid)
        assert np.max(np.abs(fld.coeffs[grid.mode_index(0)])) == 0.0
        assert fld.reality_defect() == 0.0

    def test_background_is_rescaled_gaussian(self):
        grid = make_grid(3, 24.0, 0.05, 20.0)
        state = solve_bgk(3.0)
        _, background = bgk_to_field(state, grid)
        xi = np.linspace(-5, 5, 101)
        assert np.max(np.abs(background.eta_hat(xi) - np.exp(-xi**2 / 6))) < 1e-14


def is_its_expansion(fld):
    """Whether rows n < 0 of ``fld`` mirror its rows n >= 0, signed zeros included."""
    half = fld.coeffs[fld.grid.n_max :]
    return fld.coeffs.tobytes() == expand_half(half, np.empty_like(fld.coeffs)).tobytes()


class TestDatumIsItsExpansion:
    GRID = make_grid(4, 12.0, 0.05, 8.0)

    @pytest.mark.parametrize("shape", ["gaussian", "exponential"])
    def test_asymptotic_datum(self, shape):
        for weights in ({1: 1.0, -1: 1.0}, {1: 1.0}, {2: 0.3, -1: 0.7}):
            fld = make_asymptotic_datum(0.5, weights, 1.0, self.GRID, shape=shape)
            assert is_its_expansion(fld), weights

    @pytest.mark.parametrize("beta", [2.5, 3.0])
    def test_bgk_field(self, beta):
        fld, _ = bgk_to_field(solve_bgk(beta), self.GRID)
        assert is_its_expansion(fld)
