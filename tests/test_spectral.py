import numpy as np
import pytest

from hmflab.spectral import (
    FourierField,
    GridError,
    TruncationCounters,
    _shift_plan,
    enforce_reality,
    make_grid,
    sample_mode,
    shift_rows,
)


def gaussian_field(grid, amplitude=1.0, width=1.0, mode=1):
    coeffs = np.zeros((grid.n_modes, grid.n_xi), dtype=complex)
    env = amplitude * np.exp(-grid.xi**2 / (2 * width**2))
    coeffs[grid.mode_index(mode)] = env
    coeffs[grid.mode_index(-mode)] = env
    return FourierField(grid, coeffs)


class TestMakeGrid:
    def test_node_count(self):
        g = make_grid(8, 44.0, 0.05, 40.0)
        assert g.n_xi == 1761
        assert 0.0 in g.xi

    def test_horizon_rejected(self):
        with pytest.raises(GridError):
            make_grid(2, 10.0, 0.1, 20.0)

    def test_boundary_horizon_ok(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        assert g.n_xi == 961
        assert g.n_modes == 9

    def test_bad_spacing(self):
        with pytest.raises(GridError):
            make_grid(4, 24.0, -0.05, 20.0)
        with pytest.raises(GridError):
            make_grid(4, 24.0, 0.07, 20.0)  # not commensurate

    def test_small_n_max(self):
        with pytest.raises(GridError):
            make_grid(1, 24.0, 0.05, 20.0)


def read_at(fld, n, xi, counters=None):
    """One cubic read of mode n at frequency xi."""
    return complex(sample_mode(fld.coeffs, fld.grid, n, np.array([xi]), counters)[0])


class TestEvalShifted:
    def test_on_grid_exact(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        rng = np.random.RandomState(7)
        coeffs = rng.randn(g.n_modes, g.n_xi) + 1j * rng.randn(g.n_modes, g.n_xi)
        fld = FourierField(g, coeffs)
        for j in (0, 13, 480, 960):
            assert read_at(fld, 2, g.xi[j]) == coeffs[g.mode_index(2), j]

    def test_gaussian_midpoint(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        fld = gaussian_field(g)
        got = read_at(fld, 1, 0.025)
        assert abs(got - np.exp(-0.025**2 / 2)) < 1e-6

    def test_out_of_range_zero_and_counted(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        fld = gaussian_field(g)
        counters = TruncationCounters()
        assert read_at(fld, 1, g.xi_max + 1.0, counters) == 0.0
        assert counters.out_of_range_reads == 1

    def test_mode_out_of_range_raises(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        with pytest.raises(GridError):
            read_at(gaussian_field(g), 5, 0.0)

    def test_fourth_order_convergence(self):
        # halving d_xi must shrink the max interpolation error by >= 8x
        errs = []
        for d_xi in (0.1, 0.05):
            g = make_grid(2, 24.0, d_xi, 20.0)
            fld = gaussian_field(g)
            shift = 1.7 + 0.4 * d_xi
            got = sample_mode(fld.coeffs, g, 1, g.xi + shift)
            exact = np.exp(-((g.xi + shift) ** 2) / 2)
            exact[np.abs(g.xi + shift) > g.xi_max] = 0.0
            errs.append(np.max(np.abs(got - exact)))
        assert errs[0] / errs[1] >= 8.0

    def test_shift_rows_matches_sample_mode(self):
        g = make_grid(3, 24.0, 0.05, 20.0)
        rng = np.random.RandomState(3)
        coeffs = rng.randn(g.n_modes, g.n_xi) + 1j * rng.randn(g.n_modes, g.n_xi)
        out, scratch = np.empty_like(coeffs), np.empty_like(coeffs)
        shifted = shift_rows(coeffs, _shift_plan(g, -3.137), out, scratch)
        per_row = sample_mode(coeffs, g, 2, g.xi - 3.137)
        assert np.max(np.abs(shifted[g.mode_index(2)] - per_row)) < 1e-12


class TestEnforceReality:
    def test_symmetric_unchanged(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        fld = gaussian_field(g)
        out = enforce_reality(fld)
        assert np.array_equal(out.coeffs, fld.coeffs)

    def test_projection_and_idempotence(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        rng = np.random.RandomState(11)
        fld = FourierField(g, rng.randn(g.n_modes, g.n_xi) + 1j * rng.randn(g.n_modes, g.n_xi))
        once = enforce_reality(fld)
        assert once.reality_defect() < 1e-15
        twice = enforce_reality(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_commutes_with_real_scaling(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        rng = np.random.RandomState(5)
        coeffs = rng.randn(g.n_modes, g.n_xi) + 1j * rng.randn(g.n_modes, g.n_xi)
        a = enforce_reality(FourierField(g, 3.5 * coeffs)).coeffs
        b = 3.5 * enforce_reality(FourierField(g, coeffs)).coeffs
        assert np.max(np.abs(a - b)) < 1e-14
