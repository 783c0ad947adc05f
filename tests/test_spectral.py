import math

import numpy as np
import pytest

from hmflab.spectral import (
    FourierField,
    GridError,
    TruncationCounters,
    _cubic_weights,
    _padded,
    _shift_plans,
    enforce_reality,
    expand_half,
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
        block, data = _padded(coeffs.shape)  # the layout shift_rows reads and writes
        data[...] = coeffs
        out, shifted = _padded(coeffs.shape)
        shift_rows(block, _shift_plans(g, [-3.137])[0].tolist(), out, np.empty_like(out))
        per_row = sample_mode(coeffs, g, 2, g.xi - 3.137)
        assert np.max(np.abs(shifted[g.mode_index(2)] - per_row)) < 1e-12


ZEROS = slice(100, 164)  # columns that hold only signed zeros


def signed_zero_rows(grid, seed):
    """Random rows with a band of exact zeros of random signs, and zeros near both cutoffs.

    Inside the band, columns 120 .. 123 hold the signs whose four terms at a
    point between nodes 121 and 122 all have a -0 real part, so only a sum
    started from +0 reads +0 there.
    """
    rng = np.random.RandomState(seed)
    coeffs = rng.randn(grid.n_modes, grid.n_xi) + 1j * rng.randn(grid.n_modes, grid.n_xi)
    width = ZEROS.stop - ZEROS.start
    signs = rng.choice([-0.0, 0.0], size=(2, grid.n_modes, width))
    coeffs.real[:, ZEROS], coeffs.imag[:, ZEROS] = signs
    for j, re in zip(range(120, 124), (0.0, -0.0, -0.0, 0.0)):  # the weights' signs are -, +, +, -
        coeffs[:, j] = complex(re, 0.0)
    for j in (0, 1, grid.n_xi - 2):
        coeffs[:, j] = complex(0.0, 0.0)
    for j in (2, grid.n_xi - 1):
        coeffs[:, j] = complex(-0.0, -0.0)
    return coeffs


def probe_points(grid, seed):
    """On nodes, within 1e-10 of nodes, in the zero band, within two nodes of both cutoffs, beyond them."""
    rng = np.random.RandomState(seed)
    nodes = grid.xi[rng.randint(0, grid.n_xi, 40)]
    near = grid.xi[rng.randint(0, grid.n_xi, 40)] + rng.uniform(-1e-10, 1e-10, 40)
    edge = rng.uniform(0.0, 2.0, 40) * grid.d_xi
    band = grid.xi[ZEROS.start] + rng.uniform(0.0, ZEROS.stop - ZEROS.start - 1, 80) * grid.d_xi
    return np.concatenate([
        nodes, near, band, grid.xi[ZEROS], grid.xi[121] + np.array([0.25, 0.5, 0.75]) * grid.d_xi,
        grid.xi[[0, 1, 2, -3, -2, -1]], grid.xi_max - edge, edge - grid.xi_max,
        rng.uniform(-grid.xi_max, grid.xi_max, 40),
        [grid.xi_max + 1e-12, -grid.xi_max - 0.01, 1.5 * grid.xi_max],
    ])


def scalar_stencil(x, grid):
    """The stencil of a read at x in scalar arithmetic: snap within 1e-9, floor, weights."""
    s = (x + grid.xi_max) / grid.d_xi
    if abs(s - round(s)) < 1e-9:
        s = float(round(s))
    b = math.floor(s)
    return b, _cubic_weights(s - b)


def scalar_read(row, grid, x):
    """One read as the stencil defines it: its in-range nodes added in order from complex +0."""
    acc = np.complex128(0.0)
    if abs(x) > grid.xi_max:
        return acc
    b, w = scalar_stencil(x, grid)
    for m, wm in zip((-1, 0, 1, 2), w):
        if 0 <= b + m < grid.n_xi:
            acc += wm * row[b + m]
    return acc


class TestPointReadBits:
    """``sample_mode`` is the scalar stencil bit for bit, signed zeros and NaN included."""

    GRID = make_grid(4, 12.0, 0.05, 8.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_stencil(self, seed):
        g = self.GRID
        coeffs = signed_zero_rows(g, seed)
        pts = probe_points(g, seed)
        for n in (-4, -1, 0, 1, 2, 4):
            row = coeffs[g.mode_index(n)]
            ref = np.array([scalar_read(row, g, x) for x in pts])
            got = sample_mode(coeffs, g, n, pts)
            # the int64 views compare bit patterns, so a zero's sign counts
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), n

    def test_counters_match_scalar_count(self):
        g = self.GRID
        coeffs = signed_zero_rows(g, 4)
        coeffs[g.mode_index(2), -1] = 3.0 - 4.0j
        pts = probe_points(g, 4)
        counters = TruncationCounters()
        sample_mode(coeffs, g, 2, pts, counters)
        assert counters.as_dict() == {
            "out_of_range_reads": int(np.count_nonzero(np.abs(pts) > g.xi_max)),
            "max_edge_magnitude": 5.0,
        }

    @pytest.mark.parametrize("col", [0, 1, 240, 479, 480])
    def test_nan_reaches_exactly_its_stencils(self, col):
        g = self.GRID
        coeffs = np.ones((g.n_modes, g.n_xi), dtype=np.complex128)
        coeffs[g.mode_index(1), col] = np.nan
        pts = np.concatenate([g.xi, g.xi[:-1] + 0.5 * g.d_xi, probe_points(g, 5)])
        got = sample_mode(coeffs, g, 1, pts)
        expect = np.zeros(pts.shape, dtype=bool)
        for i, x in enumerate(pts):
            if abs(x) <= g.xi_max:
                b, _ = scalar_stencil(x, g)
                expect[i] = b - 1 <= col <= b + 2
        assert np.array_equal(np.isnan(got), expect)
        assert expect.sum() >= 4


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

    def test_idempotent_byte_for_byte(self):
        # the projection is its rows n >= 0's expansion, and a second one moves
        # no byte, exact zeros of either sign included
        g = make_grid(4, 12.0, 0.05, 8.0)
        rng = np.random.default_rng(3)
        shape = (g.n_modes, g.n_xi)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs.imag[:, ::5] = 0.0
        coeffs.real[:, 2::7] = -0.0
        coeffs[g.n_max + 2] = 0.0
        once = enforce_reality(FourierField(g, coeffs)).coeffs
        assert once.tobytes() == expand_half(once[g.n_max :], np.empty_like(once)).tobytes()
        assert enforce_reality(FourierField(g, once)).coeffs.tobytes() == once.tobytes()

    def test_commutes_with_real_scaling(self):
        g = make_grid(4, 24.0, 0.05, 20.0)
        rng = np.random.RandomState(5)
        coeffs = rng.randn(g.n_modes, g.n_xi) + 1j * rng.randn(g.n_modes, g.n_xi)
        a = enforce_reality(FourierField(g, 3.5 * coeffs)).coeffs
        b = 3.5 * enforce_reality(FourierField(g, coeffs)).coeffs
        assert np.max(np.abs(a - b)) < 1e-14
