"""Truncated Fourier phase-space representations.

A distribution perturbation h(x, v) on S^1 x R is stored through its
coefficients

    h_n(xi) = (1/2pi) int e^{-i n x} e^{-i v xi} h(x, v) dx dv

on a uniform frequency grid |xi| <= xi_max with spacing d_xi and integer
modes |n| <= n_max.  Free streaming turns into the frequency shifts
xi -> xi - k t, which generically fall between nodes; off-grid values are
obtained by four-point cubic Lagrange interpolation and reads beyond the
frequency cutoff return zero (compact-support truncation).

Reality of h is the mirror symmetry h_{-n}(-xi) = conj(h_n(xi)), which in
array terms is a combined reversal of both axes plus conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

try:  # the one trapezoid rule of the package; scattering imports it from here
    from numpy import trapezoid
except ImportError:  # numpy < 2.0
    from numpy import trapz as trapezoid


class GridError(ValueError):
    """Invalid grid geometry."""


@dataclass(frozen=True)
class Grid:
    """Mode / frequency lattice supporting a time horizon.

    The field readout samples xi = +-t, so the frequency cutoff must
    exceed the horizon with room for the interpolation stencil:
    xi_max >= t_final + 4.  The node set always contains xi = 0 so the
    conserved mode-0 coefficient can be checked exactly.
    """

    n_max: int
    xi_max: float
    d_xi: float
    t_final: float

    def __post_init__(self):
        if self.n_max < 2:
            raise GridError(f"n_max must be >= 2, got {self.n_max}")
        if self.d_xi <= 0:
            raise GridError(f"d_xi must be positive, got {self.d_xi}")
        if self.xi_max < self.t_final + 4.0:
            raise GridError(
                f"xi_max={self.xi_max} cannot support horizon t_final="
                f"{self.t_final}: field readout needs xi_max >= t_final + 4"
            )
        ratio = self.xi_max / self.d_xi
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise GridError(
                f"xi_max={self.xi_max} is not an integer multiple of d_xi={self.d_xi}"
            )

    @property
    def n_half(self) -> int:
        return int(round(self.xi_max / self.d_xi))

    @property
    def n_xi(self) -> int:
        return 2 * self.n_half + 1

    @property
    def n_modes(self) -> int:
        return 2 * self.n_max + 1

    @property
    def xi(self) -> np.ndarray:
        return np.arange(-self.n_half, self.n_half + 1) * self.d_xi

    def mode_index(self, n: int) -> int:
        if abs(n) > self.n_max:
            raise GridError(f"mode {n} outside |n| <= {self.n_max}")
        return n + self.n_max


def make_grid(n_max: int, xi_max: float, d_xi: float, t_final: float) -> Grid:
    """Validated grid constructor; rejects horizons the grid cannot support."""
    return Grid(n_max=n_max, xi_max=float(xi_max), d_xi=float(d_xi), t_final=float(t_final))


class TruncationCounters:
    """Running tally of out-of-range frequency reads.

    ``out_of_range_reads`` counts requested points beyond the cutoff (all
    returned as zero); ``max_edge_magnitude`` tracks the largest stored
    coefficient magnitude in the two outermost frequency columns seen at
    read time, which bounds the error the truncation rule can introduce.
    """

    __slots__ = ("out_of_range_reads", "max_edge_magnitude")

    def __init__(self):
        self.out_of_range_reads = 0
        self.max_edge_magnitude = 0.0

    def note_edges(self, row: np.ndarray) -> None:
        """Fold the magnitudes of ``row``'s two outermost columns into the maximum."""
        edge = max(abs(row[0]), abs(row[-1]))
        if edge > self.max_edge_magnitude:
            self.max_edge_magnitude = float(edge)

    def as_dict(self) -> dict:
        return {
            "out_of_range_reads": self.out_of_range_reads,
            "max_edge_magnitude": self.max_edge_magnitude,
        }


@dataclass(frozen=True)
class FourierField:
    """Immutable snapshot of phase-space Fourier coefficients.

    ``coeffs`` has shape (n_modes, n_xi) and is row-indexed by n + n_max.
    Construction does not copy: ``np.asarray`` keeps a complex128 array as
    given, so a field built on a slice of a larger block is a view of it.
    Treat instances as read-only.
    """

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n_modes, self.grid.n_xi):
            raise GridError(
                f"coefficient shape {c.shape} does not match grid "
                f"({self.grid.n_modes}, {self.grid.n_xi})"
            )
        object.__setattr__(self, "coeffs", c)

    def reality_defect(self) -> float:
        """Max deviation from the mirror symmetry h_{-n}(-xi) = conj h_n(xi)."""
        mirror = np.conj(self.coeffs[::-1, ::-1])
        return float(np.max(np.abs(self.coeffs - mirror))) if self.coeffs.size else 0.0

    def mean_mode_at_zero(self) -> complex:
        return complex(self.coeffs[self.grid.mode_index(0), self.grid.n_half])


def _cubic_weights(u):
    """Lagrange weights on four consecutive nodes for a target in [node1, node2].

    u is the fractional offset from the second node; reproduces node values
    exactly at u = 0 and is O(d_xi^4) accurate for C^4 data.
    """
    return (
        -u * (u - 1.0) * (u - 2.0) / 6.0,
        (u * u - 1.0) * (u - 2.0) / 2.0,
        -u * (u + 1.0) * (u - 2.0) / 2.0,
        u * (u * u - 1.0) / 6.0,
    )


def _stencil(s: float) -> tuple[float, int, tuple]:
    """Cubic stencil of a scalar read at s grid units: (s, b, weights).

    An s within 1e-9 of a node snaps onto it, so node reads reproduce the
    stored values; the four weights apply to nodes b - 1 .. b + 2.
    """
    if abs(s - round(s)) < 1e-9:
        s = float(round(s))
    b = math.floor(s)
    return s, b, _cubic_weights(s - b)


_PAD = (1, 2)  # zero columns before and after a row's data: a cubic read in range stays in the row


def _padded(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A zero block of ``shape`` rows in the padded layout, and the view of its data."""
    lo, hi = _PAD
    block = np.zeros(shape[:-1] + (lo + shape[-1] + hi,), dtype=np.complex128)
    return block, block[..., lo : lo + shape[-1]]


class _ShiftPlan(NamedTuple):
    """What ``shift_rows`` derives from the shift alone: three scalars and the weights.

    Columns j_lo .. j_hi - 1 of a padded row are read inside the cutoff;
    ``b`` is the stencil's base node offset, and ``weights`` is None when
    the read snaps onto a node, which makes it one shifted copy.
    """

    j_lo: int
    j_hi: int
    b: int
    weights: tuple | None


def _shift_plan(grid: Grid, delta: float) -> _ShiftPlan:
    """The plan of a read at xi + delta on ``grid``, in padded columns."""
    s, b, w = _stencil(delta / grid.d_xi)
    n = grid.n_xi
    # column j reads node j + b, or off a node a point strictly between nodes j + b and
    # j + b + 1; inside the cutoff that is -b <= j < n - b, less the last column off a node
    j_lo = min(max(-b, 0), n)
    j_hi = min(max(n - b - (s != b), 0), n)
    return _ShiftPlan(j_lo + _PAD[0], j_hi + _PAD[0], b, None if s == b else w)


def shift_rows(
    coeffs: np.ndarray, plan: _ShiftPlan, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Sample every mode row at xi + delta (cubic, zero beyond the cutoff) into ``out``.

    ``coeffs``, ``out`` and ``scratch`` are C-contiguous blocks of one shape
    in the padded layout of ``_padded``; the padding of ``coeffs`` is zero,
    and so is that of ``out`` on return.  ``plan`` is ``_shift_plan(grid,
    delta)``, which a caller that repeats a shift keeps.  The shift is common
    to all rows, so in row-major order each of the four stencil terms is one
    multiply of one flat slice over all rows' in-range columns, into
    ``scratch``: a read there lands on data or padding of its own row, and
    the columns between the rows' ranges are zeroed afterwards with the rest
    beyond the cutoff.  A read that snaps onto a node has the weights
    (-0, 1, 0, -0); summed from +0 they give ``0.0 + coeffs`` at the shifted
    columns for finite data, signed zeros included, so a node read is that
    one shifted copy.  Non-finite data is where this differs from the
    complex four-term sum: a NaN or inf read on a node stays in its own
    column, where 0 * NaN would also reach its three neighbours, and off a
    node it stays in its own part.
    """
    j_lo, j_hi, b, w = plan
    if not (coeffs.flags.c_contiguous and out.flags.c_contiguous and scratch.flags.c_contiguous):
        raise ValueError("shift_rows arrays must be C-contiguous")
    flat_c, flat_o = coeffs.reshape(-1), out.reshape(-1)
    first, stop = j_lo, flat_o.size - coeffs.shape[-1] + j_hi
    if j_lo < j_hi and w is None:
        np.add(0.0, flat_c[first + b : stop + b], out=flat_o[first:stop])
    elif j_lo < j_hi:
        # The weights are real, so a term is one multiply of the interleaved
        # (re, im) doubles.  It differs from the complex product only in the
        # sign of zero parts, which the summation from +0 below erases; so
        # does a term that reads the padding (w * 0 = +-0).
        flat_s = scratch.reshape(-1)[first:stop]
        real_c, real_s = flat_c.view(np.float64), flat_s.view(np.float64)
        for m, wm in zip((-1, 0, 1, 2), w):
            off = b + m
            np.multiply(wm, real_c[2 * (first + off) : 2 * (stop + off)], out=real_s)
            if m == -1:
                np.add(0.0, flat_s, out=flat_o[first:stop])  # +0 fixes the sign of exact zeros
            else:
                flat_o[first:stop] += flat_s
    out[..., :j_lo] = 0.0
    out[..., j_hi:] = 0.0
    return out


def sample_mode(
    coeffs: np.ndarray,
    grid: Grid,
    n: int,
    points: np.ndarray,
    counters: TruncationCounters | None = None,
) -> np.ndarray:
    """Cubic read of one mode row at arbitrary frequencies.

    ``coeffs`` is a full (n_modes, n_xi) state or a half block of the rows
    n = 0 .. n_max (mode n in row n): row ``n - n_max - 1`` is mode n in
    both, and a half block has no row for n < 0 (IndexError).

    The vector form of ``_stencil``: the same snap, floor and weights, one
    array operation for all points.  Points beyond |xi_max| read zero; the
    rest sum four terms from +0 over the row's ``_padded`` copy, where a
    node off the grid adds w * 0 = +-0 and so moves no value or zero sign.
    """
    grid.mode_index(n)  # |n| <= n_max
    row = coeffs[n - grid.n_max - 1]
    pts = np.asarray(points, dtype=float)
    inside = np.abs(pts) <= grid.xi_max
    if counters is not None:
        counters.out_of_range_reads += int(pts.size - np.count_nonzero(inside))
        counters.note_edges(row)
    s = (pts[inside] + grid.xi_max) / grid.d_xi
    near = np.abs(s - np.round(s)) < 1e-9  # snap node reads to the stored values
    s[near] = np.round(s[near])
    b = np.floor(s).astype(np.int64)  # in 0 .. n_xi - 1, so b - 1 .. b + 2 lie in the padded row
    padded, data = _padded(row.shape)
    data[...] = row
    acc = np.zeros(b.shape, dtype=np.complex128)
    for m, wm in zip((-1, 0, 1, 2), _cubic_weights(s - b)):
        acc += wm * padded[b + (m + _PAD[0])]
    out = np.zeros(pts.shape, dtype=np.complex128)
    out[inside] = acc
    return out


def expand_half(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The full (n_modes, n_xi) state of a half block of rows n = 0 .. n_max, into ``out``.

    Rows n >= 0 are copied and rows -n_max .. -1 are the reality mirror
    h_{-n}(xi) = conj h_n(-xi).  This is the one writer of rows n < 0: every
    datum, snapshot and written state is the expansion of its half.
    """
    m = len(half) - 1
    out[m:] = half
    np.conjugate(half[:0:-1, ::-1], out=out[:m])
    return out


def enforce_reality(fld: FourierField) -> FourierField:
    """Project onto the mirror symmetry: average rows n >= 0 with their partners, then expand.

    Idempotent byte for byte; commutes with multiplication by real scalars.
    """
    m = fld.grid.n_max
    half = fld.coeffs[m:] + np.conj(fld.coeffs[m::-1, ::-1])
    # halve each part alone: a complex product with 0.5 takes a zero's sign from the other part
    np.multiply(0.5, half.view(np.float64), out=half.view(np.float64))
    return FourierField(fld.grid, expand_half(half, np.empty_like(fld.coeffs)))
