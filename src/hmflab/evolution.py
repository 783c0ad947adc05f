"""Fourier-space dynamics in the free-streaming frame and the forward solver.

The coefficient system for the perturbation h around a background eta is

    d/dt h_n(t, xi) = sign * [ delta_{n,+-1} n (i/2) zeta_n(t) eta_prime_hat(xi - n t)
                               - eps sum_{k=+-1} k (zeta_k(t)/2) h_{n-k}(t, xi - k t) (xi - n t) ],

with the field read directly off the state, zeta_n(t) = h_n(t, n t) for
n = +-1 and zeta_{-1} = conj(zeta_1).  ``sign`` is +1 for the repulsive
force and -1 for the attractive variant.  The (n, xi) = (0, 0) entry has a
vanishing right-hand side, so the mean is conserved exactly.

The system commutes with the reality mirror h_{-n}(-xi) = conj h_n(xi), so
the rows n < 0 carry no information of their own.  Time stepping is one
classical four-stage Runge-Kutta march for both directions, on the half
spectrum: it advances rows n = 0 .. n_max and re-sets row -1, the one
negative row the n = 0 coupling reads, as the mirror of row +1 after every
stage (the Hermitian half-storage of real-data transforms, as in numpy's
``rfft``).  Row 0 is its own mirror partner and is still computed directly;
``forward_solve`` checks its symmetry.  Forward, the march extracts the
field from each stage state (the readout is explicit, so no predictor is
needed); a backward transport pass freezes it.  A ``Trajectory`` stores the
rows n = 0 .. n_max only, and the rows n < 0 are made where a full state is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .profiles import Profile
from .spectral import (
    FourierField,
    Grid,
    GridError,
    TruncationCounters,
    _padded,
    _shift_plans,
    expand_half,
    shift_rows,
)


class BlowUpError(RuntimeError):
    """A coefficient passed the overflow cap: instability or under-resolution."""

    def __init__(self, t: float, magnitude: float):
        super().__init__(
            f"coefficient magnitude {magnitude:.3e} exceeded the overflow cap at t={t:.3f}"
        )
        self.t = t
        self.magnitude = magnitude


class RealityDriftError(RuntimeError):
    """Mirror-symmetry defect grew beyond tolerance during a run."""


_OVERFLOW_CAP = 1e6  # largest coefficient magnitude a march or field solve may reach


def _check_march_settings(d_t: float, epsilon: float, sign: float, snap_stride: int) -> None:
    """The step, coupling, force and snapshot settings every solver shares."""
    if not (d_t > 0 and epsilon >= 0 and sign in (1, -1) and snap_stride >= 1):
        raise ValueError(
            "need d_t > 0, epsilon >= 0, sign +-1 and snap_stride >= 1; got "
            f"d_t={d_t}, epsilon={epsilon}, sign={sign}, snap_stride={snap_stride}"
        )


@dataclass(frozen=True)
class EvolutionParams:
    """Settings for a time integration.

    ``sign`` selects the force convention (+1 repulsive, -1 attractive).
    Snapshots are stored every ``snap_stride`` steps; the field series is
    recorded at every step.
    """

    profile: Profile
    epsilon: float
    d_t: float
    t_final: float
    sign: float = 1.0
    snap_stride: int = 10

    def __post_init__(self):
        _check_march_settings(self.d_t, self.epsilon, self.sign, self.snap_stride)
        if self.d_t > 0.1:
            raise ValueError(f"d_t must lie in (0, 0.1], got {self.d_t}")


@dataclass(frozen=True)
class FieldSeries:
    """Mode +1 field history; the -1 mode is its conjugate by reality."""

    t: np.ndarray
    zeta1: np.ndarray

    def __post_init__(self):
        if len(self.t) != len(self.zeta1):
            raise ValueError("time grid and field series length mismatch")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.zeta1)


@dataclass(frozen=True)
class Trajectory:
    """Half-spectrum snapshot block plus the full-resolution field series.

    ``snapshots`` is one C-contiguous complex128 array of shape
    (count, n_max + 1, n_xi): snapshot m is ``snapshots[m]``, mode n >= 0 in
    row n.  The rows n < 0 are the reality mirror h_{-n}(xi) = conj h_n(-xi)
    and are not stored; ``full_state`` adds them.
    """

    grid: Grid
    times: np.ndarray
    snapshots: np.ndarray = dfield(repr=False)
    series: FieldSeries
    counters: TruncationCounters = dfield(default_factory=TruncationCounters)

    def __post_init__(self):
        block = np.ascontiguousarray(self.snapshots, dtype=np.complex128)
        if block.ndim != 3 or block.shape[1:] != (self.grid.n_max + 1, self.grid.n_xi):
            raise GridError(
                f"snapshot block shape {block.shape} does not match the half grid "
                f"(count, {self.grid.n_max + 1}, {self.grid.n_xi})"
            )
        if len(self.times) != len(block):
            raise ValueError("snapshot times and snapshots length mismatch")
        object.__setattr__(self, "snapshots", block)

    def full_state(self, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """Snapshot m (negative counts from the end) expanded by ``expand_half`` into ``out``.

        ``out`` is a new (n_modes, n_xi) array when None.
        """
        if out is None:
            out = np.empty((self.grid.n_modes, self.grid.n_xi), dtype=np.complex128)
        return expand_half(self.snapshots[m], out)

    def initial(self) -> FourierField:
        return FourierField(self.grid, self.full_state(0))

    def final(self) -> FourierField:
        return FourierField(self.grid, self.full_state(-1))

    def max_mean_drift(self) -> float:
        mean = self.snapshots[:, 0, self.grid.n_half]
        return float(np.max(np.abs(mean - mean[0])))


def extract_zeta(
    coeffs: np.ndarray, node: int, work: _RK4Work, counters: TruncationCounters
) -> complex:
    """Field readout zeta_1(t) = h_1(t, t) from a full state at ``work``'s half-step ``node``.

    Mode -1 is not read: for a real state zeta_{-1} = conj(zeta_1).  In scalar
    arithmetic, with the node's readout plan, the same value and counter
    update as ``sample_mode`` at [t].
    """
    grid = work.grid
    row = coeffs[grid.mode_index(1)]
    counters.note_edges(row)
    _, _, b, _, *w = work.plans[node, 2].tolist()
    n_xi = grid.n_xi  # a computed property: read it once, not per stencil node
    acc = np.complex128(0.0)
    for m, wm in zip((-1, 0, 1, 2), w):
        if 0 <= b + m < n_xi:
            acc += wm * row[b + m]
    return complex(acc)


class _RK4Work:
    """One solve's settings, half-step nodes and read plans, and the march state and blocks.

    Every block has the padded row layout of ``spectral._padded``, with zero
    padding, so ``shift_rows`` reads it as it is.  ``state`` is the march's
    full state (data view ``data``) and ``stage`` the stage state (data view
    ``stage_data``); the march writes their rows -1 .. n_max.  The
    right-hand side writes into the rest: the two shifted copies of the
    state, one weighted term, the coupling accumulator, the running sum
    k1 + 2 k2 + 2 k3 + k4 and one stage derivative, on the rows
    n = 0 .. n_max (the k = -1 shifted copy on rows 1 .. n_max).  For a
    finite field their padding stays +-0, as ``shift_rows`` zeroes its
    output's and the rest is elementwise, so the states' stays +0.

    The solve reads its stages at the half-step nodes ``t`` only, and what
    depends on the stage time alone is worked out per node:
    - ``plans[node]`` holds the three ``spectral._shift_plans`` records of
      node time t, planned in one vector pass when the work is made: the
      coupling's reads h_{n-1}(xi - t) and h_{n+1}(xi + t), and the readout
      at xi = t (column 0 of a read at xi + t + xi_max), so every Picard
      sweep reads the plans the first one did;
    - ``stage_rows(node)`` keeps (xi - n t) and eta'(xi - t) for the latest
      node, since the march reads t, t_mid, t_mid, t_next and starts the
      next step at that t_next.
    Both give what a fresh computation would, so a work reused across
    nodes and sweeps gives the bytes a fresh one does.  A node past the
    frequency cutoff has no readout and raises ValueError.
    """

    def __init__(self, grid: Grid, profile: Profile, epsilon: float, sign: float, t_half):
        full, half = (grid.n_modes, grid.n_xi), (grid.n_max + 1, grid.n_xi)
        self.grid = grid
        self.profile, self.epsilon, self.sign = profile, epsilon, sign
        self.t = t = np.asarray(t_half, dtype=float)
        if np.any(np.abs(t) > grid.xi_max):
            raise ValueError(f"readout time |t| = {np.max(np.abs(t))} beyond the frequency "
                             f"cutoff {grid.xi_max}")
        self.plans = _shift_plans(grid, np.stack((-t, t, t + grid.xi_max), axis=-1))
        self.xi = grid.xi
        self.n_col = np.arange(grid.n_max + 1.0)[:, None]
        (self.state, self.data), (self.stage, self.stage_data) = _padded(full), _padded(full)
        (self.sp, self.term, self.acc, self.k_sum, self.k) = (_padded(half)[0] for _ in range(5))
        self.sm = _padded((grid.n_max, grid.n_xi))[0]
        # the latest stage node, eta'(xi - t) and (xi - n t); the last is
        # stored complex, the type numpy casts it to for the product with h
        self._node = None
        (self._eta_row, self._eta_data), (self._fac, self._fac_data) = (
            _padded((grid.n_xi,)), _padded(half))

    def stage_rows(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """eta'(xi - t) of the background and (xi - n t) on rows n = 0 .. n_max at ``node``."""
        if self._node != node:
            self._node, t = node, self.t[node]
            self._eta_data[...] = self.profile.eta_prime_hat(self.xi - t)
            np.subtract(self.xi, self.n_col * t, out=self._fac_data)
        return self._eta_row, self._fac


def rhs_coeffs(
    coeffs: np.ndarray, node: int, zeta1: complex, work: _RK4Work, out: np.ndarray
) -> np.ndarray:
    """Right-hand side of rows n = 0 .. n_max at ``work``'s node ``node`` into ``out`` (hot path).

    ``coeffs`` is a full state of n_modes rows, of which rows -1 .. n_max
    are read; ``out`` has n_max + 1 rows, mode n in row n; both have the
    padded layout of ``spectral._padded``.  The rows n < 0 are the reality
    mirror of these and are not computed.  The coupling reads
    h_{n-k}(xi - k t): the shift -k t is common to all rows, so one shifted
    read of rows -1 .. n_max - 1 serves k = +1 and one of rows 1 .. n_max
    serves k = -1, and the mode recursion n -> n -+ 1 is a one-row offset
    between the blocks.  Only mode +1 carries the eta' forcing.  The
    background, coupling and force are ``work``'s; the two reads' plans are
    the node's entries in its plan table, and the (xi - n t) and
    eta'(xi - t) rows come from its entry for the latest node, so no call
    sets up a stencil and a repeat of the latest node evaluates no profile.
    """
    m = work.grid.n_max
    epsilon = work.epsilon
    eta_row, fac = work.stage_rows(node)
    if epsilon != 0.0:
        plan_p, plan_m = work.plans[node, :2].tolist()
        sp = shift_rows(coeffs[m - 1 : 2 * m], plan_p, work.sp, work.term)  # h_{n-1}(xi - t)
        sm = shift_rows(coeffs[m + 1 :], plan_m, work.sm, work.term[:-1])  # h_{n+1}(xi + t)
        # row n: acc = (eps/2) zeta_1 h_{n-1}(xi - t) - (eps/2) zeta_-1 h_{n+1}(xi + t),
        # the second term present only where mode n + 1 exists
        acc, term = work.acc, work.term
        np.multiply(0.5 * epsilon * zeta1, sp, out=acc)
        np.multiply(0.5 * epsilon * np.conj(zeta1), sm, out=term[:-1])
        np.subtract(acc[:-1], term[:-1], out=acc[:-1])
        np.multiply(fac, acc, out=acc)
        np.subtract(0.0, acc, out=out)
    else:
        out.fill(0.0)
    forcing = (0.5j * zeta1) * eta_row
    if epsilon != 0.0:
        np.subtract(forcing, acc[1], out=out[1])
    else:
        out[1] = forcing
    if work.sign != 1.0:
        out *= work.sign
    return out


def _validate_initial(h0: FourierField) -> None:
    # written as not (x <= 1e-10) so that a NaN anywhere in the state fails
    defect = h0.reality_defect()
    if not defect <= 1e-10:
        raise ValueError(f"initial state breaks reality symmetry by {defect:.3e}")
    mean = abs(h0.mean_mode_at_zero())
    if not mean <= 1e-10:
        raise ValueError(f"initial state is not mean-zero: |h_0(0)| = {mean:.3e}")


def _snapshot_steps(n_steps: int, stride: int) -> np.ndarray:
    """Steps that store a snapshot: every ``stride``-th from 0, plus the last."""
    steps = np.arange(0, n_steps + 1, stride)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _march(c0, h, zeta, steps, snaps, counters, work):
    """Classical RK4 on ``work``'s half-step nodes t from ``c0``; yields (j, t[2j]).

    The half start ``c0`` (rows n = 0 .. n_max) is copied into
    ``work.state`` and never written; callers read the state after each
    step as ``work.data``.  Full index i
    is node 2i; ``h`` > 0 marches up from node 0, ``h`` < 0 down from the
    last.  The step from i to j reads its stages at nodes 2i, i + j (twice)
    and 2j, each taking its time, plans and field from that node: the field is
    read off the stage state with ``zeta`` None, otherwise it is the frozen
    zeta[node] (time order).  Each step advances the rows n = 0 .. n_max;
    row -1 is set to the mirror conj(h_1(-xi)) at the start and after
    every stage and step, and no row below -1 is read.  After every
    step a coefficient of rows 0 .. n_max past the overflow cap, or a NaN,
    raises BlowUpError.  The rows 0 .. n_max of the states at the full
    indices ``steps`` fill the half block ``snaps`` in time order, edge
    columns tallied after the first.
    """
    m, t_half = work.grid.n_max, work.t
    k_sum, k, c, y = work.k_sum, work.k, work.state, work.stage
    c_data, y_data = work.data, work.stage_data
    c_half, y_half = c[m:], y[m:]  # rows 0 .. n_max, the ones advanced
    c_data[m:] = c0
    np.conjugate(c_data[m + 1, ::-1], out=c_data[m - 1])
    row = np.full(len(t_half) // 2 + 1, -1)
    row[steps] = np.arange(len(steps))
    order = range(len(row)) if h > 0 else range(len(row) - 1, -1, -1)  # full indices
    snaps[row[order[0]]] = c_data[m:]

    def rhs(state, data, node, out):
        z = extract_zeta(data, node, work, counters) if zeta is None else zeta[node]
        rhs_coeffs(state, node, z, work, out)

    def stage(kx, scale):
        np.add(c_half, np.multiply(scale, kx, out=y_half), out=y_half)
        np.conjugate(y_data[m + 1, ::-1], out=y_data[m - 1])

    # c + (h/6) (k1 + 2 k2 + 2 k3 + k4) left to right; k holds k2, k3, k4 in turn
    for i, j in zip(order, order[1:]):
        rhs(c, c_data, 2 * i, k_sum)
        stage(k_sum, 0.5 * h)
        rhs(y, y_data, i + j, k)
        stage(k, 0.5 * h)
        np.add(k_sum, np.multiply(2.0, k, out=k), out=k_sum)
        rhs(y, y_data, i + j, k)
        stage(k, h)
        np.add(k_sum, np.multiply(2.0, k, out=k), out=k_sum)
        rhs(y, y_data, 2 * j, k)
        np.add(k_sum, k, out=k_sum)
        np.add(c_half, np.multiply(h / 6.0, k_sum, out=k_sum), out=c_half)
        np.conjugate(c_data[m + 1, ::-1], out=c_data[m - 1])
        peak = np.max(np.abs(c_half))  # row -1 holds row 1's magnitudes, the padding zeros
        if not peak <= _OVERFLOW_CAP:  # NaN fails too
            raise BlowUpError(float(t_half[2 * j]), float(peak))
        if row[j] >= 0:
            snaps[row[j]] = half = c_data[m:]
            # each edge column's peak; the rows n < 0 mirror these columns, so they add nothing
            counters.note_edges(np.max(np.abs(half[:, [0, -1]]), axis=0))
        yield j, t_half[2 * j]


_REALITY_CHECK_EVERY = 100
_REALITY_TOL = 1e-10


def forward_solve(h0: FourierField, params: EvolutionParams) -> Trajectory:
    """Integrate the initial-value problem on [0, t_final].

    Returns snapshots every ``snap_stride`` steps (plus the endpoint) and
    the per-step field series.  Aborts with BlowUpError when any
    coefficient magnitude passes the overflow cap, and with
    RealityDriftError when mode 0, the one row the march does not mirror,
    drifts from h_0(-xi) = conj h_0(xi) by more than 1e-10 (checked every
    100 steps and at the last).
    """
    grid = h0.grid
    if params.t_final > grid.t_final + 1e-12:
        raise ValueError(
            f"t_final={params.t_final} exceeds the grid horizon {grid.t_final}"
        )
    _validate_initial(h0)
    n_steps = int(round(params.t_final / params.d_t))
    if abs(n_steps * params.d_t - params.t_final) > 1e-9:
        raise ValueError("t_final must be an integer number of steps")
    counters = TruncationCounters()
    t_half = np.arange(2 * n_steps + 1) * (0.5 * params.d_t)
    times = t_half[::2]  # the same floats as np.arange(n_steps + 1) * d_t
    steps = _snapshot_steps(n_steps, params.snap_stride)
    snapshots = np.empty((len(steps), grid.n_max + 1, grid.n_xi), dtype=np.complex128)
    zs = np.empty(n_steps + 1, dtype=np.complex128)
    work = _RK4Work(grid, params.profile, params.epsilon, params.sign, t_half)
    zs[0] = extract_zeta(h0.coeffs, 0, work, counters)
    for i, t in _march(h0.coeffs[grid.n_max :], params.d_t, None, steps, snapshots, counters,
                       work):
        if i % _REALITY_CHECK_EVERY == 0 or i == n_steps:  # row 0 is its own mirror partner
            h_0 = work.data[grid.n_max]
            drift = float(np.max(np.abs(h_0 - np.conj(h_0[::-1]))))
            if drift > _REALITY_TOL:
                raise RealityDriftError(
                    f"reality drift {drift:.3e} of mode 0 exceeds {_REALITY_TOL:.1e} at t={t:.3f}"
                )
        zs[i] = extract_zeta(work.data, 2 * i, work, counters)

    return Trajectory(
        grid=grid,
        times=times[steps],
        snapshots=snapshots,
        series=FieldSeries(t=times, zeta1=zs),
        counters=counters,
    )
