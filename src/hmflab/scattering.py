"""Terminal-value (scattering) solver via alternating field/transport passes.

Given a terminal datum imposed at time T, the solution on a window
[tau, T] is constructed by successive approximation: freeze the state
history h^(j) and solve the field equation

    zeta(t) = datum_1(t) + sign * int_t^T j_{-1}(s - t) zeta(s) ds + sign * Phi[zeta, h^(j)](t),

    Phi(t)  = -(eps/2) sum_{k=+-1} k int_t^T zeta_k(s) h^(j)_{1-k}(s, t - k s) (s - t) ds,

for zeta (the coupling term is linear in the pair (zeta, conj zeta) once
the history is frozen, and its weight (s - t) leaves only snapshot times
s > t, so one backward Volterra march solves it); then integrate the
coefficient system backward from the datum with that field frozen to get
h^(j+1).  Starting from the constant-in-time datum history, the sweep
contracts when the coupling is weak -- small eps, or a window starting
late enough that the field history is already tiny.

Continuation in T re-solves on growing windows and measures how fast the
solutions settle, which is the computable footprint of the T -> infinity
limit.  The large-window mode splits the coupling integral into its two
mode branches and re-expresses the branch through the conserved-mean mode
by the mode-0 reconstruction identity, the pair of diagnostics that
explains why late windows are echo-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield, replace

import numpy as np

from .evolution import (
    _OVERFLOW_CAP,
    BlowUpError,
    FieldSeries,
    Trajectory,
    _check_march_settings,
    _march,
    _RK4Work,
    _snapshot_steps,
)
from .norms import _weighted_snapshot_sup, functional_M, solve_a
from .profiles import Profile, kernel_j
from .spectral import FourierField, TruncationCounters, sample_mode, trapezoid
from .volterra import solve_volterra


@dataclass(frozen=True)
class ScatteringConfig:
    """Backward-problem settings.

    The field is solved on the half steps of ``d_t``, the nodes the
    Runge-Kutta stages read.  The trace norms are evaluated at
    ``norm_lambda`` with budget parameter ``norm_delta``.
    """

    terminal: FourierField
    background: Profile
    epsilon: float
    T: float
    d_t: float
    tau: float = 0.0
    sign: float = 1.0
    picard_max_iters: int = 12
    picard_tol: float = 1e-6
    snap_stride: int = 10
    norm_lambda: float = 0.3
    norm_delta: float = 1e-3

    def __post_init__(self):
        _check_march_settings(self.d_t, self.epsilon, self.sign, self.snap_stride)
        if self.tau < 0 or self.tau >= self.T:
            raise ValueError(f"window needs 0 <= tau < T, got tau={self.tau}, T={self.T}")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be >= 1")
        n = (self.T - self.tau) / self.d_t
        if abs(n - round(n)) > 1e-9:
            raise ValueError("window length must be an integer number of steps")
        if self.T > self.terminal.grid.t_final + 1e-12:
            raise ValueError(
                f"T={self.T} exceeds the grid horizon {self.terminal.grid.t_final}"
            )
        # the march reads no row below 0 and mirrors the rest, so a non-real
        # datum would run unnoticed; a NaN datum passes here and diverges in sweep 1
        defect = self.terminal.reality_defect()
        if defect > 1e-10:
            raise ValueError(f"terminal datum breaks reality symmetry by {defect:.3e}")


@dataclass
class PicardTrace:
    """Per-sweep convergence record; ``inner_iterations`` counts each sweep's field marches.

    Sweep j's ``sup_diffs`` entry is the larger of the field and snapshot
    changes from sweep j - 1.  Sweep 1 has no earlier field, so its entry is
    the snapshot change from the datum history alone, and a window can
    converge in sweep 1 with an empty ``contraction_ratios`` list.  That
    certifies the field only up to the field map's Lipschitz constant times
    ``picard_tol``; a second sweep would cost every such window twice.
    """

    sup_diffs: list[float] = dfield(default_factory=list)
    contraction_ratios: list[float] = dfield(default_factory=list)
    m_norms: list[float] = dfield(default_factory=list)
    n_norms: list[float] = dfield(default_factory=list)
    inner_iterations: list[int] = dfield(default_factory=list)
    converged: bool = False
    diverged: bool = False
    iterations: int = 0
    failure: str | None = None


@dataclass(frozen=True)
class EchoSplit:
    """Mode-branch split of the field coupling integral on the window.

    ``b_plus`` couples through the conserved-mean mode, ``b_minus``
    through mode 2; ``b_plus_reconstructed`` recomputes the former with
    the mode-0 row replaced by its own coupling-integral reconstruction.
    """

    t: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    b_plus_reconstructed: np.ndarray

    def sup_values(self) -> dict:
        return {
            "sup_b_plus": float(np.max(np.abs(self.b_plus))),
            "sup_b_minus": float(np.max(np.abs(self.b_minus))),
            "sup_b_plus_reconstructed": float(np.max(np.abs(self.b_plus_reconstructed))),
            "reconstruction_defect": float(
                np.max(np.abs(self.b_plus - self.b_plus_reconstructed))
            ),
        }


@dataclass(frozen=True)
class ContinuationResult:
    """Differences between successive growing-window solutions."""

    t_values: list[float]
    zeta_diffs: list[float]
    h_diffs: list[float]
    extension_zeta_diffs: list[float]
    traces: list[PicardTrace]
    series: list[FieldSeries]
    last_trajectory: Trajectory | None


class _Workspace:
    """Shared precomputations for one backward solve; the field lives on the half steps ``t_z``."""

    def __init__(self, cfg: ScatteringConfig):
        self.cfg = cfg
        self.grid = cfg.terminal.grid
        self.n_steps = int(round((cfg.T - cfg.tau) / cfg.d_t))
        d_tz = cfg.d_t / 2
        self.t_z = cfg.tau + np.arange(2 * self.n_steps + 1) * d_tz
        self.t_fine = self.t_z[::2]  # the full steps, tau + k d_t to the bit
        self.kernel = (
            kernel_j(cfg.background, -1)
            .sample(cfg.T - cfg.tau, d_tz)
            .scaled(cfg.sign)
        )
        self.counters = TruncationCounters()
        self.datum_readout = sample_mode(
            cfg.terminal.coeffs, self.grid, 1, self.t_z, self.counters
        )
        self.snap_idx = _snapshot_steps(self.n_steps, cfg.snap_stride)
        self.snap_nodes = 2 * self.snap_idx
        self.snap_times = self.t_z[self.snap_nodes]
        self.weight = solve_a(cfg.T, cfg.norm_delta, cfg.d_t)
        self.rk4 = _RK4Work(self.grid, cfg.background, cfg.epsilon, cfg.sign)

    def coupling(self, snaps: np.ndarray):
        """The term sign * Phi as ``solve_volterra`` coefficients of zeta and conj zeta.

        Phi(t) is the trapezoid over the snapshots s_m >= t, with a partial
        leading interval [t, s_m]; its integrand carries the factor (s - t),
        so snapshot m couples only to the nodes before it.  Each snapshot's
        h_0(t - s) and h_2(t + s) rows are read once, at those nodes, from
        the half block ``snaps``.
        """
        cfg, grid, t, s = self.cfg, self.grid, self.t_z, self.snap_times
        if cfg.epsilon == 0.0:
            return None
        a, b = np.zeros((2, len(s), len(t)), dtype=np.complex128)
        scale = -0.5 * cfg.epsilon * cfg.sign
        last = len(s) - 1
        for m in range(1, last + 1):
            j, lead = self.snap_nodes[m], self.snap_nodes[m - 1]
            tt = t[:j]
            w = np.full(j, 0.5 * (s[m] - s[m - 1]))
            w[lead + 1 :] = 0.5 * (s[m] - tt[lead + 1 :])  # partial leading interval
            if m < last:
                w += 0.5 * (s[m + 1] - s[m])
            w *= scale * (s[m] - tt)
            a[m, :j] = w * sample_mode(snaps[m], grid, 0, tt - s[m], self.counters)
            b[m, :j] = -w * sample_mode(snaps[m], grid, 2, tt + s[m], self.counters)
        return self.snap_nodes, a, b

    def solve_field(self, snaps: np.ndarray) -> np.ndarray:
        """The field for the frozen history: one backward march of the coupled equation."""
        return solve_volterra(
            self.datum_readout, self.kernel, "backward", self.coupling(snaps)
        )

    def transport(self, zeta_z: np.ndarray) -> np.ndarray:
        """Backward Runge-Kutta pass with the field frozen; returns the half snapshot block."""
        cfg, grid = self.cfg, self.grid
        snaps = np.empty((len(self.snap_idx), grid.n_max + 1, grid.n_xi), dtype=np.complex128)
        for _ in _march(cfg.terminal.coeffs[grid.n_max :], self.t_z, -cfg.d_t, zeta_z,
                        self.snap_idx, snaps, self.counters, self.rk4):
            pass
        return snaps


def _trace_norms(ws: _Workspace, zeta_z, snaps) -> tuple[float, float]:
    """M and N of one sweep's iterate, read in place; N reads every 4th snapshot and the last."""
    lam = ws.cfg.norm_lambda
    sub = _snapshot_steps(len(ws.snap_times) - 1, 4)
    m_val = functional_M(FieldSeries(t=ws.t_fine, zeta1=zeta_z[::2]), lam).value
    n_val = _weighted_snapshot_sup(ws.grid, ws.snap_times[sub], (snaps[i] for i in sub), lam,
                                   ws.weight, 32).value
    return m_val, n_val


def backward_solve(config: ScatteringConfig) -> tuple[Trajectory, PicardTrace]:
    """Solve the terminal-value problem on [tau, T] by Picard sweeps.

    Convergence is declared when the sup change of both the field series
    and the stored snapshots falls under ``picard_tol``; the trace records
    the change, the contraction ratios and the weighted norms of each
    iterate.  Non-convergence (including overflow) is a reportable
    outcome, returned as a trace marked diverged, not an exception.
    """
    ws = _Workspace(config)
    trace = PicardTrace()
    datum = config.terminal.coeffs[ws.grid.n_max :]  # rows 0 .. n_max
    snaps = np.broadcast_to(datum, (len(ws.snap_idx),) + datum.shape)
    zeta_prev: np.ndarray | None = None
    zeta = None
    for it in range(1, config.picard_max_iters + 1):
        trace.iterations = it
        zeta = ws.solve_field(snaps)
        trace.inner_iterations.append(1)
        if not float(np.max(np.abs(zeta))) <= _OVERFLOW_CAP:  # NaN fails too
            trace.diverged = True
            trace.failure = "field solve overflowed or is not finite"
            break
        try:
            new_snaps = ws.transport(zeta)
        except BlowUpError as exc:
            trace.diverged = True
            trace.failure = str(exc)
            break
        dh = max(
            float(np.max(np.abs(a - b))) for a, b in zip(new_snaps, snaps)
        )
        dz = (
            float(np.max(np.abs(zeta - zeta_prev)))
            if zeta_prev is not None
            else math.inf
        )
        diff = max(dh, dz if math.isfinite(dz) else dh)
        if trace.sup_diffs:
            trace.contraction_ratios.append(diff / trace.sup_diffs[-1])
        trace.sup_diffs.append(diff)
        m_val, n_val = _trace_norms(ws, zeta, new_snaps)
        trace.m_norms.append(m_val)
        trace.n_norms.append(n_val)
        snaps = new_snaps
        zeta_prev = zeta
        if diff < config.picard_tol:
            trace.converged = True
            break
    if not trace.converged and not trace.diverged:
        trace.diverged = True
        trace.failure = f"no convergence in {config.picard_max_iters} iterations"
    traj = Trajectory(
        grid=ws.grid,
        times=ws.snap_times.copy(),
        snapshots=snaps,
        series=FieldSeries(t=ws.t_fine.copy(), zeta1=zeta[::2].copy()),
        counters=ws.counters,
    )
    return traj, trace


def continue_in_T(config: ScatteringConfig, t_values) -> ContinuationResult:
    """Re-solve on growing windows and difference successive solutions.

    All runs share the terminal datum's grid, step and snapshot cadence,
    so fields and series are comparable node-by-node on the overlap
    [tau, min(T, T')].  Each solution is extended by the datum beyond its
    own window; the extension's field mismatch over (T, T'] is reported
    separately.
    """
    t_values = sorted(float(T) for T in t_values)
    if any(T > config.terminal.grid.t_final + 1e-12 for T in t_values):
        raise ValueError("every continuation horizon must fit the grid")
    traces: list[PicardTrace] = []
    series: list[FieldSeries] = []
    zeta_diffs: list[float] = []
    h_diffs: list[float] = []
    ext_diffs: list[float] = []
    prev: Trajectory | None = None
    for T in t_values:
        cfg = replace(config, T=T)
        traj, trace = backward_solve(cfg)
        traces.append(trace)
        series.append(traj.series)
        if prev is not None:
            n_common = len(prev.series.t)
            zeta_diffs.append(
                float(np.max(np.abs(traj.series.zeta1[:n_common] - prev.series.zeta1)))
            )
            # Both windows start at tau with the same step and cadence, so their
            # snapshots agree index by index up to the shorter window's last
            # on-cadence one; its off-cadence endpoint, if any, has no partner.
            n_snap = len(prev.times)
            if prev.times[-1] != traj.times[n_snap - 1]:
                n_snap -= 1
            h_diffs.append(
                max(
                    float(np.max(np.abs(traj.snapshots[m] - prev.snapshots[m])))
                    for m in range(n_snap)
                )
            )
            # extension of the previous run by the datum, measured on (T_prev, T]
            mask = traj.series.t > prev.series.t[-1] + 1e-12
            ext_readout = sample_mode(
                config.terminal.coeffs, config.terminal.grid, 1, traj.series.t[mask]
            )
            ext_diffs.append(
                float(np.max(np.abs(traj.series.zeta1[mask] - ext_readout)))
                if np.any(mask)
                else 0.0
            )
        prev = traj
    return ContinuationResult(
        t_values=t_values,
        zeta_diffs=zeta_diffs,
        h_diffs=h_diffs,
        extension_zeta_diffs=ext_diffs,
        traces=traces,
        series=series,
        last_trajectory=prev,
    )


def nonperturbative_solve(
    config: ScatteringConfig,
) -> tuple[Trajectory, PicardTrace, EchoSplit | None]:
    """Late-window solve with an order-one datum (no small parameter).

    The coupling runs at full strength (epsilon must be 1); the datum is
    the mean-zero part of the target state and the background its x-mean.
    Convergence rests on the window start, not on amplitude smallness, so
    the kernel margin is recorded by the caller rather than enforced.
    Returns the mode-branch echo split of the converged solution (None if
    the run diverged).
    """
    if config.epsilon != 1.0:
        raise ValueError("the non-perturbative mode runs at epsilon = 1")
    traj, trace = backward_solve(config)
    split = echo_split(traj, config) if trace.converged else None
    return traj, trace, split


def echo_split(traj: Trajectory, config: ScatteringConfig) -> EchoSplit:
    """Split the coupling integral of the mode-1 field equation by branch.

    On snapshot times t_m:

        B_+(t) =  int_t^T zeta_1(s)  h_0(s, t - s) (t - s) ds
        B_-(t) = -int_t^T zeta_-1(s) h_2(s, t + s) (t - s) ds

    and B_+ again with h_0 replaced by its coupling reconstruction

        h_0(s, u) = sign * sum_k (k/2) int_s^T zeta_k(l) h_{-k}(l, u - k l) u dl,

    valid because the datum mean-zero row makes the terminal term vanish.
    All integrals ride the snapshot grid, and zeta is read at its nodes
    there.  Each snapshot's four rows are read once, from its full state
    (the h_{-1} read needs the rows n < 0); the pair (t_i, s_m)
    reads u column round((t_i - s_m)/du) (round half even), the exact
    offset on the cadence.
    """
    grid, ts = traj.grid, traj.times
    m_count = len(ts)
    zeta_at = traj.series.zeta1[np.searchsorted(traj.series.t, ts)]
    u = -(ts[::-1] - ts[0])  # multiples of du = ts[1] - ts[0] in [-(T-tau), 0]
    u_col = np.rint((ts[:, None] - ts[None, :]) / (ts[1] - ts[0])).astype(np.intp) + m_count - 1

    # rows [s_m, u] of h_0, [s_m, t_i] of h_2(s, t + s), and the reconstruction
    # integrand [l_m, u] of zeta_1 h_{-1}(l, u - l) - zeta_-1 h_1(l, u + l)
    h0_read, h2_read, rec_rows = np.empty((3, m_count, m_count), dtype=np.complex128)
    full = np.empty((grid.n_modes, grid.n_xi), dtype=np.complex128)
    for m, s in enumerate(ts):
        snap = traj.full_state(m, full)
        h0_read[m] = sample_mode(snap, grid, 0, u)
        h2_read[m] = sample_mode(snap, grid, 2, ts + s)
        r_p = sample_mode(snap, grid, -1, u - s)
        r_m = sample_mode(snap, grid, 1, u + s)
        rec_rows[m] = zeta_at[m] * r_p - np.conj(zeta_at[m]) * r_m

    # mode-0 reconstruction on (s_m, u): reverse cumulative trapezoid over l
    h0_rec = np.zeros_like(rec_rows)
    for m in range(m_count - 2, -1, -1):
        h0_rec[m] = h0_rec[m + 1] + 0.5 * (ts[m + 1] - ts[m]) * (rec_rows[m] + rec_rows[m + 1])
    h0_rec *= config.sign * config.epsilon * 0.5 * u

    b_plus, b_minus, b_plus_rec = np.zeros((3, m_count), dtype=np.complex128)
    for i, t_i in enumerate(ts[:-1]):
        rows, cols = np.arange(i, m_count), u_col[i, i:]
        z, s, lag = zeta_at[i:], ts[i:], t_i - ts[i:]
        b_plus[i] = trapezoid(z * h0_read[rows, cols] * lag, s)
        b_minus[i] = trapezoid(-np.conj(z) * h2_read[i:, i] * lag, s)
        b_plus_rec[i] = trapezoid(z * h0_rec[rows, cols] * lag, s)
    return EchoSplit(t=ts.copy(), b_plus=b_plus, b_minus=b_minus, b_plus_reconstructed=b_plus_rec)
