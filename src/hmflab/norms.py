"""Exponential-weight norms and the time-dependent regularity budget.

The analytic norm of a phase-space function is the weighted coefficient sup

    ||g||_mu = sup_{n, xi} e^{mu <n, xi>} |g_n(xi)|,   <n, xi> = sqrt(1 + n^2 + xi^2),

finite exactly when g extends analytically to a strip of width mu.  The
terminal-value estimates spend analytic radius over time through the
budget function a(t), the backward solution of

    da/dt = -delta e^{-a(t) t} (1 + t),   a(T) = 0,

which is positive, decreasing, grows like delta^(1/3) at t = 0 and has a
well-defined T -> infinity limit.  The weighted functionals below combine
the field history and snapshot norms over the admissible region where the
remaining budget alpha = lam - mu - a(t) stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .evolution import FieldSeries, Trajectory
from .spectral import Grid


@dataclass(frozen=True)
class NormReport:
    """Value of a sup functional plus where the sup was attained."""

    value: float
    where: tuple | None = None
    empty: bool = False


@dataclass(frozen=True)
class WeightFunction:
    """Sampled regularity budget a(t) on a uniform grid."""

    t: np.ndarray
    a: np.ndarray

    def __call__(self, tq):
        return np.interp(tq, self.t, self.a)

    @property
    def a0(self) -> float:
        return float(self.a[0])


def _march_budget(delta: float, y0: float, t0: float, t1: float, n: int) -> np.ndarray:
    """RK4 march of da/dt = -delta e^{-a t} (1 + t) from a(t0) = y0 to t1 in n steps."""
    exp, nd, h = math.exp, -delta, (t1 - t0) / n
    hh = h / 2.0  # float literals: float-by-float operations take the fast path
    ys = np.empty(n + 1)
    ys[0] = y = y0
    for i in range(n):
        t = t0 + i * h
        tm, te = t + hh, t + h
        ctm = 1.0 + tm
        k1 = nd * exp(-y * t) * (1.0 + t)
        k2 = nd * exp(-(y + h * k1 / 2.0) * tm) * ctm
        k3 = nd * exp(-(y + h * k2 / 2.0) * tm) * ctm
        k4 = nd * exp(-(y + h * k3) * te) * (1.0 + te)
        y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        ys[i + 1] = y
    return ys


def _steps(span_name: str, span: float, delta: float, d_t: float) -> int:
    """round(span/d_t), after checking the march's arguments (``not x > 0`` rejects NaN)."""
    for name, value in (("delta", delta), (span_name, span), ("d_t", d_t)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    n = int(round(span / d_t))
    if n < 1:
        raise ValueError(f"{span_name}/d_t must round to at least 1 step, got {span}/{d_t}")
    return n


def solve_a(T: float, delta: float, d_t: float) -> WeightFunction:
    """Backward integration of the budget equation from a(T) = 0."""
    n = _steps("T", T, delta, d_t)
    ys = _march_budget(delta, 0.0, T, 0.0, n)[::-1]
    if np.any(ys[:-1] <= 0.0):
        raise RuntimeError("budget integration lost positivity on [0, T)")
    # equality allowed: once a*t is large the decay underflows one ulp per step
    if np.any(np.diff(ys) > 0.0):
        raise RuntimeError("budget integration lost monotonicity")
    return WeightFunction(t=np.arange(n + 1) * (T / n), a=ys)


@lru_cache(maxsize=256)
def terminal_a0(T: float, delta: float, d_t: float) -> float:
    """a_T(0) = ``solve_a(T, delta, d_t).a0``, marched once per process per argument triple.

    The march is deterministic in its arguments, so a memo hit is the float
    the march returned; only floats are stored.  A triple whose march raises
    is not stored and raises again on every call.
    """
    return solve_a(T, delta, d_t).a0


_A_INF_RETRIES = 3


def a_infinity(delta: float, t_max: float, d_t: float) -> WeightFunction:
    """Limit budget function on [0, t_max].

    The initial value is the extrapolated limit of the terminal-problem
    values a_T(0) over increasing T (they increase and converge fast);
    forward integration from it stays positive while it tracks the
    separatrix.  The horizons are max(2 t_max, 100) times 1, 2 and 4.  A
    positivity failure means the extrapolation undershot; the horizons are
    doubled and the estimate repeated, at most ``_A_INF_RETRIES`` times.
    The a_T(0) values are read through ``terminal_a0``, so repeated calls
    march no horizon twice and a retry marches only its one new horizon.
    """
    n = _steps("t_max", t_max, delta, d_t)
    base = max(2.0 * t_max, 100.0)
    horizons = (base, 2.0 * base, 4.0 * base)
    for _ in range(_A_INF_RETRIES + 1):
        a_ext = _aitken([terminal_a0(T, delta, d_t) for T in horizons])
        ys = _march_budget(delta, a_ext, 0.0, t_max, n)
        if np.all(ys > 0.0):
            return WeightFunction(t=np.arange(n + 1) * (t_max / n), a=ys)
        horizons = tuple(2.0 * T for T in horizons)
    raise RuntimeError(
        f"limit budget stayed nonpositive on [0, {t_max}] after {_A_INF_RETRIES} retries"
    )


def _aitken(seq) -> float:
    a0, a1, a2 = seq[-3], seq[-2], seq[-1]
    denom = (a2 - a1) - (a1 - a0)
    if denom == 0.0 or not math.isfinite(denom):
        return a2
    ext = a2 - (a2 - a1) ** 2 / denom
    # the sequence increases to its limit; never extrapolate below the data
    return max(ext, a2)


@lru_cache(maxsize=32)
def _bracket(grid: Grid) -> np.ndarray:
    """<n, xi> on the rows n = 0 .. n_max, indexed like a half snapshot block.

    <n, xi> is even under (n, xi) -> (-n, -xi) and the mirror keeps |h|, so
    a weighted sup over these rows is the sup over the full lattice.
    """
    n = np.arange(grid.n_max + 1, dtype=float)[:, None]
    xi = grid.xi[None, :]
    return np.sqrt(1.0 + n * n + xi * xi)


def _log_abs(coeffs: np.ndarray) -> np.ndarray:
    out = np.full(coeffs.shape, -np.inf)
    nz = coeffs != 0
    out[nz] = np.log(np.abs(coeffs[nz]))
    return out


def functional_M(zeta: FieldSeries, lam: float) -> NormReport:
    """sup_t e^{lam t} |zeta_1(t)| over the stored window."""
    vals = np.exp(lam * zeta.t) * np.abs(zeta.zeta1)
    k = int(np.argmax(vals))
    return NormReport(float(vals[k]), (float(zeta.t[k]),))


def _boundary_refined_fractions(n_points: int) -> np.ndarray:
    """Fractions of the admissible interval, geometrically packed near 1.

    The integrand alpha^(1/2) ||h||_mu typically peaks close to the
    alpha = 0 boundary; a geometric approach resolves it at fixed cost.
    """
    tail = 1.0 - np.geomspace(1.0, 1.0 / 512.0, n_points - 1)
    return np.concatenate([[0.0], tail[1:], [1.0 - 1.0 / 1024.0]])


def _weighted_snapshot_sup(
    grid: Grid,
    times: np.ndarray,
    snapshots,
    lam: float,
    budget_at,
    mu_points: int,
) -> NormReport:
    """sup over admissible (mu, t) of (lam - mu - budget(t))^(1/2) ||h(t)||_mu.

    ``snapshots`` are half blocks (rows n = 0 .. n_max), read in place.
    """
    fractions = _boundary_refined_fractions(mu_points)
    br = _bracket(grid)
    best_val = None
    best_where = None
    for t, snap in zip(times, snapshots):
        mu_cap = lam - float(budget_at(t))
        if mu_cap <= 0.0:
            continue
        if best_val is None:
            best_val, best_where = 0.0, (0.0, float(t))
        logh = _log_abs(snap)
        if not np.any(np.isfinite(logh)):
            continue  # zero snapshot contributes 0
        for f in fractions:
            mu = f * mu_cap
            alpha = mu_cap - mu  # > 0: every fraction is below 1
            val = math.exp(float(np.max(mu * br + logh)) + 0.5 * math.log(alpha))
            if val > best_val:
                best_val, best_where = val, (float(mu), float(t))
    if best_val is None:
        return NormReport(0.0, None, empty=True)
    return NormReport(best_val, best_where)


def functional_N(
    traj: Trajectory,
    lam: float,
    weight: WeightFunction,
    mu_points: int = 64,
) -> NormReport:
    """Budget-weighted snapshot norm sup alpha^(1/2) ||h(t)||_mu.

    alpha(mu, t) = lam - mu - a(t); the reported value is a lower bound on
    the continuum sup (mu scanned on a boundary-refined grid per time).
    """
    return _weighted_snapshot_sup(traj.grid, traj.times, traj.snapshots, lam, weight, mu_points)


def functional_P_Q(
    traj: Trajectory,
    lam: float,
    lam_prime: float,
    tau: float,
    weight: WeightFunction,
    a_inf_at_tau: float,
) -> tuple[NormReport, NormReport]:
    """Windowed field sup and rescaled-budget snapshot sup for [tau, T].

    P = sup_{[tau, T]} e^{lam t} |zeta_1| over ``traj.series``; Q, over the
    snapshots, uses the budget consumed at rate Delta = lam_prime / a_inf(tau)
    (Delta grows as tau does, which is what makes the large-window regime
    contract without a small factor).
    """
    if not 0.0 < lam_prime < lam:
        raise ValueError("need 0 < lam_prime < lam")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if a_inf_at_tau <= 0:
        raise ValueError("a_inf(tau) must be positive")
    zeta = traj.series
    mask = zeta.t >= tau - 1e-12
    p_report = functional_M(FieldSeries(t=zeta.t[mask], zeta1=zeta.zeta1[mask]), lam)
    delta_scale = lam_prime / a_inf_at_tau
    scaled = lambda t: delta_scale * weight(t)
    k = int(np.searchsorted(traj.times, tau - 1e-12))  # the snapshots on [tau, T]
    q_report = _weighted_snapshot_sup(traj.grid, traj.times[k:], traj.snapshots[k:], lam, scaled, 64)
    return p_report, q_report
