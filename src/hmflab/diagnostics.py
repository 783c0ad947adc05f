"""Decay-rate fits, echo detection and estimate audits.

The damping statements are exponential with unspecified constants, so
verification works through log-linear least squares on field magnitudes,
envelope-relative resurgence (echo) detection, and empirical-constant
extraction for the two coupled a-priori inequalities

    M <= C ( D + eps * M N / (lam^2 sqrt(lam - a_inf(0))) )
    N <= C ( D + M E / delta + eps M N / delta )

where M, N are the field and budget-weighted state functionals, D the
datum norm and E the background norm at the same weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import EvolutionParams, FieldSeries, Trajectory, forward_solve
from .norms import (
    WeightFunction,
    _bracket,
    _log_abs,
    analytic_norm,
    functional_M,
    functional_N,
    profile_analytic_norm,
)
from .profiles import Profile
from .spectral import FourierField


class FitWindowError(ValueError):
    """Window leaves too few usable nodes for a log-linear fit."""


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit |y(t)| ~ amplitude * exp(-rate * t)."""

    rate: float
    amplitude: float
    residual: float
    window: tuple[float, float]
    n_used: int

    def envelope(self, t):
        return self.amplitude * np.exp(-self.rate * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class EchoEvent:
    """Envelope-relative local resurgence of the field."""

    time: float
    prominence: float


def fit_decay_values(
    t: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
    min_nodes: int = 10,
    min_nonzero_fraction: float = 0.8,
) -> DecayFit:
    """Log-linear fit of a nonnegative series on a time window.

    Zeros are excluded from the fit; the window must keep at least
    ``min_nodes`` usable nodes and a ``min_nonzero_fraction`` share of
    nonzero samples.  The residual is the RMS misfit of log values, so a
    clean exponential scores ~0 and a Gaussian scores order one.
    """
    t = np.asarray(t, dtype=float)
    values = np.abs(np.asarray(values))
    lo, hi = window
    in_win = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    if not np.any(in_win):
        raise FitWindowError(f"window {window} contains no samples")
    tw = t[in_win]
    vw = values[in_win]
    nonzero = vw > 0.0
    if np.count_nonzero(nonzero) < min_nonzero_fraction * len(vw):
        raise FitWindowError(
            f"only {np.count_nonzero(nonzero)}/{len(vw)} nonzero samples in {window}"
        )
    tw, vw = tw[nonzero], vw[nonzero]
    if len(tw) < min_nodes:
        raise FitWindowError(f"{len(tw)} usable nodes < required {min_nodes}")
    y = np.log(vw)
    slope, intercept = np.polyfit(tw, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * tw + intercept)) ** 2)))
    return DecayFit(
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        residual=resid,
        window=(float(lo), float(hi)),
        n_used=len(tw),
    )


def fit_decay(zeta: FieldSeries, window: tuple[float, float], **kw) -> DecayFit:
    """Exponential fit of the field magnitude |zeta_1| on a window."""
    return fit_decay_values(zeta.t, zeta.magnitude(), window, **kw)


def detect_echoes(
    zeta: FieldSeries,
    fit: DecayFit,
    threshold: float,
    half_window: int = 5,
) -> list[EchoEvent]:
    """Local maxima of the envelope-normalized field above a threshold.

    Normalization by the fitted envelope makes detection invariant under
    rescaling the datum; a node is an event when it dominates its
    ``half_window`` neighbors on both sides and its normalized value
    exceeds ``threshold``.
    """
    t = zeta.t
    normalized = zeta.magnitude() / fit.envelope(t)
    events: list[EchoEvent] = []
    n = len(t)
    for i in range(1, n - 1):
        v = normalized[i]
        if v <= threshold:
            continue
        lo = max(0, i - half_window)
        hi = min(n, i + half_window + 1)
        seg = normalized[lo:hi]
        if v >= np.max(seg) and (v > normalized[i - 1] or v > normalized[i + 1]):
            if events and abs(events[-1].time - t[i]) < (t[1] - t[0]) * half_window:
                if v > events[-1].prominence:
                    events[-1] = EchoEvent(time=float(t[i]), prominence=float(v))
                continue
            events.append(EchoEvent(time=float(t[i]), prominence=float(v)))
    return events


@dataclass(frozen=True)
class AprioriAudit:
    """Empirical constants closing the coupled field/state inequalities."""

    m_value: float
    n_value: float
    datum_norm: float
    background_norm: float
    field_constant: float
    state_constant: float
    lam: float
    delta: float
    epsilon: float


def audit_apriori(
    traj: Trajectory,
    zeta: FieldSeries,
    terminal: FourierField,
    background: Profile,
    epsilon: float,
    lam: float,
    weight: WeightFunction,
    a_inf_zero: float,
) -> AprioriAudit:
    """Best (smallest) constants making the two a-priori bounds hold.

    Each inequality is solved for its constant given the measured
    functionals; stability of the constants under grid refinement is the
    check that they estimate continuum quantities rather than noise.
    """
    m_val = functional_M(zeta, lam).value
    n_val = functional_N(traj, lam, weight).value
    datum_norm = analytic_norm(terminal, lam).value
    bg_norm = profile_analytic_norm(background, lam)
    if lam - a_inf_zero <= 0:
        raise ValueError("lam must exceed the limiting budget a_inf(0)")
    field_rhs = datum_norm + epsilon * m_val * n_val / (
        lam ** 2 * math.sqrt(lam - a_inf_zero)
    )
    state_rhs = (
        datum_norm
        + m_val * bg_norm / weight.delta
        + epsilon * m_val * n_val / weight.delta
    )
    return AprioriAudit(
        m_value=m_val,
        n_value=n_val,
        datum_norm=datum_norm,
        background_norm=bg_norm,
        field_constant=m_val / field_rhs if field_rhs > 0 else 0.0,
        state_constant=n_val / state_rhs if state_rhs > 0 else 0.0,
        lam=lam,
        delta=weight.delta,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class RegularityProfile:
    """Largest weight mu with ||h(t)||_mu below a cap, per snapshot time."""

    t: np.ndarray
    mu_star: np.ndarray
    cap: float


def regularity_profile(
    traj: Trajectory, cap: float, mu_max: float = 2.0, n_mu: int = 120
) -> RegularityProfile:
    """Track the analytic radius of the snapshots against a norm cap.

    The weighted norm is increasing in mu, so for each snapshot a scan
    from below finds the last mu whose norm stays under the cap (mu_max
    when even that one passes).
    """
    mus = np.linspace(0.0, mu_max, n_mu)
    br = _bracket(traj.grid)
    out = np.empty(len(traj.times))
    for i, snap in enumerate(traj.snapshots):
        logh = _log_abs(snap)
        best = 0.0
        for mu in mus:
            # ||h||_mu as analytic_norm evaluates it, with the log taken once per snapshot
            if np.exp(np.max(mu * br + logh)) < cap:
                best = mu
            else:
                break
        out[i] = best
    return RegularityProfile(t=traj.times.copy(), mu_star=out, cap=cap)


@dataclass(frozen=True)
class RoundTripReport:
    """Forward re-integration of a backward solution against its datum."""

    error: float
    tolerance: float
    within_tolerance: bool
    backward_profile: RegularityProfile
    forward_profile: RegularityProfile | None


def compare_backward_forward(
    backward: Trajectory,
    terminal: FourierField,
    background: Profile,
    epsilon: float,
    picard_tol: float,
    sign: float = 1.0,
    forward_rough: Trajectory | None = None,
    cap: float = 10.0,
) -> RoundTripReport:
    """Round-trip and regularity-direction check of a converged solve.

    Forward integration from the backward solution's initial state must
    land on the terminal datum within 5x the sweep tolerance.  The
    analytic-radius profile of the backward solution should not lose
    radius as t grows, while a forward run from rough data should not
    gain it; pass ``forward_rough`` to report the second profile.
    """
    grid = backward.grid
    t0 = float(backward.times[0])
    t1 = float(backward.times[-1])
    if abs(t0) > 1e-12:
        raise ValueError("round trip needs a backward run with window start 0")
    d_t = float(backward.series.t[1] - backward.series.t[0])
    params = EvolutionParams(
        profile=background,
        epsilon=epsilon,
        d_t=d_t,
        t_final=t1,
        sign=sign,
        snap_stride=max(1, len(backward.series.t) // 4),
    )
    fwd = forward_solve(backward.initial(), params)
    err = float(np.max(np.abs(fwd.final().coeffs - terminal.coeffs)))
    tol = 5.0 * picard_tol
    return RoundTripReport(
        error=err,
        tolerance=tol,
        within_tolerance=err <= tol,
        backward_profile=regularity_profile(backward, cap),
        forward_profile=regularity_profile(forward_rough, cap) if forward_rough else None,
    )
