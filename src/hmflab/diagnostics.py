"""Decay-rate fits, echo detection and round-trip comparisons.

The damping statements are exponential with unspecified constants, so
verification works through log-linear least squares on field magnitudes,
envelope-relative resurgence (echo) detection, and the analytic-radius
profiles that show which way a solve moves regularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import EvolutionParams, FieldSeries, Trajectory, forward_solve
from .norms import _bracket, _log_abs
from .scattering import ScatteringConfig


class FitWindowError(ValueError):
    """Window leaves too few usable nodes for a log-linear fit."""


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit |y(t)| ~ amplitude * exp(-rate * t)."""

    rate: float
    amplitude: float
    residual: float
    n_used: int

    def envelope(self, t):
        return self.amplitude * np.exp(-self.rate * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class EchoEvent:
    """Envelope-relative local resurgence of the field."""

    time: float
    prominence: float


def fit_decay_values(
    t: np.ndarray, values: np.ndarray, window: tuple[float, float]
) -> DecayFit:
    """Log-linear fit of a nonnegative series on a time window.

    Zeros are excluded from the fit; the window must keep at least 10
    usable nodes, and at least 80% of its samples must be nonzero.  The
    residual is the RMS misfit of log values, so a clean exponential
    scores ~0 and a Gaussian scores order one.
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
    if np.count_nonzero(nonzero) < 0.8 * len(vw):
        raise FitWindowError(
            f"only {np.count_nonzero(nonzero)}/{len(vw)} nonzero samples in {window}"
        )
    tw, vw = tw[nonzero], vw[nonzero]
    if len(tw) < 10:
        raise FitWindowError(f"{len(tw)} usable nodes < required 10")
    y = np.log(vw)
    slope, intercept = np.polyfit(tw, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * tw + intercept)) ** 2)))
    return DecayFit(
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        residual=resid,
        n_used=len(tw),
    )


def fit_decay(zeta: FieldSeries, window: tuple[float, float]) -> DecayFit:
    """Exponential fit of the field magnitude |zeta_1| on a window."""
    return fit_decay_values(zeta.t, zeta.magnitude(), window)


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
class RegularityProfile:
    """Largest weight mu with ||h(t)||_mu below a cap, per snapshot time."""

    t: np.ndarray
    mu_star: np.ndarray


def regularity_profile(traj: Trajectory, cap: float) -> RegularityProfile:
    """Track the analytic radius of the snapshots against a norm cap.

    The weighted norm is increasing in mu, so for each snapshot a scan of
    120 points on [0, 2] from below finds the last mu whose norm stays
    under the cap (2 when even that one passes).
    """
    mus = np.linspace(0.0, 2.0, 120)
    br = _bracket(traj.grid)
    out = np.empty(len(traj.times))
    for i, snap in enumerate(traj.snapshots):
        logh = _log_abs(snap)
        best = 0.0
        for mu in mus:
            # ||h||_mu = sup e^{mu <n, xi>} |h_n(xi)|, with the log taken once per snapshot
            if np.exp(np.max(mu * br + logh)) < cap:
                best = mu
            else:
                break
        out[i] = best
    return RegularityProfile(t=traj.times.copy(), mu_star=out)


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
    config: ScatteringConfig,
    forward_rough: Trajectory | None = None,
) -> RoundTripReport:
    """Round-trip and regularity-direction check of a converged solve.

    Forward integration from the backward solution's initial state, with
    the background, coupling and sign of ``config``, must land on its
    terminal datum within 5x its sweep tolerance.  The analytic-radius
    profile (norm cap 10) of the backward solution should not lose radius
    as t grows, while a forward run from rough data should not gain it;
    pass ``forward_rough`` to report the second profile.
    """
    grid = backward.grid
    t0 = float(backward.times[0])
    t1 = float(backward.times[-1])
    if abs(t0) > 1e-12:
        raise ValueError("round trip needs a backward run with window start 0")
    d_t = float(backward.series.t[1] - backward.series.t[0])
    params = EvolutionParams(
        profile=config.background,
        epsilon=config.epsilon,
        d_t=d_t,
        t_final=t1,
        sign=config.sign,
        snap_stride=max(1, len(backward.series.t) // 4),
    )
    fwd = forward_solve(backward.initial(), params)
    err = float(np.max(np.abs(fwd.final().coeffs - config.terminal.coeffs)))
    tol = 5.0 * config.picard_tol
    return RoundTripReport(
        error=err,
        tolerance=tol,
        within_tolerance=err <= tol,
        backward_profile=regularity_profile(backward, 10.0),
        forward_profile=regularity_profile(forward_rough, 10.0) if forward_rough else None,
    )
