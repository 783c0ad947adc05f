"""Convolution Volterra machinery for the self-consistent field.

Both the forward and the terminal-value problems reduce the field mode to
a second-kind equation with a causal convolution kernel,

    zeta(t) = g(t) + int K(|t - s|) zeta(s) ds      (over [0, t] or [t, T]).

Solvability and decay hinge on the Laplace transform of the kernel staying
away from 1 on the closed right half-plane; the resolvent kernel r with
r + K*r = K then inverts the equation as f = g - r*g.  Everything here is
trapezoidal on uniform time grids: second order, with predictable error
constants at the step sizes the solvers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

_SIGMA_BLOCK = 128  # sigma rows per phase block of the Laplace scan


class StabilityViolation(RuntimeError):
    """Resolvent mass blew past the cap: the kernel fails the stability test."""


class DegenerateStepError(ValueError):
    """Implicit diagonal 1 - (d_t/2) K(0) is numerically singular."""


@dataclass(frozen=True)
class KernelFunction:
    """Closed-form kernel with an exponential decay certificate.

    |fn(t)| <= decay_coeff * exp(-decay_rate * t) for t >= 0.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    decay_rate: float
    decay_coeff: float
    label: str = "kernel"

    def __call__(self, t):
        return self.fn(t)

    def sample(self, t_max: float, d_t: float) -> "KernelOnGrid":
        n = int(round(t_max / d_t))
        t = np.arange(n + 1) * d_t
        return KernelOnGrid(
            t=t,
            values=np.asarray(self.fn(t), dtype=np.complex128),
            decay_rate=self.decay_rate,
            decay_coeff=self.decay_coeff,
            label=self.label,
        )


@dataclass(frozen=True)
class KernelOnGrid:
    """Kernel values on a uniform time grid plus the decay certificate."""

    t: np.ndarray
    values: np.ndarray
    decay_rate: float
    decay_coeff: float
    label: str = "kernel"

    def __post_init__(self):
        if len(self.t) != len(self.values):
            raise ValueError("kernel grid and values length mismatch")
        if len(self.t) < 2:
            raise ValueError("kernel grid needs at least two nodes")
        steps = np.diff(self.t)
        if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0])):
            raise ValueError("kernel grid must be uniform and increasing")
        if self.decay_rate <= 0:
            raise ValueError("decay certificate requires a positive rate")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel values must be finite")

    @property
    def d_t(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def scaled(self, factor: complex) -> "KernelOnGrid":
        return replace(self, values=factor * self.values,
                       decay_coeff=abs(factor) * self.decay_coeff)

    def tail_bound(self, re_sigma: float = 0.0) -> float:
        """Rigorous bound on the neglected integral beyond t_max."""
        rate = self.decay_rate + re_sigma
        return self.decay_coeff * np.exp(-rate * self.t_max) / rate


@dataclass(frozen=True)
class LaplaceValue:
    value: complex
    tail_bound: float


@dataclass(frozen=True)
class StabilityReport:
    """Distance of the kernel transform from the critical value 1.

    ``margin`` is the scan minimum of |1 - L[K](sigma)| over the imaginary
    axis plus a coarse grid into the right half-plane; ``satisfied`` holds
    when the margin clears the configured threshold.  When a sup bound M
    on the background transform is supplied, the sufficient smallness
    bound pi^2 M / lambda^2 is evaluated alongside.
    """

    margin: float
    satisfied: bool
    threshold: float
    argmin_sigma: complex
    omega_max: float
    n_scan: int
    sufficient_bound: float | None = None
    sufficient_ok: bool | None = None

    def as_dict(self) -> dict:
        d = {
            "margin": self.margin,
            "satisfied": self.satisfied,
            "threshold": self.threshold,
            "argmin_sigma_re": self.argmin_sigma.real,
            "argmin_sigma_im": self.argmin_sigma.imag,
            "omega_max": self.omega_max,
            "n_scan": self.n_scan,
        }
        if self.sufficient_bound is not None:
            d["sufficient_bound"] = self.sufficient_bound
            d["sufficient_ok"] = self.sufficient_ok
        return d


def _simpson_weights(n_nodes: int, d_t: float) -> np.ndarray:
    """Composite Simpson weights; a trailing trapezoid panel absorbs an odd
    interval count (the tail integrand there is already exponentially small)."""
    w = np.zeros(n_nodes)
    n_int = n_nodes - 1
    m = n_int if n_int % 2 == 0 else n_int - 1
    if m >= 2:
        w[0] += d_t / 3.0
        w[m] += d_t / 3.0
        w[1:m:2] += 4.0 * d_t / 3.0
        w[2:m:2] += 2.0 * d_t / 3.0
    if m != n_int:
        w[-2] += 0.5 * d_t
        w[-1] += 0.5 * d_t
    return w


def laplace(kernel: KernelOnGrid, sigma: complex) -> LaplaceValue:
    """L[K](sigma) = int_0^inf e^{-sigma t} K(t) dt, Re sigma >= 0.

    Composite Simpson over the stored grid; the decay certificate bounds
    the discarded tail rigorously and is reported with the value.
    """
    sigma = complex(sigma)
    if sigma.real < 0:
        raise ValueError(f"laplace requires Re sigma >= 0, got {sigma}")
    w = _simpson_weights(len(kernel.t), kernel.d_t)
    integrand = np.exp(-sigma * kernel.t) * kernel.values
    value = complex(np.dot(w, integrand))
    return LaplaceValue(value=value, tail_bound=kernel.tail_bound(sigma.real))


def _laplace_many(kernel: KernelOnGrid, sigmas: np.ndarray) -> np.ndarray:
    """The Simpson transform of ``laplace`` at every sigma, with a factored phase.

    On the uniform grid, node k = j B + r with B = ceil(sqrt(n)) has
    e^{-sigma t_k} = e^{-sigma t_{jB}} e^{-sigma (t_r - t_0)}, so the sum is
    one (rows x B) @ (B x J) product of the small phases with the weighted
    values blocked by j, then a row-wise dot with the block phases:
    n_sigma (B + J) exponentials instead of n_sigma n.  The sigmas go in
    nearly equal blocks of at most ``_SIGMA_BLOCK`` rows, so the scratch is
    O(_SIGMA_BLOCK sqrt n) whatever n_sigma; no block is a single row unless
    the whole scan is, since a one-row product takes BLAS's matrix-vector
    path and rounds differently.
    """
    t = kernel.t
    n = len(t)
    block = math.isqrt(n - 1) + 1  # B = ceil(sqrt(n))
    n_blocks = -(-n // block)  # J = ceil(n / B), the last block zero-padded
    wk = np.zeros(n_blocks * block, dtype=np.complex128)
    wk[:n] = _simpson_weights(n, kernel.d_t) * kernel.values
    wk_blocked = wk.reshape(n_blocks, block).T
    offsets, starts = t[:block] - t[0], t[::block]
    out = np.empty(len(sigmas), dtype=np.complex128)
    lo = 0
    for rows in np.array_split(sigmas, max(1, -(-len(sigmas) // _SIGMA_BLOCK))):
        # m[s, j] = sum_r e^{-sigma_s (t_r - t_0)} wk[j B + r]
        m = np.exp(-np.outer(rows, offsets)) @ wk_blocked
        out[lo : lo + len(rows)] = np.einsum("sj,sj->s", np.exp(-np.outer(rows, starts)), m)
        lo += len(rows)
    return out


def transform_bound(kernel: KernelOnGrid) -> float:
    """|K(0)| + int |K'|, with the tail's bound: |L[K](i w)| <= this / |w| for real w != 0.

    Integration by parts gives the bound; int |K'| is the variation over
    the stored grid plus the decay certificate's bound on the rest.
    """
    variation = float(np.sum(np.abs(np.diff(kernel.values)))) + kernel.tail_bound()
    return float(abs(kernel.values[0]) + variation)


def stability_margin(
    kernel: KernelOnGrid,
    omega_max: float,
    n_scan: int,
    threshold: float = 0.05,
    m_bound: float | None = None,
    lam: float | None = None,
) -> StabilityReport:
    """Scan min |1 - L[K](sigma)| over the right half-plane boundary.

    sigma = i w on n_scan nodes of [-omega_max, omega_max], a fine line on
    the positive real axis (where attraction-type criticality of a real
    kernel sits), plus a coarse interior grid in Re sigma in
    [0, decay_rate].  The transform decays both into the half-plane and
    along the axis, so the boundary scan controls the infimum; this is a
    numerical verification, not a proof.  Requires omega_max beyond the
    point where ``transform_bound`` pushes |L[K]| under 1/2.
    """
    bound_at_omega = transform_bound(kernel) / omega_max
    if bound_at_omega > 0.5:
        raise ValueError(
            f"omega_max={omega_max} too small: |L| bound {bound_at_omega:.3f} > 1/2 beyond scan"
        )
    ws = np.linspace(-omega_max, omega_max, n_scan)
    sigmas = [1j * ws, np.linspace(0.0, kernel.decay_rate, n_scan) + 0j]
    w_coarse = np.unique(np.concatenate([ws[:: max(1, n_scan // 64)], [0.0]]))
    for re in np.linspace(0.0, kernel.decay_rate, 9)[1:]:
        sigmas.append(re + 1j * w_coarse)
    sig = np.concatenate(sigmas)
    dist = np.abs(1.0 - _laplace_many(kernel, sig))
    k = int(np.argmin(dist))
    margin = float(dist[k])
    sufficient_bound = None
    sufficient_ok = None
    if m_bound is not None:
        if lam is None or lam <= 0:
            raise ValueError("the sufficient bound needs a positive weight lam")
        sufficient_bound = float(np.pi ** 2 * m_bound / lam ** 2)
        sufficient_ok = sufficient_bound < 1.0
    return StabilityReport(
        margin=margin,
        satisfied=margin > threshold,
        threshold=threshold,
        argmin_sigma=complex(sig[k]),
        omega_max=omega_max,
        n_scan=n_scan,
        sufficient_bound=sufficient_bound,
        sufficient_ok=sufficient_ok,
    )


def resolvent(kernel: KernelOnGrid, l1_cap: float = 1e3) -> KernelOnGrid:
    """Solve r + K*r = K, that is r = K + (-K)*r, with ``solve_volterra``.

    The discrete L1 mass of r is monitored; exceeding ``l1_cap`` flags a
    stability violation (the continuum resolvent is integrable exactly
    when L[K] avoids -1 on the closed right half-plane).  The whole grid is
    marched before the mass is checked.
    """
    r = solve_volterra(kernel.values, kernel.scaled(-1.0))
    over = np.flatnonzero(np.cumsum(np.abs(r[1:]) * kernel.d_t) > l1_cap)
    if over.size:
        raise StabilityViolation(
            f"resolvent L1 mass exceeded {l1_cap} at t={kernel.t[over[0] + 1]:.3f}; "
            f"kernel {kernel.label} fails the stability condition"
        )
    return replace(kernel, values=r, label=f"resolvent[{kernel.label}]")


def solve_volterra(
    forcing: np.ndarray,
    kernel: KernelOnGrid,
    direction: str = "forward",
    coupling: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """March the second-kind equation zeta = g + K-convolution of zeta.

    forward:  zeta(t) = g(t) + int_0^t K(t-s) zeta(s) ds, marching up;
    backward: zeta(t) = g(t) + int_t^T K(s-t) zeta(s) ds, marching down
    (equivalent to the forward march on time-reversed forcing).  The
    diagonal is implicit: each step divides by 1 - (d_t/2) K(0).

    ``coupling = (nodes, a, b)`` adds the causal term
    sum_m a[m, i] zeta[nodes[m]] + b[m, i] conj(zeta[nodes[m]]) to the
    forcing at node i.  Column i of ``a`` and ``b`` may be nonzero only for
    nodes strictly earlier in march order, so the march meets every term
    already solved and one pass solves the coupled equation exactly.
    """
    g = np.asarray(forcing, dtype=np.complex128)
    if len(g) != len(kernel.t):
        raise ValueError(
            f"forcing length {len(g)} does not match kernel grid {len(kernel.t)}"
        )
    if direction == "backward":
        if coupling is not None:
            nodes, a, b = coupling
            coupling = (len(g) - 1 - np.asarray(nodes), a[:, ::-1], b[:, ::-1])
        return solve_volterra(g[::-1], kernel, "forward", coupling)[::-1]
    if direction != "forward":
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    k = kernel.values
    dt = kernel.d_t
    denom = 1.0 - 0.5 * dt * k[0]
    if abs(denom) < 1e-8:
        raise DegenerateStepError(f"1 - (d_t/2) K(0) = {denom} is numerically singular")
    n = len(g)
    slot: dict[int, int] = {}  # coupling node -> its row of a and b
    if coupling is not None:
        nodes, a, b = coupling
        for m, node in enumerate(nodes):
            if np.any(a[m, : node + 1]) or np.any(b[m, : node + 1]):
                raise ValueError(f"coupling to node {node} is not causal in march order")
            slot[int(node)] = m
        zn, znc = np.zeros((2, len(nodes)), dtype=np.complex128)  # zeta, conj zeta there
    z = np.empty(n, dtype=np.complex128)
    z[0] = g[0]
    for i in range(1, n):
        m = slot.get(i - 1)
        if m is not None:  # the node marched last feeds the coupling from here on
            zn[m], znc[m] = z[i - 1], np.conj(z[i - 1])
        acc = 0.5 * k[i] * z[0]
        if i > 1:
            acc += np.dot(k[i - 1 : 0 : -1], z[1:i])
        gi = g[i]
        if slot:
            gi = gi + (np.dot(a[:, i], zn) + np.dot(b[:, i], znc))
        z[i] = (gi + dt * acc) / denom
    return z
