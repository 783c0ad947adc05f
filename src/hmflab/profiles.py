"""Homogeneous backgrounds, asymptotic data and self-consistent equilibria.

A homogeneous state eta(v) enters the dynamics only through the closed-form
velocity transforms

    eta_hat(xi)       = int e^{-i v xi} eta(v) dv,        eta_hat(0) = 1,
    eta_prime_hat(xi) = i xi eta_hat(xi),

and through the memory kernel of the field equation,

    j_n(t) = i (n/2) eta_prime_hat(n t),   n = +-1.

The cosine-force equilibrium family exp(-beta (v^2/2 - nu cos x))/Z is
stationary for the attractive sign exactly when the magnetization is
self-consistent, Omega_beta(nu) = nu.  The normalizer is chosen so the
x-averaged profile has unit velocity mass, which makes the mode-1
coefficient of the state at xi = 0 equal to nu itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import FourierField, Grid, enforce_reality, expand_half
from .volterra import KernelFunction

_X_NODES = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
_COS_X = np.cos(_X_NODES)
_NU_BLOCK = 64
_DATUM_SHAPES = ("gaussian", "exponential")


@dataclass(frozen=True)
class Profile:
    """Closed-form homogeneous background.

    ``decay_rate`` and ``decay_coeff`` certify |j_1(t)| <= coeff * exp(-rate t)
    for the induced kernel.
    """

    name: str
    eta_hat: Callable[[np.ndarray], np.ndarray]
    decay_rate: float
    decay_coeff: float

    def eta_prime_hat(self, xi):
        """Transform of the velocity derivative, i xi eta_hat(xi)."""
        return 1j * xi * self.eta_hat(xi)


def maxwellian(beta: float = 1.0) -> Profile:
    """Gaussian background at inverse temperature beta.

    eta(v) = sqrt(beta/2pi) exp(-beta v^2/2), so eta_hat(xi) = exp(-xi^2/2beta).
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    b = float(beta)

    def eta_hat(xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-(xi * xi) / (2.0 * b))

    # |j_1(t)| = (t/2) e^{-t^2/2b} <= C e^{-t}: C = max (t/2) e^{t - t^2/2b}
    t_star = (b + math.sqrt(b * b + 4.0 * b)) / 2.0
    coeff = (t_star / 2.0) * math.exp(t_star - t_star * t_star / (2.0 * b))
    name = "maxwellian" if b == 1.0 else f"maxwellian(beta={b:g})"
    return Profile(
        name=name,
        eta_hat=eta_hat,
        decay_rate=1.0,
        decay_coeff=coeff,
    )


def lorentzian(scale: float = 1.0) -> Profile:
    """Cauchy background eta(v) = (s/pi) / (v^2 + s^2); eta_hat(xi) = e^{-s|xi|}.

    Analytic only in the strip |Im v| < s, so the profile norm is finite
    exactly for weights up to ``scale``.  The induced kernel is the pure
    exponential -(t/2) s e^{-s t} scaled family.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    s = float(scale)

    def eta_hat(xi):
        xi = np.asarray(xi, dtype=float)
        return np.exp(-s * np.abs(xi))

    rate = 0.8 * s
    coeff = 0.5 / (math.e * (s - rate))  # max of (t/2) e^{-(s-rate) t}
    return Profile(
        name=f"lorentzian(scale={s:g})" if s != 1.0 else "lorentzian",
        eta_hat=eta_hat,
        decay_rate=rate,
        decay_coeff=coeff,
    )


def kernel_j(profile: Profile, n: int) -> KernelFunction:
    """Memory kernel j_n(t) = i (n/2) eta_prime_hat(n t) of the field equation."""
    if n not in (-1, 1):
        raise ValueError(f"kernel mode must be +-1, got {n}")

    def fn(t):
        t = np.asarray(t, dtype=float)
        return 1j * (n / 2.0) * profile.eta_prime_hat(n * t)

    return KernelFunction(
        fn=fn,
        decay_rate=profile.decay_rate,
        decay_coeff=profile.decay_coeff,
        label=f"j_{n}[{profile.name}]",
    )


def make_asymptotic_datum(
    amplitude: float,
    mode_weights: dict[int, float],
    width: float,
    grid: Grid,
    shape: str = "gaussian",
) -> FourierField:
    """Mean-zero, mirror-symmetric terminal datum with prescribed mode weights.

    Shapes: "gaussian" rows amplitude * w_n * exp(-xi^2 / 2 width^2) and
    "exponential" rows amplitude * w_n * exp(-sqrt(1 + xi^2) / width); the
    latter has a genuinely exponential frequency tail, giving field
    histories with a clean exponential envelope instead of a Gaussian one.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if shape not in _DATUM_SHAPES:
        raise ValueError(f"unknown datum shape {shape!r}; use one of {_DATUM_SHAPES}")
    if 0 in mode_weights:
        raise ValueError("mode 0 cannot carry weight: the datum must be mean-zero")
    coeffs = np.zeros((grid.n_modes, grid.n_xi), dtype=np.complex128)
    xi = grid.xi
    if shape == "gaussian":
        envelope = np.exp(-(xi * xi) / (2.0 * width * width))
    else:
        envelope = np.exp(-np.sqrt(1.0 + xi * xi) / width)
    for n, w in mode_weights.items():
        if abs(n) > grid.n_max:
            raise ValueError(f"mode {n} outside the grid cutoff {grid.n_max}")
        coeffs[grid.mode_index(n)] += amplitude * w * envelope
    return enforce_reality(FourierField(grid, coeffs))


@dataclass(frozen=True)
class BGKState:
    """Self-consistent cosine-well equilibrium exp(-beta H_nu)/Z.

    ``z_norm`` normalizes the x-averaged profile to unit velocity mass;
    ``residual`` is |Omega_beta(nu) - nu| at the returned magnetization.
    """

    beta: float
    nu: float
    z_norm: float
    residual: float


def omega_curve(beta: float, nus: np.ndarray) -> np.ndarray:
    """Omega_beta(nu) at each nu of a 1-D float array, exactly 0.0 where nu = 0.

    The velocity integrals cancel between numerator and denominator,
    leaving the ratio of periodic trapezoid sums of e^{beta nu cos x} cos x
    and e^{beta nu cos x}, spectrally accurate for analytic integrands.
    Rows of ``_NU_BLOCK`` nu at a time bound each temporary to 0.26 MB.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    out = np.empty(nus.shape)
    for lo in range(0, nus.size, _NU_BLOCK):
        w = np.exp((beta * nus[lo : lo + _NU_BLOCK])[:, None] * _COS_X)
        out[lo : lo + _NU_BLOCK] = np.sum(_COS_X * w, axis=1) / np.sum(w, axis=1)
    out[nus == 0.0] = 0.0  # odd moment of the uniform angle distribution
    return out


def omega_of_nu(beta: float, nu: float) -> float:
    """Mean magnetization of exp(-beta H_nu)/Z; see ``omega_curve``."""
    return float(omega_curve(beta, np.array([nu], dtype=float))[0])


def solve_bgk(beta: float) -> BGKState | None:
    """Nontrivial fixed point of Omega_beta(nu) = nu, if one exists.

    Scans g(nu) = Omega_beta(nu) - nu on (1e-6, 2] for a sign change and
    bisects it down to a bracket of 1e-12; below the bifurcation (beta <= 2) g is
    negative throughout and the homogeneous state is the only equilibrium,
    reported as None.
    """
    g = lambda nu: omega_of_nu(beta, nu) - nu
    grid = np.linspace(1e-6, 2.0, 800)
    vals = omega_curve(beta, grid) - grid
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
    # z_norm for the unit-mass x-average: integral of the x-mean Gaussian factor
    mean_cos_weight = float(np.mean(np.exp(beta * nu * _COS_X)))
    z_norm = math.sqrt(2.0 * math.pi / beta) * mean_cos_weight
    return BGKState(beta=beta, nu=nu, z_norm=z_norm, residual=abs(g(nu)))


def _mode_ratios(beta: float, nu: float, n_max: int) -> np.ndarray:
    """Ratios of the x-Fourier coefficients of e^{beta nu cos x} to the mean."""
    w = np.exp(beta * nu * _COS_X)
    denom = np.sum(w)
    return np.array([np.sum(w * np.cos(n * _X_NODES)) / denom for n in range(n_max + 1)])


def bgk_to_field(state: BGKState, grid: Grid) -> tuple[FourierField, Profile]:
    """Split the equilibrium into its x-mean profile and mean-zero remainder.

    With the unit-mass normalization the coefficients factorize as
    R_n(beta nu) exp(-xi^2/2beta) with R_n the cosine-moment ratios
    (R_0 = 1, R_1 = nu at the fixed point); the x-mean is exactly a
    Maxwellian at inverse temperature beta and the n = 0 row of the
    remainder vanishes identically.  Rows n = 1 .. n_max are built and
    ``expand_half`` adds their mirror rows n < 0.
    """
    ratios = _mode_ratios(state.beta, state.nu, grid.n_max)
    envelope = np.exp(-(grid.xi ** 2) / (2.0 * state.beta))
    half = np.zeros((grid.n_max + 1, grid.n_xi), dtype=np.complex128)
    half[1:] = ratios[1:, None] * envelope
    coeffs = expand_half(half, np.empty((grid.n_modes, grid.n_xi), dtype=np.complex128))
    return FourierField(grid, coeffs), maxwellian(beta=state.beta)
