"""Spectral laboratory for the cosine-kernel mean-field kinetic equation.

Forward (initial-value) and backward (prescribed asymptotic state) solvers
in the free-streaming Fourier frame, the Volterra field machinery with its
stability scan, exponential-weight norms with time-dependent regularity
budgets, self-consistent cosine-well equilibria, and decay/echo
diagnostics, behind a reproducible scenario CLI.
"""

__version__ = "0.1.0"

from .spectral import (
    FourierField,
    Grid,
    TruncationCounters,
    enforce_reality,
    make_grid,
)
from .profiles import (
    BGKState,
    Profile,
    bgk_to_field,
    kernel_j,
    lorentzian,
    make_asymptotic_datum,
    maxwellian,
    omega_of_nu,
    solve_bgk,
)
from .volterra import (
    KernelFunction,
    KernelOnGrid,
    LaplaceValue,
    StabilityReport,
    StabilityViolation,
    laplace,
    resolvent,
    solve_volterra,
    stability_margin,
)
from .evolution import (
    BlowUpError,
    EvolutionParams,
    FieldSeries,
    Trajectory,
    extract_zeta,
    forward_solve,
)
from .norms import (
    NormReport,
    WeightFunction,
    a_infinity,
    functional_M,
    functional_N,
    functional_P_Q,
    solve_a,
)
from .scattering import (
    ContinuationResult,
    EchoSplit,
    PicardTrace,
    ScatteringConfig,
    backward_solve,
    continue_in_T,
    nonperturbative_solve,
)
from .diagnostics import (
    DecayFit,
    EchoEvent,
    compare_backward_forward,
    detect_echoes,
    fit_decay,
    fit_decay_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]
