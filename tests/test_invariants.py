"""A conservation law that no part of the scheme builds in: the L² norm of f.

The full density f = eta + eps h is carried by the divergence-free flow
(x, v) -> (v, F(t, x)) of a cosine force F, self-consistent or frozen, of
either sign, so ||f||² is constant in time; the mode truncation |n| <= n_max
keeps the transport operator skew, and ||eta||² is constant, so

    I(t) = (||f||² - ||eta||²) / eps = eps ||h||² + 2 <eta, h>

is conserved too.  With h_n(xi) = (1/2pi) int e^{-inx} e^{-iv xi} h dx dv
and eta_hat(xi) = int e^{-iv xi} eta dv (``profiles``), Parseval in x
(int |h|² dx = 2pi sum_n |h~_n(v)|²) and Plancherel in v (int |g|² dv =
(1/2pi) int |g^|² dxi) give, with no further constant,

    ||h||²    = sum_n int |h_n(xi)|² dxi,
    <eta, h>  = int conj(eta_hat(xi)) h_0(xi) dxi.

The free-streaming frame moves row n by n t in xi, which leaves the first
sum unchanged and does not touch row 0, so both are sums over the stored
lattice times d_xi.  On a grid whose edge columns stay negligible the drift
of I measures the scheme's error alone: RK4 in t and the cubic shifted
reads in xi are both fourth order, so halving d_t and d_xi together divides
it by about 16.
"""

import numpy as np

from hmflab.evolution import EvolutionParams, forward_solve
from hmflab.profiles import make_asymptotic_datum, maxwellian
from hmflab.scattering import ScatteringConfig, _Workspace
from hmflab.spectral import expand_half, make_grid

PROFILE = maxwellian()
EPS = 0.5
T = 4.0


def l2_invariant(snaps, grid, eps):
    """eps ||h||² and I = eps ||h||² + 2 Re <eta, h> at every snapshot."""
    norm = eps * np.sum(np.abs(snaps) ** 2, axis=(1, 2)) * grid.d_xi
    cross = np.real(np.conj(PROFILE.eta_hat(grid.xi)) @ snaps[:, grid.mode_index(0)].T) * grid.d_xi
    return norm, norm + 2.0 * cross


def grid_and_datum(d_xi):
    grid = make_grid(4, 16.0, d_xi, T)
    return grid, make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)


def forward_drift(d_t, d_xi):
    grid, h0 = grid_and_datum(d_xi)
    params = EvolutionParams(
        profile=PROFILE, epsilon=EPS, d_t=d_t, t_final=T, snap_stride=round(0.2 / d_t)
    )
    traj = forward_solve(h0, params)
    full = np.stack([traj.full_state(m) for m in range(len(traj.times))])
    return traj.counters.max_edge_magnitude, l2_invariant(full, grid, EPS)


def transport_drift(d_t, d_xi):
    # the field of the first Picard sweep, frozen: the datum's constant history
    grid, datum = grid_and_datum(d_xi)
    cfg = ScatteringConfig(
        terminal=datum, background=PROFILE, epsilon=EPS, T=T, d_t=d_t,
        snap_stride=round(0.2 / d_t),
    )
    ws = _Workspace(cfg)
    half = datum.coeffs[grid.n_max :]
    zeta = ws.solve_field(np.broadcast_to(half, (len(ws.snap_idx),) + half.shape))
    full = np.stack([expand_half(s, np.empty(datum.coeffs.shape, complex)) for s in ws.transport(zeta)])
    return ws.counters.max_edge_magnitude, l2_invariant(full, grid, EPS)


def check_conserved(run):
    drifts = []
    for d_t, d_xi in ((0.1, 0.2), (0.05, 0.1)):
        edge, (norm, inv) = run(d_t, d_xi)
        assert edge < 1e-9  # no L² leaks through the frequency cutoff
        change = np.max(np.abs(norm - norm[0]))
        drift = np.max(np.abs(inv - inv[0]))
        assert change > 0.05  # both terms of I move
        assert drift < 1e-3 * change
        drifts.append(drift)
    assert drifts[0] / drifts[1] > 8.0


def test_forward_solve_conserves_l2():
    check_conserved(forward_drift)


def test_transport_pass_conserves_l2():
    check_conserved(transport_drift)
