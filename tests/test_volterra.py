import math
import tracemalloc

import numpy as np
import pytest

from hmflab import volterra
from hmflab.profiles import bgk_to_field, kernel_j, lorentzian, maxwellian, solve_bgk
from hmflab.spectral import make_grid, trapezoid
from hmflab.volterra import (
    DegenerateStepError,
    KernelFunction,
    KernelOnGrid,
    StabilityViolation,
    _laplace_many,
    _simpson_weights,
    laplace,
    resolvent,
    solve_volterra,
    stability_margin,
)


def convolve_causal(kernel, series):
    """(K*f)(t_i) = int_0^{t_i} K(t_i - s) f(s) ds by the trapezoid rule."""
    k = kernel.values
    out = np.zeros(len(series), dtype=np.complex128)
    for i in range(1, len(series)):
        acc = 0.5 * (k[i] * series[0] + k[0] * series[i])
        if i > 1:
            acc += np.dot(k[i - 1 : 0 : -1], series[1:i])
        out[i] = kernel.d_t * acc
    return out


def exp_kernel(c=0.3, a=1.0, t_max=20.0, d_t=1e-3):
    fn = KernelFunction(
        fn=lambda t: c * np.exp(-a * np.asarray(t, dtype=float)),
        decay_rate=a,
        decay_coeff=c,
        label="exp",
    )
    return fn.sample(t_max, d_t)


class TestLaplace:
    def test_exponential_closed_form(self):
        k = exp_kernel(t_max=40.0)
        for sigma in (0.0, 0.7, 1.3 + 2.1j, 5j):
            got = laplace(k, sigma)
            exact = 0.3 / (sigma + 1.0)
            assert abs(got.value - exact) < 1e-10 + got.tail_bound

    def test_maxwell_kernel_at_zero(self):
        k = kernel_j(maxwellian(), 1).sample(25.0, 1e-3)
        got = laplace(k, 0.0)
        assert abs(got.value - (-0.5)) < 1e-6 + got.tail_bound

    def test_decay_for_large_sigma(self):
        k = exp_kernel()
        assert abs(laplace(k, 200.0).value) < 2e-3

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            laplace(exp_kernel(), -0.1)


def laplace_outer(kernel, sigmas, rows=64):
    """Reference scan: the full phase e^{-sigma t_k} on every node, a block of
    sigma rows at a time so that the largest kernels fit in memory."""
    wk = _simpson_weights(len(kernel.t), kernel.d_t) * kernel.values
    return np.concatenate(
        [np.exp(-np.outer(sigmas[i : i + rows], kernel.t)) @ wk for i in range(0, len(sigmas), rows)]
    )


def laplace_one_shot(kernel, sigmas):
    """The factored scan with every sigma in one phase block: the bit-level
    reference for ``_laplace_many``, whose sigma blocks must move no value."""
    t = kernel.t
    n = len(t)
    block = math.isqrt(n - 1) + 1
    n_blocks = -(-n // block)
    wk = np.zeros(n_blocks * block, dtype=np.complex128)
    wk[:n] = _simpson_weights(n, kernel.d_t) * kernel.values
    m = np.exp(-np.outer(sigmas, t[:block] - t[0])) @ wk.reshape(n_blocks, block).T
    return np.einsum("sj,sj->s", np.exp(-np.outer(sigmas, t[::block])), m)


def scan_sigmas(n_scan):
    """The sigma points ``stability_margin`` scans for the criterion-1 kernel."""
    seen = []

    def record(kernel, sig):
        seen.append(sig)
        return laplace_one_shot(kernel, sig)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(volterra, "_laplace_many", record)
        stability_margin(kernel_j(maxwellian(), 1).sample(25.0, 5e-3), 20.0, n_scan)
    return seen[0]


def bgk_background_kernel():
    _, background = bgk_to_field(solve_bgk(3.0), make_grid(2, 12.0, 0.1, 8.0))
    return kernel_j(background, 1)


# name -> (kernel function factory, factor applied after sampling)
SCAN_KERNELS = {
    "maxwell_beta1": (lambda: kernel_j(maxwellian(), 1), 1.0),
    "maxwell_beta3_flipped": (lambda: kernel_j(maxwellian(beta=3.0), 1), -1.0),
    "lorentzian": (lambda: kernel_j(lorentzian(), 1), 1.0),
    "bgk_background": (bgk_background_kernel, 1.0),
    "exponential": (lambda: KernelFunction(
        fn=lambda t: 0.3 * np.exp(-np.asarray(t, dtype=float)), decay_rate=1.0, decay_coeff=0.3
    ), 1.0),
    "zero": (lambda: KernelFunction(
        fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)), decay_rate=1.0, decay_coeff=0.0
    ), 1.0),
}


class TestFactoredScan:
    @pytest.mark.parametrize("name", sorted(SCAN_KERNELS))
    @pytest.mark.parametrize("n_nodes, d_t", [(2500, 1e-2), (5001, 5e-3), (2, 0.5)])
    def test_matches_full_phase(self, name, n_nodes, d_t):
        make, factor = SCAN_KERNELS[name]
        k = make().sample((n_nodes - 1) * d_t, d_t).scaled(factor)
        assert len(k.t) == n_nodes
        ws = np.linspace(-20.0, 20.0, 401)
        sig = np.concatenate([1j * ws, np.linspace(0.0, 2.0, 101) + 0j, 0.5 + 1j * ws[::7]])
        mass = float(np.sum(np.abs(_simpson_weights(n_nodes, d_t) * k.values)))
        diff = np.max(np.abs(_laplace_many(k, sig) - laplace_outer(k, sig)))
        assert diff <= 1e-13 * (1.0 + mass)

    @pytest.mark.parametrize(
        "make_kernel, omega_max, n_scan",
        [
            # the stability scenario at its defaults (configs/stability.cfg)
            (lambda: kernel_j(maxwellian(), 1).sample(25.0, 1e-3), 20.0, 1201),
            # the non-perturbative window margin (configs/nonperturbative.cfg)
            (lambda: bgk_background_kernel().sample(25.0, 5e-3).scaled(-1.0), 20.0, 801),
            # acceptance criterion 1
            (lambda: kernel_j(maxwellian(), 1).sample(25.0, 5e-3), 20.0, 801),
        ],
        ids=["stability_cfg", "nonperturbative_window", "criterion_1"],
    )
    def test_margin_unchanged(self, monkeypatch, make_kernel, omega_max, n_scan):
        k = make_kernel()
        rep = stability_margin(k, omega_max, n_scan)
        monkeypatch.setattr(volterra, "_laplace_many", laplace_outer)
        ref = stability_margin(k, omega_max, n_scan)
        assert abs(rep.margin - ref.margin) <= 1e-14
        assert rep.argmin_sigma == ref.argmin_sigma
        assert rep.satisfied == ref.satisfied

    @pytest.mark.parametrize("name", sorted(SCAN_KERNELS))
    @pytest.mark.parametrize("n_nodes, d_t", [(2500, 1e-2), (5001, 5e-3), (2, 0.5)])
    def test_blocks_bit_identical(self, name, n_nodes, d_t):
        # around one and two blocks of sigma rows, where a split could leave a single row
        make, factor = SCAN_KERNELS[name]
        k = make().sample((n_nodes - 1) * d_t, d_t).scaled(factor)
        for count in (1, 2, 127, 128, 129, 257):
            sig = 0.5 * (np.arange(count) % 3) + 1j * np.linspace(-20.0, 20.0, count)
            assert np.array_equal(_laplace_many(k, sig), laplace_one_shot(k, sig)), count

    @pytest.mark.parametrize("n_scan, count", [(601, 1746), (801, 2146), (1201, 2946)])
    def test_shipped_scans_bit_identical(self, n_scan, count):
        # perfbench analysis, the non-perturbative margin and criterion 1, stability.cfg
        sig = scan_sigmas(n_scan)
        assert len(sig) == count
        for name, (make, factor) in sorted(SCAN_KERNELS.items()):
            k = make().sample(25.0, 5e-3).scaled(factor)
            assert np.array_equal(_laplace_many(k, sig), laplace_one_shot(k, sig)), name

    def test_scan_memory_bounded(self):
        # stability.cfg: 2,946 sigmas on 25,001 nodes; one phase block of all
        # the sigmas takes 22.9 MB here, 128-row blocks about 1.5 MB
        k = kernel_j(maxwellian(), 1).sample(25.0, 1e-3)
        tracemalloc.start()
        try:
            stability_margin(k, 20.0, 1201)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_scan_memory_sublinear(self):
        # the full phase matrix of this scan alone is 2146 x 5001 complex (172 MB)
        k = kernel_j(maxwellian(), 1).sample(25.0, 5e-3)
        tracemalloc.start()
        try:
            stability_margin(k, 20.0, 801)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_nonuniform_grid_rejected(self):
        t = np.arange(11) * 0.1
        t[5] += 1e-6
        with pytest.raises(ValueError, match="uniform"):
            KernelOnGrid(t=t, values=np.zeros(11, complex), decay_rate=1.0, decay_coeff=0.0)


class TestStabilityMargin:
    def test_maxwell_satisfied(self):
        k = kernel_j(maxwellian(), 1).sample(25.0, 1e-3)
        rep = stability_margin(k, 20.0, 801)
        assert rep.satisfied
        # scan-derived minimum for the Gaussian background
        assert abs(rep.margin - 0.8670) < 2e-3

    def test_zero_kernel_margin_one(self):
        t = np.arange(0, 10, 1e-2)
        k = KernelOnGrid(t=t, values=np.zeros(len(t), complex), decay_rate=1.0, decay_coeff=0.0)
        rep = stability_margin(k, 15.0, 301)
        assert rep.margin == pytest.approx(1.0)

    def test_sufficient_bound_reported(self):
        # |background transform| <= M pi^2 with weight lam > pi sqrt(M) gives bound < 1
        k = kernel_j(maxwellian(), 1).sample(25.0, 1e-3)
        m = 0.02
        lam = np.pi * np.sqrt(m) * 1.2
        rep = stability_margin(k, 20.0, 401, m_bound=m, lam=lam)
        assert rep.sufficient_bound == pytest.approx(np.pi**2 * m / lam**2)
        assert rep.sufficient_ok

    def test_attractive_supercritical_kernel_unsatisfied(self):
        # the sign-flipped kernel of the beta=3 background crosses the
        # critical value on the positive real axis (that crossing is what
        # makes the non-homogeneous equilibrium branch exist)
        k = kernel_j(maxwellian(beta=3.0), 1).sample(25.0, 5e-3).scaled(-1.0)
        rep = stability_margin(k, 20.0, 801)
        assert not rep.satisfied
        assert rep.margin < 0.01
        assert abs(rep.argmin_sigma.imag) < 1e-12
        assert 0.1 < rep.argmin_sigma.real < 0.3

    def test_small_omega_max_rejected(self):
        k = kernel_j(maxwellian(), 1).sample(25.0, 1e-3)
        with pytest.raises(ValueError):
            stability_margin(k, 0.5, 101)


class TestResolvent:
    def test_exponential_closed_form(self):
        c, a = 0.3, 1.0
        k = exp_kernel(c, a, 20.0, 1e-3)
        r = resolvent(k)
        exact = c * np.exp(-(a + c) * k.t)
        assert np.max(np.abs(r.values - exact)) < 1e-8

    def test_zero_kernel(self):
        t = np.arange(0, 5, 1e-3)
        k = KernelOnGrid(t=t, values=np.zeros(len(t), complex), decay_rate=1.0, decay_coeff=0.0)
        assert np.max(np.abs(resolvent(k).values)) == 0.0

    def test_defining_equation_residual(self):
        k = exp_kernel(0.4, 0.8, 10.0, 1e-3)
        r = resolvent(k)
        residual = r.values + convolve_causal(k, r.values) - k.values
        assert np.max(np.abs(residual)) < 1e-10

    def test_l1_mass_stable_under_refinement(self):
        masses = [
            trapezoid(np.abs(resolvent(exp_kernel(0.3, 1.0, 25.0, d_t)).values), dx=d_t)
            for d_t in (4e-3, 2e-3)
        ]
        # exact resolvent mass: int 0.3 e^{-1.3 t} = 0.3/1.3
        assert abs(masses[1] - 0.3 / 1.3) < 1e-5
        assert abs(masses[0] - masses[1]) <= 0.01 * masses[1]

    def test_unstable_kernel_flagged(self):
        # transform 15/(sigma + 0.1)... crosses the critical value on the axis
        k = KernelFunction(
            fn=lambda t: -1.5 * np.exp(-0.1 * np.asarray(t, dtype=float)),
            decay_rate=0.1,
            decay_coeff=1.5,
        ).sample(60.0, 1e-2)
        with pytest.raises(StabilityViolation):
            resolvent(k, l1_cap=50.0)

    @pytest.mark.parametrize("cap", [1.0, 3.0, 10.0, 50.0, 500.0])
    def test_violation_names_first_node_past_cap(self, cap):
        # r = -2 e^{t} for K = -2 e^{-t}: the mass passes each cap at a different node
        k = exp_kernel(-2.0, 1.0, 8.0, 1e-2)
        r = resolvent(k, l1_cap=np.inf).values
        mass, first = 0.0, None
        for i in range(1, len(r)):
            mass += abs(r[i]) * k.d_t
            if mass > cap:
                first = i
                break
        assert first is not None
        with pytest.raises(StabilityViolation, match=f"exceeded {cap} at t={k.t[first]:.3f};"):
            resolvent(k, l1_cap=cap)


class TestSolveVolterra:
    def test_zero_kernel_returns_forcing(self):
        t = np.arange(0, 5 + 1e-9, 1e-3)
        k = KernelOnGrid(t=t, values=np.zeros(len(t), complex), decay_rate=1.0, decay_coeff=0.0)
        g = np.exp(-t) * (1 + 1j)
        for direction in ("forward", "backward"):
            out = solve_volterra(g, k, direction)
            assert np.max(np.abs(out - g)) == 0.0

    @staticmethod
    def _manufactured(direction, c, a, r, T, d_t):
        # zeta*(t) = e^{-r t}; its convolution with c e^{-a u} has a closed
        # form, so the forcing is exact and the solver error is pure
        # truncation error
        k = exp_kernel(c, a, T, d_t)
        t = k.t
        zeta_true = np.exp(-r * t)
        if direction == "forward":
            conv = c * (np.exp(-r * t) - np.exp(-a * t)) / (a - r)
        else:
            conv = np.exp(-r * t) * c * (1.0 - np.exp(-(a + r) * (T - t))) / (a + r)
        return k, zeta_true - conv, zeta_true

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_manufactured_solution(self, direction):
        if direction == "forward":
            k, g, zeta_true = self._manufactured(direction, 0.25, 0.9, 1.0, 8.0, 1e-3)
        else:
            k, g, zeta_true = self._manufactured(direction, 0.15, 0.4, 0.1, 8.0, 1e-3)
        got = solve_volterra(g, k, direction)
        assert np.max(np.abs(got - zeta_true)) < 1e-8

    def test_second_order_convergence(self):
        errs = []
        for d_t in (4e-3, 2e-3):
            k, g, zeta_true = self._manufactured("forward", 0.25, 0.9, 1.0, 8.0, d_t)
            errs.append(np.max(np.abs(solve_volterra(g, k, "forward") - zeta_true)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_resolvent_route_agrees(self):
        # f + j*f = g  <=>  f = g + (-j)*f, and f = g - r*g with r + j*r = j
        d_t = 1e-3
        j = exp_kernel(0.3, 1.0, 15.0, d_t)
        t = j.t
        g = np.exp(-0.5 * t) * np.cos(t)
        direct = solve_volterra(g, j.scaled(-1.0), "forward")
        r = resolvent(j)
        via_resolvent = g - convolve_causal(r, g)
        assert np.max(np.abs(direct - via_resolvent)) < 1e-8

    def test_time_reversal_equivalence(self):
        d_t = 1e-3
        k = exp_kernel(0.2, 1.1, 6.0, d_t)
        g = np.sin(k.t) * np.exp(-0.3 * k.t)
        fwd = solve_volterra(g, k, "forward")
        bwd = solve_volterra(g[::-1], k, "backward")
        assert np.max(np.abs(fwd - bwd[::-1])) < 1e-13

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_causal_coupling_solved_in_one_pass(self, direction):
        # the coupled march is the fixed point of the plain march with the
        # coupling evaluated on its own output
        k = exp_kernel(0.2, 1.1, 2.0, 1e-2)
        n = len(k.t)
        rng = np.random.default_rng(5)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nodes = np.arange(0, n, 20)
        a, b = (0.05 * (rng.standard_normal((len(nodes), n)) + 1j * rng.standard_normal((len(nodes), n)))
                for _ in range(2))
        # node m may feed only the nodes marched after it
        cols = np.arange(n)[None, :]
        fed = cols > nodes[:, None] if direction == "forward" else cols < nodes[:, None]
        a[~fed] = 0.0
        b[~fed] = 0.0
        z = solve_volterra(g, k, direction, (nodes, a, b))
        forcing = g + a.T @ z[nodes] + b.T @ np.conj(z[nodes])
        assert np.max(np.abs(solve_volterra(forcing, k, direction) - z)) < 1e-13
        assert np.max(np.abs(solve_volterra(g, k, direction) - z)) > 1e-3

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_coupling_to_own_node_rejected(self, direction):
        k = exp_kernel(0.3, 1.0, 1.0, 1e-2)
        n = len(k.t)
        a = np.zeros((1, n), complex)
        a[0, 50] = 1.0
        with pytest.raises(ValueError, match="not causal"):
            solve_volterra(np.ones(n, complex), k, direction, (np.array([50]), a, np.zeros_like(a)))

    def test_degenerate_diagonal_rejected(self):
        d_t = 1e-2
        t = np.arange(0, 1 + 1e-9, d_t)
        vals = np.full(len(t), 2.0 / d_t, dtype=complex)
        k = KernelOnGrid(t=t, values=vals, decay_rate=1.0, decay_coeff=2.0 / d_t)
        with pytest.raises(DegenerateStepError):
            solve_volterra(np.ones(len(t), complex), k, "forward")

    def test_length_mismatch_rejected(self):
        k = exp_kernel(0.3, 1.0, 5.0, 1e-2)
        with pytest.raises(ValueError):
            solve_volterra(np.ones(7, complex), k, "forward")
