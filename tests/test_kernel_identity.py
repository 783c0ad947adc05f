"""The buffered RK4 kernels reproduce the straightforward per-row ones byte for byte.

``reference_shift_rows``, ``reference_rhs_coeffs`` and ``reference_rk4_step``
are the allocating, full-spectrum, row-by-row forms the hot path was written
from.  The production march computes rows n = 0 .. n_max only and takes the
rows n < 0 from the reality mirror; the reference marches match it when
``mirror`` resets those rows after every stage and step.  The production
kernels read and write blocks in the padded row layout of
``spectral._padded``; their data columns are compared with the references.
Every comparison here is on ``tobytes()``: values, signed zeros and all.
"""

import dataclasses

import numpy as np
import pytest

from hmflab import evolution
from hmflab.evolution import (
    BlowUpError,
    EvolutionParams,
    _RK4Work,
    extract_zeta,
    forward_solve,
    rhs_coeffs,
)
from hmflab.profiles import bgk_to_field, make_asymptotic_datum, maxwellian, solve_bgk
from hmflab.scattering import ScatteringConfig, _Workspace
from hmflab.spectral import (
    FourierField,
    TruncationCounters,
    _cubic_weights,
    _padded,
    _shift_plan,
    make_grid,
    sample_mode,
    shift_rows,
)


def reference_shift_rows(coeffs, grid, delta):
    s = delta / grid.d_xi
    if abs(s - round(s)) < 1e-9:
        s = float(round(s))
    b = int(np.floor(s))
    w = _cubic_weights(s - b)
    n = grid.n_xi
    out = np.zeros_like(coeffs)
    for m, wm in zip((-1, 0, 1, 2), w):
        off = b + m
        lo = max(0, -off)
        hi = min(n, n - off)
        if lo < hi:
            out[..., lo:hi] += wm * coeffs[..., lo + off : hi + off]
    j_min = int(np.ceil(-s - 1e-9))
    j_max = int(np.floor(2 * grid.n_half - s + 1e-9))
    if j_min > 0:
        out[..., : min(j_min, n)] = 0.0
    if j_max < n - 1:
        out[..., max(j_max + 1, 0) :] = 0.0
    return out


def reference_rhs_coeffs(coeffs, t, zeta1, grid, profile, epsilon, sign=1.0):
    inc = np.zeros_like(coeffs)
    xi = grid.xi
    zm1 = np.conj(zeta1)
    for n, zn in ((1, zeta1), (-1, zm1)):
        inc[grid.mode_index(n)] = (n * 0.5j * zn) * profile.eta_prime_hat(xi - n * t)
    if epsilon != 0.0:
        shifted_p = reference_shift_rows(coeffs, grid, -t)
        shifted_m = reference_shift_rows(coeffs, grid, +t)
        half_zp = 0.5 * epsilon * zeta1
        half_zm = 0.5 * epsilon * zm1
        for n in range(-grid.n_max, grid.n_max + 1):
            row = grid.mode_index(n)
            acc = None
            if abs(n - 1) <= grid.n_max:
                acc = half_zp * shifted_p[grid.mode_index(n - 1)]
            if abs(n + 1) <= grid.n_max:
                term = half_zm * shifted_m[grid.mode_index(n + 1)]
                acc = -term if acc is None else acc - term
            elif acc is None:
                continue
            inc[row] -= (xi - n * t) * acc
    if sign != 1.0:
        inc *= sign
    return inc


def reference_rk4_step(c, times, h, f):
    """One step of size h; ``times`` are the stage times at its start, midpoint and end."""
    t, t_mid, t_next = times
    k1 = f(c, t, 0)
    k2 = f(c + (0.5 * h) * k1, t_mid, 1)
    k3 = f(c + (0.5 * h) * k2, t_mid, 2)
    k4 = f(c + h * k3, t_next, 3)
    return c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def mirror(c):
    """``c`` with the rows n < 0 reset to the mirror of the rows n > 0."""
    n_max = c.shape[0] // 2
    out = c.copy()
    out[:n_max] = np.conj(c[:n_max:-1, ::-1])
    return out


def mirrored(f):
    """A reference right-hand side that reads each stage state through ``mirror``.

    Stage 0 reads the step's start state as it is: the initial state as
    given, and after that a state ``mirror`` has already reset.
    """
    return lambda state, tt, stage: f(state if stage == 0 else mirror(state), tt, stage)


PROFILE = maxwellian()
GRIDS = {
    "9x481": make_grid(4, 12.0, 0.05, 8.0),
    "9x1761": make_grid(4, 44.0, 0.05, 40.0),
}
# on the xi-lattice (multiples of d_xi), off it, negative, and near the cutoff
TIMES = (0.0, 0.6, 3.0, 1.2345, 7.305, -0.6, -2.5, -3.77, 8.0, 39.99)


def states(grid):
    """Datum, perturbed datum, and a datum with exact zeros of both signs."""
    datum = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid).coeffs
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(datum.shape) + 1j * rng.standard_normal(datum.shape)
    perturbed = datum + 1e-3 * noise
    zeros = perturbed.copy()
    zeros[:, ::7] = complex(-0.0, 0.0)
    zeros[:, 3::11] = complex(0.0, -0.0)
    zeros[2] = 0.0
    return {"datum": datum, "perturbed": perturbed, "signed_zeros": zeros}


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def padded(c):
    """A copy of ``c`` in the padded row layout."""
    block, data = _padded(c.shape)
    data[...] = c
    return block


def padding_is_zero(block, data):
    """No entry of ``block`` outside its data view ``data`` is nonzero (or NaN)."""
    return np.count_nonzero(block) == np.count_nonzero(data)


def shifted(c, grid, delta):
    """The data columns of ``shift_rows`` at xi + delta, into fresh buffers."""
    out, got = _padded(c.shape)
    shift_rows(padded(c), _shift_plan(grid, delta), out, np.empty_like(out))
    return got


def rhs_fresh(c, t, zeta, grid, profile, epsilon, sign=1.0):
    """The data columns of ``rhs_coeffs`` on a work of its own, with no earlier plan or row."""
    out, got = _padded((grid.n_max + 1, grid.n_xi))
    rhs_coeffs(padded(c), t, zeta, _RK4Work(grid, profile, epsilon, sign), out)
    return got


@pytest.mark.parametrize("size", sorted(GRIDS))
def test_shift_rows_bytes(size):
    grid = GRIDS[size]
    out, got = _padded((grid.n_modes, grid.n_xi))
    scratch = np.empty_like(out)
    for name, c in states(grid).items():
        block = padded(c)
        for t in TIMES:
            for delta in (t, -t):
                ref = reference_shift_rows(c, grid, delta)
                plan = _shift_plan(grid, delta)
                assert shift_rows(block, plan, out, scratch) is out  # buffers reused
                assert same_bytes(got, ref), (name, delta)
                assert padding_is_zero(out, got), (name, delta)


@pytest.mark.parametrize("size", sorted(GRIDS))
def test_rhs_coeffs_bytes(size):
    grid = GRIDS[size]
    out, reused = _padded((grid.n_max + 1, grid.n_xi))
    zeta = 0.31 - 0.17j
    for eps in (0.0, 0.01, 1.0):
        for sign in (1.0, -1.0):
            work = _RK4Work(grid, PROFILE, eps, sign)  # reused over every state and time
            for name, c in states(grid).items():
                block = padded(c)
                for t in TIMES:
                    # rows 0 .. n_max; they read rows -1 .. n_max only
                    ref = reference_rhs_coeffs(c, t, zeta, grid, PROFILE, eps, sign)[grid.n_max :]
                    fresh = rhs_fresh(c, t, zeta, grid, PROFILE, eps, sign)
                    assert rhs_coeffs(block, t, zeta, work, out) is out
                    case = (name, t, eps, sign)
                    assert same_bytes(fresh, ref), case
                    assert same_bytes(reused, ref), case
                    assert padding_is_zero(out, reused), case


def test_forward_solve_matches_reference_stepping():
    grid = make_grid(3, 12.0, 0.1, 8.0)
    h0 = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)
    params = EvolutionParams(profile=PROFILE, epsilon=0.2, d_t=0.05, t_final=2.0, snap_stride=7)
    traj = forward_solve(h0, params)

    @mirrored
    def f(state, tt, stage):
        z = complex(sample_mode(state, grid, 1, np.array([tt]))[0])
        return reference_rhs_coeffs(state, tt, z, grid, PROFILE, params.epsilon)

    t_half = np.arange(81) * (0.5 * params.d_t)
    c = h0.coeffs.copy()
    snaps = [c]
    for i in range(1, 41):
        c = mirror(reference_rk4_step(c, t_half[2 * i - 2 : 2 * i + 1], params.d_t, f))
        if i % 7 == 0 or i == 40:
            snaps.append(c)
    assert len(snaps) == len(traj.snapshots)
    for m, ref in enumerate(snaps):
        assert same_bytes(traj.full_state(m), ref)


def check_transport_against_reference(T):
    grid = make_grid(4, 12.0, 0.05, 8.0)
    datum, background = bgk_to_field(solve_bgk(3.0), grid)
    cfg = ScatteringConfig(
        terminal=datum, background=background, epsilon=1.0, T=T, d_t=0.05, tau=4.0,
        sign=-1.0,
    )
    ws = _Workspace(cfg)
    rng = np.random.default_rng(3)
    zeta_z = 0.05 * (rng.standard_normal(len(ws.t_z)) + 1j * rng.standard_normal(len(ws.t_z)))
    got = ws.transport(zeta_z)
    again = ws.transport(zeta_z)  # the workspace's blocks are reused

    zr = 2  # the field lives on the half steps
    c = datum.coeffs.copy()
    ref = {ws.n_steps: c}
    for i in range(ws.n_steps, 0, -1):
        z_mid = zeta_z[i * zr - zr // 2]
        fields = (zeta_z[i * zr], z_mid, z_mid, zeta_z[(i - 1) * zr])

        @mirrored
        def f(state, tt, stage):
            return reference_rhs_coeffs(state, tt, fields[stage], grid, background, 1.0, -1.0)

        c = mirror(reference_rk4_step(c, ws.t_z[2 * i - 2 : 2 * i + 1][::-1], -cfg.d_t, f))
        ref[i - 1] = c
    assert len(got) == len(ws.snap_idx)
    for m, i in enumerate(ws.snap_idx):  # the transport keeps rows n = 0 .. n_max
        assert same_bytes(got[m], ref[int(i)][grid.n_max :])
        assert same_bytes(again[m], ref[int(i)][grid.n_max :])
    return ws


def test_transport_matches_reference_stepping():
    check_transport_against_reference(6.0)


def test_transport_off_cadence_endpoint_matches_reference_stepping():
    # 41 steps at stride 10: the terminal step 41 is a snapshot off the cadence
    ws = check_transport_against_reference(6.05)
    assert ws.n_steps == 41 and list(ws.snap_idx) == [0, 10, 20, 30, 40, 41]


def test_extract_zeta_matches_sample_mode():
    for size, grid in GRIDS.items():
        rng = np.random.default_rng(11)
        nodes = grid.xi[rng.integers(0, grid.n_xi, 500)]
        times = np.concatenate([
            [0.0, 0.6, 1.2345, -2.5, 8.0],
            rng.uniform(-grid.xi_max, grid.xi_max, 2000),  # off the lattice
            nodes,  # on the lattice
            np.where(nodes < grid.xi_max, nodes + 1e-11, nodes - 1e-11),  # snapped onto it
            grid.xi[:4], grid.xi[-4:],  # stencil partly off the grid
            [grid.xi_max, -grid.xi_max, -0.0],
        ])
        for name, c in states(grid).items():
            ref_counters, got_counters = TruncationCounters(), TruncationCounters()
            ref = sample_mode(c, grid, 1, times, ref_counters)
            got = np.array([extract_zeta(c, grid, t, got_counters) for t in times])
            assert same_bytes(got, ref), (size, name)
            assert ref_counters.out_of_range_reads == got_counters.out_of_range_reads == 0
            assert ref_counters.max_edge_magnitude == got_counters.max_edge_magnitude


def test_rk4work_memo_matches_fresh_calls():
    # each work at t1, t2, t1, with two works of two backgrounds interleaved:
    # the per-time tables must never hand a call the plan or rows of another
    # time, nor one work's rows to the other
    grid = GRIDS["9x481"]
    c = states(grid)["perturbed"]
    block = padded(c)
    other = maxwellian(beta=2.0)  # same eta_hat code, other parameter
    out, reused = _padded((grid.n_max + 1, grid.n_xi))
    zeta = 0.31 - 0.17j
    sequence = [(0.6, PROFILE), (1.2345, PROFILE), (0.6, PROFILE), (0.6, other),
                (1.2345, other), (1.2345, PROFILE), (3.0, other), (0.6, other),
                (1.2345, PROFILE), (0.6, PROFILE)]
    for eps in (0.01, 0.0):
        works = {id(p): _RK4Work(grid, p, eps, 1.0) for p in (PROFILE, other)}
        for t, profile in sequence:
            ref = reference_rhs_coeffs(c, t, zeta, grid, profile, eps)[grid.n_max :]
            fresh = rhs_fresh(c, t, zeta, grid, profile, eps)
            rhs_coeffs(block, t, zeta, works[id(profile)], out)
            assert same_bytes(fresh, ref), (t, eps)
            assert same_bytes(reused, ref), (t, eps)


def test_stage_times_are_the_half_step_nodes(monkeypatch):
    # 160 steps of 0.05 read their stages at the 2 * 160 + 1 half-step nodes
    # and nowhere else: a stage time formed as t + h/2 or t + h misses a node
    # by one ulp in some steps, and each miss is one more eta' evaluation and
    # one more plan-store entry
    grid = GRIDS["9x481"]
    calls = []

    def counting(xi):
        calls.append(1)
        return PROFILE.eta_hat(xi)

    profile = dataclasses.replace(PROFILE, eta_hat=counting)
    works = []

    class RecordedWork(_RK4Work):
        def __init__(self, *args):
            super().__init__(*args)
            works.append(self)

    monkeypatch.setattr(evolution, "_RK4Work", RecordedWork)
    h0 = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)
    forward_solve(h0, EvolutionParams(profile=profile, epsilon=0.2, d_t=0.05, t_final=8.0))
    assert len(calls) == len(works[0]._plans) == 321

    ws = _Workspace(ScatteringConfig(terminal=h0, background=profile, epsilon=0.5, T=8.0,
                                     d_t=0.05))
    calls.clear()
    ws.transport(np.full(len(ws.t_z), 0.01 + 0.02j))
    assert len(calls) == len(ws.rk4._plans) == 321


def test_workspace_reused_over_two_sweeps_matches_fresh():
    grid = make_grid(4, 12.0, 0.05, 8.0)
    datum, background = bgk_to_field(solve_bgk(3.0), grid)
    cfg = ScatteringConfig(
        terminal=datum, background=background, epsilon=1.0, T=6.0, d_t=0.05, tau=2.0,
        sign=-1.0,
    )
    ws = _Workspace(cfg)
    history = np.broadcast_to(datum.coeffs, (len(ws.snap_idx),) + datum.coeffs.shape)
    for _ in range(2):  # two Picard sweeps on the one workspace
        zeta = ws.solve_field(history)
        snaps = ws.transport(zeta)
        fresh = _Workspace(cfg)
        assert same_bytes(zeta, fresh.solve_field(history))
        assert same_bytes(snaps, fresh.transport(zeta))
        history = snaps


def test_march_keeps_padding_zero_and_writes_no_caller_state(monkeypatch):
    # the march copies its start state into the work's padded state; a
    # stencil read that lands on padding reads zero only while every march
    # keeps the padding zero, and no march may write the datum it started from
    grid = make_grid(4, 12.0, 0.05, 8.0)
    works = []

    class RecordedWork(_RK4Work):
        def __init__(self, *args):
            super().__init__(*args)
            works.append(self)

    monkeypatch.setattr(evolution, "_RK4Work", RecordedWork)
    h0 = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)
    h0_bytes = h0.coeffs.tobytes()
    forward_solve(h0, EvolutionParams(profile=PROFILE, epsilon=0.5, d_t=0.05, t_final=4.0))
    assert h0.coeffs.tobytes() == h0_bytes

    datum, background = bgk_to_field(solve_bgk(3.0), grid)
    datum_bytes = datum.coeffs.tobytes()
    cfg = ScatteringConfig(
        terminal=datum, background=background, epsilon=1.0, T=6.0, d_t=0.05, tau=2.0,
        sign=-1.0,
    )
    ws = _Workspace(cfg)
    rng = np.random.default_rng(5)
    zeta_z = 0.05 * (rng.standard_normal(len(ws.t_z)) + 1j * rng.standard_normal(len(ws.t_z)))
    first = ws.transport(zeta_z)
    second = ws.transport(zeta_z)  # the same field on the work the first pass left
    assert same_bytes(first, second)
    assert datum.coeffs.tobytes() == datum_bytes

    assert len(works) == 1
    for work in (works[0], ws.rk4):
        assert np.count_nonzero(work.data) > 0
        assert padding_is_zero(work.state, work.data)
        assert padding_is_zero(work.stage, work.stage_data)


@pytest.mark.parametrize("size", sorted(GRIDS))
def test_shift_rows_near_nodes_and_at_the_cutoff(size):
    grid = GRIDS[size]
    d, edge = grid.d_xi, 2 * grid.xi_max  # a shift of 2 xi_max keeps one column in range
    deltas = [
        3.0 + 0.5e-9 * d, 3.0 - 0.5e-9 * d, -2.5 + 0.9e-9 * d,  # snapped onto a node
        3.0 + 2e-9 * d, -2.5 - 2e-9 * d,  # just outside the snap band
        edge, -edge, edge - 0.5e-9 * d, -edge + 0.5e-9 * d,  # the cutoff column alone
        edge + d, -edge - d, edge - 0.5 * d,  # nothing in range
    ]
    out, got = _padded((grid.n_modes, grid.n_xi))
    scratch = np.empty_like(out)
    for name, c in states(grid).items():
        block = padded(c)
        for delta in deltas:
            ref = reference_shift_rows(c, grid, delta)
            shift_rows(block, _shift_plan(grid, delta), out, scratch)
            assert same_bytes(got, ref), (name, delta)
            assert padding_is_zero(out, got), (name, delta)
    assert _shift_plan(grid, deltas[0]).weights is None  # node reads take the copy
    assert _shift_plan(grid, deltas[3]).weights is not None
    c = states(grid)["perturbed"]
    assert np.count_nonzero(shifted(c, grid, edge)) == grid.n_modes  # column 0 only
    assert same_bytes(shifted(c, grid, edge)[:, 0], 0.0 + c[:, -1])
    assert same_bytes(shifted(c, grid, -edge)[:, -1], 0.0 + c[:, 0])


@pytest.mark.parametrize("size", sorted(GRIDS))
def test_off_node_read_just_below_the_cutoff_reads_zero(size):
    # a read 1e-9 grid units below a node does not snap; in the column where
    # it falls below node 0 it is outside the cutoff and reads zero, as
    # sample_mode's does, and its stencil never reaches below the padded row
    grid = GRIDS[size]
    c = states(grid)["perturbed"]
    for k in (0, 1, 2):
        delta = -(k + 1e-9) * grid.d_xi
        assert _shift_plan(grid, delta).weights is not None
        got = shifted(c, grid, delta)
        assert not got[:, : k + 1].any()
        assert not sample_mode(c, grid, 1, grid.xi[: k + 1] + delta).any()
        assert same_bytes(got[:, k + 1 :], reference_shift_rows(c, grid, delta)[:, k + 1 :])


@pytest.mark.parametrize("size", sorted(GRIDS))
def test_off_node_read_just_above_the_cutoff_reads_zero(size):
    # the mirror of the test above: 1e-9 grid units above a node, the column
    # whose read passes node n_xi - 1 is outside the cutoff and reads zero
    grid = GRIDS[size]
    c = states(grid)["perturbed"]
    for k in (0, 1, 2):
        delta = (k + 1e-9) * grid.d_xi
        edge = grid.n_xi - 1 - k
        assert _shift_plan(grid, delta).weights is not None
        got = shifted(c, grid, delta)
        assert not got[:, edge:].any()
        assert not sample_mode(c, grid, 1, grid.xi[edge:] + delta).any()
        assert same_bytes(got[:, :edge], reference_shift_rows(c, grid, delta)[:, :edge])


def test_nan_on_a_node_read_stays_in_its_column():
    # the one place where a node read differs from the four-term stencil:
    # the stencil also spread 0 * NaN into three neighbouring columns
    grid = GRIDS["9x481"]
    c = states(grid)["perturbed"]
    c[5, 200] = complex(np.nan, 0.0)
    got = shifted(c, grid, 3.0)  # 60 nodes: column j reads column j + 60
    ref = reference_shift_rows(c, grid, 3.0)
    assert np.argwhere(np.isnan(got)).tolist() == [[5, 140]]
    assert np.argwhere(np.isnan(ref)).tolist() == [[5, 138], [5, 139], [5, 140], [5, 141]]
    finite = ~np.isnan(ref)
    assert same_bytes(got[finite], ref[finite])


def test_nan_datum_blows_up_at_the_reference_step():
    grid = make_grid(4, 12.0, 0.05, 8.0)
    datum = make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid).coeffs.copy()
    datum[grid.n_max + 1, 300] = complex(np.nan, 0.0)  # mode 1, read on a node at t = T
    cfg = ScatteringConfig(
        terminal=FourierField(grid, datum), background=PROFILE, epsilon=0.5, T=6.0,
        d_t=0.05,
    )
    ws = _Workspace(cfg)
    zeta_z = np.full(len(ws.t_z), 0.01 + 0.02j)

    @mirrored
    def f(state, tt, stage):
        return reference_rhs_coeffs(state, tt, zeta_z[0], grid, PROFILE, 0.5)

    c, blown = datum, None
    for i in range(ws.n_steps, 0, -1):
        c = mirror(reference_rk4_step(c, ws.t_z[2 * i - 2 : 2 * i + 1][::-1], -cfg.d_t, f))
        if not np.max(np.abs(c[grid.n_max - 1 :])) <= 1e6:
            blown = ws.t_fine[i - 1]
            break
    with pytest.raises(BlowUpError) as exc:
        ws.transport(zeta_z)
    assert blown is not None and exc.value.t == blown
