"""Half-spectrum snapshot blocks against the full blocks they stand for.

A trajectory stores rows n = 0 .. n_max of each snapshot.  The rows n < 0
are the reality mirror h_{-n}(xi) = conj h_n(-xi) at every snapshot, the
one the march started from included, since a datum is its own mirror
expansion.  Every reference here is built from such an expanded full
block, row by row, without the package's expansion helper.
"""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hmflab import diagnostics, norms, scattering
from hmflab.diagnostics import regularity_profile
from hmflab.evolution import EvolutionParams, forward_solve
from hmflab.norms import _weighted_snapshot_sup, functional_N, functional_P_Q, solve_a
from hmflab.outputs import read_snapshots, write_snapshots
from hmflab.profiles import bgk_to_field, make_asymptotic_datum, maxwellian, solve_bgk
from hmflab.scattering import (
    ScatteringConfig,
    backward_solve,
    continue_in_T,
    echo_split,
    nonperturbative_solve,
)
from hmflab.spectral import make_grid, sample_mode, trapezoid

PROFILE = maxwellian()


def gaussian_datum(grid):
    return make_asymptotic_datum(0.5, {1: 1.0, -1: 1.0}, 1.0, grid)


def forward_run():
    grid = make_grid(3, 12.0, 0.1, 8.0)
    datum = gaussian_datum(grid)
    params = EvolutionParams(profile=PROFILE, epsilon=0.2, d_t=0.05, t_final=4.0, snap_stride=7)
    return forward_solve(datum, params), datum


def backward_config():
    grid = make_grid(3, 12.0, 0.1, 8.0)
    return ScatteringConfig(terminal=gaussian_datum(grid), background=PROFILE, epsilon=0.05,
                            T=4.0, d_t=0.05, picard_tol=1e-10)


def bgk_config():
    grid = make_grid(4, 12.0, 0.05, 8.0)  # 9 x 481
    terminal, background = bgk_to_field(solve_bgk(3.0), grid)
    return ScatteringConfig(terminal=terminal, background=background, epsilon=1.0, T=8.0,
                            d_t=0.05, sign=-1.0, picard_tol=1e-10, picard_max_iters=40)


def mirrored(half, n_modes):
    """The full state of a half block: rows n < 0 as conj h_n(-xi), one row at a time."""
    n_max = len(half) - 1
    full = np.empty((n_modes, half.shape[1]), dtype=np.complex128)
    full[n_max:] = half
    for n in range(1, n_max + 1):
        full[n_max - n] = np.conj(half[n][::-1])
    return full


def full_block(traj):
    """The full block of ``traj``: every snapshot's rows with their mirror rows."""
    return np.stack([mirrored(h, traj.grid.n_modes) for h in traj.snapshots])


def full_bracket(grid):
    """<n, xi> on the full lattice n = -n_max .. n_max."""
    n = np.arange(-grid.n_max, grid.n_max + 1, dtype=float)[:, None]
    return np.sqrt(1.0 + n * n + grid.xi[None, :] ** 2)


@pytest.fixture(scope="module")
def solved():
    """The trajectory of one forward run and of one backward window."""
    traj, _ = forward_run()
    back, trace, _ = nonperturbative_solve(bgk_config())
    assert trace.converged and trace.iterations > 1
    return {"forward": traj, "backward": back}


class TestSnapshotFileBytes:
    """snapshots.bin holds the full blocks the march stored before it kept the half spectrum."""

    @pytest.mark.parametrize("case", ["forward", "backward", "bgk"])
    def test_file_is_the_full_block(self, tmp_path, case):
        if case == "forward":
            traj, datum = forward_run()
            datum, start = datum.coeffs, 0
        else:
            cfg = backward_config() if case == "backward" else bgk_config()
            traj, trace = backward_solve(cfg)
            assert trace.converged
            datum, start = cfg.terminal.coeffs, -1
        grid = traj.grid
        write_snapshots(tmp_path / "s.bin", tmp_path / "s.json", traj)
        expected = full_block(traj)
        header = b"HMF1" + np.array(expected.shape, dtype="<i8").tobytes()
        assert (tmp_path / "s.bin").read_bytes() == header + expected.tobytes()
        got = read_snapshots(tmp_path / "s.bin", grid)
        assert got.tobytes() == expected.tobytes()
        # the datum is its own mirror expansion, signed zeros included, so the
        # start snapshot the file holds is the datum byte for byte
        assert got[start].tobytes() == datum.tobytes()

    def test_writing_holds_under_two_full_snapshots(self, tmp_path):
        # the shape of perfbench's forward_wide run: 9 x 1761, T = 16, d_t = 0.05,
        # whose full block was 33 snapshots of 9 rows, 8.4 MB
        grid = make_grid(4, 44.0, 0.05, 16.0)
        params = EvolutionParams(profile=PROFILE, epsilon=0.01, d_t=0.05, t_final=16.0)
        traj = forward_solve(gaussian_datum(grid), params)
        assert traj.snapshots.shape == (33, grid.n_max + 1, grid.n_xi)
        full_snapshot = grid.n_modes * grid.n_xi * 16
        tracemalloc.start()
        try:
            write_snapshots(tmp_path / "s.bin", tmp_path / "s.json", traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "s.bin").stat().st_size == 28 + 33 * full_snapshot
        assert peak < 2 * full_snapshot


class TestHalfRowReads:
    """Each read of the rows n >= 0 equals its full-block reference bit for bit."""

    @pytest.mark.parametrize("case", ["forward", "backward"])
    def test_weighted_sups(self, solved, monkeypatch, case):
        traj = solved[case]
        full = full_block(traj)
        weight = solve_a(float(traj.times[-1]), 1e-3, 0.05)
        got_n = functional_N(traj, 0.3, weight)
        _, got_q = functional_P_Q(traj, 0.3, 0.15, 2.0, weight, 0.5)
        got_profile = regularity_profile(traj, 10.0).mu_star
        monkeypatch.setattr(norms, "_bracket", full_bracket)
        monkeypatch.setattr(diagnostics, "_bracket", full_bracket)
        ref_n = _weighted_snapshot_sup(traj.grid, traj.times, full, 0.3, weight, 64)
        k = int(np.searchsorted(traj.times, 2.0 - 1e-12))
        ref_q = _weighted_snapshot_sup(traj.grid, traj.times[k:], full[k:], 0.3,
                                       lambda t: (0.15 / 0.5) * weight(t), 64)
        ref_profile = regularity_profile(
            SimpleNamespace(grid=traj.grid, times=traj.times, snapshots=full), 10.0
        ).mu_star
        assert got_n.value > 0.0 and got_q.value > 0.0
        assert (got_n.value, got_n.where) == (ref_n.value, ref_n.where)
        assert (got_q.value, got_q.where) == (ref_q.value, ref_q.where)
        assert got_profile.tobytes() == ref_profile.tobytes()

    def test_sweep_changes(self, monkeypatch):
        cfg = bgk_config()
        fields, blocks = [], []
        solve_field, transport = scattering._Workspace.solve_field, scattering._Workspace.transport

        def record_field(ws, snaps):
            fields.append(solve_field(ws, snaps))
            return fields[-1]

        def record_transport(ws, zeta):
            blocks.append(transport(ws, zeta))
            return blocks[-1]

        monkeypatch.setattr(scattering._Workspace, "solve_field", record_field)
        monkeypatch.setattr(scattering._Workspace, "transport", record_transport)
        _, trace = backward_solve(cfg)
        datum, grid = cfg.terminal.coeffs, cfg.terminal.grid
        prev = np.broadcast_to(datum, (len(blocks[0]),) + datum.shape)  # sweep 1's history
        expected = []
        for j, block in enumerate(blocks):
            new = np.stack([mirrored(h, grid.n_modes) for h in block])
            dh = max(float(np.max(np.abs(a - b))) for a, b in zip(new, prev))
            dz = float(np.max(np.abs(fields[j] - fields[j - 1]))) if j else dh
            expected.append(max(dh, dz))
            prev = new
        assert len(expected) == trace.iterations > 1
        assert trace.sup_diffs == expected

    def test_continuation_changes(self):
        cfg = backward_config()
        windows = [2.0, 3.05, 4.0]  # 3.05 ends off the snapshot cadence
        res = continue_in_T(cfg, windows)
        expected, prev = [], None
        for T in windows:
            traj, _ = backward_solve(replace(cfg, T=T))
            full = full_block(traj)
            if prev is not None:
                prev_times, prev_full = prev
                n_snap = len(prev_times) - (prev_times[-1] != traj.times[len(prev_times) - 1])
                expected.append(max(float(np.max(np.abs(full[m] - prev_full[m])))
                                    for m in range(n_snap)))
            prev = traj.times, full
        assert res.h_diffs == expected and min(expected) > 0.0

    def test_echo_split(self, solved):
        traj = solved["backward"]
        cfg = bgk_config()
        got = echo_split(traj, cfg)
        ref = reference_echo_split(full_block(traj), traj, cfg)
        for name in ("b_plus", "b_minus", "b_plus_reconstructed"):
            assert getattr(got, name).tobytes() == ref[name].tobytes(), name
        assert np.max(np.abs(ref["b_plus"])) > 0.1


def reference_echo_split(full, traj, config):
    """The echo split with all four reads taken from the full block ``full``."""
    grid, ts = traj.grid, traj.times
    m_count = len(ts)
    zeta_at = traj.series.zeta1[np.searchsorted(traj.series.t, ts)]
    u = -(ts[::-1] - ts[0])
    u_col = np.rint((ts[:, None] - ts[None, :]) / (ts[1] - ts[0])).astype(np.intp) + m_count - 1
    h0_read, h2_read, rec_rows = np.empty((3, m_count, m_count), dtype=np.complex128)
    for m, s in enumerate(ts):
        h0_read[m] = sample_mode(full[m], grid, 0, u)
        h2_read[m] = sample_mode(full[m], grid, 2, ts + s)
        rec_rows[m] = (zeta_at[m] * sample_mode(full[m], grid, -1, u - s)
                       - np.conj(zeta_at[m]) * sample_mode(full[m], grid, 1, u + s))
    h0_rec = np.zeros_like(rec_rows)
    for m in range(m_count - 2, -1, -1):
        h0_rec[m] = h0_rec[m + 1] + 0.5 * (ts[m + 1] - ts[m]) * (rec_rows[m] + rec_rows[m + 1])
    h0_rec *= config.sign * config.epsilon * 0.5 * u
    out = {k: np.zeros(m_count, dtype=np.complex128) for k in ("b_plus", "b_minus", "b_plus_reconstructed")}
    for i, t_i in enumerate(ts[:-1]):
        rows, cols = np.arange(i, m_count), u_col[i, i:]
        z, s, lag = zeta_at[i:], ts[i:], t_i - ts[i:]
        out["b_plus"][i] = trapezoid(z * h0_read[rows, cols] * lag, s)
        out["b_minus"][i] = trapezoid(-np.conj(z) * h2_read[i:, i] * lag, s)
        out["b_plus_reconstructed"][i] = trapezoid(z * h0_rec[rows, cols] * lag, s)
    return out
