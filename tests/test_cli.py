import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hmflab import runner
from hmflab.cli import main
from hmflab.config import SCENARIOS, ConfigError, config_from_text, load_config
from hmflab.outputs import fmt, read_snapshots, sha256_of, write_csv, write_snapshots
from hmflab.profiles import solve_bgk
from hmflab.evolution import FieldSeries, Trajectory
from hmflab.runner import RunRefusedError, run
from hmflab.spectral import make_grid


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

MINIMAL_STABILITY = """
run.scenario = stability
run.id = stab-1
profile.kind = maxwellian
"""

BACKWARD_SMALL = """
run.scenario = backward
run.id = bw-1
grid.n_max = 3
grid.xi_max = 12
grid.d_xi = 0.1
grid.t_final = 8
datum.amplitude = 0.4
datum.width = 1.0
evolve.epsilon = 0.01
evolve.d_t = 0.02
evolve.T = 8
picard.tol = 1e-7
"""

FORWARD_SMALL = """
run.scenario = forward
run.id = fw-1
grid.n_max = 4
grid.xi_max = 12
grid.d_xi = 0.05
grid.t_final = 8
evolve.T = 8
"""

WEIGHTS = "run.scenario = weights\nrun.id = x\n"

NONPERTURBATIVE = "run.scenario = nonperturbative\nrun.id = x\nevolve.epsilon = 1\n"


class TestLoadConfig:
    def test_minimal_stability(self, tmp_path):
        p = tmp_path / "stab.cfg"
        p.write_text(MINIMAL_STABILITY)
        cfg = load_config(p)
        assert cfg.scenario == "stability"
        assert cfg.values["stability.n_scan"] == 1201  # default applied

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_unknown_key_listed(self):
        with pytest.raises(ConfigError, match="evolve.epsilonn"):
            config_from_text(BACKWARD_SMALL + "evolve.epsilonn = 3\n")

    def test_window_invariant_named(self):
        bad = BACKWARD_SMALL + "evolve.tau = 9\n"
        with pytest.raises(ConfigError, match="evolve.tau < evolve.T"):
            config_from_text(bad)

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigError, match=":3:"):
            config_from_text("run.scenario = bgk\nrun.id = x\nnot a pair\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_text("run.scenario = bgk\nrun.id = x\nbgk.beta = 2\nbgk.beta = 3\n")

    @pytest.mark.parametrize(
        "scenario, line",
        [
            ("bgk", "stability.n_scan = 7"),
            # the non-perturbative datum and background are the BGK state's
            ("nonperturbative", "datum.amplitude = 0.5"),
            ("nonperturbative", "datum.width = 1.0"),
            ("nonperturbative", "datum.shape = gaussian"),
            ("nonperturbative", "datum.modes = 1:1, -1:1"),
            ("nonperturbative", "profile.kind = maxwellian"),
            ("nonperturbative", "profile.beta = 1.0"),
            ("nonperturbative", "profile.scale = 1.0"),
            ("nonperturbative", "fit.window_lo = 1.0"),
            ("nonperturbative", "fit.window_hi = 2.0"),
            ("nonperturbative", "norms.mu_points = 64"),
            ("stability", "grid.n_max = 4"),
            ("stability", "grid.xi_max = 24"),
            ("stability", "grid.d_xi = 0.05"),
            ("stability", "grid.t_final = 20"),
            ("backward", "echo.threshold = 2.5"),
            ("forward", "norms.delta = 1e-3"),
            ("forward", "norms.mu_points = 64"),
            ("compare", "norms.mu_points = 64"),
            ("forward", "picard.tol = 5"),
        ],
        ids=lambda v: v.split(" =")[0],
    )
    def test_scenario_scoping(self, scenario, line):
        """A key the scenario never reads is an error, also in a sweep over that scenario."""
        with pytest.raises(ConfigError, match=f"not valid for scenario '{scenario}'"):
            config_from_text(f"run.scenario = {scenario}\nrun.id = x\n{line}\n")
        with pytest.raises(ConfigError, match=f"not valid for scenario '{scenario}'"):
            config_from_text(
                f"run.scenario = sweep\nrun.id = x\nsweep.scenario = {scenario}\n"
                f"sweep.axis = evolve.epsilon\nsweep.values = 0.1\n{line}\n"
            )

    @pytest.mark.parametrize("run_id", [".", "..", "a/b", "../escape", "a\\b", ""])
    def test_run_id_must_be_one_path_component(self, run_id):
        with pytest.raises(ConfigError, match="run.id"):
            config_from_text(f"run.scenario = bgk\nrun.id = {run_id}\n")

    def test_sign_checked_at_load(self):
        with pytest.raises(ConfigError, match="evolve.sign"):
            config_from_text(BACKWARD_SMALL + "evolve.sign = 0.5\n")

    @pytest.mark.parametrize(
        "line",
        [
            "datum.amplitude = nan",
            "datum.amplitude = inf",
            "datum.amplitude = -inf",
            "profile.beta = nan",
            "datum.modes = 1:1, -1:nan",
            "fit.window_lo = inf",
        ],
    )
    def test_non_finite_number_rejected(self, line):
        with pytest.raises(ConfigError, match="not a finite number"):
            config_from_text(f"run.scenario = forward\nrun.id = x\n{line}\n")

    def test_non_finite_list_item_rejected(self):
        with pytest.raises(ConfigError, match="not a finite number"):
            config_from_text(BACKWARD_SMALL + "backward.T_list = 2, nan, 8\n")

    @pytest.mark.parametrize(
        "lines, rule",
        [
            ("stability.d_t = 0", "0 < stability.d_t <= stability.t_max"),
            ("stability.d_t = 30", "0 < stability.d_t <= stability.t_max"),
            ("stability.t_max = 0", "stability.t_max > 0"),
            ("stability.n_scan = 0", "stability.n_scan >= 2"),
            ("stability.omega_max = -5", "stability.omega_max > 0"),
            ("stability.threshold = 0", "stability.threshold > 0"),
            ("stability.m_bound = 0.02", "stability.lambda > 0 when stability.m_bound is set"),
            ("stability.m_bound = 0.02\nstability.lambda = 0",
             "stability.lambda > 0 when stability.m_bound is set"),
            # each loaded before these rules: a sup bound of -5 reported sufficient_ok, a
            # lambda without m_bound was never read, a rough width of 0 skipped the rough run
            # and one of -1 failed after the backward solve
            ("stability.m_bound = 0\nstability.lambda = 0.3",
             "violated precondition: stability.m_bound > 0"),
            ("stability.m_bound = -5\nstability.lambda = 0.3",
             "violated precondition: stability.m_bound > 0"),
            ("stability.lambda = 0.3", "stability.m_bound is set when stability.lambda is"),
            pytest.param("run.scenario = compare\nrun.id = x\ncompare.rough_width = 0",
                         "violated precondition: compare.rough_width > 0", id="rough_width-0"),
            pytest.param("run.scenario = compare\nrun.id = x\ncompare.rough_width = -1",
                         "violated precondition: compare.rough_width > 0", id="rough_width-negative"),
            # the field solve is one march on the half steps: neither knob exists
            pytest.param(BACKWARD_SMALL + "picard.inner_max = 0", "unknown keys: picard.inner_max",
                         id="inner_max-0"),
            pytest.param(BACKWARD_SMALL + "picard.max_iters = 0", "picard.max_iters >= 1",
                         id="max_iters-0"),
            pytest.param(BACKWARD_SMALL + "picard.zeta_refine = 3",
                         "unknown keys: picard.zeta_refine", id="zeta_refine-odd"),
            pytest.param(BACKWARD_SMALL + "picard.zeta_refine = 0",
                         "unknown keys: picard.zeta_refine", id="zeta_refine-0"),
            pytest.param(BACKWARD_SMALL + "evolve.snap_stride = 0", "evolve.snap_stride >= 1",
                         id="snap_stride-0"),
            pytest.param(BACKWARD_SMALL + "norms.mu_points = 0", "norms.mu_points >= 2",
                         id="mu_points-0"),
            pytest.param(BACKWARD_SMALL + "backward.T_list = 2, 4, 6.01",
                         "backward.T_list - evolve.tau are whole numbers of evolve.d_t steps",
                         id="T_list-off-step"),
            pytest.param(BACKWARD_SMALL + "evolve.tau = 4\nbackward.T_list = 4, 8",
                         "backward.T_list windows end after evolve.tau", id="T_list-at-tau"),
            pytest.param(BACKWARD_SMALL + "backward.T_list = 2, 4, 6",
                         "backward.T_list ends at evolve.T", id="T_list-short-of-T"),
            # a list past grid.t_final ends past evolve.T <= grid.t_final
            pytest.param(BACKWARD_SMALL + "backward.T_list = 2, 4, 10",
                         "backward.T_list ends at evolve.T", id="T_list-past-t_final"),
            pytest.param(BACKWARD_SMALL + "datum.modes = 1:1, -1:1, 4:0.5, -4:0.5",
                         "datum.modes within |n| <= grid.n_max", id="modes-beyond-n_max"),
            pytest.param(BACKWARD_SMALL.replace("evolve.T = 8", "evolve.T = 7.99"),
                         "evolve.T - evolve.tau is a whole number of evolve.d_t steps",
                         id="T-off-step"),
            pytest.param("run.scenario = forward\nrun.id = x\nevolve.d_t = 0.2",
                         "evolve.d_t <= 0.1", id="forward-d_t"),
            pytest.param("run.scenario = compare\nrun.id = x\nevolve.d_t = 0.2",
                         "evolve.d_t <= 0.1", id="compare-d_t"),
            # without these rules each config below would fail only inside the run
            pytest.param(WEIGHTS + "weights.delta_list = 1e-3, 0", "weights.delta_list entries > 0",
                         id="delta_list-0"),
            pytest.param(WEIGHTS + "weights.delta = -1e-3", "weights.delta > 0", id="delta-negative"),
            pytest.param(WEIGHTS + "weights.d_t = 0", "0 < weights.d_t <= weights.T", id="weights-d_t-0"),
            pytest.param(WEIGHTS + "weights.T = -5", "0 < weights.d_t <= weights.T",
                         id="weights-T-negative"),
            pytest.param(WEIGHTS + "weights.t_max = 0", "weights.d_t <= weights.t_max",
                         id="weights-t_max-0"),
            # weights.csv pairs a_T and a_inf row by row, so both lattices must be d_t's
            pytest.param(WEIGHTS + "weights.T = 200\nweights.d_t = 0.03\nweights.t_max = 100",
                         "weights.T is a whole number of weights.d_t steps", id="weights-T-off-step"),
            pytest.param(WEIGHTS + "weights.T = 30\nweights.d_t = 0.03\nweights.t_max = 100",
                         "weights.t_max is a whole number of weights.d_t steps",
                         id="weights-t_max-off-step"),
            # the margin scan needs |L[K]| <= 1/2 beyond its range, which the run checks first
            pytest.param("stability.omega_max = 1",
                         "|L| <= 1/2 beyond stability.omega_max for the profile.beta = 1 kernel "
                         "(bound there 0.607)", id="omega_max-short-of-scan"),
            pytest.param("profile.beta = 50",
                         "|L| <= 1/2 beyond stability.omega_max for the profile.beta = 50 kernel "
                         "(bound there 1.476)", id="profile-beta-beyond-scan"),
            pytest.param(NONPERTURBATIVE + "bgk.beta = 50",
                         "|L| <= 1/2 beyond the kernel-margin scan's |omega| <= 20 for "
                         "bgk.beta = 50 (bound there 1.476)", id="nonperturbative-beta-beyond-scan"),
            pytest.param("run.scenario = sweep\nrun.id = x\nsweep.scenario = stability\n"
                         "sweep.axis = stability.omega_max\nsweep.values = 20, 1",
                         "sweep member 1.0: violated precondition: |L| <= 1/2 beyond "
                         "stability.omega_max", id="sweep-member-omega_max-short-of-scan"),
            pytest.param("profile.beta = 0", "profile.beta > 0", id="profile-beta-0"),
            pytest.param("run.scenario = stability\nrun.id = x\nprofile.kind = lorentzian\n"
                         "profile.scale = -1", "profile.scale > 0", id="profile-scale-negative"),
            pytest.param("run.scenario = bgk\nrun.id = x\nbgk.beta = -3", "bgk.beta > 0",
                         id="bgk-beta-negative"),
            pytest.param(BACKWARD_SMALL.replace("grid.xi_max = 12", "grid.xi_max = 12.05"),
                         "grid.xi_max is a whole multiple of grid.d_xi", id="xi_max-off-lattice"),
            pytest.param(BACKWARD_SMALL + "norms.delta = 0", "norms.delta > 0", id="norms-delta-0"),
            pytest.param(NONPERTURBATIVE + "norms.lambda_prime = 0.3",
                         "0 < norms.lambda_prime < norms.lambda", id="lambda_prime-at-lambda"),
            pytest.param(NONPERTURBATIVE + "norms.lambda_prime = 0",
                         "0 < norms.lambda_prime < norms.lambda", id="lambda_prime-0"),
            pytest.param(BACKWARD_SMALL + "datum.modes = 1:1, 1:5, -1:1", "duplicate mode 1",
                         id="modes-repeated"),
            # each loaded before these rules: the first two ended in a run-time error or an
            # n_norm of 0 from an empty admissible domain, the fit windows in a decay "error"
            pytest.param(BACKWARD_SMALL + "evolve.tau = -1", "evolve.tau >= 0", id="tau-negative"),
            pytest.param(NONPERTURBATIVE + "evolve.tau = -1", "evolve.tau >= 0",
                         id="nonperturbative-tau-negative"),
            pytest.param(BACKWARD_SMALL + "norms.lambda = -0.5", "norms.lambda > 0",
                         id="lambda-negative"),
            pytest.param(BACKWARD_SMALL + "norms.lambda = 0", "norms.lambda > 0", id="lambda-0"),
            pytest.param(FORWARD_SMALL + "fit.window_lo = 15\nfit.window_hi = 5",
                         "fit.window_lo < fit.window_hi", id="fit-window-reversed"),
            pytest.param(BACKWARD_SMALL + "fit.window_lo = 15\nfit.window_hi = 5",
                         "fit.window_lo < fit.window_hi", id="backward-fit-window-reversed"),
            pytest.param(FORWARD_SMALL + "fit.window_lo = 30\nfit.window_hi = 40",
                         "fit.window_lo .. fit.window_hi window overlaps [evolve.tau, evolve.T]",
                         id="fit-window-beyond-T"),
            pytest.param(BACKWARD_SMALL + "evolve.tau = 4\nfit.window_lo = 1\nfit.window_hi = 3",
                         "fit.window_lo .. fit.window_hi window overlaps [evolve.tau, evolve.T]",
                         id="fit-window-before-tau"),
            pytest.param(FORWARD_SMALL + "fit.window_lo = 9", "fit.window_lo < fit.window_hi",
                         id="fit-window_lo-beyond-default-hi"),
            # a fit needs 10 series nodes in its window: 6 in [7.95, 8], 5 in the default
            # [0.08, 0.16] of a 0.16-long run at d_t 0.02
            pytest.param(FORWARD_SMALL + "fit.window_lo = 7.95\nfit.window_hi = 8",
                         "fit.window_lo .. fit.window_hi window holds at least 10 series nodes "
                         "evolve.tau + k evolve.d_t (it holds 6)", id="fit-window-6-nodes"),
            pytest.param(FORWARD_SMALL.replace("evolve.T = 8", "evolve.T = 0.16\nevolve.d_t = 0.02"),
                         "fit.window_lo .. fit.window_hi window holds at least 10 series nodes "
                         "evolve.tau + k evolve.d_t (it holds 5)", id="fit-default-window-5-nodes"),
            # every sweep member is checked at load, before any member runs
            pytest.param(BACKWARD_SMALL.replace("run.scenario = backward", "run.scenario = sweep")
                         + "sweep.scenario = backward\nsweep.axis = evolve.T\n"
                         "sweep.values = 8.0, 100.0",
                         "sweep member 100.0: violated precondition: evolve.T <= grid.t_final",
                         id="sweep-member-beyond-grid"),
            pytest.param("run.scenario = sweep\nrun.id = x\nsweep.scenario = weights\n"
                         "sweep.axis = weights.d_t\nsweep.values = 0.02, 0",
                         "sweep member 0.0: violated precondition: 0 < weights.d_t <= weights.T",
                         id="sweep-member-weights-d_t-0"),
            # below the bifurcation there is no BGK state to start a non-perturbative run from
            pytest.param(NONPERTURBATIVE + "bgk.beta = 2", "bgk.beta > 2 in non-perturbative mode",
                         id="nonperturbative-beta-2"),
            pytest.param("run.scenario = sweep\nrun.id = x\nsweep.scenario = nonperturbative\n"
                         "sweep.axis = bgk.beta\nsweep.values = 3, 1.5\nevolve.epsilon = 1",
                         "sweep member 1.5: violated precondition: bgk.beta > 2",
                         id="sweep-member-nonperturbative-beta-1.5"),
            # a repeated member would run twice and share one failures key
            pytest.param("run.scenario = sweep\nrun.id = x\nsweep.scenario = forward\n"
                         "sweep.axis = evolve.epsilon\nsweep.values = 1000, 1000",
                         "sweep.values has no repeated value", id="sweep-values-repeated"),
            pytest.param("run.scenario = sweep\nrun.id = x\nsweep.scenario = backward\n"
                         "sweep.axis = grid.n_max\nsweep.values = 3, 3.0",
                         "sweep.values has no repeated value", id="sweep-values-repeated-integer-axis"),
            # one row for each single-key range rule no other row pins
            pytest.param(BACKWARD_SMALL.replace("grid.d_xi = 0.1", "grid.d_xi = 0"),
                         "violated precondition: grid.d_xi > 0", id="d_xi-0"),
            pytest.param(BACKWARD_SMALL.replace("datum.width = 1.0", "datum.width = 0"),
                         "violated precondition: datum.width > 0", id="datum-width-0"),
            pytest.param(BACKWARD_SMALL.replace("evolve.d_t = 0.02", "evolve.d_t = 0"),
                         "violated precondition: evolve.d_t > 0", id="d_t-0"),
            pytest.param(BACKWARD_SMALL.replace("picard.tol = 1e-7", "picard.tol = 0"),
                         "violated precondition: picard.tol > 0", id="picard-tol-0"),
            pytest.param(BACKWARD_SMALL.replace("grid.n_max = 3", "grid.n_max = 1"),
                         "violated precondition: grid.n_max >= 2", id="n_max-1"),
            pytest.param("run.scenario = stability\nrun.id = x\nprofile.kind = cauchy",
                         "violated precondition: profile.kind known", id="profile-kind-unknown"),
            pytest.param(BACKWARD_SMALL + "datum.shape = square",
                         "violated precondition: datum.shape known", id="datum-shape-unknown"),
            pytest.param(BACKWARD_SMALL + "datum.modes = 0:1, 1:1, -1:1",
                         "violated precondition: datum.modes carries no weight on mode 0",
                         id="modes-on-mode-0"),
            pytest.param(BACKWARD_SMALL + "evolve.sign = 0.5",
                         "violated precondition: evolve.sign is +1 or -1", id="sign-half"),
            pytest.param(BACKWARD_SMALL.replace("evolve.epsilon = 0.01", "evolve.epsilon = -0.01"),
                         "violated precondition: evolve.epsilon >= 0", id="epsilon-negative"),
            pytest.param("run.scenario = sweep\nrun.id = x\nsweep.scenario = backward\n"
                         "sweep.axis = grid.n_max\nsweep.values = 3, 1",
                         "sweep member 1: violated precondition: grid.n_max >= 2",
                         id="sweep-member-n_max-1"),
        ],
    )
    def test_stability_keys_checked_at_load(self, lines, rule):
        """Each row is lines added to the minimal stability config, or a whole config."""
        text = lines if "run.scenario" in lines else MINIMAL_STABILITY + lines
        with pytest.raises(ConfigError, match=re.escape(rule)):
            config_from_text(text + "\n")

    @pytest.mark.parametrize(
        "lines",
        [
            FORWARD_SMALL + "fit.window_lo = 7.91",  # nodes 7.91 .. 8.00
            BACKWARD_SMALL + "evolve.tau = 4\nfit.window_lo = 7.82",  # nodes 7.82 .. 8.00 at d_t 0.02
        ],
        ids=["forward-10-nodes", "backward-10-nodes"],
    )
    def test_fit_window_of_10_nodes_loads(self, lines):
        assert config_from_text(lines + "\n").scenario in ("forward", "backward")

    def test_stability_t_max_nan_rejected(self):
        with pytest.raises(ConfigError, match="stability.t_max: not a finite number"):
            config_from_text(MINIMAL_STABILITY + "stability.t_max = nan\n")

    def test_shipped_configs_load(self):
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert paths
        for path in paths:
            assert load_config(path).scenario in SCENARIOS, path.name  # each names a subcommand

    def test_perfbench_configs_load(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import WORKLOADS, config_texts

        for size in ("full", "tiny"):
            for workload in WORKLOADS:
                for seed in range(3):
                    for text in config_texts(workload, seed, size):
                        config_from_text(text, origin=f"{workload}:{seed}:{size}")

    def test_bgk_below_bifurcation_loads(self, tmp_path):
        # the beta > 2 rule is the non-perturbative scenario's; a bgk run reports no state
        run(config_from_text("run.scenario = bgk\nrun.id = b15\nbgk.beta = 1.5\n"), tmp_path)
        assert json.loads((tmp_path / "b15" / "bgk.json").read_text())["has_fixed_point"] is False

    def test_horizon_precondition(self):
        with pytest.raises(ConfigError, match="horizon exceeds grid"):
            config_from_text(
                "run.scenario = forward\nrun.id = x\ngrid.xi_max = 10\ngrid.t_final = 20\n"
            )


def half_trajectory(grid, half):
    """A trajectory of the half block ``half``."""
    zeros = np.zeros(len(half))
    return Trajectory(grid=grid, times=np.arange(len(half), dtype=float), snapshots=half,
                      series=FieldSeries(t=zeros, zeta1=zeros.astype(complex)))


class TestSnapshotFile:
    GRID = make_grid(4, 44.0, 0.05, 40.0)  # 9 x 1761

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        shape = (3, self.GRID.n_max + 1, self.GRID.n_xi)
        traj = half_trajectory(self.GRID, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        write_snapshots(tmp_path / "s.bin", tmp_path / "s.json", traj)
        got = read_snapshots(tmp_path / "s.bin", self.GRID)
        assert got.shape == (3, self.GRID.n_modes, self.GRID.n_xi)
        assert all(np.array_equal(got[m], traj.full_state(m)) for m in range(3))
        assert json.loads((tmp_path / "s.json").read_text())["count"] == 3
        with pytest.raises(ValueError, match="grid needs"):
            read_snapshots(tmp_path / "s.bin", make_grid(3, 44.0, 0.05, 40.0))

    def test_write_copies_no_block(self, tmp_path):
        traj = half_trajectory(self.GRID, np.zeros((33, self.GRID.n_max + 1, self.GRID.n_xi), complex))
        tracemalloc.start()
        try:
            write_snapshots(tmp_path / "s.bin", tmp_path / "s.json", traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full_bytes = 33 * self.GRID.n_modes * self.GRID.n_xi * 16
        assert (tmp_path / "s.bin").stat().st_size == 4 + 24 + full_bytes
        assert peak < 0.1 * full_bytes

    @pytest.mark.parametrize(
        "case, message",
        [
            ("trailing bytes", "holds 4124 bytes, its header of 3 snapshots of \\(5, 17\\) needs 4108"),
            ("count below stored", "holds 4108 bytes, its header of 2 snapshots of \\(5, 17\\) needs 2748"),
            ("count -1", "counts -1 snapshots, need at least 1"),
            ("count 0", "counts 0 snapshots, need at least 1"),
            ("header cut", "shorter than its header"),
        ],
    )
    def test_reader_checks_the_header_against_the_file(self, tmp_path, case, message):
        grid = make_grid(2, 4.0, 0.5, 0.0)  # 5 x 17: 3 snapshots and the header are 4108 bytes
        path = tmp_path / "s.bin"
        write_snapshots(path, tmp_path / "s.json",
                        half_trajectory(grid, np.ones((3, grid.n_max + 1, grid.n_xi), complex)))
        raw = path.read_bytes()
        assert len(raw) == 4108 and read_snapshots(path, grid).shape == (3, 5, 17)
        count = {"count below stored": 2, "count -1": -1, "count 0": 0}.get(case)
        if count is not None:
            raw = raw[:4] + np.array(count, dtype="<i8").tobytes() + raw[12:]
        elif case == "trailing bytes":
            raw += bytes(16)
        else:
            raw = raw[:20]
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=message):
            read_snapshots(path, grid)


class TestCsv:
    def test_columns_give_the_bytes_of_fmt(self, tmp_path):
        floats = np.array([0.1, -0.0, math.nan, math.inf, -math.inf, 1 / 3, 5e-324, 1e300])
        columns = [
            floats,
            np.arange(8),
            [True, False, np.bool_(True), False, True, True, False, False],
            [1, 2.5, -0.0, math.nan, math.inf, np.float64(1e-7), np.int64(-3), "x"],
            np.linspace(-1.0, 1.0, 8, dtype=np.float32),
            -floats[::-1],
        ]
        header = [f"c{i}" for i in range(len(columns))]
        expected = [",".join(header)] + [",".join(fmt(v) for v in row) for row in zip(*columns)]
        write_csv(tmp_path / "mixed.csv", header, columns)
        assert (tmp_path / "mixed.csv").read_text() == "\n".join(expected) + "\n"
        write_csv(tmp_path / "floats.csv", ["a", "b"], [floats, -floats])
        expected = ["a,b"] + [f"{fmt(a)},{fmt(-a)}" for a in floats]
        assert (tmp_path / "floats.csv").read_text() == "\n".join(expected) + "\n"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(3), [1, 2]])

    def test_modulus_is_the_scalar_abs(self):
        # np.abs on a complex array may take a SIMD loop that rounds differently
        rng = np.random.default_rng(5)
        z = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) * np.exp(
            rng.uniform(-600.0, 600.0, 4000)
        )
        z[:4] = [0.0, -0.0j, complex(math.inf, 1.0), complex(3e-310, -4e-310)]
        assert runner._modulus(z).tolist() == [abs(v) for v in z]


class TestScenarios:
    def test_bgk_outputs(self, tmp_path):
        cfg = config_from_text("run.scenario = bgk\nrun.id = b3\nbgk.beta = 3.0\n")
        manifest = run(cfg, tmp_path)
        out = tmp_path / "b3"
        payload = json.loads((out / "bgk.json").read_text())
        state = solve_bgk(3.0)
        assert payload["has_fixed_point"]
        assert abs(payload["nu"] - state.nu) < 1e-12
        header = (out / "bgk.csv").read_text().splitlines()[0]
        assert header == "nu,omega"
        assert manifest.data["status"] == "ok"

    def test_stability_outputs(self, tmp_path):
        cfg = config_from_text(MINIMAL_STABILITY)
        run(cfg, tmp_path)
        payload = json.loads((tmp_path / "stab-1" / "stability.json").read_text())
        assert payload["satisfied"] is True
        assert abs(payload["laplace_at_zero"]["re"] + 0.5) < 1e-6

    def test_weights_outputs(self, tmp_path):
        cfg = config_from_text(
            "run.scenario = weights\nrun.id = w1\nweights.T = 60\nweights.t_max = 20\n"
            "weights.d_t = 0.02\nweights.delta_list = 1e-4, 1e-3, 1e-2\n"
        )
        run(cfg, tmp_path)
        payload = json.loads((tmp_path / "w1" / "weights.json").read_text())
        assert abs(payload["loglog_slope"] - 1.0 / 3.0) < 0.12

    def test_backward_outputs_and_roundtrip(self, tmp_path):
        cfg = config_from_text(BACKWARD_SMALL)
        manifest = run(cfg, tmp_path)
        out = tmp_path / "bw-1"
        zeta_lines = (out / "zeta.csv").read_text().splitlines()
        assert zeta_lines[0] == "t,re_zeta1,im_zeta1,abs_zeta1"
        assert len(zeta_lines) == 1 + 401  # 8 / 0.02 steps + initial node
        picard_lines = (out / "picard.csv").read_text().splitlines()
        assert picard_lines[0] == "iter,sup_diff,contraction_ratio"
        grid = make_grid(3, 12.0, 0.1, 8.0)
        snaps = read_snapshots(out / "snapshots.bin", grid)
        sidecar = json.loads((out / "snapshots.json").read_text())
        assert len(snaps) == sidecar["count"]
        assert manifest.data["headline"]["converged"] is True

    @pytest.mark.parametrize("t_list", [None, "4, 8"])
    def test_backward_file_set(self, tmp_path, t_list):
        """One backward path: the same artifacts with or without continuation, plus cauchy.csv."""
        text = BACKWARD_SMALL.replace("evolve.d_t = 0.02", "evolve.d_t = 0.1")
        if t_list:
            text += f"backward.T_list = {t_list}\n"
        run(config_from_text(text), tmp_path)
        expected = {"manifest.json", "norms.json", "picard.csv", "snapshots.bin",
                    "snapshots.json", "zeta.csv"}
        if t_list:
            expected.add("cauchy.csv")
        assert {p.name for p in (tmp_path / "bw-1").iterdir()} == expected

    def test_backward_blow_up_in_first_sweep_reported(self, tmp_path, monkeypatch):
        """Divergence in Picard sweep 1 is a result: a header-only picard.csv, status ok."""
        from hmflab import evolution

        monkeypatch.setattr(evolution, "_OVERFLOW_CAP", 1e-3)  # the first transport march
        manifest = run(config_from_text(BACKWARD_SMALL), tmp_path)
        assert manifest.data["status"] == "ok"
        assert manifest.data["headline"]["converged"] is False
        lines = (tmp_path / "bw-1" / "picard.csv").read_text().splitlines()
        assert lines == ["iter,sup_diff,contraction_ratio"]

    def test_manifest_lists_all_files(self, tmp_path):
        cfg = config_from_text(BACKWARD_SMALL)
        manifest = run(cfg, tmp_path)
        out = tmp_path / "bw-1"
        listed = set(manifest.data["files"])
        on_disk = {p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json"}
        assert listed == on_disk
        for name, digest in manifest.data["files"].items():
            assert sha256_of(out / name) == digest

    def test_rerun_refused_without_overwrite(self, tmp_path):
        cfg = config_from_text("run.scenario = bgk\nrun.id = r1\n")
        run(cfg, tmp_path)
        before = {p.name: p.read_bytes() for p in (tmp_path / "r1").iterdir()}
        with pytest.raises(RunRefusedError):
            run(cfg, tmp_path)
        assert {p.name: p.read_bytes() for p in (tmp_path / "r1").iterdir()} == before
        run(cfg, tmp_path, overwrite=True)

    def test_overwrite_refuses_a_file_it_never_wrote(self, tmp_path):
        cfg = config_from_text("run.scenario = bgk\nrun.id = r4\n")
        run(cfg, tmp_path)
        out = tmp_path / "r4"
        (out / "my_notes.txt").write_text("not written by hmflab")
        (out / "sub").mkdir()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        with pytest.raises(RunRefusedError, match="my_notes.txt"):
            run(cfg, tmp_path, overwrite=True)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert (out / "sub").is_dir()
        (out / "my_notes.txt").unlink()
        with pytest.raises(RunRefusedError, match="r4/sub was not written"):  # empty, foreign
            run(cfg, tmp_path, overwrite=True)
        (out / "sub").rmdir()
        run(cfg, tmp_path, overwrite=True)

    def test_overwrite_deletes_the_listed_files(self, tmp_path):
        cfg = config_from_text("run.scenario = bgk\nrun.id = r5\n")
        first = run(cfg, tmp_path).data["files"]
        out = tmp_path / "r5"
        (out / "manifest.json.tmp").write_text("{}")  # left by an interrupted write
        second = run(cfg, tmp_path, overwrite=True).data["files"]
        assert second == first
        assert sorted(p.name for p in out.iterdir()) == sorted([*first, "manifest.json"])

    def test_sweep_overwrite(self, tmp_path):
        cfg = config_from_text(
            "run.scenario = sweep\nrun.id = sw-3\nsweep.scenario = weights\n"
            "sweep.axis = weights.d_t\nsweep.values = 0.05, 0.1\nweights.T = 20\n"
        )
        first = run(cfg, tmp_path).data
        second = run(cfg, tmp_path, overwrite=True).data
        assert first["files"] == second["files"]
        assert "runs/001/member/weights.csv" in second["files"]
        assert (tmp_path / "sw-3" / "runs" / "001" / "member" / "manifest.json").is_file()
        (tmp_path / "sw-3" / "runs" / "001" / "extra.csv").write_text("x")
        with pytest.raises(RunRefusedError, match="extra.csv"):
            run(cfg, tmp_path, overwrite=True)

    def test_foreign_directory_never_cleared(self, tmp_path):
        foreign = tmp_path / "r3"
        foreign.mkdir()
        (foreign / "notes.txt").write_text("not written by hmflab")
        cfg = config_from_text("run.scenario = bgk\nrun.id = r3\n")
        for overwrite in (False, True):
            with pytest.raises(RunRefusedError, match="no manifest"):
                run(cfg, tmp_path, overwrite=overwrite)
        assert sorted(p.name for p in foreign.iterdir()) == ["notes.txt"]

    def test_siblings_untouched(self, tmp_path):
        run(config_from_text("run.scenario = bgk\nrun.id = first\n"), tmp_path)
        (tmp_path / "unrelated.txt").write_text("keep me")
        cfg = config_from_text("run.scenario = bgk\nrun.id = second\n")
        run(cfg, tmp_path)
        run(cfg, tmp_path, overwrite=True)
        assert (tmp_path / "unrelated.txt").read_text() == "keep me"
        assert (tmp_path / "first" / "manifest.json").exists()

    def test_determinism_bit_identical(self, tmp_path):
        cfg = config_from_text(BACKWARD_SMALL)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in ("zeta.csv", "picard.csv", "norms.json", "snapshots.bin"):
            assert (tmp_path / "a" / "bw-1" / name).read_bytes() == (
                tmp_path / "b" / "bw-1" / name
            ).read_bytes()

    def test_nonperturbative_outputs(self, tmp_path):
        cfg = config_from_text(
            "run.scenario = nonperturbative\nrun.id = np-1\nbgk.beta = 3.0\n"
            "evolve.epsilon = 1.0\nevolve.sign = -1\nevolve.T = 8\nevolve.tau = 4\n"
            "evolve.d_t = 0.02\ngrid.n_max = 3\ngrid.xi_max = 12\ngrid.d_xi = 0.1\n"
            "grid.t_final = 8\npicard.tol = 1e-7\n"
        )
        manifest = run(cfg, tmp_path)
        out = tmp_path / "np-1"
        assert manifest.data["headline"]["converged"] is True
        payload = json.loads((out / "norms.json").read_text())
        assert payload["beta"] == 3.0
        assert "margin" in payload["kernel_margin"]
        assert (out / "echoes.csv").read_text().splitlines()[0] == (
            "t,abs_b_plus,abs_b_minus,abs_b_plus_reconstructed"
        )

    def test_compare_outputs(self, tmp_path):
        cfg = config_from_text(
            BACKWARD_SMALL.replace("run.scenario = backward", "run.scenario = compare")
            .replace("run.id = bw-1", "run.id = cmp-1")
            + "compare.rough_width = 0.4\n"
        )
        manifest = run(cfg, tmp_path)
        out = tmp_path / "cmp-1"
        payload = json.loads((out / "compare.json").read_text())
        assert payload["within_tolerance"] is True
        header = (out / "profiles.csv").read_text().splitlines()[0]
        assert header == "t,mu_star_backward,mu_star_forward"
        assert manifest.data["headline"]["converged"] is True

    def test_failed_run_manifest(self, tmp_path):
        cfg = config_from_text(
            # loads (the rule is beta > 2), yet solve_bgk finds no state this close to 2
            "run.scenario = nonperturbative\nrun.id = np-bad\nbgk.beta = 2.00000000001\n"
            "evolve.epsilon = 1.0\nevolve.T = 8\nevolve.tau = 4\nevolve.d_t = 0.02\n"
            "grid.n_max = 3\ngrid.xi_max = 12\ngrid.d_xi = 0.1\ngrid.t_final = 8\n"
        )
        with pytest.raises(ConfigError):
            run(cfg, tmp_path)
        payload = json.loads((tmp_path / "np-bad" / "manifest.json").read_text())
        assert payload["status"] == "failed"
        assert "beta" in payload["error"]


class TestSweep:
    def test_process_pool_imported_only_for_parallel_sweeps(self):
        # the pool module adds about 2 MB to every process that imports it
        code = "import sys, hmflab.runner; print('concurrent.futures.process' in sys.modules)"
        src = str(Path(runner.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.strip() == "False"

    def test_epsilon_sweep(self, tmp_path):
        cfg = config_from_text(
            BACKWARD_SMALL.replace("run.scenario = backward", "run.scenario = sweep")
            .replace("run.id = bw-1", "run.id = sw-1")
            + "sweep.scenario = backward\nsweep.axis = evolve.epsilon\n"
            + "sweep.values = 0.0, 0.01\n"
        )
        manifest = run(cfg, tmp_path)
        out = tmp_path / "sw-1"
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis_value,converged,lambda_fit,contraction_ratio,M_norm,N_norm"
        assert len(lines) == 3
        assert manifest.data["headline"]["n_failed"] == 0
        assert (out / "runs" / "000" / "member" / "manifest.json").exists()

    def test_sweep_member_failure_recorded(self, tmp_path):
        # epsilon = 1000 loads but blows up within the first steps of the run
        cfg = config_from_text(
            "run.scenario = sweep\nrun.id = sw-2\nsweep.scenario = forward\n"
            "sweep.axis = evolve.epsilon\nsweep.values = 0.01, 1000\n"
            "evolve.T = 8\nevolve.d_t = 0.05\ngrid.n_max = 3\ngrid.xi_max = 12\n"
            "grid.d_xi = 0.1\ngrid.t_final = 8\n"
        )
        manifest = run(cfg, tmp_path)
        assert manifest.data["status"] == "ok"
        assert manifest.data["headline"]["n_failed"] == 1
        lines = (tmp_path / "sw-2" / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith("0.01,true")
        assert lines[2].startswith("1000,false")
        assert "BlowUpError" in manifest.data["headline"]["failures"]["1000"]

    def test_epsilon_sweep_ratio_degrades_monotonically(self, tmp_path):
        cfg = config_from_text(
            BACKWARD_SMALL.replace("run.scenario = backward", "run.scenario = sweep")
            .replace("run.id = bw-1", "run.id = sw-eps")
            .replace("picard.tol = 1e-7", "picard.tol = 1e-8")
            + "sweep.scenario = backward\nsweep.axis = evolve.epsilon\n"
            + "sweep.values = 0.001, 0.05, 0.4\n"
        )
        run(cfg, tmp_path)
        lines = (tmp_path / "sw-eps" / "sweep.csv").read_text().splitlines()[1:]
        ratios = [float(line.split(",")[3]) for line in lines]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_integer_axis_sweep(self, tmp_path):
        cfg = config_from_text(
            BACKWARD_SMALL.replace("run.scenario = backward", "run.scenario = sweep")
            .replace("run.id = bw-1", "run.id = sw-int")
            .replace("evolve.T = 8", "evolve.T = 1")
            + "sweep.scenario = backward\nsweep.axis = grid.n_max\nsweep.values = 2, 3\n"
        )
        assert cfg.values["sweep.values"] == [2, 3]
        manifest = run(cfg, tmp_path)
        assert manifest.data["headline"]["n_failed"] == 0
        lines = (tmp_path / "sw-int" / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["2", "true"], ["3", "true"]]
        member = json.loads((tmp_path / "sw-int" / "runs" / "000" / "member" / "manifest.json").read_text())
        assert member["config"]["grid.n_max"] == 2

    def test_sweep_files_map_comparable(self, tmp_path):
        # member manifests hold wall times, so the map leaves them out;
        # the members' own artifacts are hashed under runs/NNN/
        cfg = config_from_text(
            "run.scenario = sweep\nrun.id = sw-bgk\nsweep.scenario = bgk\n"
            "sweep.axis = bgk.beta\nsweep.values = 2.5, 3\n"
        )
        first = run(cfg, tmp_path / "a").data["files"]
        second = run(cfg, tmp_path / "b").data["files"]
        assert first == second
        assert "runs/001/member/bgk.json" in first
        assert not any(name.endswith("manifest.json") for name in first)

    def test_parallel_sweep_matches_serial(self, tmp_path):
        cfg = config_from_text(
            "run.scenario = sweep\nrun.id = sw-par\nsweep.scenario = forward\n"
            "sweep.axis = evolve.epsilon\nsweep.values = 0.01, 0.02\n"
            "evolve.T = 8\nevolve.d_t = 0.05\ngrid.n_max = 3\ngrid.xi_max = 12\n"
            "grid.d_xi = 0.1\ngrid.t_final = 8\n"
        )
        serial = run(cfg, tmp_path / "serial", threads=1).data
        parallel = run(cfg, tmp_path / "parallel", threads=2).data
        assert parallel["headline"] == serial["headline"]
        assert parallel["headline"]["n_failed"] == 0
        assert parallel["files"] == serial["files"]
        csv = [(tmp_path / side / "sw-par" / "sweep.csv").read_bytes() for side in ("serial", "parallel")]
        assert csv[0] == csv[1]

    @pytest.mark.parametrize(
        "threads, values, workers",
        [(64, "2.5, 3", [2]), (2, "2.5, 3, 3.5", [2]), (1, "2.5, 3", [])],
    )
    def test_pool_capped_at_member_count(self, tmp_path, monkeypatch, threads, values, workers):
        # the fork start method forks all max_workers processes at the first
        # submit, so the pool must not outnumber the members; the stand-in
        # records the size it is asked for and runs the members in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = config_from_text(
            "run.scenario = sweep\nrun.id = sw-pool\nsweep.scenario = bgk\n"
            f"sweep.axis = bgk.beta\nsweep.values = {values}\n"
        )
        manifest = run(cfg, tmp_path, threads=threads)
        assert sizes == workers
        assert manifest.data["headline"]["n_failed"] == 0

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        cfg = config_from_text(
            "run.scenario = sweep\nrun.id = sw-thr\nsweep.scenario = bgk\n"
            "sweep.axis = bgk.beta\nsweep.values = 2.5, 3\n"
        )
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run(cfg, tmp_path / "out", threads=threads)
        assert not (tmp_path / "out").exists()  # refused before the run directory exists
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            runner.sweep(cfg, tmp_path / "direct", threads=threads)
        assert not (tmp_path / "direct").exists()

    def test_integer_axis_rejects_fractions(self):
        with pytest.raises(ConfigError, match="not an integer"):
            config_from_text(
                "run.scenario = sweep\nrun.id = s\nsweep.scenario = backward\n"
                "sweep.axis = grid.n_max\nsweep.values = 2, 2.5\n"
            )

    def test_axis_must_apply_to_scenario(self):
        with pytest.raises(ConfigError, match="applies to sweep.scenario"):
            config_from_text(
                "run.scenario = sweep\nrun.id = s\nsweep.scenario = forward\n"
                "sweep.axis = picard.tol\nsweep.values = 1e-6, 1e-7\n"
            )

    def test_axis_must_be_numeric(self):
        with pytest.raises(ConfigError, match="numeric"):
            config_from_text(
                "run.scenario = sweep\nrun.id = s\nsweep.scenario = backward\n"
                "sweep.axis = profile.kind\nsweep.values = 1, 2\n"
            )


class TestMain:
    def test_cli_roundtrip(self, tmp_path, capsys):
        p = tmp_path / "bgk.cfg"
        p.write_text("run.scenario = bgk\nrun.id = cli-1\nbgk.beta = 2.5\n")
        rc = main(["bgk", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "cli-1" / "manifest.json").exists()

    def test_scenario_mismatch(self, tmp_path):
        p = tmp_path / "bgk.cfg"
        p.write_text("run.scenario = bgk\nrun.id = cli-2\n")
        rc = main(["stability", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_refusal_exit_code(self, tmp_path):
        p = tmp_path / "bgk.cfg"
        p.write_text("run.scenario = bgk\nrun.id = cli-3\n")
        out = str(tmp_path / "out")
        assert main(["bgk", "--config", p.as_posix(), "--out", out]) == 0
        assert main(["bgk", "--config", p.as_posix(), "--out", out]) == 3

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        p = tmp_path / "bgk.cfg"
        p.write_text("run.scenario = bgk\nrun.id = cli-t\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["bgk", "--config", str(p), "--out", str(out), "--threads", threads])
        assert exc.value.code == 2
        assert not out.exists()  # rejected before any run starts

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("run.scenario = bgk\nrun.id = x\nbgk.betaa = 3\n")
        rc = main(["bgk", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
