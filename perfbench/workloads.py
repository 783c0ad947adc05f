"""Seeded scenario workloads and the output checks that decide a failed solve.

Each workload is a list of config texts built from the seed alone; the
program sees only that text, through ``config_from_text`` and
``runner.run``.  The seed moves the data (datum amplitude and width, or the
equilibrium temperature) but not the amount of work: every seed keeps the
same grid, horizon, step and tolerance, and the perturbation ranges are
narrow enough that sweep and inner-iteration counts do not change.

Sizes: ``full`` is what the benchmark measures.  One repetition takes
0.5 s (analysis) to 6 s (solvers) on a 2-core x86 box.  The scenarios
keep the structure of the shipped ``configs/`` (four continuation windows,
a full-strength window from 0, a wide forward grid, the three analysis
scenarios) on shorter horizons.  ``tiny`` is for the self-test only.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("solvers", "analysis")

# Horizon grids per size: continuation (T_list, xi_max, d_xi, d_t),
# strong_window (T, xi_max, d_xi, d_t), forward_wide (T, xi_max, d_xi, d_t),
# analysis (stability n_scan, stability d_t, weights d_t).
_SIZES = {
    "full": {
        "continuation": ((2, 4, 6, 8), 12, 0.05, 0.05),
        "strong_window": (8, 12, 0.05, 0.05),
        "forward_wide": (16, 44, 0.05, 0.05),
        "analysis": (601, 5e-3, 0.05),
    },
    "tiny": {
        "continuation": ((1, 2, 3), 7, 0.1, 0.1),
        "strong_window": (2, 6, 0.1, 0.1),
        "forward_wide": (4, 12, 0.1, 0.1),
        "analysis": (201, 2e-2, 0.2),
    },
}


def _jitter(rng: random.Random, base: float, frac: float) -> float:
    """base scaled by a seeded factor in [1 - frac, 1 + frac]."""
    return base * (1.0 + frac * (2.0 * rng.random() - 1.0))


def _continuation(rng, dims) -> str:
    t_list, xi_max, d_xi, d_t = dims
    return f"""run.scenario = backward
run.id = continuation
grid.n_max = 4
grid.xi_max = {xi_max}
grid.d_xi = {d_xi}
grid.t_final = {t_list[-1]}
datum.amplitude = {_jitter(rng, 0.5, 0.1)!r}
datum.width = {_jitter(rng, 1.0, 0.1)!r}
evolve.epsilon = 0.01
evolve.d_t = {d_t}
evolve.T = {t_list[-1]}
backward.T_list = {", ".join(str(t) for t in t_list)}
picard.tol = 1e-6
"""


def _strong_window(rng, dims) -> str:
    # beta stays within 2% of 3: the kernel margin there is below 1e-3,
    # and the sweep/inner-iteration counts are the same across this range.
    T, xi_max, d_xi, d_t = dims
    return f"""run.scenario = nonperturbative
run.id = strong_window
grid.n_max = 4
grid.xi_max = {xi_max}
grid.d_xi = {d_xi}
grid.t_final = {T}
bgk.beta = {_jitter(rng, 3.0, 0.02)!r}
evolve.epsilon = 1.0
evolve.sign = -1
evolve.d_t = {d_t}
evolve.T = {T}
evolve.tau = 0
picard.tol = 1e-8
"""


def _forward_wide(rng, dims) -> str:
    T, xi_max, d_xi, d_t = dims
    return f"""run.scenario = forward
run.id = forward_wide
grid.n_max = 4
grid.xi_max = {xi_max}
grid.d_xi = {d_xi}
grid.t_final = {T}
datum.amplitude = {_jitter(rng, 0.5, 0.1)!r}
datum.width = {_jitter(rng, 1.0, 0.1)!r}
evolve.epsilon = 0.01
evolve.d_t = {d_t}
evolve.T = {T}
"""


def _analysis(rng, dims) -> list[str]:
    # The scan's cost moves with the background temperature (about 8% across
    # beta 0.9..1.1), so beta moves by 1% only; delta and the BGK beta do not
    # change the work.
    n_scan, stab_dt, weights_dt = dims
    return [
        f"""run.scenario = stability
run.id = stability
profile.kind = maxwellian
profile.beta = {_jitter(rng, 1.0, 0.01)!r}
stability.omega_max = 20
stability.n_scan = {n_scan}
stability.d_t = {stab_dt}
""",
        f"""run.scenario = weights
run.id = weights
weights.T = 200
weights.d_t = {weights_dt}
weights.delta_list = 1e-4, 1e-3, 1e-2
weights.delta = {_jitter(rng, 1e-3, 0.1)!r}
weights.t_max = 100
""",
        f"""run.scenario = bgk
run.id = bgk
bgk.beta = {_jitter(rng, 3.0, 0.1)!r}
""",
    ]


def config_texts(workload: str, seed: int, size: str = "full") -> list[str]:
    """The config texts one repetition of ``workload`` runs, in order."""
    rng = random.Random(f"{workload}:{seed}")
    dims = _SIZES[size]
    if workload == "solvers":
        return [
            _continuation(rng, dims["continuation"]),
            _strong_window(rng, dims["strong_window"]),
            _forward_wide(rng, dims["forward_wide"]),
        ]
    if workload == "analysis":
        return _analysis(rng, dims["analysis"])
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def expected_windows(cfg) -> int:
    """Backward windows one run of ``cfg`` solves (continuation horizons or 1)."""
    if cfg.scenario == "backward":
        return len(cfg.values.get("backward.T_list") or [1])
    return 1 if cfg.scenario == "nonperturbative" else 0


def solves_attempted(cfg) -> int:
    """A solve is one continuation window or one scenario run."""
    return expected_windows(cfg) if cfg.scenario == "backward" else 1


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_hashes(run_dir: Path) -> dict[str, str]:
    """sha256 of every artifact on disk, keyed as the manifest keys them."""
    return {
        str(p.relative_to(run_dir)): sha256_file(p)
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name not in ("manifest.json", "manifest.json.tmp")
    }


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _csv_columns(path: Path) -> dict[str, list[float]]:
    lines = path.read_text(encoding="utf-8").split()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _last_snapshot(path: Path) -> np.ndarray:
    """Last coefficient block of an HMF1 snapshot file, parsed independently."""
    raw = path.read_bytes()
    if raw[:4] != b"HMF1":
        raise ValueError("bad snapshot magic")
    count, n_modes, n_xi = (int(d) for d in np.frombuffer(raw, "<i8", 3, 4))
    block = n_modes * n_xi
    return np.frombuffer(raw, "<c16", block, 28 + 16 * block * (count - 1)).reshape(n_modes, n_xi)


def datum_coeffs(cfg) -> np.ndarray:
    """Terminal datum a backward config prescribes (the last snapshot's expected value)."""
    from hmflab.profiles import make_asymptotic_datum
    from hmflab.spectral import make_grid

    v = cfg.values
    grid = make_grid(v["grid.n_max"], v["grid.xi_max"], v["grid.d_xi"], v["grid.t_final"])
    return make_asymptotic_datum(
        v["datum.amplitude"], v["datum.modes"], v["datum.width"], grid, shape=v["datum.shape"]
    ).coeffs


def check_run(cfg, run_dir: Path, windows, datum=None) -> list[str]:
    """Run-level problems with one finished run; empty when its outputs are correct.

    ``windows`` holds the PicardTrace of every backward window the run
    solved, in order; their convergence is counted per window by
    ``failed_solves``, not here.  ``datum`` is ``datum_coeffs(cfg)`` for a
    backward run, computed before any tracing starts.
    """
    problems = []
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    if manifest.get("files") != artifact_hashes(run_dir):
        problems.append("manifest sha256 map does not match the files on disk")
    scenario = cfg.scenario
    if len(windows) != expected_windows(cfg):
        problems.append(f"{len(windows)} backward windows, expected {expected_windows(cfg)}")
    if scenario == "backward":
        cauchy = _csv_columns(run_dir / "cauchy.csv")
        for col in ("zeta_diff", "h_diff"):
            if not _strictly_decreasing(cauchy[col]):
                problems.append(f"window-to-window {col} not strictly decreasing: {cauchy[col]}")
        if not np.array_equal(_last_snapshot(run_dir / "snapshots.bin"), datum):
            problems.append("last snapshot differs from the terminal datum")
    elif scenario == "nonperturbative":
        norms = json.loads((run_dir / "norms.json").read_text(encoding="utf-8"))
        if not norms["picard"]["converged"]:
            problems.append("strong window did not converge")
        ratios = norms["picard"]["contraction_ratios"]
        if not all(r < 1.0 for r in ratios):
            problems.append(f"contraction ratio >= 1: {ratios}")
        if norms["echo_split"] is None or not (run_dir / "echoes.csv").is_file():
            problems.append("no echo split")
    elif scenario == "forward":
        diag = json.loads((run_dir / "diagnostics.json").read_text(encoding="utf-8"))
        if not diag["mass_drift"] < 1e-10:
            problems.append(f"mass drift {diag['mass_drift']:.3e} >= 1e-10")
        if diag["damped"] is not True:
            problems.append("forward run not damped")
    elif scenario == "stability":
        report = json.loads((run_dir / "stability.json").read_text(encoding="utf-8"))
        if report["satisfied"] is not True:
            problems.append(f"stability margin {report['margin']} not satisfied")
    elif scenario == "weights":
        slope = json.loads((run_dir / "weights.json").read_text(encoding="utf-8"))["loglog_slope"]
        if not abs(slope - 1.0 / 3.0) <= 0.1:
            problems.append(f"log-log slope {slope} not within 0.1 of 1/3")
    elif scenario == "bgk":
        bgk = json.loads((run_dir / "bgk.json").read_text(encoding="utf-8"))
        if not (bgk["has_fixed_point"] and bgk["residual"] < 1e-8):
            problems.append(f"BGK residual {bgk.get('residual')} not below 1e-8")
    return problems


def failed_solves(cfg, windows, problems: list[str]) -> int:
    """Solves of one run that count as failed.

    A run with a problem fails every solve it attempted; otherwise only its
    unconverged backward windows fail.
    """
    if problems:
        return solves_attempted(cfg)
    return sum(not w.converged for w in windows) if cfg.scenario == "backward" else 0
