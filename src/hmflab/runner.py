"""Scenario execution and sweep orchestration.

Each scenario reads a validated RunConfig, executes against the library,
writes its artifacts into ``<out>/<run id>/`` and finishes by renaming the
manifest into place.  Outputs are deterministic for a fixed config: fixed
iteration orders, no wall-clock content outside the manifest.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    _MARGIN_SCAN,
    ConfigError,
    RunConfig,
    _margin_kernel,
    _profile_from,
    _stability_kernel,
    member_config,
)
from .diagnostics import compare_backward_forward, detect_echoes, fit_decay
from .evolution import EvolutionParams, forward_solve
from .norms import (
    a_infinity,
    functional_M,
    functional_N,
    functional_P_Q,
    solve_a,
    terminal_a0,
)
from .profiles import bgk_to_field, make_asymptotic_datum, omega_curve, solve_bgk
from .scattering import ScatteringConfig, backward_solve, continue_in_T, nonperturbative_solve
from .spectral import make_grid
from .volterra import laplace, stability_margin
from .outputs import (
    MANIFEST_NAMES,
    fmt,
    write_csv,
    write_json,
    write_manifest_atomic,
    write_snapshots,
)


class RunRefusedError(RuntimeError):
    """The run directory was not written by hmflab, is complete with overwrite
    off, or holds entries its previous run did not write."""


@dataclass
class RunManifest:
    path: Path
    data: dict


def _grid_from(cfg: RunConfig):
    return make_grid(
        cfg.values["grid.n_max"],
        cfg.values["grid.xi_max"],
        cfg.values["grid.d_xi"],
        cfg.values["grid.t_final"],
    )


def _datum_from(cfg: RunConfig, grid, width: float):
    return make_asymptotic_datum(
        cfg.values["datum.amplitude"],
        cfg.values["datum.modes"],
        width,
        grid,
        shape=cfg.values["datum.shape"],
    )


def _scattering_config(cfg: RunConfig, terminal, background):
    return ScatteringConfig(
        terminal=terminal,
        background=background,
        epsilon=cfg.values["evolve.epsilon"],
        T=cfg.values["evolve.T"],
        d_t=cfg.values["evolve.d_t"],
        tau=cfg.values.get("evolve.tau", 0.0),
        sign=cfg.values["evolve.sign"],
        picard_max_iters=cfg.values["picard.max_iters"],
        picard_tol=cfg.values["picard.tol"],
        snap_stride=cfg.values["evolve.snap_stride"],
        norm_lambda=cfg.values["norms.lambda"],
        norm_delta=cfg.values["norms.delta"],
    )


def _evolution_params(cfg: RunConfig):
    return EvolutionParams(
        profile=_profile_from(cfg),
        epsilon=cfg.values["evolve.epsilon"],
        d_t=cfg.values["evolve.d_t"],
        t_final=cfg.values["evolve.T"],
        sign=cfg.values["evolve.sign"],
        snap_stride=cfg.values["evolve.snap_stride"],
    )


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, bit for bit the scalar ``abs`` of each entry.

    ``np.abs`` on a complex array may take a SIMD loop that differs from the
    scalar modulus in the last bit; ``np.hypot`` on the parts does not.
    """
    return np.hypot(z.real, z.imag)


def _write_solution(out, traj, trace):
    zeta = traj.series.zeta1
    write_csv(
        out / "zeta.csv",
        ["t", "re_zeta1", "im_zeta1", "abs_zeta1"],
        [traj.series.t, zeta.real, zeta.imag, _modulus(zeta)],
    )
    if trace is not None:  # sweep 1 has no contraction ratio; a sweep-1 blow-up has no rows
        n = len(trace.sup_diffs)
        write_csv(
            out / "picard.csv",
            ["iter", "sup_diff", "contraction_ratio"],
            [range(1, n + 1), trace.sup_diffs, [math.nan, *trace.contraction_ratios][:n]],
        )
    write_snapshots(out / "snapshots.bin", out / "snapshots.json", traj)


def _decay_fit(cfg: RunConfig, series):
    """The decay fit on the configured window (default: the second half) and its record."""
    end = float(series.t[-1])
    lo, hi = cfg.values.get("fit.window_lo"), cfg.values.get("fit.window_hi")
    window = (0.5 * end if lo is None else lo, end if hi is None else hi)
    try:
        fit = fit_decay(series, window)
    except ValueError as exc:
        return None, {"error": str(exc)}
    return fit, {"rate": fit.rate, "amplitude": fit.amplitude, "residual": fit.residual}


def _picard_headline(trace, m_norm, n_norm) -> dict:
    return {
        "converged": trace.converged,
        "iterations": trace.iterations,
        "contraction_ratio": max(trace.contraction_ratios, default=math.nan),
        "m_norm": m_norm,
        "n_norm": n_norm,
    }


def _run_stability(cfg: RunConfig, out: Path) -> dict:
    profile = _profile_from(cfg)
    kernel = _stability_kernel(cfg)
    report = stability_margin(
        kernel,
        cfg.values["stability.omega_max"],
        cfg.values["stability.n_scan"],
        threshold=cfg.values["stability.threshold"],
        m_bound=cfg.values.get("stability.m_bound"),
        lam=cfg.values.get("stability.lambda"),
    )
    at_zero = laplace(kernel, 0.0)
    write_json(
        out / "stability.json",
        {
            "profile": profile.name,
            "laplace_at_zero": {"re": at_zero.value.real, "im": at_zero.value.imag},
            "laplace_tail_bound": at_zero.tail_bound,
            **report.as_dict(),
        },
    )
    return {"converged": True, "margin": report.margin, "satisfied": report.satisfied}


def _run_bgk(cfg: RunConfig, out: Path) -> dict:
    beta = cfg.values["bgk.beta"]
    nus = np.linspace(0.0, 1.5, 151)
    write_csv(out / "bgk.csv", ["nu", "omega"], [nus, omega_curve(beta, nus)])
    state = solve_bgk(beta)
    payload = {"beta": beta, "has_fixed_point": state is not None}
    if state is not None:
        payload.update(
            {"nu": state.nu, "residual": state.residual, "z_norm": state.z_norm}
        )
    write_json(out / "bgk.json", payload)
    return {"converged": True, "has_fixed_point": state is not None}


def _run_weights(cfg: RunConfig, out: Path) -> dict:
    T = cfg.values["weights.T"]
    d_t = cfg.values["weights.d_t"]
    deltas = cfg.values["weights.delta_list"]
    a0s = [terminal_a0(T, d, d_t) for d in deltas]
    slope = float(np.polyfit(np.log(deltas), np.log(a0s), 1)[0]) if len(deltas) >= 2 else math.nan
    delta = cfg.values["weights.delta"]
    t_max = cfg.values["weights.t_max"]
    w_T = solve_a(T, delta, d_t)
    w_inf = a_infinity(delta, t_max, d_t)
    n = min(len(w_T.t), len(w_inf.t))
    write_csv(
        out / "weights.csv",
        ["t", "a_T", "a_inf"],
        [w_T.t[:n], w_T.a[:n], w_inf.a[:n]],
    )
    write_json(
        out / "weights.json",
        {
            "T": T,
            "delta_list": deltas,
            "a0_values": a0s,
            "loglog_slope": slope,
            "delta": delta,
            "a_inf_0": w_inf.a0,
            "a_inf_at_t_max": float(w_inf.a[-1]),
            "t_max": t_max,
        },
    )
    return {"converged": True, "loglog_slope": slope}


def _run_forward(cfg: RunConfig, out: Path) -> dict:
    grid = _grid_from(cfg)
    params = _evolution_params(cfg)
    traj = forward_solve(_datum_from(cfg, grid, cfg.values["datum.width"]), params)
    _write_solution(out, traj, None)
    half = 0.5 * params.t_final
    mags = traj.series.magnitude()
    first = float(np.max(mags[traj.series.t <= half]))
    second = float(np.max(mags[traj.series.t >= half]))
    diag = {
        "mass_drift": traj.max_mean_drift(),
        "first_half_max": first,
        "second_half_max": second,
        "damped": second < first,
        "truncation": traj.counters.as_dict(),
        "m_norm": functional_M(traj.series, cfg.values["norms.lambda"]).value,
    }
    fit, diag["decay"] = _decay_fit(cfg, traj.series)
    if fit is not None:
        echoes = detect_echoes(traj.series, fit, cfg.values["echo.threshold"])
        diag["echoes"] = [{"time": e.time, "prominence": e.prominence} for e in echoes]
    write_json(out / "diagnostics.json", diag)
    return {"converged": True, "damped": diag["damped"], "mass_drift": diag["mass_drift"]}


def _run_backward(cfg: RunConfig, out: Path) -> dict:
    """One window, or the continuation over ``backward.T_list`` with its ``cauchy.csv``."""
    grid = _grid_from(cfg)
    datum = _datum_from(cfg, grid, cfg.values["datum.width"])
    scfg = _scattering_config(cfg, datum, _profile_from(cfg))
    t_list = cfg.values["backward.T_list"]
    cont = continue_in_T(scfg, t_list or [scfg.T])
    if t_list:
        write_csv(
            out / "cauchy.csv",
            ["t_star", "zeta_diff", "h_diff", "extension_zeta_diff"],
            # row i compares windows i and i + 1 on the shorter one, labelled by its T
            [cont.t_values[:-1], cont.zeta_diffs, cont.h_diffs, cont.extension_zeta_diffs],
        )
    traj, trace = cont.last_trajectory, cont.traces[-1]
    _write_solution(out, traj, trace)
    lam = cfg.values["norms.lambda"]
    m_values = [functional_M(s, lam).value for s in cont.series]
    weight = solve_a(scfg.T, scfg.norm_delta, scfg.d_t)
    n_norm = functional_N(traj, lam, weight, mu_points=cfg.values["norms.mu_points"]).value
    fit, decay = _decay_fit(cfg, traj.series)
    write_json(
        out / "norms.json",
        {
            "lambda": lam,
            "m_norm": m_values[-1],
            "n_norm": n_norm,
            "m_norm_per_T": m_values,
            "picard": asdict(trace),
            "truncation": traj.counters.as_dict(),
            "decay": decay,
        },
    )
    return {
        **_picard_headline(trace, m_values[-1], n_norm),
        "lambda_fit": fit.rate if fit is not None else math.nan,
    }


def _run_nonperturbative(cfg: RunConfig, out: Path) -> dict:
    grid = _grid_from(cfg)
    beta = cfg.values["bgk.beta"]
    state = solve_bgk(beta)
    if state is None:  # the load rule beta > 2 leaves a sliver just above 2
        raise ConfigError(f"no self-consistent state at beta={beta}; need beta > 2")
    datum, background = bgk_to_field(state, grid)
    scfg = _scattering_config(cfg, datum, background)
    margin_report = stability_margin(_margin_kernel(cfg), *_MARGIN_SCAN)
    traj, trace, split = nonperturbative_solve(scfg)
    _write_solution(out, traj, trace)
    if split is not None:
        write_csv(
            out / "echoes.csv",
            ["t", "abs_b_plus", "abs_b_minus", "abs_b_plus_reconstructed"],
            [split.t, _modulus(split.b_plus), _modulus(split.b_minus),
             _modulus(split.b_plus_reconstructed)],
        )
    weight = solve_a(scfg.T, 1.0, scfg.d_t)
    w_inf = a_infinity(1.0, max(scfg.tau, 1.0), min(scfg.d_t, 0.01))
    p_rep, q_rep = functional_P_Q(
        traj, cfg.values["norms.lambda"], cfg.values["norms.lambda_prime"],
        scfg.tau, weight, float(w_inf(scfg.tau)),
    )
    payload = {
        "beta": beta,
        "nu": state.nu,
        "tau": scfg.tau,
        "T": scfg.T,
        "kernel_margin": margin_report.as_dict(),
        "p_norm": p_rep.value,
        "q_norm": q_rep.value,
        "picard": asdict(trace),
        "echo_split": split.sup_values() if split is not None else None,
        "truncation": traj.counters.as_dict(),
    }
    write_json(out / "norms.json", payload)
    return _picard_headline(trace, p_rep.value, q_rep.value)


def _run_compare(cfg: RunConfig, out: Path) -> dict:
    grid = _grid_from(cfg)
    datum = _datum_from(cfg, grid, cfg.values["datum.width"])
    scfg = _scattering_config(cfg, datum, _profile_from(cfg))
    traj, trace = backward_solve(scfg)
    rough_forward = None
    rough_width = cfg.values.get("compare.rough_width")
    if rough_width is not None:
        rough_forward = forward_solve(_datum_from(cfg, grid, rough_width), _evolution_params(cfg))
    report = compare_backward_forward(traj, scfg, forward_rough=rough_forward)
    back, fwd = report.backward_profile, report.forward_profile
    header, columns = ["t", "mu_star_backward"], [back.t, back.mu_star]
    if fwd is not None:  # the forward value at the nearest forward snapshot time
        header.append("mu_star_forward")
        columns.append(fwd.mu_star[[int(np.argmin(np.abs(fwd.t - t))) for t in back.t]])
    write_csv(out / "profiles.csv", header, columns)
    write_json(
        out / "compare.json",
        {
            "round_trip_error": report.error,
            "tolerance": report.tolerance,
            "within_tolerance": report.within_tolerance,
            "picard": asdict(trace),
        },
    )
    return {
        "converged": trace.converged and report.within_tolerance,
        "round_trip_error": report.error,
    }


_SCENARIO_IMPL = {
    "stability": _run_stability,
    "bgk": _run_bgk,
    "weights": _run_weights,
    "forward": _run_forward,
    "backward": _run_backward,
    "nonperturbative": _run_nonperturbative,
    "compare": _run_compare,
}


def run(cfg: RunConfig, out_root, overwrite: bool = False, threads: int = 1) -> RunManifest:
    """Execute one scenario into ``<out_root>/<run id>/``, manifest last.

    A non-empty run directory is cleared only when it holds a manifest, that
    is, when this program wrote it, and ``overwrite`` is set; otherwise the
    run is refused and nothing is deleted.  Clearing deletes only what the
    previous run wrote (see ``_clear_previous_run``).  ``threads`` below 1 is
    refused before the run directory exists.
    """
    _check_threads(threads)
    out = Path(out_root) / cfg.run_id
    if out.is_dir() and any(out.iterdir()):
        if not (out / "manifest.json").is_file():
            raise RunRefusedError(
                f"{out} is not empty and holds no manifest.json; refusing to clear it"
            )
        if not overwrite:
            raise RunRefusedError(
                f"run id {cfg.run_id!r} already completed at {out}; pass overwrite to redo"
            )
        _clear_previous_run(out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest = {
        "run_id": cfg.run_id,
        "scenario": cfg.scenario,
        "artifact_version": __version__,
        "config": cfg.as_dict(),
        "status": "failed",
        "headline": {},
    }
    try:
        if cfg.scenario == "sweep":
            headline = sweep(cfg, out, threads=threads)
        else:
            headline = _SCENARIO_IMPL[cfg.scenario](cfg, out)
        manifest["status"] = "ok"
        manifest["headline"] = headline
    except Exception as exc:  # recorded, then re-raised after the manifest lands
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["traceback"] = traceback.format_exc().splitlines()
        manifest["wall_seconds"] = time.time() - started
        write_manifest_atomic(out, manifest)
        raise
    manifest["wall_seconds"] = time.time() - started
    path = write_manifest_atomic(out, manifest)
    return RunManifest(path=path, data=manifest)


def _clear_previous_run(out: Path) -> None:
    """Delete the previous run's files, or refuse and delete nothing.

    Its files are those the manifest's ``files`` map lists plus every
    manifest (the map leaves them out, sweep members' included); the
    directories holding them go too.  Any other entry is one this program
    never wrote, so the run is refused.
    """
    try:
        listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RunRefusedError(
            f"{out}: unreadable manifest.json ({exc}); refusing to clear it"
        ) from exc
    entries = set(out.rglob("*"))
    ours = {
        p
        for p in entries
        if not p.is_dir() and (p.name in MANIFEST_NAMES or str(p.relative_to(out)) in listed)
    }
    dirs = {d for p in ours for d in p.parents if out in d.parents}
    foreign = sorted(entries - ours - dirs)
    if foreign:
        raise RunRefusedError(
            f"{foreign[0]} was not written by the run at {out} "
            f"({len(foreign)} such entries); refusing to clear it"
        )
    for p in sorted(ours, key=lambda p: p == out / "manifest.json"):  # manifest last
        p.unlink()
    for d in sorted(dirs, key=lambda d: len(d.parts), reverse=True):
        d.rmdir()


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _sweep_member(args):
    cfg, value, member_dir = args
    try:
        member = member_config(cfg, value, origin=f"sweep member {fmt(value)}")
        result = run(member, member_dir, overwrite=True)
        headline = result.data["headline"]
        return {"value": value, "ok": True, **headline}
    except Exception as exc:
        return {"value": value, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


def sweep(cfg: RunConfig, out: Path, threads: int = 1) -> dict:
    """Run the wrapped scenario across the axis values; failures recorded.

    Members execute in input order (in parallel when threads > 1, on at
    most one worker process per member) and the aggregate lands in
    ``sweep.csv`` in input order regardless.  ``threads`` below 1 is
    refused before any member runs.
    """
    _check_threads(threads)
    axis = cfg.values["sweep.axis"]
    values = cfg.values["sweep.values"]
    jobs = [(cfg, v, str(out / "runs" / f"{i:03d}")) for i, v in enumerate(values)]
    if threads > 1:
        # imported here: the pool module costs about 2 MB in every process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            results = list(pool.map(_sweep_member, jobs))
    else:
        results = [_sweep_member(j) for j in jobs]
    keys = ("lambda_fit", "contraction_ratio", "m_norm", "n_norm")
    columns = [  # a failed member's record holds only value, ok and error
        [r["value"] for r in results],
        [r.get("converged", False) for r in results],
        *([r.get(key, math.nan) for r in results] for key in keys),
    ]
    write_csv(
        out / "sweep.csv",
        ["axis_value", "converged", "lambda_fit", "contraction_ratio", "M_norm", "N_norm"],
        columns,
    )
    failures = {fmt(r["value"]): r["error"] for r in results if not r["ok"]}
    headline = {
        "axis": axis,
        "n_values": len(values),
        "n_failed": sum(not r["ok"] for r in results),
        "converged_values": [r["value"] for r in results if r.get("converged")],
    }
    if failures:
        headline["failures"] = failures
    return headline
