"""Spans around every public function of the hmflab modules, from outside.

The program is not edited.  Each public function of each module is wrapped
once, and every module-level name bound to it is rebound to the wrapper,
because callers look the name up in their own module: ``scattering``,
``runner`` and ``diagnostics`` import with ``from .x import f``, so patching
``hmflab.evolution.rhs_coeffs`` alone would miss every transport call.
A few private helpers (``_COUNT_ONLY``) get a counter instead of a span.

Spans are kept in memory as tuples and written out once, at the end of the
run.  A span's self time is its duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = (
    "spectral", "profiles", "volterra", "evolution", "norms",
    "scattering", "diagnostics", "outputs", "runner", "config",
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("spectral.shift_rows.calls", "count", "lower"),
    ("spectral.shift_rows.self_s", "s", "lower"),
    ("spectral.shift_rows.computed_mb", "MB", "lower"),
    ("evolution.rhs_coeffs.calls", "count", "lower"),
    ("evolution.rhs_coeffs.self_s", "s", "lower"),
    ("evolution.rhs_coeffs.us_per_call", "us", "lower"),
    ("spectral.sample_mode.calls", "count", "lower"),
    ("spectral.sample_mode.points", "count", "lower"),
    ("spectral.sample_mode.self_s", "s", "lower"),
    ("spectral.in_range_read_frac", "ratio", "higher"),
    ("evolution.extract_zeta.calls", "count", "lower"),
    ("evolution.extract_zeta.self_s", "s", "lower"),
    ("evolution.forward_solve.self_s", "s", "lower"),
    ("scattering.windows", "count", "lower"),
    ("scattering.sweeps", "count", "lower"),
    ("scattering.inner_iters", "count", "lower"),
    ("scattering.sweeps_per_window", "ratio", "lower"),
    ("scattering.transport_s", "s", "lower"),
    ("scattering.field_solve_s", "s", "lower"),
    ("scattering.backward_solve.self_s", "s", "lower"),
    ("scattering.echo_split.self_s", "s", "lower"),
    ("volterra.solve_volterra.calls", "count", "lower"),
    ("volterra.solve_volterra.self_s", "s", "lower"),
    ("volterra.stability_margin.self_s", "s", "lower"),
    ("volterra.stability_margin.scan_mb", "MB", "lower"),
    ("norms.solve_a.calls", "count", "lower"),
    ("norms.solve_a.self_s", "s", "lower"),
    ("norms.a_infinity.self_s", "s", "lower"),
    ("norms.functional_N.self_s", "s", "lower"),
    ("norms.functional_P_Q.self_s", "s", "lower"),
    ("diagnostics.fit_decay.self_s", "s", "lower"),
    ("diagnostics.detect_echoes.self_s", "s", "lower"),
    ("profiles.solve_bgk.self_s", "s", "lower"),
    ("outputs.bytes_written", "bytes", "lower"),
    ("outputs.write_s", "s", "lower"),
    ("outputs.manifest_s", "s", "lower"),
    ("runner.run.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Count-valued layer metrics: they repeat exactly from one repetition to the next.
EXACT = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")

_WRITES = ("outputs.write_snapshots", "outputs.write_csv", "outputs.write_json")


class Tracer:
    """In-memory span recorder with per-call counters for selected layers.

    ``spans`` holds (name, parent index, start, end, self seconds) tuples of
    the current repetition; ``counts`` the work counters derived from the
    arguments of the calls it saw.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def wrap(self, name: str, fn):
        if name in _COUNT_ONLY:
            count = _COUNT_ONLY[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                count(self.counts, args, kwargs)
                return fn(*args, **kwargs)

            return counted
        clock = time.perf_counter
        stack, child = self._stack, self._child
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += t1 - t0
                spans[idx] = (name, parent, t0, t1, t1 - t0 - covered)
                if counter is not None:
                    counter(self.counts, args, kwargs)

        return traced

    def layer_values(self) -> dict[str, float]:
        """Per-layer metrics of the current repetition (without trace overhead)."""
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        transport = field_solve = write = 0.0
        for name, parent, t0, t1, own in spans:
            calls[name] += 1
            self_s[name] += own
            pname = spans[parent][0] if parent >= 0 else None
            if pname != name:  # count a recursive call's time once
                incl_s[name] += t1 - t0
            if pname == "scattering.backward_solve":
                if name == "evolution.rhs_coeffs":
                    transport += t1 - t0
                elif name in ("spectral.sample_mode", "volterra.solve_volterra"):
                    field_solve += t1 - t0
            if name in _WRITES and not (pname or "").startswith("outputs."):
                write += t1 - t0
        c = self.counts
        rhs_calls = calls["evolution.rhs_coeffs"]
        points = c["spectral.sample_mode.points"]
        windows = calls["scattering.backward_solve"]
        return {
            "spectral.shift_rows.calls": calls["spectral.shift_rows"],
            "spectral.shift_rows.self_s": self_s["spectral.shift_rows"],
            "spectral.shift_rows.computed_mb": c["spectral.shift_rows.bytes"] / 1e6,
            "evolution.rhs_coeffs.calls": rhs_calls,
            "evolution.rhs_coeffs.self_s": self_s["evolution.rhs_coeffs"],
            "evolution.rhs_coeffs.us_per_call": (
                1e6 * incl_s["evolution.rhs_coeffs"] / rhs_calls if rhs_calls else 0.0
            ),
            "spectral.sample_mode.calls": calls["spectral.sample_mode"],
            "spectral.sample_mode.points": int(points),
            "spectral.sample_mode.self_s": self_s["spectral.sample_mode"],
            "spectral.in_range_read_frac": (
                1.0 - c["spectral.sample_mode.out_of_range"] / points if points else 1.0
            ),
            "evolution.extract_zeta.calls": calls["evolution.extract_zeta"],
            "evolution.extract_zeta.self_s": self_s["evolution.extract_zeta"],
            "evolution.forward_solve.self_s": self_s["evolution.forward_solve"],
            "scattering.windows": windows,
            "scattering.sweeps": int(c["scattering.sweeps"]),
            "scattering.inner_iters": int(c["scattering.inner_iters"]),
            "scattering.sweeps_per_window": c["scattering.sweeps"] / windows if windows else 0.0,
            "scattering.transport_s": transport,
            "scattering.field_solve_s": field_solve,
            "scattering.backward_solve.self_s": self_s["scattering.backward_solve"],
            "scattering.echo_split.self_s": self_s["scattering.echo_split"],
            "volterra.solve_volterra.calls": calls["volterra.solve_volterra"],
            "volterra.solve_volterra.self_s": self_s["volterra.solve_volterra"],
            "volterra.stability_margin.self_s": self_s["volterra.stability_margin"],
            "volterra.stability_margin.scan_mb": c["volterra.stability_margin.scan_bytes"] / 1e6,
            "norms.solve_a.calls": calls["norms.solve_a"],
            "norms.solve_a.self_s": self_s["norms.solve_a"],
            "norms.a_infinity.self_s": self_s["norms.a_infinity"],
            "norms.functional_N.self_s": self_s["norms.functional_N"],
            "norms.functional_P_Q.self_s": self_s["norms.functional_P_Q"],
            "diagnostics.fit_decay.self_s": self_s["diagnostics.fit_decay"],
            "diagnostics.detect_echoes.self_s": self_s["diagnostics.detect_echoes"],
            "profiles.solve_bgk.self_s": self_s["profiles.solve_bgk"],
            "outputs.bytes_written": int(c["outputs.bytes_written"]),
            "outputs.write_s": write,
            "outputs.manifest_s": incl_s["outputs.write_manifest_atomic"],
            "runner.run.self_s": self_s["runner.run"],
        }

    def per_run(self) -> list[dict[str, float]]:
        """Wall, rhs_coeffs and stability-scan seconds of each top-level runner.run span."""
        runs = []
        for name, parent, t0, t1, _ in self.spans:
            if parent < 0:
                runs.append({"wall_s": t1 - t0, "rhs_coeffs_s": 0.0, "stability_margin_s": 0.0})
            elif name == "evolution.rhs_coeffs":
                runs[-1]["rhs_coeffs_s"] += t1 - t0
            elif name == "volterra.stability_margin":
                runs[-1]["stability_margin_s"] += t1 - t0
        return runs

    def implied_counts(self) -> dict[str, int]:
        """Call counts the solves' own settings and results imply."""
        c = self.counts
        rhs = int(c["implied.rhs_coeffs"])
        return {
            "evolution.rhs_coeffs.calls": rhs,
            "spectral.shift_rows.calls": 2 * rhs,
            "evolution.extract_zeta.calls": int(c["implied.extract_zeta"]),
            "volterra.solve_volterra.calls": 2 * int(c["scattering.inner_iters"]),
        }

    def write_spans(self, path: Path) -> None:
        """One CSV row per span of the current repetition."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,start_s,end_s,self_s\n")
            for i, (name, parent, t0, t1, own) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{t0 - base!r},{t1 - base!r},{own!r}\n")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_shift_rows(c, args, kwargs):
    # computed, not measured: four stencil reads of the array plus one output write
    c["spectral.shift_rows.bytes"] += 5 * _arg(args, kwargs, 0, "coeffs").nbytes


def _count_sample_mode(c, args, kwargs):
    grid = _arg(args, kwargs, 1, "grid")
    pts = np.asarray(_arg(args, kwargs, 3, "points"), dtype=float)
    c["spectral.sample_mode.points"] += pts.size
    c["spectral.sample_mode.out_of_range"] += int(np.count_nonzero(np.abs(pts) > grid.xi_max))


def _count_laplace_many(c, args, kwargs):
    # the complex sigma-by-node phase matrix this call allocates
    kernel = _arg(args, kwargs, 0, "kernel")
    sigmas = _arg(args, kwargs, 1, "sigmas")
    c["volterra.stability_margin.scan_bytes"] += 16 * np.size(sigmas) * len(kernel.t)


_COUNTERS = {
    "spectral.shift_rows": _count_shift_rows,
    "spectral.sample_mode": _count_sample_mode,
}

# Private helpers wrapped with a counter and no span, so their time stays in
# the caller's self time: the Laplace scan is the bulk of stability_margin.
_COUNT_ONLY = {
    "volterra._laplace_many": _count_laplace_many,
}


def record_backward(counts, config, trace) -> None:
    """Sweep counts of one backward window and the transport calls they imply."""
    steps = int(round((config.T - config.tau) / config.d_t))
    counts["scattering.sweeps"] += trace.iterations
    counts["scattering.inner_iters"] += sum(trace.inner_iterations)
    counts["implied.rhs_coeffs"] += 4 * steps * trace.iterations


def record_forward(counts, params) -> None:
    """Right-hand sides and field readouts a forward run of these settings makes."""
    steps = int(round(params.t_final / params.d_t))
    counts["implied.rhs_coeffs"] += 4 * steps
    counts["implied.extract_zeta"] += 5 * steps + 1


def public_functions() -> dict:
    """Original function object -> name, for every traced module and counted helper."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"hmflab.{short}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                found[obj] = f"{short}.{attr}"
    for name in _COUNT_ONLY:
        short, attr = name.split(".")
        found[getattr(importlib.import_module(f"hmflab.{short}"), attr)] = name
    return found


def patch(replacements: dict) -> list:
    """Rebind every hmflab module-level name bound to a key of ``replacements``.

    Returns the (module, attribute, original) triples that ``unpatch`` restores.
    """
    done = []
    for modname, mod in list(sys.modules.items()):
        if modname != "hmflab" and not modname.startswith("hmflab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
                done.append((mod, attr, obj))
    return done


def unpatch(done: list) -> None:
    for mod, attr, obj in reversed(done):
        setattr(mod, attr, obj)
