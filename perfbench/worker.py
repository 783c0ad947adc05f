"""One workload in one process: set up, repeat ``runner.run``, check every run.

``run.py`` starts this file with the BLAS and OpenMP pools pinned to one
thread and reads the single JSON line it prints last.  With ``--probe`` it
only imports hmflab and validates the workload's configs, then prints
``ready``: an untraced run starts such probes between its repetitions,
spread evenly over the measured window, and times each as the set-up cost.

A repetition runs every config of the workload once into a temporary root
that this process creates and removes; run ids are fixed, so each
repetition overwrites the previous one's directories and nothing else.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench_out"  # temporary roots and span files
sys.path.insert(0, str(SRC))

from workloads import (  # noqa: E402
    WORKLOADS, check_run, config_texts, datum_coeffs, failed_solves, solves_attempted,
)

MIN_REPS = 3
SETUP_PROBES = 10  # set-up probes per untraced run, one per tenth of the window
PROBE_TIMEOUT_S = 60.0
MAX_PROBLEMS = 20
# What a check can raise while reading artifacts a faulty run left behind.
CHECK_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError)


def load_configs(texts):
    import hmflab
    from hmflab.config import config_from_text

    if Path(hmflab.__file__).resolve().parent != SRC / "hmflab":
        raise SystemExit(f"imported hmflab from {hmflab.__file__}, not from {SRC}")
    return [config_from_text(t, origin=f"config[{i}]") for i, t in enumerate(texts)]


def probe_setup(args) -> float:
    """Seconds from the start of a fresh process to validated configs."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            proc.kill()
            raise RuntimeError(f"set-up probe gave no answer within {PROBE_TIMEOUT_S:.0f} s")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class Session:
    """Repetitions of one workload, with the solve records the checks need."""

    def __init__(self, cfgs, root: Path):
        import hmflab.evolution
        import hmflab.runner
        import hmflab.scattering

        self.cfgs = cfgs
        self.root = root
        self.runner = hmflab.runner  # run() is looked up per call, so the tracer sees it
        self.backward = hmflab.scattering.backward_solve
        self.forward = hmflab.evolution.forward_solve
        self.windows = []  # PicardTrace of each backward window of the current run
        self.tracer = None
        self.patched = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint: dict[str, str] = {}  # artifact sha256 map of the last repetition
        self.inner_iters: dict[str, int] = {}  # per run id, last repetition
        # computed once, before any patching, so the checks call nothing traced
        self.datums = {c.run_id: datum_coeffs(c) for c in cfgs if c.scenario == "backward"}

    def _observed(self, fn, inner):
        """``inner`` (``fn`` or its traced wrapper), keeping each solve's record."""
        # tracing is imported here, not at the top, so a --probe process imports
        # only what set-up measures
        from tracing import record_backward, record_forward

        if fn is self.backward:

            def observed_backward(config, *args, **kwargs):
                traj, trace = inner(config, *args, **kwargs)
                self.windows.append(trace)
                if self.tracer is not None:
                    record_backward(self.tracer.counts, config, trace)
                return traj, trace

            return observed_backward
        if fn is self.forward:

            def observed_forward(h0, params):
                if self.tracer is not None:
                    record_forward(self.tracer.counts, params)
                return inner(h0, params)

            return observed_forward
        return inner

    def install(self, tracer=None) -> None:
        """Patch the solvers (and, with a tracer, every public function)."""
        from tracing import patch, public_functions

        self.uninstall()
        self.tracer = tracer
        if tracer is None:
            targets = {self.backward: None, self.forward: None}
        else:
            targets = public_functions()
        self.patched = patch({
            fn: self._observed(fn, fn if tracer is None else tracer.wrap(name, fn))
            for fn, name in targets.items()
        })

    def uninstall(self) -> None:
        from tracing import unpatch

        unpatch(self.patched)
        self.patched = []
        self.tracer = None

    def repetition(self) -> tuple[float, list[str], int, int]:
        """Run every config once: (summed run() wall time, problems, attempted, failed)."""
        wall = 0.0
        problems = []
        attempted = failed = 0
        hashes = {}
        for cfg in self.cfgs:
            self.windows = []
            t0 = time.perf_counter()
            try:
                manifest = self.runner.run(cfg, self.root, overwrite=True)
                raised = None
            except Exception as exc:  # a failed solve is counted, not fatal
                raised = f"run raised {type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            run_dir = self.root / cfg.run_id
            if raised:
                found = [raised]
            else:
                try:
                    found = check_run(cfg, run_dir, self.windows, self.datums.get(cfg.run_id))
                except CHECK_ERRORS as exc:
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                hashes.update({f"{cfg.run_id}/{k}": v for k, v in manifest.data["files"].items()})
            attempted += solves_attempted(cfg)
            failed += failed_solves(cfg, self.windows, found)
            self.inner_iters[cfg.run_id] = sum(sum(w.inner_iterations) for w in self.windows)
            unconverged = sum(not w.converged for w in self.windows)
            if unconverged:
                found.append(f"{unconverged} backward windows did not converge")
            if self.tracer is not None:
                self.tracer.counts["outputs.bytes_written"] += sum(
                    p.stat().st_size for p in run_dir.rglob("*") if p.is_file()
                )
            problems += [f"{cfg.run_id}: {p}" for p in found]
        self.fingerprint = hashes
        return wall, problems, attempted, failed

    def tally(self, problems, attempted, failed) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems[: max(MAX_PROBLEMS - len(self.problems), 0)]

    def measure(self, seconds: float, after_each=None, probe=None) -> tuple[list[float], list[float]]:
        """Repeat until ``seconds`` have passed (at least MIN_REPS times).

        ``after_each`` may return extra problems for a repetition; they fail
        all of its solves.  ``probe``, if given, is timed between
        repetitions whenever another tenth of ``seconds`` has begun, so its
        samples see the same drift of the machine as the repetitions.
        Returns the repetitions' wall times and the probe samples.
        """
        walls, probes = [], []
        start = time.perf_counter()
        while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
            if self.tracer is not None:
                self.tracer.reset()
            wall, problems, attempted, failed = self.repetition()
            extra = after_each() if after_each else []
            if extra:
                problems, failed = problems + extra, attempted
            self.tally(problems, attempted, failed)
            walls.append(wall)
            if probe and time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
                probes.append(probe())
        return walls, probes


def traced_phase(session: Session, seconds: float, spans_path: Path) -> dict:
    """Repetitions under the tracer: per-layer medians and count cross-checks.

    A traced count that differs from the count the solves imply, or from the
    previous repetition's, fails the repetition.
    """
    from tracing import EXACT, Tracer

    tracer = Tracer()
    session.install(tracer)
    per_rep = []

    def cross_check():
        values = tracer.layer_values()
        bad = [
            f"trace: {name} traced {values[name]} but the solves imply {want}"
            for name, want in tracer.implied_counts().items()
            if values[name] != want
        ]
        if per_rep:
            bad += [
                f"trace: {name} changed between repetitions ({per_rep[0][name]} -> {values[name]})"
                for name in EXACT
                if values[name] != per_rep[0][name]
            ]
        per_rep.append(values)
        return bad

    walls, _ = session.measure(seconds, cross_check)
    tracer.write_spans(spans_path)
    session.uninstall()
    layers = {  # counts were checked equal across repetitions; times take the median
        name: per_rep[0][name] if name in EXACT else statistics.median(r[name] for r in per_rep)
        for name in per_rep[0]
    }
    runs = {cfg.run_id: run for cfg, run in zip(session.cfgs, tracer.per_run())}
    runs["all"] = {key: sum(run[key] for run in runs.values()) for key in runs[session.cfgs[0].run_id]}
    inner = dict(session.inner_iters, all=sum(session.inner_iters.values()))
    split = {  # last repetition, per config and in total: where the runner.run time went
        run_id: {
            "rhs_coeffs_share": run["rhs_coeffs_s"] / run["wall_s"],
            "stability_margin_share": run["stability_margin_s"] / run["wall_s"],
            "inner_iters": inner[run_id],
        }
        for run_id, run in runs.items()
    }
    return {"traced_walls": walls, "layers": layers, "split": split}


def blas_info() -> dict:
    import numpy as np

    try:
        return {"numpy": np.__version__, "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        return {"numpy": np.__version__, "blas": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--probe", action="store_true", help="set up only, then print 'ready'")
    args = ap.parse_args(argv)

    cfgs = load_configs(config_texts(args.workload, args.seed, args.size))
    if args.probe:
        print("ready", flush=True)
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    session = Session(cfgs, root)
    try:
        session.install()
        if args.trace:
            walls, setup = session.measure(args.seconds / 2)
        else:
            walls, setup = session.measure(args.seconds, probe=lambda: probe_setup(args))
        result = {
            "walls": walls,
            "setup": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **blas_info(),
        }
        if args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
            result.update(traced_phase(session, args.seconds / 2, spans))
            result["layers"]["trace.overhead_s"] = (
                statistics.median(result["traced_walls"]) - statistics.median(walls)
            )
            result["spans_file"] = str(spans)
    finally:
        session.uninstall()
        shutil.rmtree(root, ignore_errors=True)
    result.update(
        attempted=session.attempted,
        failed=session.failed,
        problems=session.problems,
        fingerprint=session.fingerprint,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
