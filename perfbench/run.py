"""hmflab scenario benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solvers --seed 0 --seconds 50 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics (wall_s, setup_s, peak_rss_mb) and the failed fraction of the
solves; with ``--trace 1`` a separate traced run prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record (the
generated configs, every sample, the machine, the artifact fingerprint)
goes to ``.perfbench_out/`` in the repository root.

Every child process runs with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, so a
workload uses one thread whatever numpy's BLAS would otherwise start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # the whole run ends before 180 s
DEFAULT_SEED = 0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, config_texts  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def machine() -> dict:
    """Where and on what the run happened."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hmflab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": sys.version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def describe(name: str, value: float, unit: str, how: str) -> str:
    return f"{name:<34} {value:>14.6g} {unit:<6} {how}"


def timing_summary(samples: list[float], what: str) -> str:
    s = sorted(samples)
    n = len(s)
    text = f"median of n={n} {what}; min {s[0]:.4g}, max {s[-1]:.4g}"
    if n > 10:  # highest percentile with at least ten samples above it
        k = n - 10
        text += f", p{100 * k // n} {s[k - 1]:.4g}"
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0, help="measured time per run")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny: self-test only")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "hmflab" / "__init__.py").is_file():
        print(f"perfbench: no hmflab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine(),
        "configs": config_texts(args.workload, args.seed, args.size),
    }
    try:
        result = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} solves attempted, {failed} failed",
    ]
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        lines += [describe(n, m["value"], m["unit"], "") for n, m in metrics.items()]
        lines += [
            f"split {run_id}: rhs_coeffs+shift_rows {s['rhs_coeffs_share']:.1%} of traced runner.run time, "
            f"stability_margin {s['stability_margin_share']:.1%}, inner_iters {s['inner_iters']}"
            for run_id, s in result["split"].items()
        ]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(result["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        lines += [
            describe("wall_s", metrics["wall_s"]["value"], "s",
                     timing_summary(result["walls"], "repetitions")),
            describe("setup_s", metrics["setup_s"]["value"], "s",
                     timing_summary(result["setup"], "fresh processes spread over the run")),
            describe("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB",
                     "peak RSS of the workload process"),
            describe("failed_frac", failed / attempted if attempted else 1.0, "ratio",
                     f"{failed} of {attempted} solves"),
        ]
    lines += [f"problem: {p}" for p in result["problems"]]
    if args.seed == DEFAULT_SEED:
        digest = hashlib.sha256(json.dumps(result["fingerprint"], sort_keys=True).encode()).hexdigest()
        lines.append(f"fingerprint (seed {DEFAULT_SEED}, not gated): sha256 of the artifact map {digest}")
    else:
        result["fingerprint"] = None
    record.update(result=result, metrics=metrics, correct=correct)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines.append(f"record: {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
