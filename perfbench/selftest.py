"""Self-test of the benchmark at tiny size (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, emits exactly the metrics that
  BENCHMARK.json names, with their units, and counts no failed solve;
- a flipped byte in a written ``snapshots.bin`` is counted as a failed solve;
- without the hmflab sources next to it the benchmark exits non-zero and
  prints no result;
- every metric the prediction table names is a per-layer metric, and every
  per-layer metric has a prediction.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_run, config_texts, failed_solves, solves_attempted  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


def check_metrics(spec: dict) -> list[str]:
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            done = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit code {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            print(f"ok {where}: {len(got)} metrics, {result['attempted']} solves", flush=True)
    return errors


def check_flipped_byte(scratch: Path) -> list[str]:
    """A run whose snapshot file is corrupted after the fact must fail its solves."""
    import worker

    cfgs = worker.load_configs(config_texts("solvers", 0, "tiny"))
    session = worker.Session(cfgs, scratch)
    session.install()
    try:
        _, problems, attempted, failed = session.repetition()
    finally:
        session.uninstall()
    if problems or failed:
        return [f"clean tiny run already fails: {problems}"]
    cfg = cfgs[-1]  # session.windows belongs to the last config
    run_dir = scratch / cfg.run_id
    snap = run_dir / "snapshots.bin"
    data = bytearray(snap.read_bytes())
    data[len(data) // 2] ^= 0x01
    snap.write_bytes(bytes(data))
    problems = check_run(cfg, run_dir, session.windows, session.datums.get(cfg.run_id))
    if failed_solves(cfg, session.windows, problems) != solves_attempted(cfg):
        return [f"flipped byte in snapshots.bin not counted as failed: {problems}"]
    print(f"ok flipped byte: {problems}")
    return []


def check_bare_directory(scratch: Path) -> list[str]:
    """Only BENCHMARK.json and perfbench/: no sources to run, so no result."""
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = bench("--workload", "solvers", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout[-200:]!r}"]
    print(f"ok bare directory: exit code {done.returncode}")
    return []


def check_predictions(spec: dict) -> list[str]:
    rows = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))["rows"]
    predicted = [m for row in rows for m in row["metrics"]]
    layers = [m["name"] for m in spec["per_layer"]]
    if sorted(predicted) != sorted(layers):
        return [f"prediction table and per-layer metrics differ: {sorted(set(predicted) ^ set(layers))}"]
    print(f"ok predictions: {len(predicted)} per-layer metrics")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        errors = (
            check_predictions(spec) + check_flipped_byte(scratch)
            + check_bare_directory(scratch) + check_metrics(spec)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
