"""Time two source trees side by side and write one BENCH record.

Usage::

    python tools/bench.py PARENT CHANGE --out BENCH_<label>.json [--pairs N]
        [--workload W ...] [CONFIG ...]

PARENT and CHANGE are checkouts of this repository.  Each CONFIG runs in N
pairs (10 by default), one run per tree, each in a fresh process through
``compare_trees.run_config``.  Each ``--workload`` runs the tree's own
``perfbench/run.py --workload W --seed 0 --trace 0`` in N pairs the same
way, at that perfbench's own run length.  The side that runs first
alternates from pair to pair, so a drift of the host's speed falls on both
sides alike.

The record holds, per config or workload and per side, every ``wall_s`` and
``peak_rss_mb`` sample (and ``setup_s`` for a workload) with their min,
quartiles and median; for a config, the heap peak ``tracemalloc`` saw in one
extra, untimed run per side (``traced_peak_mb``, None when that run failed),
which unlike the peak RSS does not depend on where the allocator placed the
large blocks; whether the outputs agree (the manifests' ``files``
maps and ``headline``s for a config, the seed-0 artifact fingerprints for a
workload); and the share of pairs in which CHANGE took less wall time.  A
workload run also keeps its last JSON line, its fingerprint, the machine
and run length from perfbench's own record, and the wall time of its first
repetition, which is what a single run pays before anything in the process
is warm (``first_rep_s`` summarises these per side).  A machine record
(Python, numpy, CPU count and model, load average) and each tree's git
commit, whether its ``src`` differs from that commit, and the sha256 of its
``src/hmflab/*.py`` (the digest perfbench reports) sit beside them.  The
script exits 1 when any run fails or any output differs, and 0 otherwise;
it writes the record either way.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare_trees import canonical, run_config

SIDES = ("parent", "change")
_FINGERPRINT = "fingerprint (seed 0, not gated): sha256 of the artifact map "


def _summary(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0] if samples else None
    return {"samples": samples, "min": min(samples, default=None), "q1": q1, "median": median, "q3": q3}


def _pair_order(i: int) -> tuple:
    return SIDES if i % 2 == 0 else SIDES[::-1]


def _faster_share(runs: dict) -> float | None:
    """Share of pairs, both sides measured, in which the change's wall time was lower."""
    pairs = [(p["wall_s"], c["wall_s"]) for p, c in zip(runs["parent"], runs["change"])
             if p.get("wall_s") is not None and c.get("wall_s") is not None]
    return sum(c < p for p, c in pairs) / len(pairs) if pairs else None


def bench_config(trees: dict, config: Path, pairs: int) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in _pair_order(i):
            runs[side].append(run_config(trees[side], config))
    traced = {side: run_config(trees[side], config, traced=True) for side in SIDES}
    entry = {"ok": all(r["status"] == "ok" for side in SIDES for r in [*runs[side], traced[side]])}
    for side in SIDES:
        good = [r for r in runs[side] if r["status"] == "ok"]
        entry[side] = {
            "status": [r["status"] if r["status"] == "ok" else r.get("error", r["status"])
                       for r in runs[side]],
            "wall_s": _summary([r["wall_s"] for r in good]),
            "peak_rss_mb": _summary([r["peak_rss_mb"] for r in good]),
            "traced_peak_mb": traced[side].get("traced_peak_mb"),
        }
    for key in ("files", "headline"):
        seen = {canonical(r.get(key)) for side in SIDES for r in runs[side]}
        entry[f"{key}_equal"] = entry["ok"] and len(seen) == 1
    entry["change_faster_share"] = _faster_share(runs)
    return entry


def run_workload(tree: Path, workload: str) -> dict:
    """One unchanged ``perfbench/run.py`` run in ``tree``: its last JSON line, fingerprint and record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    fingerprint = next((ln[len(_FINGERPRINT):] for ln in lines if ln.startswith(_FINGERPRINT)), None)
    record = json.loads((tree / ".perfbench_out" / f"{workload}-seed0-trace0.json").read_text())
    walls = record["result"]["walls"]
    run = {"result": result, "fingerprint": fingerprint, "seconds": record["seconds"],
           "machine": record["machine"], "numpy": record["result"]["numpy"],
           "repetitions": len(walls), "first_rep_s": walls[0]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"ok": result["correct"], "run": run, **metrics}


def bench_workload(trees: dict, workload: str, pairs: int) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in _pair_order(i):
            runs[side].append(run_workload(trees[side], workload))
    entry = {"ok": all(r["ok"] for side in SIDES for r in runs[side])}
    for side in SIDES:
        done = [r["run"] for r in runs[side] if "run" in r]
        entry[side] = {
            **{m: _summary([d["result"]["metrics"][m]["value"] for d in done])
               for m in ("wall_s", "setup_s", "peak_rss_mb")},
            "first_rep_s": _summary([d["first_rep_s"] for d in done]),
            "failed": [d["result"]["failed"] for d in done],
            "attempted": [d["result"]["attempted"] for d in done],
            "errors": [r["error"] for r in runs[side] if "error" in r],
            "runs": done,
        }
    seen = {r["run"]["fingerprint"] if "run" in r else None for side in SIDES for r in runs[side]}
    entry["fingerprint_equal"] = entry["ok"] and len(seen) == 1
    entry["change_faster_share"] = _faster_share(runs)
    return entry


def _git(tree: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tree_record(tree: Path) -> dict:
    src = hashlib.sha256()
    for path in sorted((tree / "src" / "hmflab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    is_repo = (tree / ".git").exists()
    commit = _git(tree, "rev-parse", "HEAD") if is_repo else None
    status = _git(tree, "status", "--porcelain", "--", "src") if is_repo else None
    return {"src_sha256": src.hexdigest(), "commit": commit,
            "src_dirty": None if status is None else bool(status)}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _loadavg() -> list[str]:
    return (_read("/proc/loadavg") or "").split()[:3]


def machine_record() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                if ln.startswith("model name")), None)
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "numpy": numpy.stdout.strip() or None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": _loadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("configs", type=Path, nargs="*", help="config files to run in both trees")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<label>.json to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per config or workload")
    parser.add_argument("--workload", action="append", default=[], help="perfbench workload")
    args = parser.parse_intermixed_args(argv)  # configs may follow the options
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.configs and not args.workload:
        parser.error("give at least one config or --workload")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    configs = [c.resolve() for c in args.configs]

    record = {
        "pairs": args.pairs,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_record(),
        "trees": {side: tree_record(tree) for side, tree in trees.items()},
        "configs": {},
        "workloads": {},
    }
    for config in configs:
        entry = record["configs"][config.name] = bench_config(trees, config, args.pairs)
        print(f"{config.name}: wall median {entry['parent']['wall_s']['median']} -> "
              f"{entry['change']['wall_s']['median']} s, files equal {entry['files_equal']}, "
              f"headline equal {entry['headline_equal']}")
    for workload in args.workload:
        entry = record["workloads"][workload] = bench_workload(trees, workload, args.pairs)
        print(f"{workload}: wall_s median {entry['parent']['wall_s']['median']} -> "
              f"{entry['change']['wall_s']['median']} s, first repetition median "
              f"{entry['parent']['first_rep_s']['median']} -> {entry['change']['first_rep_s']['median']} s, "
              f"fingerprint equal {entry['fingerprint_equal']}")
    record["machine"]["loadavg_at_end"] = _loadavg()
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    entries = [*record["configs"].values(), *record["workloads"].values()]
    ok = all(e["ok"] and e.get("files_equal", True) and e.get("headline_equal", True)
             and e.get("fingerprint_equal", True) for e in entries)
    print(f"record: {args.out}" + ("" if ok else " (failed runs or differences)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
