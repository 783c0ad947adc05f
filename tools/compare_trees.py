"""Check that two source trees write the same artifacts for the same configs.

Usage::

    python tools/compare_trees.py PARENT CHANGE [CONFIG ...]

PARENT and CHANGE are checkouts of this repository; the configs default to
every ``configs/*.cfg`` of CHANGE.  Each config runs once per tree through
``hmflab.runner.run``, each in a fresh Python process with that tree's
``src`` first on ``sys.path`` and one BLAS thread, into a temporary
directory that is removed afterwards.  For each config the script prints
both sides' run wall time and peak RSS, and whether the manifests' ``files``
maps (sha256 per artifact; the map leaves manifests out) and ``headline``s
are equal; where one differs, it names the artifacts or top-level headline
keys whose values differ or that only one side has.  It exits 1 when any
run fails or any map or headline differs, and 0 otherwise.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs in the child: argv is (tree, config, out root[, "traced"]); prints one JSON line.
_CHILD = r"""
import json, os, resource, sys, time, tracemalloc
tree, config, out_root = sys.argv[1:4]
traced = sys.argv[4:] == ["traced"]
sys.path.insert(0, os.path.join(tree, "src"))
import hmflab
from hmflab.config import load_config
from hmflab.runner import run
src = os.path.realpath(os.path.join(tree, "src"))
if not os.path.realpath(hmflab.__file__).startswith(src + os.sep):
    raise SystemExit(f"imported hmflab from {hmflab.__file__}, not from {src}")
record = {"status": "error"}
if traced:
    tracemalloc.start()
started = time.perf_counter()
try:
    data = run(load_config(config), out_root).data
    record = {"status": data["status"], "files": data["files"], "headline": data["headline"]}
except Exception as exc:
    record["error"] = f"{type(exc).__name__}: {exc}"
record["wall_s"] = time.perf_counter() - started
record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
if traced:
    record["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
print(json.dumps(record, sort_keys=True))
"""

_ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_config(tree: Path, config: Path, traced: bool = False) -> dict:
    """One run of ``config`` on ``tree`` in a fresh process; its record, or an error record.

    A ``traced`` run runs under ``tracemalloc`` and records the peak of the
    Python heap it traced during the run as ``traced_peak_mb``; tracing slows
    it, so its times are not comparable with untraced ones.
    """
    with tempfile.TemporaryDirectory(prefix="compare_trees-") as out_root:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(tree), str(config), out_root,
             *(["traced"] if traced else [])],
            cwd=out_root, env={**os.environ, **_ONE_THREAD}, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"status": "error", "error": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def canonical(value) -> str:
    # JSON text, so a NaN headline value equals itself
    return json.dumps(value, sort_keys=True)


def differing(parent: dict, change: dict) -> list[str]:
    """Keys whose values differ between the two dicts, or that only one of them has."""
    return sorted(
        k for k in parent.keys() | change.keys()
        if k not in parent or k not in change or canonical(parent[k]) != canonical(change[k])
    )


def compare(parent: Path, change: Path, configs: list[Path]) -> bool:
    """Run and compare every config; print one block each. True when all are equal."""
    all_equal = True
    for config in configs:
        print(config)
        records = {}
        for side, tree in (("parent", parent), ("change", change)):
            rec = records[side] = run_config(tree, config)
            if rec["status"] == "ok":
                print(f"  {side}: wall {rec['wall_s']:.3f} s, peak RSS {rec['peak_rss_mb']:.1f} MB")
            else:
                print(f"  {side}: FAILED {rec.get('error', rec['status'])}")
        if all(rec["status"] == "ok" for rec in records.values()):
            verdicts = {
                key: canonical(records["parent"][key]) == canonical(records["change"][key])
                for key in ("files", "headline")
            }
            print("  " + ", ".join(f"{k} {'equal' if ok else 'DIFFER'}" for k, ok in verdicts.items()))
            for key, ok in verdicts.items():
                if not ok:
                    names = differing(records["parent"][key], records["change"][key])
                    print(f"    {key} DIFFER at: {', '.join(names)}")
            all_equal &= all(verdicts.values())
        else:
            all_equal = False
    return all_equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("configs", type=Path, nargs="*",
                        help="config files (default: CHANGE/configs/*.cfg)")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    configs = [c.resolve() for c in args.configs] or sorted((change / "configs").glob("*.cfg"))
    if not configs:
        parser.error(f"no configs given and none under {change / 'configs'}")
    ok = compare(parent, change, configs)
    print("all equal" if ok else "DIFFERENCES or failed runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
