"""Deterministic, bit-stable result serialization.

Every float is written with 17 significant digits so parsing the text
back reproduces the exact binary value.  Time series go to CSV, scalar
reports to JSON, and field snapshots to a raw little-endian block with a
JSON sidecar: magic ``HMF1``, then snapshot count and grid dimensions as
int64, then complex coefficients as interleaved float64 pairs in
(snapshot, mode, frequency) order.  The file keeps the full mode layout
n = -n_max .. n_max: a trajectory stores rows n >= 0 only, and the writer
adds the mirror rows one snapshot at a time.  The manifest is written last
via an atomic rename, so its presence marks a completed run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .evolution import Trajectory
from .spectral import Grid

SNAPSHOT_MAGIC = b"HMF1"
_SNAPSHOT_HEADER = 4 + 3 * 8  # magic, then int64 (count, n_modes, n_xi)
MANIFEST_NAMES = ("manifest.json", "manifest.json.tmp")


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length ``columns`` under ``header``, the bytes ``fmt`` gives per value.

    A float64 ndarray column becomes Python floats by one ``tolist`` and is
    formatted by the row template's ``{:.17g}``, the spec ``fmt`` uses for
    floats; any other column goes through ``fmt`` value by value first.
    """
    cells, specs = [], []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            cells.append(col.tolist())
            specs.append("{:.17g}")
        else:
            cells.append([fmt(v) for v in col])
            specs.append("{}")
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in cells]}")
    row = ",".join(specs).format
    lines = [",".join(header), *(row(*values) for values in zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{_emit_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return json.dumps(str(float(obj)))  # JSON has no nan or inf literal
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return fmt(obj)
    if isinstance(obj, complex):
        return _emit_json({"re": obj.real, "im": obj.imag}, indent)
    return json.dumps(str(obj))


def write_json(path, obj) -> None:
    Path(path).write_text(_emit_json(obj) + "\n", encoding="utf-8")


def write_snapshots(path_bin, path_sidecar, traj: Trajectory) -> None:
    """Write ``traj``'s snapshots as HMF1 (count, n_modes, n_xi) plus its JSON sidecar.

    Each snapshot goes out as ``traj.full_state(m)``, the half block's rows
    with the mirror rows added, in one reused buffer, so the write holds at
    most one full snapshot beside the block.
    """
    grid = traj.grid
    count = len(traj.times)
    buf = np.empty((grid.n_modes, grid.n_xi), dtype="<c16")
    with open(path_bin, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(np.array((count, grid.n_modes, grid.n_xi), dtype="<i8").tobytes())
        for m in range(count):
            fh.write(np.ascontiguousarray(traj.full_state(m, buf), dtype="<c16").data)
    write_json(
        path_sidecar,
        {
            "format": "HMF1",
            "layout": "magic, int64[3] = (count, n_modes, n_xi), complex128 LE interleaved, snapshot/mode-major",
            "count": count,
            "n_modes": grid.n_modes,
            "n_xi": grid.n_xi,
            "grid": {
                "n_max": grid.n_max,
                "xi_max": grid.xi_max,
                "d_xi": grid.d_xi,
                "t_final": grid.t_final,
            },
            "times": [float(t) for t in traj.times],
        },
    )


def read_snapshots(path_bin, grid: Grid) -> np.ndarray:
    """The (count, n_modes, n_xi) block of an HMF1 file, read-only, checked against ``grid``.

    The header must match ``grid``, name at least one snapshot, and account
    for every byte of the file.
    """
    raw = Path(path_bin).read_bytes()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {raw[:4]!r}")
    if len(raw) < _SNAPSHOT_HEADER:
        raise ValueError(f"snapshot file of {len(raw)} bytes is shorter than its header")
    dims = np.frombuffer(raw, dtype="<i8", count=3, offset=4)
    count, n_modes, n_xi = (int(d) for d in dims)
    if (n_modes, n_xi) != (grid.n_modes, grid.n_xi):
        raise ValueError(
            f"snapshot file holds ({n_modes}, {n_xi}) blocks, grid needs "
            f"({grid.n_modes}, {grid.n_xi})"
        )
    if count < 1:
        raise ValueError(f"snapshot file header counts {count} snapshots, need at least 1")
    size = _SNAPSHOT_HEADER + 16 * count * n_modes * n_xi
    if len(raw) != size:
        raise ValueError(
            f"snapshot file holds {len(raw)} bytes, its header of {count} snapshots "
            f"of ({n_modes}, {n_xi}) needs {size}"
        )
    data = np.frombuffer(raw, dtype="<c16", offset=_SNAPSHOT_HEADER)
    return data.reshape(count, n_modes, n_xi)


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest_atomic(out_dir, manifest: dict) -> Path:
    """Write ``manifest`` with a sha256 per artifact under ``out_dir``.

    Manifests, sweep members' included, are left out of the map: they hold
    wall times, and the map must repeat between runs of one config.
    """
    out_dir = Path(out_dir)
    files = sorted(
        str(p.relative_to(out_dir))
        for p in out_dir.rglob("*")
        if p.is_file() and p.name not in MANIFEST_NAMES
    )
    manifest["files"] = {name: sha256_of(out_dir / name) for name in files}
    tmp = out_dir / "manifest.json.tmp"
    write_json(tmp, manifest)
    final = out_dir / "manifest.json"
    os.replace(tmp, final)
    return final
