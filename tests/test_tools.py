import json
import subprocess
import sys
from pathlib import Path

import pytest

from hmflab.config import load_config

ROOT = Path(__file__).resolve().parent.parent
COMPARE = ROOT / "tools" / "compare_trees.py"
BENCH = ROOT / "tools" / "bench.py"
PERFBENCH = ROOT / "perfbench" / "run.py"


def compare_trees(*args):
    return subprocess.run([sys.executable, str(COMPARE), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def stub_tree(root: Path, headline: str, load: str = "return path",
              files: str = "{'a.csv': '00'}") -> Path:
    """A tree whose ``hmflab`` runs nothing and reports ``files`` and ``headline``."""
    pkg = root / "src" / "hmflab"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "config.py").write_text(f"def load_config(path):\n    {load}\n")
    (pkg / "runner.py").write_text(
        "class _Manifest:\n    data = None\n\n"
        "def run(cfg, out_root):\n"
        "    m = _Manifest()\n"
        f"    m.data = {{'status': 'ok', 'files': {files}, 'headline': {headline}}}\n"
        "    return m\n"
    )
    return root


class TestCompareTrees:
    def test_checkout_equals_itself(self):
        done = compare_trees(ROOT, ROOT, ROOT / "configs" / "bgk.cfg", ROOT / "configs" / "weights.cfg")
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.count("files equal, headline equal") == 2
        assert "peak RSS" in done.stdout

    def test_nan_headline_equals_itself(self, tmp_path):
        a = stub_tree(tmp_path / "a", "{'rate': float('nan')}")
        b = stub_tree(tmp_path / "b", "{'rate': float('nan')}")
        done = compare_trees(a, b, ROOT / "configs" / "bgk.cfg")
        assert done.returncode == 0, done.stdout + done.stderr

    def test_headline_difference_exits_1(self, tmp_path):
        a = stub_tree(tmp_path / "a", "{'rate': 1.0}")
        b = stub_tree(tmp_path / "b", "{'rate': 1.0000000000000002}")
        done = compare_trees(a, b, ROOT / "configs" / "bgk.cfg")
        assert done.returncode == 1
        assert "files equal, headline DIFFER" in done.stdout
        assert "headline DIFFER at: rate\n" in done.stdout

    def test_names_the_differing_files_and_keys(self, tmp_path):
        a = stub_tree(tmp_path / "a", "{'rate': 1.0, 'n': 2, 'old': 0}",
                      files="{'a.csv': '00', 'b.bin': '01', 'c.json': '02'}")
        b = stub_tree(tmp_path / "b", "{'rate': 1.0, 'n': 3, 'new': 0}",
                      files="{'a.csv': '00', 'b.bin': '11', 'd.json': '02'}")
        done = compare_trees(a, b, ROOT / "configs" / "bgk.cfg")
        assert done.returncode == 1
        assert "files DIFFER, headline DIFFER" in done.stdout
        assert "files DIFFER at: b.bin, c.json, d.json\n" in done.stdout
        assert "headline DIFFER at: n, new, old\n" in done.stdout

    def test_failed_run_exits_1(self, tmp_path):
        a = stub_tree(tmp_path / "a", "{}")
        b = stub_tree(tmp_path / "b", "{}", load="raise ValueError('bad config')")
        done = compare_trees(a, b, ROOT / "configs" / "bgk.cfg")
        assert done.returncode == 1
        assert "change: FAILED ValueError: bad config" in done.stdout


class TestBench:
    def test_checkout_against_itself_record_keys(self, tmp_path):
        out = tmp_path / "BENCH_self.json"
        done = subprocess.run(
            [sys.executable, str(BENCH), str(ROOT), str(ROOT), "--out", str(out), "--pairs", "1",
             str(ROOT / "configs" / "bgk.cfg"), str(ROOT / "configs" / "weights.cfg")],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        record = json.loads(out.read_text())
        assert set(record) == {"pairs", "started", "machine", "trees", "configs", "workloads"}
        assert record["pairs"] == 1 and record["workloads"] == {}
        assert {"python", "numpy", "nproc", "cpu_model", "loadavg_at_start", "loadavg_at_end"} <= set(
            record["machine"]
        )
        assert record["trees"]["parent"] == record["trees"]["change"]
        assert set(record["trees"]["change"]) == {"src_sha256", "commit", "src_dirty"}
        assert set(record["configs"]) == {"bgk.cfg", "weights.cfg"}
        for entry in record["configs"].values():
            assert entry["ok"] and entry["files_equal"] and entry["headline_equal"]
            assert 0.0 <= entry["change_faster_share"] <= 1.0
            for side in ("parent", "change"):
                assert entry[side]["status"] == ["ok"]
                # one extra, untimed run under tracemalloc: its heap peak
                assert entry[side]["traced_peak_mb"] > 0
                for metric in ("wall_s", "peak_rss_mb"):
                    summary = entry[side][metric]
                    assert set(summary) == {"samples", "min", "q1", "median", "q3"}
                    assert len(summary["samples"]) == 1
                    assert summary["min"] == summary["median"] == summary["samples"][0] > 0

    def test_needs_a_config_or_workload(self, tmp_path):
        done = subprocess.run(
            [sys.executable, str(BENCH), str(ROOT), str(ROOT), "--out", str(tmp_path / "b.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert "give at least one config or --workload" in done.stderr
        assert not (tmp_path / "b.json").exists()


def test_long_window_config_loads():
    """tools/long_window.cfg is one backward window of criterion 4's shape, outside configs/."""
    cfg = load_config(ROOT / "tools" / "long_window.cfg")
    v = cfg.values
    assert cfg.scenario == "backward"
    assert (v["grid.n_max"], v["grid.xi_max"], v["grid.d_xi"]) == (4, 44.0, 0.05)
    assert (v["evolve.epsilon"], v["evolve.d_t"], v["evolve.T"], v["picard.tol"]) == (0.01, 0.01, 40.0, 1e-6)
    assert v["backward.T_list"] is None
    assert not (ROOT / "configs" / "long_window.cfg").exists()


@pytest.mark.parametrize("trace", [0, 1])
def test_perfbench_solvers_smoke(trace):
    """perfbench's worker runs the solvers workload on this checkout and checks every solve.

    It wraps ``forward_solve(h0, params)`` and ``backward_solve(config, ...)``,
    and a traced run also fails a repetition whose ``rhs_coeffs``,
    ``shift_rows`` or ``extract_zeta`` count differs from the one its steps
    and sweeps imply.
    """
    done = subprocess.run(
        [sys.executable, str(PERFBENCH), "--workload", "solvers", "--seed", "1",
         "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1, done.stdout
