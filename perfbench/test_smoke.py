"""Smoke test of the benchmark at n = 1,500: every workload once, untraced and traced.

    python -m pytest -q perfbench

The traced run repeats each operation untraced and traced and fails on any
difference in outputs, so these cases also check that tracing is
transparent.  Takes about two minutes, most of it in the FPCA fit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_checks_pass_and_reports_declared_metrics(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", 3, "--seconds", 1,
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def load_bench():
    sys.path.insert(0, str(HERE))
    import run as bench

    return bench


def test_layer_metrics_name_traced_spans():
    """Every declared per-layer metric is produced by some workload's trace."""
    bench = load_bench()
    spans = {f"{mod.__name__.rsplit('.', 1)[-1]}.{fn}"
             for mod, fn, _ in bench.traced_layers()}
    for workload in bench.WORKLOADS.values():
        if hasattr(workload, "steps"):
            spans |= {name for name, _ in workload(0, 10, ROOT).steps(ROOT, 0)}
    for m in SPEC["per_layer"]:
        layer = m["name"].rsplit(".", 1)[0]
        assert layer in spans or layer == "bench", m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = run(tmp_path, "--workload", "replicate", "--seed", 1, "--seconds", 1,
               "--trace", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("error", [TypeError("a defect"), None])
def test_raising_replicates_make_the_run_incorrect(monkeypatch, capsys, error):
    """A defect, or a domain error on every replicate, fails the run."""
    bench = load_bench()
    error = error or bench.ConvergenceError("no convergence")

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(bench.simulate, "run_replicate", boom)
    code = bench.main(["--workload", "replicate", "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
