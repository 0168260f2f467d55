"""Tests of the benchmark itself; run from the repository root with

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=bench.ROOT, root=bench.ROOT, timeout=300):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_emits_every_named_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_oracle_rejects_a_perturbed_draw(tmp_path):
    model_doc, _ = bench.load_fixtures()
    wl = bench.Workload("spiking-mc", 5, bench.SMOKE, tmp_path, model_doc)
    import spikedrop as sd
    import spikedrop.cli as cli
    for stage in wl.stages():
        assert bench.run_stage(cli, stage)[1] == []
    tables = wl.sample_tables()
    checked, failures = wl.oracle(sd, tables)
    assert checked == 2 * bench.SMOKE.oracle_pairs and failures == []

    kind, base, table = tables[1]
    pairs = wl.oracle_pairs(base, table.shape)
    r, k = pairs[0]
    table[r, k] += 1e-6 * max(1.0, abs(table[r, k]))
    checked, failures = wl.oracle(sd, tables)
    assert len(failures) == pairs.count((r, k))
    assert all(f"{kind} observation {r} draw {k}" in f for f in failures)


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, root=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_reference_seed_matches_recorded_digest(workload):
    """One full-size pass at the reference seed, which also checks the
    outputs against the digests recorded in fixtures/reference.json."""
    proc = run_bench("--workload", workload, "--seed", str(bench.REFERENCE_SEED),
                     "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout


def test_digest_tolerance_separates_reordering_from_change():
    want = bench.digest(np.linspace(-1.0, 1.0, 500))
    assert bench.digest_close(bench.digest(np.linspace(-1.0, 1.0, 500) * (1 + 1e-13)), want)
    assert not bench.digest_close(bench.digest(np.linspace(-1.0, 1.0, 500) * (1 + 1e-5)), want)
