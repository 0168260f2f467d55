#!/usr/bin/env python3
"""Regenerate the benchmark fixtures from the program in ``src``.

    python3 perfbench/make_fixtures.py

Trains the pinned acceptance model through the CLI (2000 synthetic rows at
seed 0, shared 48-wide towers, affine readout, keep probability 0.9,
tau_ref 20 ms, gamma 0.002, 150 epochs, batch 32, lr 3e-3, seed 0) into
``fixtures/model.json``, then records the model's checksum and the output
digests of one pass of every workload at the reference seed in
``fixtures/reference.json``. Run it only on a commit whose outputs are the
reference; the benchmark compares later commits against these files.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPIKEDROP_THREADS", None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import spikedrop.cli as cli  # noqa: E402


def sh(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"spikedrop {' '.join(argv)} failed")


def main():
    work = bench.WORK_ROOT / f"fixtures-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        data, spec = work / "combo.csv", work / "net.json"
        sh(["synth", "--n", "2000", "--cell-dim", "8", "--drug-dim", "8",
            "--noise-std", "0.1", "--seed", "0", "--out", str(data)])
        sh(["init-spec", "--cell-dim", "8", "--drug-dim", "8", "--cell-hidden", "48",
            "--drug-hidden", "48", "--head-hidden", "0", "--keep-prob", "0.9",
            "--tau-ref", "0.02", "--gamma", "0.002", "--out", str(spec)])
        sh(["train", "--spec", str(spec), "--data", str(data), "--out", str(bench.MODEL_PATH),
            "--epochs", "150", "--batch", "32", "--lr", "3e-3", "--seed", "0",
            "--history", str(work / "history.csv")])
        model_doc = json.loads(bench.MODEL_PATH.read_text(encoding="utf-8"))
        digests = {}
        for name in bench.WORKLOADS:
            wdir = work / name
            wdir.mkdir()
            wl = bench.Workload(name, bench.REFERENCE_SEED, bench.FULL, wdir, model_doc)
            for stage in wl.stages():
                _, failures = bench.run_stage(cli, stage)
                if failures:
                    raise SystemExit(f"{name}: {failures}")
            digests[name] = wl.output_digest()
        reference = {"model_sha256": bench.file_sha256(bench.MODEL_PATH),
                     "reference_seed": bench.REFERENCE_SEED, "digests": digests}
        bench.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
