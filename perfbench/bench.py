"""Workloads, correctness checks and metrics of the spikedrop benchmark.

Each workload drives ``spikedrop.cli.main`` in this process as a closed loop:
one pass runs the workload's CLI stages back to back, each stage starting
when the previous one ends, and passes repeat while one more pass, as long
as the longest so far, still ends within the run's time. Inputs come only
from the workload seed and the pinned model fixture. README.md beside this
file lists every metric and why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_PATH = HERE / "fixtures" / "model.json"
REFERENCE_PATH = HERE / "fixtures" / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("spiking-mc", "analog-mc", "train")
REFERENCE_SEED = 0
# outputs are compared as |got - want| <= ATOL + RTOL * |want|; a reordered
# float sum (batched BLAS) stays orders of magnitude inside this
RTOL, ATOL = 1e-7, 1e-9
DT, TAU_SYN = 0.001, 0.005
TRAIN_BATCH, TRAIN_LR, TEST_FRACTION = 32, 3e-3, 0.2
CELL_DIM = DRUG_DIM = 8


@dataclass(frozen=True)
class Scale:
    """Problem size of one pass of each workload."""

    spiking_obs: int
    analog_obs: int
    draws: int
    steps: int
    burnin: int
    train_rows: int
    train_epochs: int
    oracle_pairs: int
    setup_reps: int


# criterion-5 shape for spiking-mc (100 draws x 350 ticks, burn-in 200);
# the pinned acceptance training config for train (1600 training rows)
FULL = Scale(spiking_obs=3, analog_obs=200, draws=100, steps=350, burnin=200,
             train_rows=2000, train_epochs=30, oracle_pairs=4, setup_reps=5)
# training keeps its full size: fewer minibatch updates miss the test-MSE gate
SMOKE = Scale(spiking_obs=2, analog_obs=6, draws=8, steps=40, burnin=20,
              train_rows=2000, train_epochs=30, oracle_pairs=3, setup_reps=1)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree or fixture)."""


# --- inputs -----------------------------------------------------------------

def feature_names():
    return ([f"cell_{i}" for i in range(CELL_DIM)]
            + [f"drug_a_{i}" for i in range(DRUG_DIM)]
            + [f"drug_b_{i}" for i in range(DRUG_DIM)])


def synth_rows(rng, n):
    """Features iid N(0, 1) and the drug-symmetric target documented in
    ``spikedrop.data.synth_combo``, generated here so that the inputs do not
    depend on the program under test."""
    x = rng.standard_normal((n, CELL_DIM + 2 * DRUG_DIM))
    s_cell = x[:, :CELL_DIM].sum(axis=1) / np.sqrt(CELL_DIM)
    s_a = x[:, CELL_DIM:CELL_DIM + DRUG_DIM].sum(axis=1) / np.sqrt(DRUG_DIM)
    s_b = x[:, CELL_DIM + DRUG_DIM:].sum(axis=1) / np.sqrt(DRUG_DIM)

    def h(s):
        return 0.6 * s + 0.4 * np.sin(s)

    y = (0.8 * s_cell + 0.3 * (s_cell ** 2 - 1.0) + h(s_a) + h(s_b)
         + 0.3 * s_a * s_b + 0.1 * rng.standard_normal(n))
    return x, y


def write_csv(path, x, y):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(feature_names() + ["target"])
        for row, target in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_fixtures():
    """The pinned acceptance model and the reference digests; the model is
    verified against the checksum recorded when it was trained."""
    if not MODEL_PATH.is_file() or not REFERENCE_PATH.is_file():
        raise BenchError(f"missing fixture under {MODEL_PATH.parent}")
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if file_sha256(MODEL_PATH) != reference["model_sha256"]:
        raise BenchError(f"{MODEL_PATH} does not match its recorded checksum")
    return json.loads(MODEL_PATH.read_text(encoding="utf-8")), reference


def spec_layers(model_doc):
    """(instance key, activation, in_dim, out_dim) in the network's order,
    read from the model file so that computed counts need no program code."""
    spec = model_doc["spec"]
    out = []
    for i, enc in enumerate(spec["encoders"]):
        for j, layer in enumerate(enc["layers"]):
            out.append((f"enc{i}:{j}", layer["activation"], layer["in_dim"], layer["out_dim"]))
    for j, layer in enumerate(spec["head"]):
        out.append((f"head:{j}", layer["activation"], layer["in_dim"], layer["out_dim"]))
    return out


# --- samples and reports, parsed here rather than by the program --------------

def read_samples(path):
    """(backend, array of shape (observations, draws)) from a samples file."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        lines = [line for line in f if line.strip() and not line.startswith("#")]
    reader = csv.reader(lines)
    if next(reader) != ["observation_id", "draw_id", "backend", "prediction"]:
        raise ValueError(f"{path}: unexpected header")
    for obs, draw, backend, value in reader:
        rows.append((int(obs), int(draw), backend, float(value)))
    backends = {r[2] for r in rows}
    n_obs = max(r[0] for r in rows) + 1
    n_draws = max(r[1] for r in rows) + 1
    if len(backends) != 1 or len(rows) != n_obs * n_draws:
        raise ValueError(f"{path}: {len(rows)} rows do not form one backend's grid")
    table = np.full((n_obs, n_draws), np.nan)
    for obs, draw, _, value in rows:
        table[obs, draw] = value
    return backends.pop(), table


def close(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= ATOL + RTOL * np.abs(want)))


def digest(values):
    """Count, mean, std and an evenly strided subsample of a value array."""
    v = np.asarray(values, dtype=float).ravel()
    stride = max(1, v.size // 64)
    return {"n": int(v.size), "mean": float(v.mean()), "std": float(v.std()),
            "sample": v[::stride].tolist()}


def digest_close(got, want):
    return (got["n"] == want["n"] and close(got["mean"], want["mean"])
            and close(got["std"], want["std"]) and close(got["sample"], want["sample"]))


# --- workloads --------------------------------------------------------------

@dataclass
class Stage:
    """One CLI invocation of a pass."""

    kind: str          # infer-analog, infer-spiking, compare or train
    argv: list
    items: int         # draws, observations or training rows it handles
    output: Path
    check: Callable    # (output path) -> list of failure messages
    base_seed: int = None  # mask base seed of an infer stage


class Workload:
    """Inputs, stages and checks of one workload at one seed."""

    def __init__(self, name, seed, scale, workdir, model_doc):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.scale, self.dir = name, seed, scale, Path(workdir)
        self.model_path = MODEL_PATH
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.ks_pvalues = []
        if name == "train":
            x, y = synth_rows(rng, scale.train_rows)
            self.data = self.dir / "train.csv"
            write_csv(self.data, x, y)
            self.targets_var = float(np.var(y))
            self.train_seed = int(rng.integers(2 ** 31))
            self.config = self.dir / "net.json"
            self.config.write_text(json.dumps(
                {"spec": model_doc["spec"], "neuron_params": model_doc["neuron_params"]}))
        else:
            n_obs = scale.spiking_obs if name == "spiking-mc" else scale.analog_obs
            self.x, y = synth_rows(rng, n_obs)
            self.data = self.dir / "obs.csv"
            write_csv(self.data, self.x, y)
            self.base_seed = int(rng.integers(2 ** 31))
            self.v0_seed = int(rng.integers(1, 2 ** 31))
            # analog-mc's second run uses the mask seeds right after the first's
            self.base_seed_b = self.base_seed + n_obs * scale.draws

    # stage builders ----------------------------------------------------------

    def _infer(self, backend, base_seed, out, draws):
        argv = ["infer", "--model", str(self.model_path), "--data", str(self.data),
                "--backend", backend, "--draws", str(draws), "--seed", str(base_seed),
                "--out", str(out)]
        if backend == "spiking":
            argv += ["--dt", repr(DT), "--steps", str(self.scale.steps),
                     "--burnin", str(self.scale.burnin), "--tausyn", repr(TAU_SYN),
                     "--v0-seed", str(self.v0_seed)]
        n_obs = len(self.x)
        return Stage(f"infer-{backend}", argv, n_obs * draws, Path(out),
                     lambda path: self._check_samples(path, backend, n_obs, draws), base_seed)

    def _compare(self, a, b, out):
        n_obs = len(self.x)
        return Stage("compare", ["compare", "--a", str(a), "--b", str(b), "--out", str(out)],
                     n_obs, Path(out), lambda path: self._check_report(path, n_obs))

    def stages(self, warmup=False):
        """The stages of one pass; ``warmup`` shrinks them to touch every code
        path once before timing starts."""
        d = self.dir
        if self.name == "train":
            epochs = 1 if warmup else self.scale.train_epochs
            out = d / "model.json"
            argv = ["train", "--spec", str(self.config), "--data", str(self.data),
                    "--out", str(out), "--epochs", str(epochs), "--batch", str(TRAIN_BATCH),
                    "--lr", repr(TRAIN_LR), "--seed", str(self.train_seed),
                    "--test-fraction", repr(TEST_FRACTION)]
            n_train = self.scale.train_rows - int(round(self.scale.train_rows * TEST_FRACTION))
            return [Stage("train", argv, epochs * n_train, out,
                          lambda path: self._check_train(path, epochs))]
        draws = 2 if warmup else self.scale.draws
        if self.name == "spiking-mc":
            return [self._infer("analog", self.base_seed, d / "analog.csv", draws),
                    self._infer("spiking", self.base_seed, d / "spiking.csv", draws),
                    self._compare(d / "analog.csv", d / "spiking.csv", d / "report.json")]
        return [self._infer("analog", self.base_seed, d / "analog_a.csv", draws),
                self._infer("analog", self.base_seed_b, d / "analog_b.csv", draws),
                self._compare(d / "analog_a.csv", d / "analog_b.csv", d / "report.json")]

    # per-stage output checks -------------------------------------------------

    def _check_samples(self, path, backend, n_obs, draws):
        got_backend, table = read_samples(path)
        if got_backend != backend or table.shape != (n_obs, draws):
            return [f"{path.name}: {got_backend} {table.shape}, want {backend} {(n_obs, draws)}"]
        if not np.isfinite(table).all():
            return [f"{path.name}: non-finite draw"]
        return []

    def _check_report(self, path, n_obs):
        report = json.loads(path.read_text(encoding="utf-8"))
        pvalues = [o["p_value"] for o in report["per_observation"]]
        if len(pvalues) != n_obs or not all(0.0 <= p <= 1.0 for p in pvalues):
            return [f"{path.name}: {len(pvalues)} p-values, want {n_obs} in [0, 1]"]
        self.ks_pvalues = pvalues
        return []

    def _check_train(self, path, epochs):
        model = json.loads(path.read_text(encoding="utf-8"))
        with open(str(path) + ".history.csv", "r", encoding="utf-8") as f:
            history = list(csv.DictReader(f))
        if model.get("format") != "spikedrop-model" or len(history) != epochs:
            return [f"{path.name}: {len(history)} history rows, want {epochs}"]
        test_mse = float(history[-1]["test_mse"])
        # criterion-8 gate, against the variance of every target in the file
        if not test_mse < 0.5 * self.targets_var:
            return [f"test MSE {test_mse:.4f} >= 0.5 * target variance {self.targets_var:.4f}"]
        return []

    # checks made once per run, outside the timed passes ------------------------

    def sample_tables(self):
        """(backend, mask base seed, observations x draws array) per samples file."""
        return [(s.kind.split("-")[1], s.base_seed, read_samples(s.output)[1])
                for s in self.stages() if s.base_seed is not None and s.output.exists()]

    def oracle(self, sd, tables):
        """Recompute sampled (observation, draw) pairs through the public
        per-draw path and compare with the files; returns (checked, failures).

        Draw k of observation row r uses mask seed base + r * draws + k and,
        when spiking, v0 seed v0_seed + k (the seed rule of ``infer``).
        """
        if not tables:
            return 0, []
        model = sd.load_model(self.model_path)
        failures = []
        checked = 0
        for kind, base, table in tables:
            n_obs, draws = table.shape
            net = None
            for r, k in self.oracle_pairs(base, table.shape):
                checked += 1
                try:
                    masks = sd.sample_masks(model.spec, base + r * draws + k)
                    if kind == "spiking":
                        if net is None:
                            net = sd.convert(model.spec, model.weights, model.neuron_params)
                        sim = sd.SimConfig(dt=DT, n_steps=self.scale.steps,
                                           burn_in_steps=self.scale.burnin, tau_syn=TAU_SYN,
                                           v0_seed=self.v0_seed + k)
                        want = sd.summarize_trace(sd.simulate(net, self.x[r], masks, sim),
                                                  self.scale.burnin)
                    else:
                        want = sd.forward(model.spec, model.weights, self.x[r], masks,
                                          model.neuron_params)[0][0]
                except (TypeError, AttributeError, ValueError) as exc:
                    failures.append(f"{kind} observation {r} draw {k}: per-draw path failed: {exc}")
                    continue
                if not close(table[r, k], want):
                    failures.append(f"{kind} observation {r} draw {k}: "
                                    f"file {table[r, k]!r}, per-draw path {float(want)!r}")
        return checked, failures

    def oracle_pairs(self, base_seed, shape):
        """The (observation, draw) pairs the oracle recomputes for one file."""
        rng = np.random.default_rng([self.seed, base_seed])
        return [(int(rng.integers(shape[0])), int(rng.integers(shape[1])))
                for _ in range(self.scale.oracle_pairs)]

    def output_digest(self):
        """Digest of this pass's outputs, compared at the reference seed."""
        if self.name == "train":
            model = json.loads((self.dir / "model.json").read_text(encoding="utf-8"))
            weights = [v for key in sorted(model["weights"])
                       for part in ("weight", "bias")
                       for v in np.ravel(model["weights"][key][part])]
            with open(self.dir / "model.json.history.csv", "r", encoding="utf-8") as f:
                last = list(csv.DictReader(f))[-1]
            return {"train_mse": float(last["train_mse"]), "test_mse": float(last["test_mse"]),
                    "weights": digest(weights)}
        out = {s.output.name: digest(read_samples(s.output)[1])
               for s in self.stages() if s.base_seed is not None}
        out["p_values"] = digest(self.ks_pvalues)
        return out


def digests_match(got, want):
    for key, value in want.items():
        if isinstance(value, dict) and not digest_close(got[key], value):
            return False
        if not isinstance(value, dict) and not close(got[key], value):
            return False
    return set(got) == set(want)


# --- run --------------------------------------------------------------------

def run_stage(cli, stage):
    """Run one stage; returns (seconds, failure messages)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = cli.main(stage.argv)
        seconds = time.perf_counter() - start
    if code != 0:
        return seconds, [f"{stage.kind} exited {code}"]
    try:
        return seconds, stage.check(stage.output)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return seconds, [f"{stage.kind}: unreadable output {stage.output.name}: {exc}"]


def setup_times(workload, reps):
    """Wall seconds of fresh interpreters that import spikedrop and load the
    workload's inputs, as the CLI does before its first stage works."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(ROOT / "src"), str(workload.data)]
    if workload.name != "train":
        cmd.append(str(workload.model_path))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def environment():
    """The run environment recorded beside each result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "SPIKEDROP_THREADS": os.environ.get("SPIKEDROP_THREADS", "unset"),
    }


class SimulateProbe:
    """Tick and neuron-tick counts of the traced simulations. Ticks and the
    neuron-ticks the masks keep come from each ``snn.simulate`` call; the
    neuron-ticks actually stepped are the sizes of the voltage vectors passed
    to ``neuron.lif_step_arrays``."""

    def __init__(self, simulate, layers):
        self.bind = inspect.signature(simulate).bind
        self.spiking = {key: width for key, act, _, width in layers if act == "softlif"}
        self.ticks = 0
        self.kept_neuron_ticks = 0
        self.stepped_neuron_ticks = 0

    def simulate(self, args, kwargs, seconds):
        call = self.bind(*args, **kwargs).arguments
        steps = int(call["sim"].n_steps)
        masks = call["masks"]
        kept = sum(float(np.sum(np.asarray(masks[key]) > 0))
                   if masks is not None and key in masks else width
                   for key, width in self.spiking.items())
        self.ticks += steps
        self.kept_neuron_ticks += kept * steps

    def lif_step(self, args, kwargs, seconds):
        self.stepped_neuron_ticks += np.asarray(args[0] if args else kwargs["voltage"]).size


class DrawProbe:
    """Per-observation seconds of traced ``predictive_distribution`` calls."""

    def __init__(self, predictive_distribution):
        self.bind = inspect.signature(predictive_distribution).bind
        self.seconds = {"analog": [], "spiking": []}

    def __call__(self, args, kwargs, seconds):
        backend = str(self.bind(*args, **kwargs).arguments["backend"])
        self.seconds.setdefault(backend, []).append(seconds)


def computed_tick_cost(layers):
    """Floating-point operations and bytes of one simulation tick, computed
    from the layer shapes: 2 * in * out flop per affine layer; float64 weights,
    bias, input and current each touched once, plus the three state vectors
    (voltage, refractory clock, synaptic filter) read and written per spiking
    layer. Cache reuse is ignored."""
    flops = sum(2 * n_in * n_out for _, _, n_in, n_out in layers)
    nbytes = sum(8 * (n_in * n_out + n_in + 2 * n_out) + (48 * n_out if act == "softlif" else 0)
                 for _, act, n_in, n_out in layers)
    return flops, nbytes


def run(name, seed, seconds, trace, scale=FULL):
    """Run one workload from the source tree on ``sys.path``; prints a report
    and returns the result object."""
    model_doc, reference = load_fixtures()
    import spikedrop as sd
    import spikedrop.cli as cli
    src = ROOT / "src" / "spikedrop"
    if Path(sd.__file__).resolve().parent != src.resolve():
        raise BenchError(f"imported spikedrop from {sd.__file__}, not from {src}")

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(sd, cli, name, seed, seconds, trace, scale, model_doc, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(sd, cli, name, seed, seconds, trace, scale, model_doc, reference, workdir):
    wl = Workload(name, seed, scale, workdir, model_doc)
    attempted = 0
    failures = []  # one message per failed operation

    def record(ops, msgs):
        nonlocal attempted
        attempted += ops
        failures.extend(msgs)

    setup = setup_times(wl, scale.setup_reps)
    layers = spec_layers(model_doc)
    sim_probe = SimulateProbe(sd.simulate, layers)
    draw_probe = DrawProbe(sd.predictive_distribution)
    tracer = Tracer(hooks={"snn.simulate": sim_probe.simulate,
                           "neuron.lif_step_arrays": sim_probe.lif_step,
                           "mcinfer.predictive_distribution": draw_probe})

    for stage in wl.stages(warmup=True):
        run_stage(cli, stage)

    passes = []  # (traced, wall seconds, {stage kind: [(seconds, items)]})
    hashes = []
    min_passes = 2 if trace else 1  # a traced run needs a plain and a traced pass
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while len(passes) < min_passes or time.perf_counter() + longest <= deadline:
        pass_start = time.perf_counter()
        traced = bool(trace) and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        stage_times = {}
        wall = 0.0
        try:
            for stage in wl.stages():
                secs, msgs = run_stage(cli, stage)
                wall += secs
                stage_times.setdefault(stage.kind, []).append((secs, stage.items))
                record(1, ["; ".join(msgs)] if msgs else [])
        finally:
            tracer.uninstall()
        passes.append((traced, wall, stage_times))
        hashes.append([file_sha256(s.output) if s.output.exists() else None
                       for s in wl.stages()])
        longest = max(longest, time.perf_counter() - pass_start)

    # the same inputs and flags must give byte-identical outputs every pass
    record(1, [] if all(h == hashes[0] for h in hashes) else ["outputs differ between passes"])
    record(*wl.oracle(sd, wl.sample_tables()))
    if seed == REFERENCE_SEED and scale == FULL:
        ok = digests_match(wl.output_digest(), reference["digests"][name])
        record(1, [] if ok else [f"outputs differ from the seed-{seed} reference digest"])
    failed = len(failures)

    plain = [p for p in passes if not p[0]]
    pipeline_s = statistics.median(p[1] for p in plain)

    def rate(kinds):
        """Median over untraced passes of items per second of these stages."""
        per_pass = []
        for _, _, times in plain:
            entries = [e for kind in kinds for e in times.get(kind, [])]
            if entries:
                per_pass.append(sum(i for _, i in entries) / sum(s for s, _ in entries))
        return statistics.median(per_pass) if per_pass else None

    main_stage = {"spiking-mc": ["infer-spiking"], "analog-mc": ["infer-analog"],
                  "train": ["train"]}[name]
    ks = wl.ks_pvalues
    report = {
        "spiking_draws_per_s": (rate(["infer-spiking"]), "1/s"),
        "analog_draws_per_s": (rate(["infer-analog"]), "1/s"),
        "compare_obs_per_s": (rate(["compare"]), "1/s"),
        "train_rows_per_s": (rate(["train"]), "1/s"),
        "failed_frac": (failed / attempted, "fraction"),
        "ks_reject_frac": (sum(p < 0.05 for p in ks) / len(ks) if ks else None, "fraction"),
    }
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "pipeline_s": (pipeline_s, "s"),
        "items_per_s": (rate(main_stage), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    print("context " + json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                   "trace": trace,
                                   "pass_s": [round(p[1], 4) for p in passes],
                                   "traced_passes": [i for i, p in enumerate(passes) if p[0]],
                                   "setup_samples": len(setup), **environment()}))
    for key, (value, unit) in {**end_to_end, **report}.items():
        if value is not None:
            print(f"metric {key} {value:.6g} {unit}")
    for msg in failures:
        print(f"failed {msg}")

    if trace:
        metrics = layer_metrics(tracer, passes, layers, sim_probe, draw_probe)
        tracer.write(WORK_ROOT / f"trace-{name}-{seed}.json")
    else:
        metrics = end_to_end
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, passes, layers, sim_probe, draw_probe):
    """Per-layer metrics of the traced passes, per traced pass."""
    traced = [p for p in passes if p[0]]
    plain = [p for p in passes if not p[0]]
    n = len(traced)
    traced_s = sum(p[1] for p in traced)

    def calls(span):
        return tracer.calls.get(span, 0) / n

    def per_call(span, scale):
        c = tracer.calls.get(span, 0)
        return tracer.total.get(span, 0.0) / c * scale if c else 0.0

    def total(span, scale=1.0):
        return tracer.total.get(span, 0.0) / n * scale

    def self_s(span):
        return tracer.self_seconds(span) / n

    def ms_at(values, q):
        return float(np.percentile(values, q)) * 1e3 if values else 0.0

    flops, nbytes = computed_tick_cost(layers)
    sim_s = tracer.total.get("snn.simulate", 0.0)
    m = {
        "snn.simulate.calls": (calls("snn.simulate"), "count"),
        "snn.simulate.ms_per_call": (per_call("snn.simulate", 1e3), "ms"),
        "snn.simulate.self_s": (self_s("snn.simulate"), "s"),
        "snn.simulate.frac": (sim_s / traced_s, "fraction"),
        "snn.us_per_tick_draw": (sim_s / sim_probe.ticks * 1e6 if sim_probe.ticks else 0.0, "us"),
        "snn.flops_per_tick": (float(flops), "flop"),
        "snn.bytes_per_tick": (float(nbytes), "B"),
        "snn.mflops_per_s": (flops * sim_probe.ticks / sim_s / 1e6 if sim_s else 0.0, "MFLOP/s"),
        "snn.active_neuron_frac": (sim_probe.kept_neuron_ticks / sim_probe.stepped_neuron_ticks
                                   if sim_probe.stepped_neuron_ticks else 0.0, "fraction"),
        "neuron.lif_step_arrays.calls": (calls("neuron.lif_step_arrays"), "count"),
        "neuron.lif_step_arrays.us_per_call": (per_call("neuron.lif_step_arrays", 1e6), "us"),
        "network.forward.calls": (calls("network.forward"), "count"),
        "network.forward.us_per_call": (per_call("network.forward", 1e6), "us"),
        "neuron.softlif_rate.us_per_call": (per_call("neuron.softlif_rate", 1e6), "us"),
        "network.sample_masks.calls": (calls("network.sample_masks"), "count"),
        "network.sample_masks.us_per_call": (per_call("network.sample_masks", 1e6), "us"),
        "training.backward.calls": (calls("training.backward"), "count"),
        "training.backward.us_per_call": (per_call("training.backward", 1e6), "us"),
        "neuron.softlif_rate_grad.us_per_call": (per_call("neuron.softlif_rate_grad", 1e6), "us"),
        "training.train.self_s": (self_s("training.train"), "s"),
        "convert.convert.calls": (calls("convert.convert"), "count"),
        "convert.convert.us_per_call": (per_call("convert.convert", 1e6), "us"),
        "mcinfer.predictive_distribution.calls": (calls("mcinfer.predictive_distribution"), "count"),
        "mcinfer.predictive_distribution.self_s": (self_s("mcinfer.predictive_distribution"), "s"),
        "mcinfer.analog.obs_p50_ms": (ms_at(draw_probe.seconds["analog"], 50), "ms"),
        "mcinfer.analog.obs_max_ms": (ms_at(draw_probe.seconds["analog"], 100), "ms"),
        "mcinfer.spiking.obs_p50_ms": (ms_at(draw_probe.seconds["spiking"], 50), "ms"),
        "mcinfer.spiking.obs_max_ms": (ms_at(draw_probe.seconds["spiking"], 100), "ms"),
        "mcinfer.write_samples.s": (total("mcinfer.write_samples"), "s"),
        "mcinfer.read_samples.s": (total("mcinfer.read_samples"), "s"),
        "stats.ks_two_sample.calls": (calls("stats.ks_two_sample"), "count"),
        "stats.ks_two_sample.us_per_call": (per_call("stats.ks_two_sample", 1e6), "us"),
        "stats.pvalue_uniformity.ms": (total("stats.pvalue_uniformity", 1e3), "ms"),
        "data.load_csv.s": (total("data.load_csv"), "s"),
        "network.load_model.ms": (total("network.load_model", 1e3), "ms"),
        "cli.train.s": (total("cli.train"), "s"),
        "cli.infer.s": (total("cli.infer"), "s"),
        "cli.compare.s": (total("cli.compare"), "s"),
        "cli.self_s": (tracer.module_self_seconds("cli") / n, "s"),
    }
    for module in MODULES:
        m[f"{module}.self_frac"] = (tracer.module_self_seconds(module) / traced_s, "fraction")
    m["trace.coverage_frac"] = (tracer.top_level_s / traced_s, "fraction")
    m["trace_overhead_frac"] = (statistics.median(p[1] for p in traced)
                                / statistics.median(p[1] for p in plain) - 1.0, "fraction")
    return m
