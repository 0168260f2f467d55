"""Monte-Carlo dropout inference: per-observation predictive distributions.

Draw k of a sample set uses the mask seed ``base_seed + k``, so draws are
reproducible and order-independent, and an analog and a spiking run given the
same base seed evaluate the same mask sequence. The cross-backend comparison
is then a paired comparison of the two evaluators. Each spiking draw is an
independent simulation run and starts from its own initial-voltage draw
(seed ``v0_seed + k``, applied by the simulator); ``v0_seed = 0`` keeps every
run at the all-zero start. Both backends evaluate the draws of one
observation in blocks of at most ``_BLOCK_DRAWS``, each block's dropout
scales drawn in one call: the analog draws of a block are one batched forward
pass, the spiking draws one batched simulation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .convert import convert
from .network import InvalidNetworkError, NetworkSpec, WeightStore, _draw_scales, _forward
from .neuron import NeuronParams
from .snn import SimConfig, _draw_means

BACKENDS = ("analog", "spiking")

# the most draws evaluated together; bounds memory whatever the draw count
_BLOCK_DRAWS = 256


@dataclass
class SampleSet:
    """Predictive draws for one observation under one backend."""

    observation_id: int
    draws: np.ndarray
    backend: str
    base_seed: int


def predictive_distribution(spec: NetworkSpec, weights: WeightStore,
                            params: NeuronParams, observation, n_draws: int,
                            base_seed: int, backend: str,
                            sim: SimConfig = None,
                            observation_id: int = 0) -> SampleSet:
    """Build a predictive distribution from repeated masked evaluations.

    analog: masked forward passes. spiking: one simulation per mask, each
    summarized by its post-burn-in mean. The draws of a block are evaluated
    together. Deterministic given base_seed.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if spec.output_dim != 1:
        raise ValueError("predictive draws are scalars; output_dim must be 1")
    obs = np.asarray(observation, dtype=float)
    if obs.shape != (spec.input_dim,):
        raise InvalidNetworkError(
            f"observation has shape {obs.shape}, spec wants ({spec.input_dim},)"
        )

    if backend == "spiking":
        net = convert(spec, weights, params)
        sim = SimConfig() if sim is None else sim
    draws = np.empty(n_draws)
    for first in range(0, n_draws, _BLOCK_DRAWS):
        n = min(_BLOCK_DRAWS, n_draws - first)
        scales = _draw_scales(spec, range(base_seed + first, base_seed + first + n))
        if backend == "spiking":
            draws[first:first + n] = _draw_means(net, obs, scales, sim, first, n)
        else:
            rows = np.broadcast_to(obs, (n, obs.size))
            draws[first:first + n] = _forward(spec, weights, rows, scales, params)[:, 0]

    if not np.isfinite(draws).all():
        raise FloatingPointError("non-finite prediction draw")
    return SampleSet(observation_id=observation_id, draws=draws,
                     backend=backend, base_seed=base_seed)


def write_samples(path, sample_sets, meta=None) -> None:
    """Samples file: '# key=value' comment lines, then a CSV with header
    observation_id, draw_id, backend, prediction (observation-major order)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        for key, val in (meta or {}).items():
            f.write(f"# {key}={val}\n")
        writer = csv.writer(f)
        writer.writerow(["observation_id", "draw_id", "backend", "prediction"])
        for ss in sample_sets:
            for k, value in enumerate(ss.draws):
                writer.writerow([ss.observation_id, k, ss.backend, repr(float(value))])


def read_samples(path):
    """Parse a samples file.

    Returns ``(meta, groups)`` where groups maps observation_id to
    ``(backend, draws)`` with draws ordered by draw_id; each observation must
    hold draws 0..n-1 once each from one backend. Errors name the file and the
    data row (from 1 after the header) or the observation.
    """
    meta = {}
    groups = {}  # observation_id -> {draw_id: (backend, prediction)}
    row_num = 0  # data rows count from 1; 0 until the header is read
    with open(path, "r", encoding="utf-8") as f:
        for row in csv.reader(line for line in f if line.strip()):
            if row and row[0].startswith("#"):
                text = ",".join(row).lstrip("#").strip()
                if "=" in text:
                    key, val = text.split("=", 1)
                    meta[key.strip()] = val.strip()
            elif row_num == 0:
                if row != ["observation_id", "draw_id", "backend", "prediction"]:
                    raise ValueError(f"{path}: unexpected samples header: {row}")
                row_num = 1
            else:
                try:
                    if len(row) != 4:
                        raise ValueError(f"expected 4 fields, got {len(row)}")
                    obs_id, draw_id, backend, pred = int(row[0]), int(row[1]), row[2], float(row[3])
                    draws = groups.setdefault(obs_id, {})
                    if draw_id in draws:
                        raise ValueError(f"duplicate draw {draw_id} of observation {obs_id}")
                    draws[draw_id] = (backend, pred)
                except ValueError as exc:
                    raise ValueError(f"{path}: row {row_num}: {exc}") from None
                row_num += 1

    out = {}
    for obs_id, draws in groups.items():
        missing = set(range(len(draws))) - set(draws)
        if missing:
            raise ValueError(f"{path}: observation {obs_id}: missing draw {min(missing)}")
        backends = {b for b, _ in draws.values()}
        if len(backends) != 1:
            raise ValueError(f"{path}: observation {obs_id}: mixed backends {backends}")
        out[obs_id] = (backends.pop(), np.array([draws[k][1] for k in range(len(draws))]))
    return meta, out
