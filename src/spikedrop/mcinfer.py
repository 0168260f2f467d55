"""Monte-Carlo dropout inference: per-observation predictive distributions.

Draw k of a sample set uses the mask seed ``base_seed + k``, so draws are
reproducible and order-independent, and an analog and a spiking run given the
same base seed evaluate the same mask sequence. The cross-backend comparison
is then a paired comparison of the two evaluators. Each spiking draw is an
independent simulation run and starts from its own initial-voltage draw
(seed ``v0_seed + k``, applied by the simulator); ``v0_seed = 0`` keeps every
run at the all-zero start. A run (``predictive_distributions``: every
observation of a file, row r from base seed ``seed + r * n_draws``) evaluates
its draws in blocks of at most ``_BLOCK_DRAWS``, each block for every
observation in turn, its dropout scales drawn in one call: the analog draws
of a block are one forward pass over the observation's one row, each path
widened to a row per draw at its first dropout scale (so the layers upstream
of it run once per observation), the spiking draws one batched simulation
from the same one row (``snn._draw_means``, set up once per block for every
observation: from exact spike times when no SoftLIF layer lies downstream of
another, else stepped tick by tick). A pass that never widens (no dropout
and no spiking layer) gives one row, which fills the block's draws. Both
read the caller's ``network.Model`` uncopied, and ``predictive_distributions``
checks every argument; ``predictive_distribution``, the one-observation
case, builds its model with ``network.convert``. A samples file is a
``data`` table, read and written there; its rows' meaning lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import read_table, write_table
from .network import (InvalidNetworkError, Model, NetworkSpec, WeightStore, _draw_scales,
                      _forward, convert)
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


def predictive_distribution(spec: NetworkSpec, weights: WeightStore,
                            params: NeuronParams, observation, n_draws: int,
                            base_seed: int, backend: str,
                            sim: SimConfig = None,
                            observation_id: int = 0) -> SampleSet:
    """Build a predictive distribution from repeated masked evaluations.

    analog: masked forward passes. spiking: one simulation per mask, each
    summarized by its post-burn-in mean. The one-observation case of
    ``predictive_distributions``, which checks the arguments. Deterministic
    given base_seed.
    """
    (ss,) = predictive_distributions(convert(spec, weights, params),
                                     np.asarray(observation, dtype=float)[None],
                                     n_draws, base_seed, backend, sim)
    ss.observation_id = observation_id
    return ss


def predictive_distributions(model: Model, rows: np.ndarray, n_draws: int, seed: int,
                             backend: str, sim: SimConfig = None) -> list:
    """One SampleSet per row of ``rows`` (observations, input_dim), whose
    observation_id is the row index; draw k of row r uses mask seed ``seed +
    r * n_draws + k``. Every argument is checked before any draw is made."""
    spec = model.spec
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if seed < 0:
        raise ValueError("base_seed must be >= 0")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if spec.output_dim != 1:
        raise ValueError("predictive draws are scalars; output_dim must be 1")
    if rows.ndim < 2:
        raise InvalidNetworkError(f"rows must be a 2-D (observations, {spec.input_dim}) "
                                  f"table, got shape {rows.shape}")
    if rows.ndim != 2 or rows.shape[1] != spec.input_dim:
        raise InvalidNetworkError(
            f"observation has shape {rows.shape[1:]}, spec wants ({spec.input_dim},)"
        )
    sim = SimConfig() if sim is None else sim
    draws = np.empty((len(rows), n_draws))
    for first in range(0, n_draws, _BLOCK_DRAWS):
        n = min(_BLOCK_DRAWS, n_draws - first)
        if backend == "spiking":
            means = _draw_means(model, sim, first, n)
        else:
            def means(obs, scales):
                # one row: each path widens to n rows at its first dropout scale
                return _forward(spec, model.weights, obs[None], scales,
                                model.neuron_params)[:, 0]
        for r, obs in enumerate(rows):
            base = seed + r * n_draws + first
            draws[r, first:first + n] = means(obs, _draw_scales(spec, range(base, base + n)))

    if not np.isfinite(draws).all():
        raise FloatingPointError("non-finite prediction draw")
    return [SampleSet(observation_id=r, draws=row, backend=backend)
            for r, row in enumerate(draws)]


def write_samples(path, sample_sets, meta=None) -> None:
    """Samples file (``data.write_table``): '# key=value' comment lines, then
    header observation_id, draw_id, backend, prediction (observation-major)."""
    write_table(path, ["observation_id", "draw_id", "backend", "prediction"],
                ([ss.observation_id, k, ss.backend, value]
                 for ss in sample_sets for k, value in enumerate(ss.draws.tolist())), meta)


def read_samples(path):
    """Parse a samples file (``data.read_table``) into ``(meta, groups)``, where
    groups maps observation_id to ``(backend, draws)`` with draws ordered by
    draw_id; each observation must hold draws 0..n-1 once each from one backend
    in BACKENDS, every prediction finite, and the file at least one data row.
    Errors name the file and the data row or the observation."""
    reader = read_table(path)
    meta, header = next(reader)
    if header != ["observation_id", "draw_id", "backend", "prediction"]:
        raise ValueError(f"{path}: unexpected samples header: {header}")
    groups = {}  # observation_id -> {draw_id: (backend, prediction)}
    for row_num, row in reader:
        try:
            obs_id, draw_id, backend, pred = int(row[0]), int(row[1]), row[2], float(row[3])
            if backend not in BACKENDS:
                raise ValueError(f"unknown backend {backend!r}")
            if not math.isfinite(pred):
                raise ValueError(f"non-finite prediction {row[3]!r}")
            draws = groups.setdefault(obs_id, {})
            if draw_id in draws:
                raise ValueError(f"duplicate draw {draw_id} of observation {obs_id}")
            draws[draw_id] = (backend, pred)
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_num}: {exc}") from None

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
