"""Simulation of the spiking network: clock-driven runs, one per fixed drop-mask.

Each tick walks the network with the same traversal as the analog forward
pass (``network._traverse``), with a LIF step in place of the rate curve.
Inputs are held as constant injected currents into the first weight layer.
Each spike deposits an impulse of height 1/dt into the emitting neuron's
synaptic lowpass filter, so the filtered signal is in Hz and directly
comparable to the analog activations. As in ``forward``, each layer's output
is multiplied by its dropout scale; ``dt <= tau_syn`` keeps every filter
non-negative, so a dropped neuron contributes exactly ``+0.0`` downstream.

The Monte-Carlo draws of one observation are evaluated together, each
layer's state held as a (draws, width) array, one row per draw and its
dropout scales; every draw starts from its own initial voltages, by one seed
rule (``_initial_voltages``: draw k from ``v0_seed + k``). ``simulate`` is
the one-draw case of the clock-driven core (``_simulate_block``).
``mcinfer.predictive_distribution`` asks ``_draw_means`` for each draw's
post-burn-in mean. When no SoftLIF layer lies downstream of another (SoftLIF
towers and an affine head, say), every SoftLIF layer sees a constant current
and everything after it is affine, so ``_draw_means`` takes the mean from
each neuron's exact spike ticks instead of stepping every tick; it agrees
with the clock-driven tail mean to 1e-12. The spike ticks of all SoftLIF
layers of a block of draws come from one stepping loop (``_spike_train``):
each neuron is stepped to its first spike, and the fixed period after it
from one replay per distinct current. Other networks are stepped tick by
tick.

Two values are cached, read-only and bounded: the v0 uniforms of a block of
draws (``_v0_uniforms``), which every observation of a run shares, and the
filter tail means of a ``SimConfig`` (``_tail_means``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convert import SpikingNetwork
from .network import (InvalidNetworkError, _gather_slices, _layer_scales, _split_columns,
                      _stream_uniforms, _traverse)
from .neuron import NeuronParams, lif_step_arrays


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    v0_seed selects heterogeneous initial voltages uniform in [0, v_th),
    which desynchronizes neurons and reduces output ripple (draw k of a batch
    uses ``v0_seed + k``); 0 means an all-zero start. A filter
    (``tau_syn > 0``) needs ``dt <= tau_syn``.
    """

    dt: float = 0.001
    n_steps: int = 1000
    burn_in_steps: int = 200
    tau_syn: float = 0.005
    v0_seed: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (0 <= self.burn_in_steps < self.n_steps):
            raise ValueError("burn_in_steps must lie in [0, n_steps)")
        if self.tau_syn < 0:
            raise ValueError("tau_syn must be >= 0")
        if 0 < self.tau_syn < self.dt:
            raise ValueError(f"dt ({self.dt}) must not exceed tau_syn ({self.tau_syn})")


@dataclass
class OutputTrace:
    """Per-tick output potential; shape (n_steps,) or (n_steps, output_dim)."""

    values: np.ndarray
    dt: float

    def __len__(self):
        return len(self.values)


def simulate(net: SpikingNetwork, input, masks, sim: SimConfig) -> OutputTrace:
    """Run one simulation under one fixed mask set; deterministic throughout.

    ``masks=None`` runs the network without dropout (the deterministic
    spiking analog of a mask-free forward pass).
    """
    x = np.asarray(input, dtype=float)
    if x.ndim != 1 or x.shape[0] != net.spec.input_dim:
        raise InvalidNetworkError(
            f"input has shape {x.shape}, spec wants ({net.spec.input_dim},)"
        )
    scales = _layer_scales(net.spec, masks)
    trace = _simulate_block(net, x, scales, sim, first_draw=0, n=1)[0]
    values = trace[:, 0] if net.spec.output_dim == 1 else trace
    return OutputTrace(values=values, dt=sim.dt)


def _draw_means(net: SpikingNetwork, input: np.ndarray, scales: list, sim: SimConfig,
                first_draw: int, n: int) -> np.ndarray:
    """Post-burn-in mean output of draws ``first_draw .. first_draw + n - 1``
    of a scalar-output network, evaluated together.

    When every path from input to output crosses at most one SoftLIF layer,
    each SoftLIF layer sees a current that is constant from tick to tick and
    everything after it is affine, so the time mean passes through to the
    spiking layers. One traversal collects every SoftLIF layer's current (no
    SoftLIF layer feeds another, so none depends on a spiking output), one
    ``_spike_train`` call times the spikes of all their neurons at once, and
    a second traversal carries each neuron's exact mean filtered rate
    (``_mean_rate``, ``_tail_means``) to the output. It agrees with the tail
    mean of ``_simulate_block`` to 1e-12, the sums being taken in another
    order. Other networks are stepped tick by tick and each draw's tail
    reduced as ``summarize_trace`` reduces it.
    """
    spec = net.spec
    if not _one_spiking_layer_per_path(spec):
        traces = _simulate_block(net, input, scales, sim, first_draw, n)
        return traces[:, sim.burn_in_steps:, 0].mean(axis=1)

    p = net.neuron_params
    inputs = _draw_inputs(spec, input, n)
    currents = {}

    def collect(i, current):
        currents[i] = current
        return np.zeros_like(current)  # a placeholder: only affine layers take it in

    _traverse(spec, inputs, _layer_step(net, scales, collect))
    v0 = _initial_voltages(spec, p, sim, first_draw, n)
    t0, k = _spike_train(_concat_flat(currents), _concat_flat(v0), sim, p)
    means = np.split(_mean_rate(t0, k, _tail_means(sim)),
                     np.cumsum([c.size for c in currents.values()], dtype=int)[:-1])
    rates = {i: m.reshape(c.shape) for (i, c), m in zip(currents.items(), means)}
    return _traverse(spec, inputs, _layer_step(net, scales, lambda i, _: rates[i]))[:, 0]


def _concat_flat(blocks: dict) -> np.ndarray:
    """The arrays of ``blocks`` raveled and laid end to end, in key order."""
    return np.concatenate([np.empty(0), *(b.ravel() for b in blocks.values())])


def _one_spiking_layer_per_path(spec) -> bool:
    """Whether no SoftLIF layer lies downstream of another: every path runs
    through one tower and then the head."""
    def count(layers):
        return sum(layer.activation == "softlif" for layer in layers)
    return max(count(enc.layers) for enc in spec.encoders) + count(spec.head) <= 1


def _initial_voltages(spec, p: NeuronParams, sim: SimConfig, first_draw: int, n: int) -> dict:
    """The initial-voltage seed rule: an (n, width) array per SoftLIF layer
    instance, keyed by its index in layer_instances order. Row k is draw
    ``first_draw + k``, drawn from ``default_rng(sim.v0_seed + first_draw + k)``
    layer by layer in that order, uniform in [0, v_th); all zero when
    ``v0_seed`` is 0. The arrays are new on every call."""
    widths = {i: layer.out_dim for i, (_, _, layer, _) in enumerate(spec.layer_instances())
              if layer.activation == "softlif"}
    total = sum(widths.values())
    if sim.v0_seed == 0:
        v = np.zeros((n, total))
    else:
        # uniform(0.0, v_th) returns 0.0 + v_th * u for the same u, and adding
        # 0.0 changes no bit of the non-negative product
        v = p.v_th * _v0_uniforms(sim.v0_seed + first_draw, n, total)
    return dict(zip(widths, _split_columns(v, list(widths.values()))))


@lru_cache(maxsize=8)
def _v0_uniforms(first_seed: int, n: int, total: int) -> np.ndarray:
    """Read-only ``_stream_uniforms`` of seeds ``first_seed .. first_seed + n - 1``.
    Every observation of a run starts its blocks of draws from the same v0
    seeds, so the blocks are drawn once and reused."""
    uniform = _stream_uniforms(range(first_seed, first_seed + n), total)
    uniform.flags.writeable = False
    return uniform


def _draw_inputs(spec, input: np.ndarray, n: int) -> list:
    """Each encoder's gathered input, the same for all ``n`` draws."""
    rows = np.broadcast_to(input, (n, input.size))
    return [_gather_slices(spec, enc, rows) for enc in spec.encoders]


def _layer_step(net: SpikingNetwork, scales: list, spiking):
    """The layer step of a traversal over the draws: layer i's affine map,
    then ``spiking(i, current)`` if it is a SoftLIF layer, then its dropout
    scale."""
    instances = list(net.spec.layer_instances())
    w = [net.weights.weights[wkey] for _, wkey, _, _ in instances]
    b = [net.weights.biases[wkey] for _, wkey, _, _ in instances]

    def step(i, a):
        out = a @ w[i].T + b[i]
        if instances[i][2].activation == "softlif":
            out = spiking(i, out)
        if scales[i] is not None:
            out = out * scales[i]
        return out

    return step


def _spike_train(current: np.ndarray, v0: np.ndarray, sim: SimConfig, p: NeuronParams):
    """The spike ticks of LIF neurons held at a constant ``current`` from
    voltages ``v0`` (arrays of one shape), as the clock-driven simulation
    steps them: ticks ``t0 + m * k`` below ``n_steps``.

    Returns ``(t0, k)``; ``t0`` is ``n_steps`` for a neuron that never
    spikes and ``k`` is ``n_steps`` for one that spikes once. A neuron whose
    current is below v_th never spikes: each tick moves its voltage toward
    the current, so it stays below ``max(v0, current) < v_th``. Every other
    neuron is stepped with ``lif_step_arrays`` until its first spike. A
    spike leaves the state at exactly ``(0, tau_ref)``, whatever came
    before, so every later interval is that of a neuron at the same current
    started from ``(0, tau_ref)``: one such replay per distinct current is
    stepped alongside, as extra rows of the same loop, and its first spike
    at tick r gives ``k = r + 1``. (Whether and when a neuron just above
    v_th spikes depends on the rounding of every step, so neither is
    predicted.)
    """
    n_steps = sim.n_steps
    flat = current.reshape(-1)
    pending = np.flatnonzero(~(flat < p.v_th))  # a NaN current is stepped too
    distinct, replay_of = np.unique(flat[pending], return_inverse=True)
    # the pending neurons from (v0, 0), then the replays from (0, tau_ref)
    c = np.concatenate([flat[pending], distinct])
    v = np.concatenate([v0.reshape(-1)[pending], np.zeros(distinct.size)])
    refr = np.concatenate([np.zeros(pending.size), np.full(distinct.size, p.tau_ref)])
    rows = np.arange(c.size)
    first = np.full(c.size, n_steps)  # each row's first spike tick
    for t in range(n_steps):
        if not rows.size:
            break
        v, refr, spiked = lif_step_arrays(v, refr, c, sim.dt, p)
        if spiked.any():
            first[rows[spiked]] = t
            keep = ~spiked
            rows, c, v, refr = rows[keep], c[keep], v[keep], refr[keep]
    t0 = np.full(flat.size, n_steps)
    k = np.full(flat.size, n_steps)
    t0[pending] = first[:pending.size]
    k[pending] = first[pending.size:][replay_of] + 1
    k[t0 + k >= n_steps] = n_steps  # no second spike inside the run
    return t0.reshape(current.shape), k.reshape(current.shape)


@lru_cache(maxsize=8)
def _tail_means(sim: SimConfig) -> np.ndarray:
    """``G[s]``: the post-burn-in mean of the synaptic filter's response to
    one 1/dt impulse at tick s, by the clock-driven recursion (the bare
    impulse when ``tau_syn`` is 0); ``G[n_steps]`` is 0, for spikes that
    never come. Read-only, and computed once per ``SimConfig``."""
    n, burn_in, dt = sim.n_steps, sim.burn_in_steps, sim.dt
    response = np.zeros(n)  # filter output u ticks after the impulse
    if sim.tau_syn > 0:
        alpha = dt / sim.tau_syn
        syn = 0.0
        for u in range(n):
            syn = syn + alpha * ((1.0 / dt if u == 0 else 0.0) - syn)
            response[u] = syn
    else:
        response[0] = 1.0 / dt
    # the tail holds ticks burn_in .. n - 1, i.e. response[burn_in - s .. n - 1 - s]
    csum = np.concatenate([[0.0], np.cumsum(response)])
    s = np.arange(n)
    out = np.zeros(n + 1)
    out[:n] = (csum[n - s] - csum[np.maximum(burn_in - s, 0)]) / (n - burn_in)
    out.flags.writeable = False
    return out


def _mean_rate(t0: np.ndarray, k: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Post-burn-in mean filtered rate of neurons spiking at ticks
    ``t0 + m * k`` (from _spike_train): ``sum_m tail[t0 + m * k]``, one spike
    index at a time."""
    end = tail.size - 1
    mean = np.zeros(t0.shape)
    tick = t0
    while (tick < end).any():
        mean += tail[np.minimum(tick, end)]
        tick = tick + k
    return mean


def _simulate_block(net: SpikingNetwork, input: np.ndarray, scales: list, sim: SimConfig,
                    first_draw: int, n: int) -> np.ndarray:
    """Step ``n`` LIF networks in lockstep, as one network whose state is an
    (n, width) array per spiking layer; ``input`` (input_dim,) is unchecked.

    ``scales`` holds per layer instance None or the dropout scales, of shape
    (out_dim,) shared by every draw or (n, out_dim), one row per draw. Row k
    is draw ``first_draw + k`` and starts from its initial voltages
    (``_initial_voltages``). Returns the output potentials, shape
    (n, n_steps, output_dim).
    """
    spec = net.spec
    p = net.neuron_params
    # per-neuron state of spiking layer i: voltage, refractory clock, filter
    v = _initial_voltages(spec, p, sim, first_draw, n)
    refr = {i: np.zeros_like(v[i]) for i in v}
    syn = {i: np.zeros_like(v[i]) for i in v}

    dt = sim.dt
    alpha = dt / sim.tau_syn if sim.tau_syn > 0 else None

    def lif(i, current):
        v[i], refr[i], spiked = lif_step_arrays(v[i], refr[i], current, dt, p)
        impulse = spiked / dt
        syn[i] = impulse if alpha is None else syn[i] + alpha * (impulse - syn[i])
        return syn[i]

    step = _layer_step(net, scales, lif)
    # every draw sees the same input; gathered once, not per tick
    inputs = _draw_inputs(spec, input, n)
    traces = np.empty((n, sim.n_steps, spec.output_dim))
    for t in range(sim.n_steps):
        traces[:, t] = _traverse(spec, inputs, step)

    if not np.isfinite(traces).all():
        raise FloatingPointError("non-finite output potential in trace")
    return traces


def summarize_trace(trace: OutputTrace, burn_in_steps: int):
    """Mean output potential over the ticks after the burn-in window."""
    n = len(trace.values)
    if burn_in_steps >= n:
        raise ValueError(f"burn_in_steps {burn_in_steps} >= trace length {n}")
    if burn_in_steps < 0:
        raise ValueError("burn_in_steps must be >= 0")
    tail = trace.values[burn_in_steps:]
    mean = tail.mean(axis=0)
    return float(mean) if np.ndim(mean) == 0 else mean


def write_trace(path, trace: OutputTrace, meta=None) -> None:
    """Dump a scalar-output trace as comma-separated text:
    tick, time_s, output_potential. ``meta`` entries become '# key=value'
    comment lines before the header row."""
    values = np.asarray(trace.values)
    if values.ndim != 1:
        raise ValueError("trace dump supports scalar-output traces only")
    with open(path, "w", encoding="utf-8") as f:
        for key, val in (meta or {}).items():
            f.write(f"# {key}={val}\n")
        f.write("tick,time_s,output_potential\n")
        for i, v in enumerate(values):
            f.write(f"{i},{i * trace.dt!r},{float(v)!r}\n")
