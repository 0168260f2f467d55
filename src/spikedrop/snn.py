"""Clock-driven simulation of the spiking network, one run per fixed drop-mask.

Each tick walks the network with the same traversal as the analog forward
pass (``network._traverse``), with a LIF step in place of the rate curve.
Inputs are held as constant injected currents into the first weight layer.
Each spike deposits an impulse of height 1/dt into the emitting neuron's
synaptic lowpass filter, so the filtered signal is in Hz and directly
comparable to the analog activations. As in ``forward``, each layer's output
is multiplied by its dropout scale; ``dt <= tau_syn`` keeps every filter
non-negative, so a dropped neuron contributes exactly ``+0.0`` downstream.

The Monte-Carlo draws of one observation are stepped together: one batched
core (``_simulate_block``) holds each layer's state as a (draws, width)
array, one row per draw and its dropout scales, and owns the initial-voltage
seed rule (draw k from ``v0_seed + k``). ``simulate`` is its one-draw case;
``mcinfer.predictive_distribution`` feeds ``_draw_means`` blocks of draws
with their scales, and ``_draw_means`` summarizes each draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convert import SpikingNetwork
from .network import InvalidNetworkError, _gather_slices, _layer_scales, _traverse
from .neuron import lif_step_arrays


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
    of a scalar-output network, simulated together (see ``_simulate_block``);
    each draw's tail is reduced as ``summarize_trace`` reduces it."""
    traces = _simulate_block(net, input, scales, sim, first_draw, n)
    return traces[:, sim.burn_in_steps:, 0].mean(axis=1)


def _simulate_block(net: SpikingNetwork, input: np.ndarray, scales: list, sim: SimConfig,
                    first_draw: int, n: int) -> np.ndarray:
    """Step ``n`` LIF networks in lockstep, as one network whose state is an
    (n, width) array per spiking layer; ``input`` (input_dim,) is unchecked.

    ``scales`` holds per layer instance None or the dropout scales, of shape
    (out_dim,) shared by every draw or (n, out_dim), one row per draw. Row k
    is draw ``first_draw + k``: it starts from the initial voltages of
    ``default_rng(sim.v0_seed + first_draw + k)``, drawn layer by layer in
    layer_instances order (all zero when ``v0_seed`` is 0). Returns the
    output potentials, shape (n, n_steps, output_dim).
    """
    spec = net.spec
    p = net.neuron_params
    instances = list(spec.layer_instances())
    w = [net.weights.weights[wkey] for _, wkey, _, _ in instances]
    b = [net.weights.biases[wkey] for _, wkey, _, _ in instances]

    # per-neuron state of spiking layer i: voltage, refractory clock, filter
    spiking = [i for i, (_, _, layer, _) in enumerate(instances) if layer.activation == "softlif"]
    v = {i: np.zeros((n, instances[i][2].out_dim)) for i in spiking}
    refr = {i: np.zeros_like(v[i]) for i in spiking}
    syn = {i: np.zeros_like(v[i]) for i in spiking}
    if sim.v0_seed != 0:
        for k in range(n):
            v0_rng = np.random.default_rng(sim.v0_seed + first_draw + k)
            for i in spiking:
                v[i][k] = v0_rng.uniform(0.0, p.v_th, v[i].shape[1])

    dt = sim.dt
    alpha = dt / sim.tau_syn if sim.tau_syn > 0 else None

    def step(i, a):
        current = a @ w[i].T + b[i]
        if i in v:  # spiking layer
            v[i], refr[i], spiked = lif_step_arrays(v[i], refr[i], current, dt, p)
            impulse = spiked / dt
            syn[i] = impulse if alpha is None else syn[i] + alpha * (impulse - syn[i])
            out = syn[i]
        else:
            out = current
        if scales[i] is not None:
            out = out * scales[i]
        return out

    # every draw sees the same input; gathered once, not per tick
    rows = np.broadcast_to(input, (n, input.size))
    inputs = [_gather_slices(spec, enc, rows) for enc in spec.encoders]
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
