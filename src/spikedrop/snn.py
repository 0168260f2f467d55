"""Simulation of the spiking network: clock-driven runs, one per fixed drop-mask.

The network simulated is a ``network.Model``, the analog model itself: the
same structure, weights and neuron constants, checked by ``network.convert``
and never copied. Each tick runs the analog forward pass's own network pass
(``network._pass``), set up once per block of draws, with the LIF neuron in
place of the rate curve: this module supplies only the neuron, its synaptic
filter and their state, and applies no weight itself. Inputs are held as
constant injected currents into the first weight layer. Each spike deposits
an impulse of height 1/dt into the emitting neuron's synaptic lowpass filter,
so the filtered signal is in Hz and directly comparable to the analog
activations. As in ``forward``, each layer's output is multiplied by its
dropout scale; ``dt <= tau_syn`` keeps every filter non-negative, so a
dropped neuron contributes exactly ``+0.0`` downstream.

The Monte-Carlo draws of one observation are evaluated together, each
layer's state held as a (draws, width) array, one row per draw and its
dropout scales; every draw starts from its own initial voltages, by one seed
rule (``_initial_voltages``: draw k from ``v0_seed + k``). Both paths below
gather the observation's one row, and ``network._pass`` widens each path to
a row per draw at its first per-draw array, a dropout scale or the LIF
state, so a tower's current is the one-row product that ``simulate``
computes. ``simulate`` is the one-draw case of the clock-driven core
(``_simulate_block``) and returns the per-tick output potential as a plain
array, which ``summarize_trace`` and ``write_trace`` read.

Every observation of a run starts a block of draws from the same voltages, so
``mcinfer.predictive_distributions`` sets ``_draw_means`` up once per block
(the initial voltages and the filter's tail means, as locals) and asks it for
each observation's post-burn-in means. When no SoftLIF layer lies downstream
of another (SoftLIF towers and an affine head, say), every SoftLIF layer sees
a constant current and everything after it is affine, so ``_draw_means``
takes the mean from each neuron's exact spike ticks instead of stepping every
tick; it agrees with the clock-driven tail mean to 1e-12. The spike ticks of
all SoftLIF layers of a block of draws come from one stepping loop
(``_spike_train``): each neuron above threshold is stepped to its first
spike, and the fixed period after it from one replay per distinct current.
Every row enters that loop at its first tick with active time and then steps
whole ticks, ``v = c + (v - c) * d`` with the step's own decay
(``neuron._decay``), which gives the ticks of ``lif_step_arrays`` bit for
bit. ``_mean_rate`` sums the filter's tail means over the spiking neurons'
ticks. Other networks are stepped tick by tick with ``lif_step_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_table
from .network import (InvalidNetworkError, Model, _gather_inputs, _layer_scales, _pass,
                      _stream_uniforms)
from .neuron import NeuronParams, _check_fields, _decay, lif_step_arrays


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    v0_seed selects heterogeneous initial voltages uniform in [0, v_th),
    which desynchronizes neurons and reduces output ripple (draw k of a batch
    uses ``v0_seed + k``); 0 means an all-zero start. A filter (a positive
    ``tau_syn``) needs ``dt <= tau_syn``; ``tau_syn`` 0 means no filter.
    """

    dt: float = 0.001
    n_steps: int = 1000
    burn_in_steps: int = 200
    tau_syn: float = 0.005
    v0_seed: int = 1

    def __post_init__(self):
        _check_fields(self)
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (0 <= self.burn_in_steps < self.n_steps):
            raise ValueError(f"burn_in_steps ({self.burn_in_steps}) must lie in "
                             f"[0, n_steps ({self.n_steps}))")
        if self.tau_syn < 0:
            raise ValueError("tau_syn must be >= 0")
        if 0 < self.tau_syn < self.dt:
            raise ValueError(f"dt ({self.dt}) must not exceed tau_syn ({self.tau_syn})")
        if self.v0_seed < 0:
            raise ValueError("v0_seed must be >= 0")


def simulate(net: Model, input, masks, sim: SimConfig) -> np.ndarray:
    """Run one simulation under one fixed mask set; deterministic throughout.
    Returns the per-tick output potential, shape (n_steps,) for a scalar
    output, else (n_steps, output_dim).

    ``masks=None`` runs the network without dropout (the deterministic
    spiking analog of a mask-free forward pass).
    """
    x = np.asarray(input, dtype=float)
    if x.ndim != 1 or x.shape[0] != net.spec.input_dim:
        raise InvalidNetworkError(
            f"input has shape {x.shape}, spec wants ({net.spec.input_dim},)"
        )
    scales = _layer_scales(net.spec, masks)
    v0 = _initial_voltages(net.spec, net.neuron_params, sim, 0, 1)
    trace = _simulate_block(net, x, scales, sim, v0, 1)[0]
    return trace[:, 0] if net.spec.output_dim == 1 else trace


def _draw_means(net: Model, sim: SimConfig, first_draw: int, n: int):
    """Set up draws ``first_draw .. first_draw + n - 1`` of a scalar-output
    network once, their initial voltages and tail means computed here for
    every call; returns ``means(input, scales)``, the post-burn-in mean output
    of those draws of one observation (``input`` (input_dim,), unchecked,
    gathered as one row).

    When every path from input to output crosses at most one SoftLIF layer,
    one network pass collects every SoftLIF layer's (constant) current (none
    depends on a spiking output), one ``_spike_train`` call times the spikes
    of all their neurons at once, and a second pass carries each neuron's
    exact mean filtered rate (``_mean_rate``, ``_tail_means``) to the output:
    the tail mean of ``_simulate_block`` to 1e-12, summed in another order.
    Other networks are stepped tick by tick and each draw's tail reduced as
    ``summarize_trace`` reduces it.
    """
    spec = net.spec
    p = net.neuron_params
    v0 = _initial_voltages(spec, p, sim, first_draw, n)
    if not _one_spiking_layer_per_path(spec):
        return lambda input, scales: _simulate_block(
            net, input, scales, sim, v0, n)[:, sim.burn_in_steps:, 0].mean(axis=1)

    tail = _tail_means(sim)
    # one (n, total SoftLIF width) block: _spike_train and _mean_rate act on
    # each neuron alone; the empty block keeps a spec without SoftLIF layers
    empty = np.empty((n, 0))
    start = np.hstack([empty, *v0.values()])

    def event_means(input, scales):
        inputs = _gather_inputs(spec, input[None])
        currents = {}

        def collect(i, current):
            # a tower's current may be one row; _spike_train wants v0's shape
            currents[i] = np.broadcast_to(current, v0[i].shape)
            return np.zeros_like(current), None  # a placeholder: only affine layers take it in

        _pass(spec, net.weights, scales, collect)(inputs)
        t0, k = _spike_train(np.hstack([empty, *currents.values()]), start, sim, p)
        means = np.hsplit(_mean_rate(t0, k, tail),
                          np.cumsum([c.shape[1] for c in currents.values()], dtype=int)[:-1])
        rates = dict(zip(currents, means))
        return _pass(spec, net.weights, scales, lambda i, _: (rates[i], None))(inputs)[:, 0]

    return event_means


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
    ``v0_seed`` is 0."""
    widths = {i: layer.out_dim for i, (_, _, layer, _) in enumerate(spec.layer_instances())
              if layer.activation == "softlif"}
    if sim.v0_seed == 0:
        return {i: np.zeros((n, width)) for i, width in widths.items()}
    # uniform(0.0, v_th) returns 0.0 + v_th * u for the same u, and adding
    # 0.0 changes no bit of the non-negative product
    first = sim.v0_seed + first_draw
    blocks = _stream_uniforms(range(first, first + n), list(widths.values()))
    return {i: p.v_th * u for i, u in zip(widths, blocks)}


def _spike_train(current: np.ndarray, v0: np.ndarray, sim: SimConfig, p: NeuronParams):
    """The spike ticks of LIF neurons held at a constant ``current`` from
    voltages ``v0`` (arrays of one shape), as the clock-driven simulation
    (``lif_step_arrays``) steps them: ticks ``t0 + m * k`` below ``n_steps``.

    Returns ``(t0, k)``; ``t0`` is ``n_steps`` for a neuron that never
    spikes and ``k`` is ``n_steps`` for one that spikes once. A neuron whose
    current is below v_th never spikes: each tick moves its voltage toward
    the current, so it stays below ``max(v0, current) < v_th``. Every other
    neuron is stepped until its first spike. It starts with no refractory
    time left and leaves at that spike, so each of its steps integrates the
    whole tick, and ``lif_step_arrays`` reduces to ``v = c + (v - c) * d``
    with one decay factor ``d`` for all of them, the step's own
    (``neuron._decay``).

    A spike leaves the state at exactly ``(0, tau_ref)``, whatever came
    before, so every later interval is that of a neuron at the same current
    started from ``(0, tau_ref)``: one such replay per distinct current is
    stepped alongside, as extra rows of the same loop. The replays share one
    refractory clock, advanced by the step's own arithmetic; while it covers
    a whole tick a replay's voltage stays exactly ``c - c = 0``. Every row
    enters the loop holding its voltage after its first tick with active
    time: tick 0 for a neuron, tick ``join`` for the replays (from 0, by that
    tick's possibly partial decay). Loop tick r is tick ``join + r`` of a
    replay, so its first spike at loop tick r gives ``k = join + r + 1``.
    (Whether and when a neuron just above v_th spikes depends on the
    rounding of every step, so neither is predicted.)
    """
    n_steps, dt = sim.n_steps, sim.dt
    flat = current.reshape(-1)
    pending = np.flatnonzero(~(flat < p.v_th))  # a NaN current is stepped too
    distinct, replay_of = np.unique(flat[pending], return_inverse=True)
    join, refr = 0, p.tau_ref  # the replays' first tick with active time, their clock then
    while join < n_steps and refr >= dt:  # no active time this tick
        join, refr = join + 1, np.maximum(refr - dt, 0.0)
    d, d_join = _decay(0.0, dt, p), _decay(refr, dt, p)
    # rows: the pending neurons after tick 0, then the replays after tick join
    c = flat[pending]
    v = np.concatenate([c + (v0.reshape(-1)[pending] - c) * d,
                        distinct + (0.0 - distinct) * d_join])
    c = np.concatenate([c, distinct])
    rows = np.arange(c.size)
    first = np.full(c.size, n_steps)  # each row's first spike, in loop ticks
    for t in range(n_steps):
        spiked = v >= p.v_th
        if spiked.any():
            first[rows[spiked]] = t
            keep = ~spiked
            rows, c, v = rows[keep], c[keep], v[keep]
        if not rows.size:
            break
        v -= c  # v = c + (v - c) * d, in v's own array
        v *= d
        v += c
    t0, k = np.full((2, flat.size), n_steps)
    t0[pending] = first[:pending.size]
    k[pending] = join + first[pending.size:][replay_of] + 1
    k[t0 + k >= n_steps] = n_steps  # no second spike inside the run
    return t0.reshape(current.shape), k.reshape(current.shape)


def _filter_step(syn, spiked, sim: SimConfig):
    """One tick of the synaptic lowpass fed 1/dt where ``spiked``: gain
    ``dt / tau_syn``, or 1 with no filter, which passes ``spiked / dt``."""
    gain = sim.dt / sim.tau_syn if sim.tau_syn else 1.0
    return syn + gain * (spiked / sim.dt - syn)


def _tail_means(sim: SimConfig) -> np.ndarray:
    """``G[s]``: the post-burn-in mean of the synaptic filter's response to
    one 1/dt impulse at tick s, by the clock-driven recursion
    (``_filter_step``); ``G[n_steps]`` is 0, for spikes that never come."""
    n, burn_in = sim.n_steps, sim.burn_in_steps
    response = np.zeros(n)  # filter output u ticks after the impulse
    syn = 0.0
    for u in range(n):
        response[u] = syn = _filter_step(syn, u == 0, sim)
    # the tail holds ticks burn_in .. n - 1, i.e. response[burn_in - s .. n - 1 - s]
    csum = np.concatenate([[0.0], np.cumsum(response)])
    s = np.arange(n)
    out = np.zeros(n + 1)
    out[:n] = (csum[n - s] - csum[np.maximum(burn_in - s, 0)]) / (n - burn_in)
    return out


def _mean_rate(t0: np.ndarray, k: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Post-burn-in mean filtered rate of neurons spiking at ticks
    ``t0 + m * k`` (from _spike_train): ``sum_m tail[t0 + m * k]``, one spike
    index at a time. Only neurons that spike are summed: a silent one
    (``t0 = n_steps``) would add only ``tail[n_steps] = 0.0`` to its 0.0."""
    end = tail.size - 1
    mean = np.zeros(t0.shape)
    live = t0 < end
    tick, step = t0[live], k[live]
    total = np.zeros(tick.shape)
    while (tick < end).any():
        total += tail[np.minimum(tick, end)]
        tick = tick + step
    mean[live] = total
    return mean


def _simulate_block(net: Model, input: np.ndarray, scales: list, sim: SimConfig,
                    v0: dict, n: int) -> np.ndarray:
    """Step ``n`` LIF networks in lockstep, as one network whose state is an
    (n, width) array per spiking layer; ``input`` (input_dim,) is unchecked
    and gathered as one row, which each path widens to ``n`` rows at its
    first per-draw array; an output that never widens fills every row.

    ``scales`` holds per layer instance None or the dropout scales, of shape
    (out_dim,) shared by every draw or (n, out_dim), one row per draw. Row k
    starts from row k of ``v0``, the initial voltages of a block of draws
    (``_initial_voltages``), which stay as they are for the caller's next
    observation. Returns the output potentials, shape (n, n_steps, output_dim).
    """
    spec = net.spec
    p = net.neuron_params
    # per-neuron state of spiking layer i: voltage (a copy of v0's dict, whose
    # entries each tick rebinds), refractory clock, filter
    v = dict(v0)
    refr = {i: np.zeros_like(v[i]) for i in v}
    syn = {i: np.zeros_like(v[i]) for i in v}

    def lif(i, current):
        v[i], refr[i], spiked = lif_step_arrays(v[i], refr[i], current, sim.dt, p)
        syn[i] = _filter_step(syn[i], spiked, sim)
        return syn[i], None

    run = _pass(spec, net.weights, scales, lif)
    # the observation's one row, gathered once, not per tick
    inputs = _gather_inputs(spec, input[None])
    traces = np.empty((n, sim.n_steps, spec.output_dim))
    for t in range(sim.n_steps):
        traces[:, t] = run(inputs)

    if not np.isfinite(traces).all():
        raise FloatingPointError("non-finite output potential in trace")
    return traces


def summarize_trace(trace: np.ndarray, burn_in_steps: int):
    """Mean output potential of a ``simulate`` trace over the ticks after the
    burn-in window."""
    n = len(trace)
    if burn_in_steps >= n:
        raise ValueError(f"burn_in_steps {burn_in_steps} >= trace length {n}")
    if burn_in_steps < 0:
        raise ValueError("burn_in_steps must be >= 0")
    tail = trace[burn_in_steps:]
    mean = tail.mean(axis=0)
    return float(mean) if np.ndim(mean) == 0 else mean


def write_trace(path, trace: np.ndarray, dt: float, meta=None) -> None:
    """Dump a scalar-output ``simulate`` trace of tick length ``dt`` through
    ``data.write_table``: '# key=value' lines from ``meta``, then tick,
    time_s, output_potential."""
    values = np.asarray(trace, dtype=float)
    if values.ndim != 1:
        raise ValueError("trace dump supports scalar-output traces only")
    write_table(path, ["tick", "time_s", "output_potential"],
                ((i, i * dt, v) for i, v in enumerate(values.tolist())), meta)
