import importlib
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spikedrop
from spikedrop import network, snn
from spikedrop.mcinfer import _BLOCK_DRAWS, predictive_distribution
from spikedrop.network import (
    EncoderSpec,
    LayerSpec,
    NetworkSpec,
    _draw_scales,
    combo_spec,
    convert,
    forward,
    init_weights,
    load_model,
    sample_masks,
    save_model,
)
from spikedrop.neuron import NeuronParams, lif_rate, lif_step_arrays
from strategies import (copy_weights, dropout_networks, one_spiking_layer_per_path_networks,
                        single_tower)
from spikedrop.snn import (
    SimConfig,
    simulate,
    summarize_trace,
    write_trace,
)

P = NeuronParams()


def one_neuron_net(weight=1.0, bias=0.0, readout=1.0):
    """input -> one LIF neuron -> linear readout of its filtered rate."""
    spec = NetworkSpec(
        input_slices=[("x", 0, 1)],
        encoders=[EncoderSpec(["x"], [LayerSpec(1, 1, "softlif")])],
        head=[LayerSpec(1, 1, "linear")],
        output_dim=1,
    )
    w = init_weights(spec, seed=0)
    w.weights["enc0:0"][:] = weight
    w.biases["enc0:0"][:] = bias
    w.weights["head:0"][:] = readout
    w.biases["head:0"][:] = 0.0
    return convert(spec, w, P)


def rate_bank_spec(n):
    """One layer of n spiking neurons, each read out on its own output."""
    return NetworkSpec(
        input_slices=[("x", 0, 1)],
        encoders=[EncoderSpec(["x"], [LayerSpec(1, n, "softlif")])],
        head=[LayerSpec(n, n, "linear")],
        output_dim=n,
    )


def rate_bank_net(currents):
    """One layer of neurons at fixed drives, identity readout per neuron."""
    n = len(currents)
    spec = rate_bank_spec(n)
    w = init_weights(spec, seed=0)
    w.weights["enc0:0"][:] = 0.0
    w.biases["enc0:0"][:] = np.asarray(currents, dtype=float)
    w.weights["head:0"][:] = np.eye(n)
    w.biases["head:0"][:] = 0.0
    return convert(spec, w, P)


class TestSimConfig:
    def test_defaults(self):
        sim = SimConfig()
        assert sim.dt == 0.001 and sim.n_steps == 1000
        assert sim.burn_in_steps == 200 and sim.tau_syn == 0.005

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0),
        dict(n_steps=0),
        dict(burn_in_steps=1000),
        dict(tau_syn=-0.001),
        dict(dt=0.01, tau_syn=0.005),  # filter gain dt/tau_syn = 2 never decays
        dict(dt=0.01, tau_syn=0.002),  # gain 5 diverges
        dict(dt=float("nan")),
        dict(dt=float("inf"), tau_syn=0.0),
        dict(tau_syn=float("inf")),
        dict(tau_syn=float("nan")),
        dict(n_steps=350.0),
        dict(burn_in_steps=True),
        dict(v0_seed=1.5),
        dict(v0_seed=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SimConfig(**kwargs)

    def test_filter_rule_boundaries_accepted(self):
        SimConfig(dt=0.005, tau_syn=0.005)  # gain 1: the filter passes impulses through
        SimConfig(dt=0.01, tau_syn=0.0)     # no filter


class TestSimulate:
    def test_zero_network_gives_zero_trace(self):
        net = one_neuron_net(weight=0.0, bias=0.0, readout=0.0)
        trace = simulate(net, np.array([1.0]), None, SimConfig(n_steps=100, burn_in_steps=10))
        assert np.all(trace == 0.0)

    def test_deterministic_bitwise(self):
        net = one_neuron_net(weight=1.0)
        sim = SimConfig(n_steps=300, burn_in_steps=50)
        a = simulate(net, np.array([2.0]), None, sim)
        b = simulate(net, np.array([2.0]), None, sim)
        assert np.array_equal(a, b)

    def test_single_neuron_filtered_rate_matches_closed_form(self):
        # constant J = 2, tau_syn = 5 ms, 10 s at dt = 1e-4
        net = one_neuron_net(weight=1.0)
        sim = SimConfig(dt=1e-4, n_steps=100_000, burn_in_steps=0, tau_syn=0.005)
        trace = simulate(net, np.array([2.0]), None, sim)
        assert np.mean(trace) == pytest.approx(lif_rate(2.0, P), rel=0.02)

    def test_rate_bank_matches_closed_form(self):
        # several suprathreshold drives at once, 5 s at dt = 1e-4
        currents = [1.1, 1.5, 2.0, 4.0]
        net = rate_bank_net(currents)
        sim = SimConfig(dt=1e-4, n_steps=50_000, burn_in_steps=0, tau_syn=0.005)
        trace = simulate(net, np.array([0.0]), None, sim)
        means = trace.mean(axis=0)
        for current, measured in zip(currents, means):
            assert measured == pytest.approx(lif_rate(current, P), rel=0.02)

    def test_unfiltered_spikes_average_to_rate(self):
        # tau_syn = 0 passes raw impulses through: tick t is spiked / dt of a
        # lif_step_arrays replay from the same start voltage, bit for bit,
        # and their mean is still the rate
        net = one_neuron_net(weight=1.0)
        sim = SimConfig(dt=1e-3, n_steps=5000, burn_in_steps=0, tau_syn=0.0)
        trace = simulate(net, np.array([2.0]), None, sim)
        v = snn._initial_voltages(net.spec, P, sim, 0, 1)[0][0]
        refr = np.zeros(1)
        want = np.empty(sim.n_steps)
        for t in range(sim.n_steps):
            v, refr, spiked = lif_step_arrays(v, refr, np.array([2.0]), sim.dt, P)
            want[t] = spiked[0] / sim.dt
        assert np.array_equal(trace, want)
        assert np.mean(trace) == pytest.approx(lif_rate(2.0, P), rel=0.02)

    def test_linear_network_reproduces_affine_map_every_tick(self):
        spec = single_tower(3, [LayerSpec(3, 1, "linear")])
        w = init_weights(spec, seed=4)
        net = convert(spec, w, P)
        x = np.array([0.5, -1.0, 2.0])
        analog, _ = forward(spec, w, x, None, P)
        trace = simulate(net, x, None, SimConfig(n_steps=50, burn_in_steps=5))
        assert np.all(np.abs(trace - analog[0]) < 1e-12)

    def test_full_network_no_dropout_matches_analog(self):
        # hand-conditioned net: currents in the comfortable 1.5..3 band,
        # small readout weights; deterministic SNN mean within the
        # max(10% relative, 0.05 absolute) band of the analog output
        spec = NetworkSpec(
            input_slices=[("x", 0, 2)],
            encoders=[EncoderSpec(["x"], [LayerSpec(2, 12, "softlif")])],
            head=[LayerSpec(12, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=8)
        rng = np.random.default_rng(3)
        w.weights["enc0:0"][:] = rng.uniform(0.2, 0.5, size=(12, 2))
        w.biases["enc0:0"][:] = rng.uniform(1.0, 2.0, size=12)
        w.weights["head:0"][:] = rng.uniform(0.005, 0.02, size=(1, 12))
        w.biases["head:0"][:] = 0.1
        net = convert(spec, w, P)
        x = np.array([0.8, 1.2])
        analog = float(forward(spec, w, x, None, P)[0][0])
        trace = simulate(net, x, None, SimConfig())
        mean = summarize_trace(trace, 200)
        assert abs(mean - analog) <= max(0.10 * abs(analog), 0.05)

    def test_post_burn_in_ripple_bounded(self):
        # wide layer so the independent per-neuron ripple averages out
        n = 160
        spec = NetworkSpec(
            input_slices=[("x", 0, 2)],
            encoders=[EncoderSpec(["x"], [LayerSpec(2, n, "softlif")])],
            head=[LayerSpec(n, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=8)
        rng = np.random.default_rng(3)
        w.weights["enc0:0"][:] = rng.uniform(0.2, 0.5, size=(n, 2))
        w.biases["enc0:0"][:] = rng.uniform(1.0, 2.0, size=n)
        w.weights["head:0"][:] = rng.uniform(0.0005, 0.002, size=(1, n))
        w.biases["head:0"][:] = 0.1
        net = convert(spec, w, P)
        x = np.array([0.8, 1.2])
        analog = float(forward(spec, w, x, None, P)[0][0])
        trace = simulate(net, x, None, SimConfig())
        tail = trace[200:]
        assert np.std(tail) < 0.10 * abs(analog) + 0.1

    def test_masked_neuron_equals_edited_network(self):
        # drop one hidden neuron vs zeroing its outgoing weights and
        # rescaling the survivors by 1/keep_prob
        keep_prob = 0.8
        spec = NetworkSpec(
            input_slices=[("x", 0, 2)],
            encoders=[EncoderSpec(["x"], [LayerSpec(2, 5, "softlif", keep_prob)])],
            head=[LayerSpec(5, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=9)
        rng = np.random.default_rng(4)
        w.weights["enc0:0"][:] = rng.uniform(0.3, 0.8, size=(5, 2))
        w.biases["enc0:0"][:] = rng.uniform(0.8, 1.6, size=5)
        w.weights["head:0"][:] = rng.uniform(-0.03, 0.03, size=(1, 5))
        net = convert(spec, w, P)
        x = np.array([1.0, 0.5])
        sim = SimConfig(n_steps=400, burn_in_steps=50)

        mask = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
        masked = simulate(net, x, {"enc0:0": mask}, sim)

        edited = copy_weights(w)
        edited.weights["head:0"] = edited.weights["head:0"] * mask / keep_prob
        edited_net = convert(spec, edited, P)
        reference = simulate(edited_net, x, None, sim)
        assert np.allclose(masked, reference, rtol=1e-12, atol=1e-12)

    def test_heterogeneous_start_changes_transient_not_summary(self):
        net = one_neuron_net(weight=1.0)
        sim0 = SimConfig(n_steps=2000, burn_in_steps=500, v0_seed=0)
        sim1 = SimConfig(n_steps=2000, burn_in_steps=500, v0_seed=1)
        t0 = simulate(net, np.array([2.0]), None, sim0)
        t1 = simulate(net, np.array([2.0]), None, sim1)
        assert not np.array_equal(t0, t1)
        assert summarize_trace(t0, 500) == pytest.approx(summarize_trace(t1, 500), rel=0.05)

    @pytest.mark.parametrize("v0_seed", [1, 12345])
    def test_initial_voltages_follow_seed_rule(self, v0_seed):
        # neurons at a constant drive, each read out on its own output: the
        # first spike tick of each follows from its initial voltage, drawn
        # from default_rng(v0_seed) layer by layer in traversal order
        spec = NetworkSpec(
            input_slices=[("x", 0, 1)],
            encoders=[EncoderSpec(["x"], [LayerSpec(1, 2, "softlif")]),
                      EncoderSpec(["x"], [LayerSpec(1, 1, "softlif")])],
            head=[LayerSpec(3, 3, "linear")],
            output_dim=3,
        )
        w = init_weights(spec, seed=0)
        for key in ("enc0:0", "enc1:0"):
            w.weights[key][:] = 0.0
            w.biases[key][:] = 1.5
        w.weights["head:0"][:] = np.eye(3)
        w.biases["head:0"][:] = 0.0
        sim = SimConfig(n_steps=40, burn_in_steps=0, tau_syn=0.0, v0_seed=v0_seed)
        trace = simulate(convert(spec, w, P), np.array([0.0]), None, sim)

        rng = np.random.default_rng(v0_seed)
        v0 = np.concatenate([rng.uniform(0.0, P.v_th, 2), rng.uniform(0.0, P.v_th, 1)])
        decay = np.exp(-sim.dt / P.tau_rc)
        for j, v in enumerate(v0):
            tick = 0
            while 1.5 + (v - 1.5) * decay < P.v_th:
                v = 1.5 + (v - 1.5) * decay
                tick += 1
            assert np.flatnonzero(trace[:, j])[0] == tick

    def test_all_dropped_layer_gives_zero_trace(self):
        # dropping every neuron of the only hidden layer silences the network
        spec = NetworkSpec(
            input_slices=[("x", 0, 1)],
            encoders=[EncoderSpec(["x"], [LayerSpec(1, 3, "softlif", 0.5)])],
            head=[LayerSpec(3, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=10)
        w.biases["head:0"][:] = 0.0
        net = convert(spec, w, P)
        masks = {"enc0:0": np.zeros(3)}
        trace = simulate(net, np.array([5.0]), masks, SimConfig(n_steps=100, burn_in_steps=10))
        assert np.all(trace == 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=dropout_networks(), seed=st.integers(0, 2 ** 32 - 1))
    @example(spec=NetworkSpec(
        input_slices=[("c", 0, 2), ("a", 2, 3), ("b", 5, 3), ("r", 8, 1)],
        encoders=[EncoderSpec(["r", "c"], [LayerSpec(3, 4, "linear", 0.5)]),
                  EncoderSpec(["a"], [LayerSpec(3, 2, "linear", 0.8)], share_tag="t"),
                  EncoderSpec(["b"], [LayerSpec(3, 2, "linear", 0.8)], share_tag="t"),
                  EncoderSpec(["r"])],
        head=[LayerSpec(9, 5, "linear", 0.5), LayerSpec(5, 1, "linear")],
        output_dim=1,
    ), seed=3)
    def test_masked_linear_network_matches_masked_forward_every_tick(self, spec, seed):
        # with only linear layers, the simulation carries no spiking state;
        # every tick of the masked trace must equal the masked analog output
        w = init_weights(spec, seed=seed)
        net = convert(spec, w, P)
        x = np.random.default_rng(seed).normal(size=spec.input_dim)
        masks = sample_masks(spec, seed)
        analog, _ = forward(spec, w, x, masks, P)
        trace = simulate(net, x, masks, SimConfig(n_steps=4, burn_in_steps=0))
        assert np.allclose(trace, analog, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=dropout_networks("softlif"), seed=st.integers(0, 2 ** 32 - 1),
           spread=st.floats(0.1, 1e3))
    @example(spec=NetworkSpec(
        input_slices=[("c", 0, 2), ("a", 2, 3), ("b", 5, 3)],
        encoders=[EncoderSpec(["c"], [LayerSpec(2, 4, "softlif", 0.5)]),
                  EncoderSpec(["a"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d"),
                  EncoderSpec(["b"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d")],
        head=[LayerSpec(16, 8, "softlif", 0.5), LayerSpec(8, 1, "linear")],
        output_dim=1,
    ), seed=5, spread=30.0)
    def test_incoming_weights_of_dropped_neurons_leave_trace_bitwise_unchanged(
            self, spec, seed, spread):
        # a dropped spiking neuron contributes syn * 0.0 == +0.0 whatever it
        # integrates; a shared row may change only if every tower drops it
        w = init_weights(spec, seed=seed)
        masks = sample_masks(spec, seed)
        dropped = {}
        for ikey, wkey, layer, _ in spec.layer_instances():
            if layer.activation == "softlif":
                off = masks[ikey] == 0
                dropped[wkey] = dropped[wkey] & off if wkey in dropped else off
        assume(any(off.any() for off in dropped.values()))
        rng = np.random.default_rng(seed)
        edited = copy_weights(w)
        for wkey, off in dropped.items():
            edited.weights[wkey][off] = rng.normal(0.0, spread, edited.weights[wkey][off].shape)
            edited.biases[wkey][off] = rng.normal(0.0, spread, off.sum())
        x = rng.normal(size=spec.input_dim)
        sim = SimConfig(n_steps=60, burn_in_steps=0)
        trace = simulate(convert(spec, w, P), x, masks, sim)
        edited_trace = simulate(convert(spec, edited, P), x, masks, sim)
        assert np.array_equal(trace, edited_trace)

    def test_mixed_passthrough_and_spiking_encoders(self):
        spec = NetworkSpec(
            input_slices=[("raw", 0, 2), ("enc", 2, 2)],
            encoders=[EncoderSpec(["raw"]),
                      EncoderSpec(["enc"], [LayerSpec(2, 3, "softlif")])],
            head=[LayerSpec(5, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=13)
        # silence the spiking tower: its filtered rates start (and stay) small
        w.weights["enc1:0"][:] = 0.0
        w.biases["enc1:0"][:] = 0.0
        w.biases["head:0"][:] = 0.0
        net = convert(spec, w, P)
        x = np.array([1.5, -0.5, 9.9, 9.9])
        trace = simulate(net, x, None, SimConfig(n_steps=30, burn_in_steps=5))
        # only the raw passthrough contributes: constant affine of the slice
        expected = w.weights["head:0"][0, :2] @ x[:2]
        assert np.allclose(trace, expected, rtol=1e-12)

    def test_loaded_model_simulates_as_its_converted_copy(self, tmp_path):
        spec = NetworkSpec(
            input_slices=[("x", 0, 3)],
            encoders=[EncoderSpec(["x"], [LayerSpec(3, 6, "softlif", 0.5),
                                          LayerSpec(6, 4, "softlif", 0.8)])],
            head=[LayerSpec(4, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=8)
        path = tmp_path / "model.json"
        save_model(path, spec, w, P)
        model = load_model(path)
        x = np.array([0.9, -0.2, 0.4])
        masks = sample_masks(spec, 12)
        sim = SimConfig(n_steps=120, burn_in_steps=20)
        got = simulate(model, x, masks, sim)
        want = simulate(convert(spec, w, P), x, masks, sim)
        assert got.tobytes() == want.tobytes()

    def test_input_dimension_checked(self):
        net = one_neuron_net()
        with pytest.raises(Exception, match="input"):
            simulate(net, np.array([1.0, 2.0]), None, SimConfig())

    def test_mask_width_checked(self):
        net = one_neuron_net()
        masks = {"enc0:0": np.ones(2)}
        with pytest.raises(Exception, match="mask"):
            simulate(net, np.array([1.0]), masks, SimConfig())


def per_draw_means(net, x, mask_sets, sim):
    """The per-draw reference of a spiking predictive distribution: one
    simulate per mask set, draw k starting from v0 seed v0_seed + k."""
    return np.array([
        summarize_trace(simulate(net, x, masks, replace(sim, v0_seed=sim.v0_seed + k)
                                 if sim.v0_seed != 0 else sim), sim.burn_in_steps)
        for k, masks in enumerate(mask_sets)
    ])


class TestBatchedDraws:
    """Spiking predictive draws step every draw of an observation together;
    per-draw simulate is the reference. Batched matmuls sum in another order,
    so draws agree to 1e-12, and bitwise where every matmul is one product."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=dropout_networks("softlif", max_output_dim=1),
           seed=st.integers(0, 2 ** 32 - 1), n_draws=st.integers(1, 6),
           v0_seed=st.sampled_from([0, 1, 2 ** 31]), tau_syn=st.sampled_from([0.0, 0.005]))
    @example(spec=NetworkSpec(
        input_slices=[("c", 0, 2), ("a", 2, 3), ("b", 5, 3)],
        encoders=[EncoderSpec(["c"], [LayerSpec(2, 4, "softlif", 0.5)]),
                  EncoderSpec(["a"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d"),
                  EncoderSpec(["b"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d")],
        head=[LayerSpec(16, 8, "softlif", 0.5), LayerSpec(8, 1, "linear")],
        output_dim=1,
    ), seed=5, n_draws=6, v0_seed=1, tau_syn=0.005)
    def test_draws_match_per_draw_simulation(self, spec, seed, n_draws, v0_seed, tau_syn):
        w = init_weights(spec, seed=seed)
        x = np.random.default_rng(seed).normal(size=spec.input_dim)
        sim = SimConfig(n_steps=40, burn_in_steps=10, tau_syn=tau_syn, v0_seed=v0_seed)
        got = predictive_distribution(spec, w, P, x, n_draws, seed, "spiking", sim).draws
        masks = [sample_masks(spec, seed + k) for k in range(n_draws)]
        want = per_draw_means(convert(spec, w, P), x, masks, sim)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_draw_count_crossing_the_block_size(self):
        spec = NetworkSpec(
            input_slices=[("x", 0, 2)],
            encoders=[EncoderSpec(["x"], [LayerSpec(2, 6, "softlif", 0.5)])],
            head=[LayerSpec(6, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=3)
        x = np.array([0.9, 0.4])
        sim = SimConfig(n_steps=20, burn_in_steps=5, v0_seed=7)
        n_draws = _BLOCK_DRAWS + 44
        got = predictive_distribution(spec, w, P, x, n_draws, 11, "spiking", sim).draws
        masks = [sample_masks(spec, 11 + k) for k in range(n_draws)]
        want = per_draw_means(convert(spec, w, P), x, masks, sim)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_width_one_chain_matches_per_draw_bitwise(self):
        # every matmul is one product, so summation order cannot differ and
        # the draws pin the mask and v0 seed rules bit for bit
        spec = NetworkSpec(
            input_slices=[("x", 0, 1)],
            encoders=[EncoderSpec(["x"], [LayerSpec(1, 1, "softlif", 0.8),
                                          LayerSpec(1, 1, "softlif", 0.8)])],
            head=[LayerSpec(1, 1, "softlif", 0.8), LayerSpec(1, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=0)
        for key in ("enc0:0", "enc0:1", "head:0"):
            w.weights[key][:] = 0.004
            w.biases[key][:] = 1.5
        w.weights["head:1"][:] = 0.3
        x = np.array([2.0])
        sim = SimConfig(n_steps=120, burn_in_steps=20, v0_seed=5)
        got = predictive_distribution(spec, w, P, x, 12, 40, "spiking", sim).draws
        masks = [sample_masks(spec, 40 + k) for k in range(12)]
        want = per_draw_means(convert(spec, w, P), x, masks, sim)
        assert len(np.unique(got)) > 2  # the draws differ: masks and v0 act
        assert np.array_equal(got, want)


ONE_ULP_BELOW = np.nextafter(1.0, 0.0)
ONE_ULP_ABOVE = np.nextafter(1.0, 2.0)
# v_th = 1 in every NeuronParams below; never-spiking, boundary, slow and fast drives
EDGE_CURRENTS = np.array([-3.0, 0.0, 0.5, ONE_ULP_BELOW, 1.0, ONE_ULP_ABOVE, 1.0000001,
                          1.001, 1.05, 1.5, 2.0, 4.0, 50.0, 1e9, np.nan])


def replay_raster(current, v0, sim, p):
    """The clock-driven spike raster (n_steps, neurons) of LIF neurons at a
    constant current: lif_step_arrays on every neuron, every tick."""
    v, refr = v0.copy(), np.zeros_like(v0)
    raster = np.zeros((sim.n_steps, current.size), dtype=bool)
    for t in range(sim.n_steps):
        v, refr, raster[t] = lif_step_arrays(v, refr, current, sim.dt, p)
    return raster


def event_raster(t0, k, n_steps):
    """The raster of spikes at ticks t0 + m * k below n_steps."""
    ticks = np.arange(n_steps)[:, None]
    return (ticks >= t0) & ((ticks - t0) % k == 0)


def clock_means(net, x, scales, sim, n):
    """The clock-driven post-burn-in mean of each draw."""
    v0 = snn._initial_voltages(net.spec, net.neuron_params, sim, 0, n)
    traces = snn._simulate_block(net, x, scales, sim, v0, n)
    return traces[:, sim.burn_in_steps:, 0].mean(axis=1)


HEAD_ONLY_SPIKING = NetworkSpec(
    input_slices=[("c", 0, 2), ("a", 2, 3)],
    encoders=[EncoderSpec(["c"]), EncoderSpec(["a", "c"])],
    head=[LayerSpec(7, 5, "softlif", 0.5), LayerSpec(5, 3, "linear", 0.8),
          LayerSpec(3, 1, "linear")],
    output_dim=1,
)


class TestSpikeTrain:
    """The spike ticks _spike_train gives are those of a tick-by-tick replay."""

    @pytest.mark.parametrize("tau_ref", [0.0, 0.002, 0.02])
    @pytest.mark.parametrize("v0_seed", [0, 1, 99])
    @pytest.mark.parametrize("n_steps", [1, 30, 400, 3000])
    def test_ticks_equal_replay(self, tau_ref, v0_seed, n_steps):
        p = NeuronParams(tau_ref=tau_ref)
        sim = SimConfig(n_steps=n_steps, burn_in_steps=0, v0_seed=v0_seed)
        current = np.tile(EDGE_CURRENTS, (3, 1))
        v0 = snn._initial_voltages(rate_bank_spec(EDGE_CURRENTS.size), p, sim, 0, 3)[0]
        if v0_seed:
            v0[2, :4] = ONE_ULP_BELOW  # starts one ulp below threshold
        with np.errstate(invalid="ignore"):
            want = replay_raster(current.ravel(), v0.ravel(), sim, p)
        t0, k = snn._spike_train(current, v0, sim, p)
        assert t0.shape == k.shape == current.shape
        assert np.array_equal(event_raster(t0.ravel(), k.ravel(), n_steps), want)

    def test_boundary_currents(self):
        # from rest, v_th + 1 ulp never reaches threshold in 3000 ticks and
        # 1.0000001 first spikes at tick 322, then every 325 ticks
        sim = SimConfig(n_steps=3000, burn_in_steps=0, v0_seed=0)
        current = np.array([ONE_ULP_BELOW, 1.0, ONE_ULP_ABOVE, 1.0000001])
        t0, k = snn._spike_train(current, np.zeros(4), sim, P)
        assert np.array_equal(t0, [3000, 3000, 3000, 322])
        assert k[3] == 325

    def test_period_longer_than_the_rest_of_the_run(self):
        # the second spike (tick 647) falls after the run: one spike, k = n_steps
        sim = SimConfig(n_steps=400, burn_in_steps=0, v0_seed=0)
        t0, k = snn._spike_train(np.array([1.0000001]), np.zeros(1), sim, P)
        assert t0[0] == 322 and k[0] == 400

    @pytest.mark.parametrize("n_steps, k", [(647, 647), (648, 325)])
    def test_second_spike_at_the_end_of_the_run(self, n_steps, k):
        # spikes at ticks 322 and 647: the second one falls just outside a
        # 647-tick run and on the last tick of a 648-tick run
        sim = SimConfig(n_steps=n_steps, burn_in_steps=0, v0_seed=0)
        t0, got = snn._spike_train(np.array([1.0000001]), np.zeros(1), sim, P)
        assert t0[0] == 322 and got[0] == k

    def test_subthreshold_neurons_are_never_stepped(self):
        # started far above threshold, every one of these neurons spikes on
        # its first clock-driven step; one that _spike_train reports silent
        # was never stepped
        sim = SimConfig(n_steps=200, burn_in_steps=0)
        current = np.array([[0.2, 1.5, ONE_ULP_BELOW, -4.0, np.nan],
                            [1.5, 0.9, 0.0, 3.0, 2.0]])
        v0 = np.full(current.shape, 10.0)
        with np.errstate(invalid="ignore"):
            stepped_once = replay_raster(current.ravel(), v0.ravel(), replace(sim, n_steps=1), P)
        below = current < P.v_th
        assert stepped_once[0][below.ravel()].all()
        t0, _ = snn._spike_train(current, v0, sim, P)
        assert np.array_equal(t0, np.where(below | np.isnan(current), 200, 0))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), tau_ref=st.sampled_from([0.0, 0.002, 0.0025, 0.0137, 0.02]),
           dt=st.sampled_from([0.001, 0.0013]), n_steps=st.sampled_from([1, 2, 17, 300]))
    def test_ticks_equal_replay_at_any_clock(self, data, tau_ref, dt, n_steps):
        # the first-spike loop's one decay factor (a scalar exp) and the
        # replays joining at their first tick with active time, against
        # lif_step_arrays on every neuron, every tick; a tau_ref that is not a
        # multiple of dt leaves the replays a partial first tick
        p = NeuronParams(tau_ref=tau_ref)
        sim = SimConfig(dt=dt, n_steps=n_steps, burn_in_steps=0)
        shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)))
        size = shape[0] * shape[1]
        current = np.array(data.draw(st.lists(st.one_of(
            st.sampled_from([ONE_ULP_BELOW, 1.0, ONE_ULP_ABOVE, 1.0000001, 1.05, 2.0, 1e9,
                             np.nan, np.inf, -np.inf]),
            st.floats(0.5, 60.0)), min_size=size, max_size=size))).reshape(shape)
        v0 = np.array(data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, ONE_ULP_BELOW]),
            st.floats(0.0, 1.0, exclude_max=True)), min_size=size, max_size=size))).reshape(shape)
        with np.errstate(invalid="ignore"):  # inf - inf stepping inf
            want = replay_raster(current.ravel(), v0.ravel(), sim, p)
            t0, k = snn._spike_train(current, v0, sim, p)
        assert np.array_equal(event_raster(t0.ravel(), k.ravel(), n_steps), want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), tau_ref=st.sampled_from([0.0, 0.002, 0.02]),
           n_steps=st.sampled_from([1, 40, 400]))
    def test_neuron_order_does_not_matter(self, data, tau_ref, n_steps):
        # _draw_means lays the SoftLIF layers of a block side by side, so a
        # neuron's ticks must not depend on its position or its neighbours
        p = NeuronParams(tau_ref=tau_ref)
        sim = SimConfig(n_steps=n_steps, burn_in_steps=0)
        shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)))
        size = shape[0] * shape[1]
        current = np.array(data.draw(st.lists(st.one_of(
            st.sampled_from([-1.0, 0.3, ONE_ULP_BELOW, 1.0, ONE_ULP_ABOVE, 1.0000001, 2.0]),
            st.floats(0.0, 40.0)), min_size=size, max_size=size))).reshape(shape)
        v0 = np.array(data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, 0.5, ONE_ULP_BELOW]),
            st.floats(0.0, 1.0, exclude_max=True)), min_size=size, max_size=size))).reshape(shape)
        perm = np.array(data.draw(st.permutations(range(size))))
        t0, k = snn._spike_train(current, v0, sim, p)
        got = snn._spike_train(current.ravel()[perm].reshape(shape),
                               v0.ravel()[perm].reshape(shape), sim, p)
        assert np.array_equal(got[0], t0.ravel()[perm].reshape(shape))
        assert np.array_equal(got[1], k.ravel()[perm].reshape(shape))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), tau_ref=st.sampled_from([0.0, 0.002, 0.02]),
           n_steps=st.sampled_from([1, 2, 40, 400]), v0_seed=st.sampled_from([0, 3]))
    def test_ticks_equal_second_spike_stepping(self, data, tau_ref, n_steps, v0_seed):
        # few distinct currents, each shared by many neuron-draws: per column,
        # one base current, scaled per draw as a dropout mask scales its input
        p = NeuronParams(tau_ref=tau_ref)
        sim = SimConfig(n_steps=n_steps, burn_in_steps=0, v0_seed=v0_seed)
        base = data.draw(st.lists(st.one_of(
            st.sampled_from([ONE_ULP_BELOW, 1.0, ONE_ULP_ABOVE, 1.0000001, 1.05, 2.0,
                             np.nan, np.inf, -np.inf]),
            st.floats(0.5, 60.0)), min_size=1, max_size=5))
        n_draws = data.draw(st.integers(1, 8))
        scale = data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0, 1.0, 1 / 0.9, 2.0]),
                                            min_size=len(base), max_size=len(base)),
                                   min_size=n_draws, max_size=n_draws))
        v0 = np.zeros((n_draws, len(base)))
        if v0_seed:
            v0 = np.random.default_rng(v0_seed).uniform(0.0, p.v_th, v0.shape)
        with np.errstate(invalid="ignore"):  # 0 * inf here, inf - inf stepping inf
            current = np.array(scale) * np.array(base)
            want = second_spike_train(current, v0, sim, p)
            got = snn._spike_train(current, v0, sim, p)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def second_spike_train(current, v0, sim, p):
    """The reference for _spike_train: every neuron that is not below v_th
    stepped with lif_step_arrays until its second spike (or the end of the
    run); k is the distance between its first two spikes."""
    n_steps = sim.n_steps
    t0 = np.full(current.size, n_steps)
    k = np.full(current.size, n_steps)
    pending = np.flatnonzero(~(current < p.v_th))
    c = current.reshape(-1)[pending]
    v = v0.reshape(-1)[pending]
    refr = np.zeros_like(v)
    for t in range(n_steps):
        if not pending.size:
            break
        v, refr, spiked = lif_step_arrays(v, refr, c, sim.dt, p)
        if not spiked.any():
            continue
        had_spiked = t0[pending] < n_steps
        t0[pending[spiked & ~had_spiked]] = t
        second = spiked & had_spiked
        if second.any():
            done = pending[second]
            k[done] = t - t0[done]
            keep = ~second
            pending, c, v, refr = pending[keep], c[keep], v[keep], refr[keep]
    return t0.reshape(current.shape), k.reshape(current.shape)


def whole_array_mean_rate(t0, k, tail):
    """The reference for _mean_rate: every neuron, silent ones included,
    summed one spike index at a time."""
    end = tail.size - 1
    mean = np.zeros(t0.shape)
    tick = t0
    while (tick < end).any():
        mean += tail[np.minimum(tick, end)]
        tick = tick + k
    return mean


class TestMeanRate:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n_steps=st.sampled_from([1, 2, 9, 60, 350]),
           tau_syn=st.sampled_from([0.0, 0.005]))
    def test_equals_the_whole_array_loop(self, data, n_steps, tau_syn):
        # silent neurons (t0 = n_steps), single spikes (k = n_steps), k = 1
        # and everything between, bit for bit
        burn_in = data.draw(st.integers(0, n_steps - 1))
        tail = snn._tail_means(SimConfig(n_steps=n_steps, burn_in_steps=burn_in, tau_syn=tau_syn))
        shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(0, 6)))
        size = shape[0] * shape[1]
        t0 = np.array(data.draw(st.lists(st.one_of(st.just(n_steps), st.integers(0, n_steps)),
                                         min_size=size, max_size=size)), dtype=int).reshape(shape)
        k = np.array(data.draw(st.lists(st.one_of(st.sampled_from([1, n_steps]),
                                                  st.integers(1, n_steps)),
                                        min_size=size, max_size=size)), dtype=int).reshape(shape)
        assert np.array_equal(snn._mean_rate(t0, k, tail), whole_array_mean_rate(t0, k, tail))


class TestCachedValues:
    """The start voltages and tail means that every observation of a run
    shares are computed once per block of draws by ``_draw_means``'s set-up
    and held in the closure it returns; no module keeps a cache."""

    TWO_TOWERS = NetworkSpec(
        input_slices=[("x", 0, 2)],
        encoders=[EncoderSpec(["x"], [LayerSpec(2, 3, "linear", 0.5), LayerSpec(3, 4, "softlif")]),
                  EncoderSpec(["x"], [LayerSpec(2, 5, "softlif", 0.8)])],
        head=[LayerSpec(9, 2, "softlif", 0.5), LayerSpec(2, 1, "linear")],
        output_dim=1,
    )

    @pytest.mark.parametrize("first_draw", [0, 3, 256])
    @pytest.mark.parametrize("v_th", [1.0, 0.7, 3.3])
    def test_initial_voltages_equal_per_draw_uniforms(self, first_draw, v_th):
        sim = SimConfig(v0_seed=11)
        p = NeuronParams(v_th=v_th)
        got = snn._initial_voltages(self.TWO_TOWERS, p, sim, first_draw, 6)
        assert list(got) == [1, 2, 3]
        for k in range(6):
            rng = np.random.default_rng(sim.v0_seed + first_draw + k)
            for i, width in zip(got, (4, 5, 2)):
                assert np.array_equal(got[i][k], rng.uniform(0.0, v_th, width))

    def test_no_module_keeps_a_cache(self):
        modules = [importlib.import_module(f"spikedrop.{m.name}")
                   for m in pkgutil.iter_modules(spikedrop.__path__)]
        cached = [f"{module.__name__}.{name}" for module in [spikedrop, *modules]
                  for name, value in vars(module).items() if hasattr(value, "cache_info")]
        assert cached == []


class TestTailMeans:
    def test_unfiltered_tail_is_the_bare_impulse(self):
        sim = SimConfig(n_steps=10, burn_in_steps=4, tau_syn=0.0)
        want = np.zeros(11)
        want[4:10] = 1.0 / sim.dt / 6
        assert np.array_equal(snn._tail_means(sim), want)

    @pytest.mark.parametrize("burn_in", [0, 7])
    def test_filtered_tail_equals_the_recursion(self, burn_in):
        # one impulse at tick s, stepped by the clock-driven filter recursion
        sim = SimConfig(n_steps=30, burn_in_steps=burn_in, tau_syn=0.005)
        alpha = sim.dt / sim.tau_syn
        tail = snn._tail_means(sim)
        for s in range(30):
            syn, out = 0.0, np.zeros(30)
            for t in range(30):
                syn = syn + alpha * ((1.0 / sim.dt if t == s else 0.0) - syn)
                out[t] = syn
            assert tail[s] == pytest.approx(out[burn_in:].mean(), rel=1e-13, abs=1e-12)
        assert tail[30] == 0.0


class TestEventDrivenDraws:
    """When no SoftLIF layer lies downstream of another, _draw_means takes
    each draw's mean from spike times; it equals the clock-driven tail mean
    to 1e-12. Other specs keep the clock-driven path, bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(spec=one_spiking_layer_per_path_networks(), seed=st.integers(0, 2 ** 32 - 1),
           n_draws=st.integers(1, 6), v0_seed=st.sampled_from([0, 1, 2 ** 31]),
           tau_syn=st.sampled_from([0.0, 0.005]), burn_in=st.sampled_from([0, 30]),
           tau_ref=st.sampled_from([0.0, 0.002, 0.02]))
    @example(spec=HEAD_ONLY_SPIKING, seed=2, n_draws=5, v0_seed=1, tau_syn=0.005,
             burn_in=30, tau_ref=0.002)
    @example(spec=HEAD_ONLY_SPIKING, seed=3, n_draws=4, v0_seed=0, tau_syn=0.0,
             burn_in=0, tau_ref=0.0)
    def test_event_means_equal_clock_means(self, spec, seed, n_draws, v0_seed, tau_syn,
                                           burn_in, tau_ref):
        assert snn._one_spiking_layer_per_path(spec)
        p = NeuronParams(tau_ref=tau_ref)
        w = init_weights(spec, seed=seed)
        net = convert(spec, w, p)
        x = np.random.default_rng(seed).normal(size=spec.input_dim)
        sim = SimConfig(n_steps=150, burn_in_steps=burn_in, tau_syn=tau_syn, v0_seed=v0_seed)
        scales = _draw_scales(spec, range(seed, seed + n_draws))
        got = snn._draw_means(net, sim, 0, n_draws)(x, scales)
        assert np.allclose(got, clock_means(net, x, scales, sim, n_draws),
                           rtol=1e-12, atol=1e-12)

    def test_head_only_spiking_draws_spike(self):
        # the head example above is not vacuous: its SoftLIF layer spikes
        w = init_weights(HEAD_ONLY_SPIKING, seed=2)
        net = convert(HEAD_ONLY_SPIKING, w, P)
        x = np.random.default_rng(2).normal(size=5)
        sim = SimConfig(n_steps=150, burn_in_steps=30)
        v0 = snn._initial_voltages(HEAD_ONLY_SPIKING, P, sim, 0, 1)[0]
        current = np.concatenate([x[:2], x[2:], x[:2]]) @ w.weights["head:0"].T + w.biases["head:0"]
        t0, _ = snn._spike_train(current[None, :], v0, sim, P)
        assert (t0 < sim.n_steps).any()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(spec=dropout_networks("softlif", max_output_dim=1),
           seed=st.integers(0, 2 ** 32 - 1), n_draws=st.integers(1, 4))
    def test_nested_spiking_layers_stay_on_the_clock_path(self, spec, seed, n_draws):
        assume(not snn._one_spiking_layer_per_path(spec))
        net = convert(spec, init_weights(spec, seed=seed), P)
        x = np.random.default_rng(seed).normal(size=spec.input_dim)
        sim = SimConfig(n_steps=60, burn_in_steps=10)
        scales = _draw_scales(spec, range(seed, seed + n_draws))
        got = snn._draw_means(net, sim, 0, n_draws)(x, scales)
        assert np.array_equal(got, clock_means(net, x, scales, sim, n_draws))

    @pytest.mark.parametrize("towers, head, eligible", [
        ([["softlif"], ["linear", "softlif", "linear"], []], ["linear"], True),
        ([[], ["linear"]], ["softlif", "linear", "linear"], True),
        ([["linear"]], ["linear"], True),
        ([["softlif", "softlif"]], ["linear"], False),
        ([["softlif"], []], ["softlif", "linear"], False),
        ([[]], ["softlif", "softlif", "linear"], False),
    ])
    def test_eligibility(self, towers, head, eligible):
        spec = NetworkSpec(
            input_slices=[("x", 0, 1)],
            encoders=[EncoderSpec(["x"], [LayerSpec(1, 1, act) for act in acts])
                      for acts in towers],
            head=[LayerSpec(1, 1, act) for act in head],
            output_dim=1,
        )
        assert snn._one_spiking_layer_per_path(spec) is eligible


class TestOneRowPerObservation:
    """Both spiking paths gather the observation's one row; the network pass
    widens each path to a row per draw at its first per-draw array (a dropout
    scale, or the LIF state started from each draw's voltages)."""

    def record_shapes(self, monkeypatch, spec, n):
        gathered, currents = [], []

        def gather_inputs(spec, rows):
            gathered.append(rows.shape)
            return network._gather_inputs(spec, rows)

        def lif_step(voltage, refractory, current, dt, params):
            currents.append(np.shape(current))
            return lif_step_arrays(voltage, refractory, current, dt, params)

        monkeypatch.setattr(snn, "_gather_inputs", gather_inputs)
        monkeypatch.setattr(snn, "lif_step_arrays", lif_step)
        net = convert(spec, init_weights(spec, seed=0), P)
        x = np.random.default_rng(0).normal(size=spec.input_dim)
        sim = SimConfig(n_steps=20, burn_in_steps=5)
        draws = snn._draw_means(net, sim, 0, n)(x, _draw_scales(spec, range(n)))
        assert draws.shape == (n,)
        return gathered, currents

    def test_clock_path_widens_at_the_first_per_draw_array(self, monkeypatch):
        spec = combo_spec(8, 8)
        assert not snn._one_spiking_layer_per_path(spec)
        gathered, currents = self.record_shapes(monkeypatch, spec, 7)
        assert gathered == [(1, 24)]
        # per tick: three towers on the one row, then the head on a row per draw
        assert currents == [(1, 16), (1, 16), (1, 16), (7, 32)] * 20

    def test_exact_path_gathers_one_row(self, monkeypatch):
        spec = combo_spec(8, 8, head_hidden=0)
        assert snn._one_spiking_layer_per_path(spec)
        gathered, currents = self.record_shapes(monkeypatch, spec, 7)
        assert gathered == [(1, 24)] and currents == []

    def test_network_without_spikes_or_dropout_fills_every_draw(self):
        # the pass never widens, so its one-row output fills the whole block
        spec = NetworkSpec(
            input_slices=[("x", 0, 3)],
            encoders=[EncoderSpec(["x"], [LayerSpec(3, 4, "linear")])],
            head=[LayerSpec(4, 1, "linear")],
            output_dim=1,
        )
        w = init_weights(spec, seed=4)
        net = convert(spec, w, P)
        x = np.array([0.3, -1.2, 2.0])
        sim = SimConfig(n_steps=30, burn_in_steps=10)
        got = predictive_distribution(spec, w, P, x, 5, 9, "spiking", sim).draws
        want = per_draw_means(net, x, [sample_masks(spec, 9 + k) for k in range(5)], sim)
        assert got.shape == (5,)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        clock = clock_means(net, x, _draw_scales(spec, range(9, 14)), sim, 5)
        assert np.allclose(clock, want, rtol=1e-12, atol=1e-12)


class TestSummarizeTrace:
    def test_constant_trace(self):
        trace = np.full(10, 3.5)
        assert summarize_trace(trace, 4) == 3.5

    def test_transient_excluded(self):
        trace = np.array([100.0, 100.0, 5.0, 5.0])
        assert summarize_trace(trace, 2) == 5.0

    def test_ramp_mean(self):
        trace = np.arange(1000.0)
        assert summarize_trace(trace, 200) == pytest.approx(599.5)

    def test_burn_in_too_long(self):
        trace = np.arange(10.0)
        with pytest.raises(ValueError):
            summarize_trace(trace, 10)

    def test_vector_output(self):
        trace = np.tile([[1.0, 2.0]], (6, 1))
        assert np.array_equal(summarize_trace(trace, 2), [1.0, 2.0])


class TestWriteTrace:
    def test_format_and_meta(self, tmp_path):
        trace = np.array([0.5, 1.5, 2.5])
        path = tmp_path / "trace.csv"
        write_trace(path, trace, 0.001, {"dnn_output": 1.25})
        lines = path.read_text().splitlines()
        assert lines[0] == "# dnn_output=1.25"
        assert lines[1] == "tick,time_s,output_potential"
        assert lines[2].split(",") == ["0", "0.0", "0.5"]
        assert lines[4].split(",")[0] == "2"

    def test_vector_trace_rejected(self, tmp_path):
        trace = np.zeros((4, 2))
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.csv", trace, 0.001)
