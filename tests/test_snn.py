from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spikedrop.convert import convert
from spikedrop.mcinfer import _BLOCK_DRAWS, predictive_distribution
from spikedrop.network import (
    DropMasks,
    EncoderSpec,
    LayerSpec,
    NetworkSpec,
    forward,
    init_weights,
    sample_masks,
)
from spikedrop.neuron import NeuronParams, lif_rate
from strategies import dropout_networks, single_tower
from spikedrop.snn import (
    OutputTrace,
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


def rate_bank_net(currents):
    """One layer of neurons at fixed drives, identity readout per neuron."""
    n = len(currents)
    spec = NetworkSpec(
        input_slices=[("x", 0, 1)],
        encoders=[EncoderSpec(["x"], [LayerSpec(1, n, "softlif")])],
        head=[LayerSpec(n, n, "linear")],
        output_dim=n,
    )
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
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_filter_rule_boundaries_accepted(self):
        SimConfig(dt=0.005, tau_syn=0.005)  # gain 1: the filter passes impulses through
        SimConfig(dt=0.01, tau_syn=0.0)     # no filter


class TestSimulate:
    def test_zero_network_gives_zero_trace(self):
        net = one_neuron_net(weight=0.0, bias=0.0, readout=0.0)
        trace = simulate(net, np.array([1.0]), None, SimConfig(n_steps=100, burn_in_steps=10))
        assert np.all(trace.values == 0.0)

    def test_deterministic_bitwise(self):
        net = one_neuron_net(weight=1.0)
        sim = SimConfig(n_steps=300, burn_in_steps=50)
        a = simulate(net, np.array([2.0]), None, sim)
        b = simulate(net, np.array([2.0]), None, sim)
        assert np.array_equal(a.values, b.values)

    def test_single_neuron_filtered_rate_matches_closed_form(self):
        # constant J = 2, tau_syn = 5 ms, 10 s at dt = 1e-4
        net = one_neuron_net(weight=1.0)
        sim = SimConfig(dt=1e-4, n_steps=100_000, burn_in_steps=0, tau_syn=0.005)
        trace = simulate(net, np.array([2.0]), None, sim)
        assert np.mean(trace.values) == pytest.approx(lif_rate(2.0, P), rel=0.02)

    def test_rate_bank_matches_closed_form(self):
        # several suprathreshold drives at once, 5 s at dt = 1e-4
        currents = [1.1, 1.5, 2.0, 4.0]
        net = rate_bank_net(currents)
        sim = SimConfig(dt=1e-4, n_steps=50_000, burn_in_steps=0, tau_syn=0.005)
        trace = simulate(net, np.array([0.0]), None, sim)
        means = trace.values.mean(axis=0)
        for current, measured in zip(currents, means):
            assert measured == pytest.approx(lif_rate(current, P), rel=0.02)

    def test_unfiltered_spikes_average_to_rate(self):
        # tau_syn = 0 passes raw impulses through; their mean is still the rate
        net = one_neuron_net(weight=1.0)
        sim = SimConfig(dt=1e-3, n_steps=5000, burn_in_steps=0, tau_syn=0.0)
        trace = simulate(net, np.array([2.0]), None, sim)
        assert set(np.unique(trace.values)) <= {0.0, 1.0 / sim.dt}
        assert np.mean(trace.values) == pytest.approx(lif_rate(2.0, P), rel=0.02)

    def test_linear_network_reproduces_affine_map_every_tick(self):
        spec = single_tower(3, [LayerSpec(3, 1, "linear")])
        w = init_weights(spec, seed=4)
        net = convert(spec, w, P)
        x = np.array([0.5, -1.0, 2.0])
        analog, _ = forward(spec, w, x, None, P)
        trace = simulate(net, x, None, SimConfig(n_steps=50, burn_in_steps=5))
        assert np.all(np.abs(trace.values - analog[0]) < 1e-12)

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
        tail = trace.values[200:]
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
        masked = simulate(net, x, DropMasks({"enc0:0": mask}), sim)

        edited = w.copy()
        edited.weights["head:0"] = edited.weights["head:0"] * mask / keep_prob
        edited_net = convert(spec, edited, P)
        reference = simulate(edited_net, x, None, sim)
        assert np.allclose(masked.values, reference.values, rtol=1e-12, atol=1e-12)

    def test_heterogeneous_start_changes_transient_not_summary(self):
        net = one_neuron_net(weight=1.0)
        sim0 = SimConfig(n_steps=2000, burn_in_steps=500, v0_seed=0)
        sim1 = SimConfig(n_steps=2000, burn_in_steps=500, v0_seed=1)
        t0 = simulate(net, np.array([2.0]), None, sim0)
        t1 = simulate(net, np.array([2.0]), None, sim1)
        assert not np.array_equal(t0.values, t1.values)
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
            assert np.flatnonzero(trace.values[:, j])[0] == tick

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
        masks = DropMasks({"enc0:0": np.zeros(3)})
        trace = simulate(net, np.array([5.0]), masks, SimConfig(n_steps=100, burn_in_steps=10))
        assert np.all(trace.values == 0.0)

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
        assert np.allclose(trace.values, analog, rtol=1e-12, atol=1e-12)

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
        edited = w.copy()
        for wkey, off in dropped.items():
            edited.weights[wkey][off] = rng.normal(0.0, spread, edited.weights[wkey][off].shape)
            edited.biases[wkey][off] = rng.normal(0.0, spread, off.sum())
        x = rng.normal(size=spec.input_dim)
        sim = SimConfig(n_steps=60, burn_in_steps=0)
        trace = simulate(convert(spec, w, P), x, masks, sim)
        edited_trace = simulate(convert(spec, edited, P), x, masks, sim)
        assert np.array_equal(trace.values, edited_trace.values)

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
        assert np.allclose(trace.values, expected, rtol=1e-12)

    def test_input_dimension_checked(self):
        net = one_neuron_net()
        with pytest.raises(Exception, match="input"):
            simulate(net, np.array([1.0, 2.0]), None, SimConfig())

    def test_mask_width_checked(self):
        net = one_neuron_net()
        masks = DropMasks({"enc0:0": np.ones(2)})
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


class TestSummarizeTrace:
    def test_constant_trace(self):
        trace = OutputTrace(values=np.full(10, 3.5), dt=0.001)
        assert summarize_trace(trace, 4) == 3.5

    def test_transient_excluded(self):
        trace = OutputTrace(values=np.array([100.0, 100.0, 5.0, 5.0]), dt=0.001)
        assert summarize_trace(trace, 2) == 5.0

    def test_ramp_mean(self):
        trace = OutputTrace(values=np.arange(1000.0), dt=0.001)
        assert summarize_trace(trace, 200) == pytest.approx(599.5)

    def test_burn_in_too_long(self):
        trace = OutputTrace(values=np.arange(10.0), dt=0.001)
        with pytest.raises(ValueError):
            summarize_trace(trace, 10)

    def test_vector_output(self):
        trace = OutputTrace(values=np.tile([[1.0, 2.0]], (6, 1)), dt=0.001)
        assert np.array_equal(summarize_trace(trace, 2), [1.0, 2.0])


class TestWriteTrace:
    def test_format_and_meta(self, tmp_path):
        trace = OutputTrace(values=np.array([0.5, 1.5, 2.5]), dt=0.001)
        path = tmp_path / "trace.csv"
        write_trace(path, trace, {"dnn_output": 1.25})
        lines = path.read_text().splitlines()
        assert lines[0] == "# dnn_output=1.25"
        assert lines[1] == "tick,time_s,output_potential"
        assert lines[2].split(",") == ["0", "0.0", "0.5"]
        assert lines[4].split(",")[0] == "2"

    def test_vector_trace_rejected(self, tmp_path):
        trace = OutputTrace(values=np.zeros((4, 2)), dt=0.001)
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.csv", trace)
