import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikedrop.convert import convert
from spikedrop.mcinfer import (
    _BLOCK_DRAWS,
    BACKENDS,
    SampleSet,
    predictive_distribution,
    read_samples,
    write_samples,
)
from spikedrop.network import (
    DropMasks,
    EncoderSpec,
    InvalidNetworkError,
    LayerSpec,
    NetworkSpec,
    forward,
    init_weights,
    sample_masks,
)
from spikedrop.neuron import NeuronParams
from spikedrop.snn import SimConfig
from strategies import dropout_networks

P = NeuronParams()


def four_neuron_net(keep_prob=0.8):
    spec = NetworkSpec(
        input_slices=[("x", 0, 2)],
        encoders=[EncoderSpec(["x"], [LayerSpec(2, 4, "softlif", keep_prob)])],
        head=[LayerSpec(4, 1, "linear")],
        output_dim=1,
    )
    weights = init_weights(spec, seed=23)
    rng = np.random.default_rng(2)
    weights.weights["enc0:0"][:] = rng.uniform(0.2, 0.8, size=(4, 2))
    weights.biases["enc0:0"][:] = rng.uniform(0.8, 1.5, size=4)
    weights.weights["head:0"][:] = rng.uniform(-0.05, 0.05, size=(1, 4))
    weights.biases["head:0"][:] = 0.2
    return spec, weights


def enumerate_exact_mean(spec, weights, observation, keep_prob):
    """Bernoulli-weighted expectation over all 2^4 drop patterns."""
    total = 0.0
    for bits in itertools.product([0.0, 1.0], repeat=4):
        mask = np.array(bits)
        k = int(mask.sum())
        prob = keep_prob ** k * (1 - keep_prob) ** (4 - k)
        out, _ = forward(spec, weights, observation,
                         DropMasks({"enc0:0": mask}), P)
        total += prob * out[0]
    return total


class TestPredictiveDistribution:
    def test_keep_prob_one_degenerate(self):
        spec, weights = four_neuron_net(keep_prob=1.0)
        obs = np.array([0.5, -0.5])
        ss = predictive_distribution(spec, weights, P, obs, 50, 0, "analog")
        assert np.all(ss.draws == ss.draws[0])

    def test_deterministic_given_base_seed(self):
        spec, weights = four_neuron_net()
        obs = np.array([0.1, 0.9])
        a = predictive_distribution(spec, weights, P, obs, 30, 42, "analog")
        b = predictive_distribution(spec, weights, P, obs, 30, 42, "analog")
        assert np.array_equal(a.draws, b.draws)

    def test_matches_exhaustive_enumeration(self):
        spec, weights = four_neuron_net(keep_prob=0.8)
        obs = np.array([0.7, 0.2])
        exact = enumerate_exact_mean(spec, weights, obs, keep_prob=0.8)
        ss = predictive_distribution(spec, weights, P, obs, 10_000, 7, "analog")
        stderr = np.std(ss.draws, ddof=1) / np.sqrt(ss.draws.size)
        assert abs(np.mean(ss.draws) - exact) <= 3 * stderr

    def test_seed_disjoint_ranges_share_no_masks(self):
        spec = NetworkSpec(
            input_slices=[("x", 0, 2)],
            encoders=[EncoderSpec(["x"], [LayerSpec(2, 400, "softlif", 0.5)])],
            head=[LayerSpec(400, 1, "linear")],
            output_dim=1,
        )
        seen = set()
        for seed in list(range(0, 40)) + list(range(1000, 1040)):
            seen.add(sample_masks(spec, seed)["enc0:0"].tobytes())
        assert len(seen) == 80

    def test_backends_share_mask_streams(self, monkeypatch):
        # the kth draw of either backend evaluates the identical mask seed
        import spikedrop.mcinfer as mc

        spec, weights = four_neuron_net(keep_prob=0.5)
        obs = np.array([0.2, 0.2])
        seen = {"analog": [], "spiking": []}
        current = ["analog"]
        real = mc._draw_scales

        def recording(s, seeds):
            seen[current[0]].extend(seeds)
            return real(s, seeds)

        monkeypatch.setattr(mc, "_draw_scales", recording)
        predictive_distribution(spec, weights, P, obs, 6, 303, "analog")
        current[0] = "spiking"
        predictive_distribution(spec, weights, P, obs, 6, 303, "spiking",
                                SimConfig(n_steps=60, burn_in_steps=10))
        assert seen["analog"] == seen["spiking"] == [303 + k for k in range(6)]

    def test_spiking_backend_runs_and_is_deterministic(self):
        spec, weights = four_neuron_net(keep_prob=0.8)
        obs = np.array([0.4, 0.1])
        sim = SimConfig(n_steps=300, burn_in_steps=60)
        a = predictive_distribution(spec, weights, P, obs, 4, 5, "spiking", sim)
        b = predictive_distribution(spec, weights, P, obs, 4, 5, "spiking", sim)
        assert np.array_equal(a.draws, b.draws)
        assert a.backend == "spiking"

    def test_spiking_draws_independent_of_draw_count(self):
        # draw k depends on its seeds alone, not on how many draws share its batch
        spec, weights = four_neuron_net(keep_prob=0.5)
        obs = np.array([0.6, 0.3])
        sim = SimConfig(n_steps=150, burn_in_steps=30, v0_seed=9)
        five = predictive_distribution(spec, weights, P, obs, 5, 17, "spiking", sim)
        twelve = predictive_distribution(spec, weights, P, obs, 12, 17, "spiking", sim)
        assert np.array_equal(five.draws, twelve.draws[:5])

    def test_rejects_bad_arguments(self):
        spec, weights = four_neuron_net()
        obs = np.array([0.0, 0.0])
        with pytest.raises(ValueError):
            predictive_distribution(spec, weights, P, obs, 0, 0, "analog")
        with pytest.raises(ValueError):
            predictive_distribution(spec, weights, P, obs, 5, 0, "quantum")

    @pytest.mark.parametrize("backend", ["analog", "spiking"])
    def test_rejects_wrong_observation_width(self, backend):
        spec, weights = four_neuron_net()
        with pytest.raises(InvalidNetworkError, match=r"\(3,\).*\(2,\)"):
            predictive_distribution(spec, weights, P, np.zeros(3), 4, 0, backend)


def per_draw_forward(spec, weights, obs, n_draws, base_seed):
    """The per-draw reference of an analog predictive distribution: one
    forward pass per draw k under the masks of seed base_seed + k."""
    return np.array([forward(spec, weights, obs, sample_masks(spec, base_seed + k), P)[0][0]
                     for k in range(n_draws)])


class TestBatchedAnalogDraws:
    """Analog predictive draws of an observation are one batched forward pass
    per block; per-draw forward is the reference. A batched matmul sums in
    another order than a one-row one, so draws agree to 1e-12, and bitwise
    where every matmul is one product."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=st.sampled_from(["softlif", "linear"]).flatmap(
               lambda activation: dropout_networks(activation, max_output_dim=1)),
           seed=st.integers(0, 2 ** 32 - 1), n_draws=st.integers(1, 6))
    @example(spec=NetworkSpec(  # a keep_prob 1 layer between dropout layers
        input_slices=[("c", 0, 2), ("a", 2, 3), ("b", 5, 3)],
        encoders=[EncoderSpec(["c"], [LayerSpec(2, 4, "softlif", 0.5),
                                      LayerSpec(4, 3, "softlif", 1.0),
                                      LayerSpec(3, 5, "softlif", 0.8)]),
                  EncoderSpec(["a"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d"),
                  EncoderSpec(["b"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d")],
        head=[LayerSpec(17, 8, "softlif", 0.95), LayerSpec(8, 1, "linear")],
        output_dim=1,
    ), seed=5, n_draws=6)
    def test_draws_match_per_draw_forward(self, spec, seed, n_draws):
        w = init_weights(spec, seed=seed)
        x = np.random.default_rng(seed).normal(size=spec.input_dim)
        got = predictive_distribution(spec, w, P, x, n_draws, seed, "analog").draws
        want = per_draw_forward(spec, w, x, n_draws, seed)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_draw_count_crossing_the_block_size(self):
        spec, weights = four_neuron_net(keep_prob=0.5)
        obs = np.array([0.9, 0.4])
        n_draws = _BLOCK_DRAWS + 44
        got = predictive_distribution(spec, weights, P, obs, n_draws, 11, "analog").draws
        want = per_draw_forward(spec, weights, obs, n_draws, 11)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_width_one_chain_matches_per_draw_bitwise(self):
        # every matmul is one product, so summation order cannot differ and
        # the draws pin the mask seed rule bit for bit
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
        got = predictive_distribution(spec, w, P, x, 40, 40, "analog").draws
        want = per_draw_forward(spec, w, x, 40, 40)
        assert len(np.unique(got)) > 2  # the draws differ: the masks act
        assert np.array_equal(got, want)

    def test_draws_independent_of_draw_count(self):
        spec, weights = four_neuron_net(keep_prob=0.5)
        obs = np.array([0.6, 0.3])
        five = predictive_distribution(spec, weights, P, obs, 5, 17, "analog")
        twelve = predictive_distribution(spec, weights, P, obs, 12, 17, "analog")
        assert np.array_equal(five.draws, twelve.draws[:5])


class TestSamplesFile:
    def test_round_trip(self, tmp_path):
        sets = [
            SampleSet(0, np.array([1.5, -0.25, 3.0]), "analog", 100),
            SampleSet(1, np.array([0.125, 2.5, -1.75]), "analog", 103),
        ]
        path = tmp_path / "samples.csv"
        write_samples(path, sets, {"backend": "analog", "seed": 100})
        meta, groups = read_samples(path)
        assert meta["backend"] == "analog"
        assert meta["seed"] == "100"
        assert set(groups) == {0, 1}
        backend, draws = groups[0]
        assert backend == "analog"
        assert np.array_equal(draws, sets[0].draws)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ids=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=4, unique=True),
           data=st.data(),
           meta=st.dictionaries(st.text("abcdefghij_", min_size=1, max_size=8),
                                st.text("abcdefghij0123456789._-", max_size=12), max_size=3))
    def test_round_trip_reproduces_every_bit(self, ids, data, meta):
        sets = [SampleSet(obs_id,
                          np.array(data.draw(st.lists(st.floats(allow_nan=False),
                                                      min_size=1, max_size=20))),
                          data.draw(st.sampled_from(BACKENDS)), 0)
                for obs_id in ids]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            write_samples(path, sets, meta)
            got_meta, groups = read_samples(path)
        assert got_meta == meta
        assert sorted(groups) == sorted(ids)
        for ss in sets:
            backend, draws = groups[ss.observation_id]
            assert backend == ss.backend
            assert draws.dtype == np.float64 and draws.tobytes() == ss.draws.tobytes()

    def test_draw_order_restored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "observation_id,draw_id,backend,prediction\n"
            "0,2,spiking,3.0\n0,0,spiking,1.0\n0,1,spiking,2.0\n"
        )
        _, groups = read_samples(path)
        assert np.array_equal(groups[0][1], [1.0, 2.0, 3.0])

    def test_mixed_backend_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "observation_id,draw_id,backend,prediction\n"
            "0,0,analog,1.0\n0,1,spiking,2.0\n"
        )
        with pytest.raises(ValueError, match="mixed"):
            read_samples(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("obs,draw,backend,pred\n0,0,analog,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_samples(path)
