import copy
import dataclasses
import itertools
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikedrop import network
from spikedrop.data import DataFormatError
from spikedrop.mcinfer import (
    _BLOCK_DRAWS,
    BACKENDS,
    SampleSet,
    predictive_distribution,
    predictive_distributions,
    read_samples,
    write_samples,
)
from spikedrop.network import (
    EncoderSpec,
    InvalidNetworkError,
    LayerSpec,
    NetworkSpec,
    combo_spec,
    convert,
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
                         {"enc0:0": mask}, P)
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
        with pytest.raises(ValueError, match="base_seed"):
            predictive_distribution(spec, weights, P, obs, 5, -3, "analog")

    @pytest.mark.parametrize("backend", ["analog", "spiking"])
    def test_rejects_wrong_observation_width(self, backend):
        spec, weights = four_neuron_net()
        with pytest.raises(InvalidNetworkError, match=r"\(3,\).*\(2,\)"):
            predictive_distribution(spec, weights, P, np.zeros(3), 4, 0, backend)

    def test_spiking_draws_leave_the_callers_model_unchanged(self):
        spec, weights = four_neuron_net(keep_prob=0.5)
        want_spec = copy.deepcopy(spec)
        want = {key: (weights.weights[key].tobytes(), weights.biases[key].tobytes())
                for key in weights.keys()}
        predictive_distribution(spec, weights, P, np.array([0.3, 0.8]), 6, 4, "spiking",
                                SimConfig(n_steps=80, burn_in_steps=20))
        assert spec == want_spec
        assert set(weights.keys()) == set(want)
        for key, (w, b) in want.items():
            assert weights.weights[key].tobytes() == w and weights.biases[key].tobytes() == b

    @pytest.mark.parametrize("defect, message", [
        ("missing-weight", "missing parameters for 'head:0'"),
        ("activation", "unknown activation 'sigmoid'"),
    ], ids=["missing-weight", "activation"])
    def test_spiking_draws_refuse_what_convert_refuses(self, defect, message):
        spec, weights = four_neuron_net()
        if defect == "missing-weight":
            del weights.weights["head:0"]
        else:
            layers = spec.encoders[0].layers
            layers[0] = dataclasses.replace(layers[0], activation="sigmoid")
        for check in (lambda: convert(spec, weights, P),
                      lambda: predictive_distribution(spec, weights, P, np.zeros(2), 3, 0,
                                                      "spiking", SimConfig(n_steps=20, burn_in_steps=5))):
            with pytest.raises(InvalidNetworkError, match=message):
                check()


class TestArgumentChecks:
    """The run-level function checks every argument before any draw, so both
    entry points refuse a bad one with the same message."""

    @pytest.mark.parametrize("entry", ["one-observation", "run"])
    @pytest.mark.parametrize("bad, error, message", [
        ({"n_draws": 0}, ValueError, "n_draws must be >= 1"),
        ({"seed": -3}, ValueError, "base_seed must be >= 0"),
        ({"backend": "spikng"}, ValueError, "unknown backend 'spikng'"),
        ({"shape": (3,)}, InvalidNetworkError, r"observation has shape \(3,\), spec wants \(2,\)"),
        ({"shape": (1, 2)}, InvalidNetworkError,
         r"observation has shape \(1, 2\), spec wants \(2,\)"),
        ({"output_dim": 2}, ValueError, "predictive draws are scalars; output_dim must be 1"),
    ], ids=["n_draws", "seed", "backend", "width", "rank", "output_dim"])
    def test_refused_by_both_entry_points(self, entry, bad, error, message):
        spec, weights = four_neuron_net()
        a = {"n_draws": 4, "seed": 0, "backend": "spiking", "shape": (2,), **bad}
        if "output_dim" in bad:
            spec = dataclasses.replace(spec, head=[LayerSpec(4, 2, "linear")], output_dim=2)
            weights = init_weights(spec, seed=0)
        rows = np.full((2, *a["shape"]), 0.5)
        sim = SimConfig(n_steps=20, burn_in_steps=5)
        with pytest.raises(error, match=message):
            if entry == "run":
                predictive_distributions(convert(spec, weights, P), rows, a["n_draws"],
                                         a["seed"], a["backend"], sim)
            else:
                predictive_distribution(spec, weights, P, rows[0], a["n_draws"], a["seed"],
                                        a["backend"], sim)

    @pytest.mark.parametrize("shape", [(2,), ()])
    def test_rows_of_fewer_than_two_dimensions_are_refused_as_a_table(self, shape):
        # one observation (or a scalar) where the run wants a table of them
        spec, weights = four_neuron_net()
        with pytest.raises(InvalidNetworkError, match=(
                rf"rows must be a 2-D \(observations, 2\) table, got shape {re.escape(str(shape))}")):
            predictive_distributions(convert(spec, weights, P), np.full(shape, 0.5), 4, 0,
                                     "spiking", SimConfig(n_steps=20, burn_in_steps=5))


def per_draw_forward(spec, weights, obs, n_draws, base_seed):
    """The per-draw reference of an analog predictive distribution: one
    forward pass per draw k under the masks of seed base_seed + k."""
    return np.array([forward(spec, weights, obs, sample_masks(spec, base_seed + k), P)[0][0]
                     for k in range(n_draws)])


class TestBatchedAnalogDraws:
    """Analog predictive draws of an observation are one forward pass per
    block; per-draw forward is the reference. The layers upstream of a path's
    first dropout scale run on the observation's one row, as in forward; only
    later layers run on a row per draw. A batched matmul sums in another
    order than a one-row one, so draws agree to 1e-12; bitwise where every
    matmul is one product, or where no layer drops out."""

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
    @example(spec=NetworkSpec(  # a tower without dropout stays one row up to the head
        input_slices=[("c", 0, 2), ("a", 2, 3), ("b", 5, 3)],
        encoders=[EncoderSpec(["c"], [LayerSpec(2, 4, "softlif", 1.0),
                                      LayerSpec(4, 3, "softlif", 1.0)]),
                  EncoderSpec(["a"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d"),
                  EncoderSpec(["b"], [LayerSpec(3, 6, "softlif", 0.5)], share_tag="d")],
        head=[LayerSpec(15, 8, "softlif", 0.8), LayerSpec(8, 1, "linear")],
        output_dim=1,
    ), seed=3, n_draws=5)
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

    def test_draws_without_dropout_equal_forward_bitwise(self):
        # every layer runs on the observation's one row, as forward does
        spec = combo_spec(cell_dim=8, drug_dim=8, cell_hidden=48, drug_hidden=48,
                          head_hidden=32, keep_prob=1.0)
        w = init_weights(spec, seed=2)
        rows = np.random.default_rng(2).normal(size=(3, spec.input_dim))
        sets = predictive_distributions(convert(spec, w, P), rows, 100, 0, "analog")
        for obs, ss in zip(rows, sets):
            want = forward(spec, w, obs, None, P)[0][0]
            assert np.array_equal(ss.draws, np.full(100, want))

    def test_layers_upstream_of_dropout_run_once_per_observation(self, monkeypatch):
        # the default nested spec: a SoftLIF head over three SoftLIF towers,
        # every hidden layer dropping out
        spec = combo_spec(cell_dim=8, drug_dim=8)
        w = init_weights(spec, seed=1)
        rows_seen = []
        softlif = network._softlif

        def recording(current, params):
            rows_seen.append(len(current))
            return softlif(current, params)

        monkeypatch.setattr(network, "_softlif", recording)
        n_draws = 7
        predictive_distributions(convert(spec, w, P), np.full((2, spec.input_dim), 0.5),
                                 n_draws, 0, "analog")
        assert rows_seen == [1, 1, 1, n_draws] * 2  # three towers, then the head

    def test_draws_independent_of_draw_count(self):
        spec, weights = four_neuron_net(keep_prob=0.5)
        obs = np.array([0.6, 0.3])
        five = predictive_distribution(spec, weights, P, obs, 5, 17, "analog")
        twelve = predictive_distribution(spec, weights, P, obs, 12, 17, "analog")
        assert np.array_equal(five.draws, twelve.draws[:5])


class TestRunLevelDraws:
    """A run evaluates each block of draws for every observation in turn,
    sharing the block's set-up; row r's draws are those of the
    one-observation case at base seed seed + r * n_draws, bit for bit."""

    NESTED = NetworkSpec(  # a SoftLIF head over a SoftLIF tower: the clock path
        input_slices=[("x", 0, 2)],
        encoders=[EncoderSpec(["x"], [LayerSpec(2, 4, "softlif", 0.8)])],
        head=[LayerSpec(4, 3, "softlif", 0.5), LayerSpec(3, 1, "linear")],
        output_dim=1,
    )

    @pytest.mark.parametrize("backend, v0_seed", [("analog", 1), ("spiking", 0), ("spiking", 6)])
    @pytest.mark.parametrize("nested", [False, True], ids=["exact-path", "nested"])
    def test_rows_equal_one_observation_runs(self, backend, v0_seed, nested):
        if nested:
            spec = self.NESTED
            weights = init_weights(spec, seed=4)
            weights.biases["head:0"][:] = 1.5  # the head spikes
        else:
            spec, weights = four_neuron_net(keep_prob=0.5)
        rows = np.random.default_rng(8).uniform(0.5, 2.0, size=(3, 2))
        sim = SimConfig(n_steps=40, burn_in_steps=10, v0_seed=v0_seed)
        n_draws = _BLOCK_DRAWS + 5
        got = predictive_distributions(convert(spec, weights, P), rows, n_draws, 21, backend, sim)
        assert [(ss.observation_id, ss.backend) for ss in got] == [(r, backend) for r in range(3)]
        for r, ss in enumerate(got):
            want = predictive_distribution(spec, weights, P, rows[r], n_draws, 21 + r * n_draws,
                                           backend, sim)
            assert len(np.unique(ss.draws)) > 2  # the masks and the rows act
            assert np.array_equal(ss.draws, want.draws)


class _Draws:
    """Stands in for ``st.data()`` in an explicit example: ``draw`` returns the
    given values in turn, whatever the strategy."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


class TestSamplesFile:
    def test_round_trip(self, tmp_path):
        sets = [
            SampleSet(0, np.array([1.5, -0.25, 3.0]), "analog"),
            SampleSet(1, np.array([0.125, 2.5, -1.75]), "analog"),
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
                                st.text('abcdefghij0123456789._-,"=#', max_size=12), max_size=3))
    # meta values the CSV parser would split or unquote
    @example(ids=[0], data=_Draws([0.5], "analog"), meta={"note": 'a,"b'})
    @example(ids=[3], data=_Draws([1.0, -2.0], "spiking"), meta={"note": 'x,"y,z', "s": "1"})
    def test_round_trip_reproduces_every_bit(self, ids, data, meta):
        sets = [SampleSet(obs_id,
                          np.array(data.draw(st.lists(st.floats(allow_nan=False,
                                                                allow_infinity=False),
                                                      min_size=1, max_size=20))),
                          data.draw(st.sampled_from(BACKENDS)))
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_prediction_rejected(self, tmp_path, value):
        # predictive draws are finite; the reader refuses a file that says otherwise
        path = tmp_path / "s.csv"
        write_samples(path, [SampleSet(3, np.array([0.5, value]), "spiking")])
        with pytest.raises(ValueError, match=f"{path}: row 2: non-finite prediction"):
            read_samples(path)

    @pytest.mark.parametrize("last_line, message", [
        ('0,1,analog,"2.0', "unexpected end of data"),
        ('0,1,analog,"2.0"5', "',' expected after '\"'"),
    ], ids=["unterminated-quote", "text-after-closing-quote"])
    def test_malformed_csv_is_refused_naming_file_and_row(self, tmp_path, last_line, message):
        # a lenient CSV parser reads the first as prediction 2.0
        path = tmp_path / "s.csv"
        path.write_text("# backend=analog\nobservation_id,draw_id,backend,prediction\n"
                        f"0,0,analog,1.0\n\n{last_line}")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: row 3: {message}")):
            read_samples(path)

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
