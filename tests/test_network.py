import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikedrop.network import (
    _draw_scales,
    _layer_scales,
    _stream_uniforms,
    EncoderSpec,
    InvalidNetworkError,
    LayerSpec,
    NetworkSpec,
    combo_spec,
    forward,
    init_weights,
    load_config,
    load_model,
    sample_masks,
    save_config,
    save_model,
    validate,
)
from spikedrop.neuron import NeuronParams
from strategies import copy_weights, dropout_networks, single_tower, weights_equal

P = NeuronParams()
ANY_NEURON_PARAMS = st.builds(NeuronParams, tau_ref=st.floats(0.0, 1.0),
                              tau_rc=st.floats(1e-300, 10.0), v_th=st.floats(1e-300, 1e300),
                              gamma=st.floats(1e-308, 1e300))  # 1 / gamma finite


def minimal_spec(keep_prob=1.0):
    """Single slice, one softlif layer 4 -> 8, linear head 8 -> 1."""
    return NetworkSpec(
        input_slices=[("features", 0, 4)],
        encoders=[EncoderSpec(["features"], [LayerSpec(4, 8, "softlif", keep_prob)])],
        head=[LayerSpec(8, 1, "linear")],
        output_dim=1,
    )


class TestValidate:
    def test_minimal_spec_ok(self):
        validate(minimal_spec())

    def test_combo_spec_ok(self):
        validate(combo_spec(8, 8))

    def test_head_dimension_mismatch(self):
        spec = minimal_spec()
        spec.head = [LayerSpec(9, 1, "linear")]
        with pytest.raises(InvalidNetworkError, match="head dimension mismatch"):
            validate(spec)

    def test_empty_share_tag_refused(self):
        # "" would key its layers by position yet group its towers as a tag
        spec = NetworkSpec(
            input_slices=[("a", 0, 3), ("b", 3, 3)],
            encoders=[EncoderSpec(["a"], [LayerSpec(3, 3)], share_tag=""),
                      EncoderSpec(["b"], [LayerSpec(3, 5)], share_tag="")],
            head=[LayerSpec(8, 1, "linear")],
            output_dim=1,
        )
        with pytest.raises(InvalidNetworkError,
                           match="encoder 0: share_tag must be null or a non-empty string"):
            validate(spec)

    def test_shared_shape_conflict(self):
        spec = NetworkSpec(
            input_slices=[("a", 0, 3), ("b", 3, 3)],
            encoders=[
                EncoderSpec(["a"], [LayerSpec(3, 4)], share_tag="t"),
                EncoderSpec(["b"], [LayerSpec(3, 5)], share_tag="t"),
            ],
            head=[LayerSpec(9, 1, "linear")],
            output_dim=1,
        )
        with pytest.raises(InvalidNetworkError, match="shared shape conflict"):
            validate(spec)

    @pytest.mark.parametrize("tag, encoders, head", [
        # tower 1 keyed "enc0:0", the key of untagged encoder 0
        ("enc0", [EncoderSpec(["a"], [LayerSpec(3, 3)]),
                  EncoderSpec(["b"], [LayerSpec(3, 3)], share_tag="enc0")],
         [LayerSpec(6, 1, "linear")]),
        # tower keyed "head:0", the key of the first head layer
        ("head", [EncoderSpec(["a", "b"], [LayerSpec(6, 6)], share_tag="head")],
         [LayerSpec(6, 6), LayerSpec(6, 1, "linear")]),
    ], ids=["enc0", "head"])
    def test_share_tag_aliasing_a_positional_weight_key(self, tag, encoders, head):
        # same shapes, so without the check the two layers would silently
        # train and run on one parameter set
        spec = NetworkSpec(input_slices=[("a", 0, 3), ("b", 3, 3)],
                           encoders=encoders, head=head, output_dim=1)
        with pytest.raises(InvalidNetworkError, match=f"share_tag '{tag}'"):
            validate(spec)
        with pytest.raises(InvalidNetworkError):
            init_weights(spec, seed=0)

    def test_overlapping_slices(self):
        spec = minimal_spec()
        spec.input_slices = [("a", 0, 3), ("b", 2, 2)]
        spec.encoders = [EncoderSpec(["a"], [LayerSpec(3, 8)]),
                         EncoderSpec(["b"], [])]
        with pytest.raises(InvalidNetworkError, match="overlap"):
            validate(spec)

    def test_slice_gap(self):
        spec = minimal_spec()
        spec.input_slices = [("a", 0, 2), ("b", 3, 1)]
        with pytest.raises(InvalidNetworkError, match="gap"):
            validate(spec)

    def test_unknown_activation(self):
        spec = minimal_spec()
        spec.head = [LayerSpec(8, 1, "relu")]
        with pytest.raises(InvalidNetworkError, match="unknown activation"):
            validate(spec)

    def test_bad_keep_prob(self):
        with pytest.raises(InvalidNetworkError, match="keep_prob"):
            validate(minimal_spec(keep_prob=0.0))

    def test_output_layer_must_not_drop(self):
        spec = minimal_spec()
        spec.head = [LayerSpec(8, 1, "linear", keep_prob=0.5)]
        with pytest.raises(InvalidNetworkError, match="output layer"):
            validate(spec)

    def test_encoder_chain_mismatch(self):
        spec = minimal_spec()
        spec.encoders = [EncoderSpec(["features"], [LayerSpec(5, 8)])]
        with pytest.raises(InvalidNetworkError, match="in_dim"):
            validate(spec)


class TestInitWeights:
    def test_deterministic(self):
        spec = combo_spec(4, 4)
        a = init_weights(spec, seed=3)
        b = init_weights(spec, seed=3)
        assert weights_equal(a, b)
        c = init_weights(spec, seed=4)
        assert not weights_equal(a, c)

    def test_variance_scaling(self):
        spec = single_tower(1000, [LayerSpec(1000, 1000, "softlif"),
                                   LayerSpec(1000, 1, "linear")])
        w = init_weights(spec, seed=0)
        var = np.var(w.weights["head:0"])
        assert var == pytest.approx(2.0 / 1000, rel=0.1)

    def test_bias_at_threshold(self):
        w = init_weights(minimal_spec(), seed=0, bias_value=1.0)
        assert np.all(w.biases["enc0:0"] == 1.0)

    def test_shared_towers_reference_same_arrays(self):
        spec = combo_spec(4, 4)
        w = init_weights(spec, seed=0)
        x = np.arange(12, dtype=float) / 12
        out1, _ = forward(spec, w, x, None, P)
        w.weights["drug:0"] *= 1.1  # mutate the shared parameters once
        out2, _ = forward(spec, w, x, None, P)
        # both drug towers saw the update: recomputing with a manual second
        # store where only one tower changes would not reproduce out2
        assert out1[0] != out2[0]
        assert len([k for k in w.keys() if k.startswith("drug")]) == 1


class TestForward:
    def test_zero_network_gives_zero(self):
        spec = minimal_spec()
        w = init_weights(spec, seed=0)
        for key in w.keys():
            w.weights[key][:] = 0.0
            w.biases[key][:] = 0.0
        out, _ = forward(spec, w, np.ones(4), None, P)
        assert out[0] == 0.0

    def test_all_ones_mask_is_bitwise_noop(self):
        spec = minimal_spec(keep_prob=1.0)
        w = init_weights(spec, seed=1)
        x = np.linspace(-1, 1, 4)
        plain, _ = forward(spec, w, x, None, P)
        masked, _ = forward(spec, w, x, sample_masks(spec, 0), P)
        assert np.array_equal(plain, masked)

    def test_masked_neuron_equals_weight_deletion(self):
        spec = minimal_spec(keep_prob=0.8)
        w = init_weights(spec, seed=2)
        x = np.array([0.3, -0.2, 0.9, 0.5])
        mask = np.ones(8)
        mask[3] = 0.0
        out, _ = forward(spec, w, x, {"enc0:0": mask}, P)

        # oracle: delete the dropped neuron's outgoing weights, rescale others
        w2 = copy_weights(w)
        w2.weights["head:0"][:, 3] = 0.0
        w2.weights["head:0"] /= 0.8
        w2.biases["head:0"] = w.biases["head:0"].copy()
        expected, _ = forward(spec, w2, x, None, P)
        assert out[0] == pytest.approx(expected[0], rel=1e-12)

    def test_pure_function_bitwise_repeatable(self):
        spec = combo_spec(4, 4)
        w = init_weights(spec, seed=5)
        x = np.random.default_rng(0).normal(size=12)
        masks = sample_masks(spec, 9)
        a, _ = forward(spec, w, x, masks, P)
        b, _ = forward(spec, w, x, masks, P)
        assert np.array_equal(a, b)

    def test_batch_matches_single_rows(self):
        spec = combo_spec(4, 4)
        w = init_weights(spec, seed=6)
        xs = np.random.default_rng(1).normal(size=(5, 12))
        batch, _ = forward(spec, w, xs, None, P)
        for i in range(5):
            single, _ = forward(spec, w, xs[i], None, P)
            assert np.allclose(batch[i], single, rtol=1e-12, atol=0)

    def test_masked_mean_approximates_deterministic(self):
        # inverted scaling makes the mask an unbiased multiplier per layer
        spec = minimal_spec(keep_prob=0.8)
        w = init_weights(spec, seed=7)
        x = np.array([0.5, 1.0, -0.5, 0.25])
        det, _ = forward(spec, w, x, None, P)
        outs = np.array([
            forward(spec, w, x, sample_masks(spec, s), P)[0][0]
            for s in range(10_000)
        ])
        assert np.mean(outs) == pytest.approx(det[0], rel=0.05)

    def test_dimension_mismatch(self):
        spec = minimal_spec()
        w = init_weights(spec, seed=0)
        with pytest.raises(InvalidNetworkError):
            forward(spec, w, np.ones(5), None, P)

    def test_mask_width_mismatch(self):
        spec = minimal_spec(keep_prob=0.5)
        w = init_weights(spec, seed=0)
        with pytest.raises(InvalidNetworkError, match="mask"):
            forward(spec, w, np.ones(4), {"enc0:0": np.ones(7)}, P)

    def test_output_layer_mask_rejected(self):
        spec = minimal_spec()
        w = init_weights(spec, seed=0)
        with pytest.raises(InvalidNetworkError, match="output layer"):
            forward(spec, w, np.ones(4), {"head:0": np.ones(1)}, P)

    def test_passthrough_encoder(self):
        # encoder with no layers feeds the raw slice into the head
        spec = single_tower(3, [LayerSpec(3, 1, "linear")])
        w = init_weights(spec, seed=0)
        w.weights["head:0"][:] = [[1.0, 2.0, 3.0]]
        w.biases["head:0"][:] = 0.5
        out, _ = forward(spec, w, np.array([1.0, 1.0, 1.0]), None, P)
        assert out[0] == pytest.approx(6.5)

    def test_encoder_reading_multiple_slices(self):
        # a tower may consume the concatenation of several named slices
        spec = NetworkSpec(
            input_slices=[("a", 0, 2), ("b", 2, 3)],
            encoders=[EncoderSpec(["b", "a"], [LayerSpec(5, 1, "linear")])],
            head=[LayerSpec(1, 1, "linear")],
            output_dim=1,
        )
        validate(spec)
        w = init_weights(spec, seed=0)
        w.weights["enc0:0"][:] = [[1.0, 2.0, 3.0, 4.0, 5.0]]
        w.biases["enc0:0"][:] = 0.0
        w.weights["head:0"][:] = 1.0
        w.biases["head:0"][:] = 0.0
        x = np.array([10.0, 20.0, 1.0, 2.0, 3.0])
        out, _ = forward(spec, w, x, None, P)
        # slice order is the encoder's: [b | a] = [1,2,3,10,20]
        assert out[0] == pytest.approx(1 + 4 + 9 + 40 + 100)

    def test_mixed_passthrough_and_layered_encoders(self):
        spec = NetworkSpec(
            input_slices=[("raw", 0, 2), ("enc", 2, 3)],
            encoders=[EncoderSpec(["raw"]),
                      EncoderSpec(["enc"], [LayerSpec(3, 4, "softlif")])],
            head=[LayerSpec(6, 1, "linear")],
            output_dim=1,
        )
        validate(spec)
        w = init_weights(spec, seed=1)
        x = np.array([0.5, -0.5, 1.0, 2.0, 0.0])
        out, cache = forward(spec, w, x, None, P)
        # head input begins with the untouched raw slice
        keys = [ikey for ikey, _, _, _ in spec.layer_instances()]
        head = cache.records[keys.index("head:0")]  # records follow layer_instances order
        assert np.array_equal(head.a_in[0, :2], x[:2])


class TestSampleMasks:
    def test_keep_prob_one_gives_all_ones(self):
        masks = sample_masks(minimal_spec(keep_prob=1.0), seed=0)
        assert np.all(masks["enc0:0"] == 1.0)

    def test_deterministic(self):
        spec = minimal_spec(keep_prob=0.7)
        a = sample_masks(spec, seed=11)
        b = sample_masks(spec, seed=11)
        assert np.array_equal(a["enc0:0"], b["enc0:0"])

    def test_output_layer_unmasked(self):
        masks = sample_masks(minimal_spec(keep_prob=0.5), seed=0)
        assert "head:0" not in masks

    def test_bernoulli_concentration(self):
        spec = single_tower(4, [LayerSpec(4, 10_000, "softlif", keep_prob=0.8),
                                LayerSpec(10_000, 1, "linear")])
        masks = sample_masks(spec, seed=13)
        mean = masks["head:0"].mean()
        assert 0.78 <= mean <= 0.82

    def test_mask_values_binary(self):
        spec = minimal_spec(keep_prob=0.5)
        m = sample_masks(spec, seed=3)["enc0:0"]
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_negative_seed_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sample_masks(minimal_spec(keep_prob=0.5), seed=-1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=dropout_networks(), seed=st.integers(0, 2 ** 63 - 1))
    def test_mask_entrances_agree_bitwise(self, spec, seed):
        # a mask set from sample_masks, checked and scaled by _layer_scales,
        # gives the scales _draw_scales draws straight from the seed
        masks = sample_masks(spec, seed)
        instances = list(spec.layer_instances())
        assert type(masks) is dict
        assert set(masks) == {ikey for ikey, _, _, is_output in instances if not is_output}
        from_masks = _layer_scales(spec, masks)
        from_seed = _draw_scales(spec, [seed])
        for i, (_, _, _, is_output) in enumerate(instances):
            if from_seed[i] is not None:
                assert from_masks[i].tobytes() == from_seed[i][0].tobytes()
            elif not is_output:
                assert np.all(from_masks[i] == 1.0)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3])
    def test_seed_rule(self, seed):
        # the rule written out independently of the code: per layer instance
        # in traversal order, keep_prob < 1 layers draw random(width) from
        # one default_rng(seed); keep_prob 1 layers draw nothing
        spec = NetworkSpec(
            input_slices=[("c", 0, 2), ("a", 2, 3), ("b", 5, 3)],
            encoders=[EncoderSpec(["c"], [LayerSpec(2, 4, "softlif", 0.5),
                                          LayerSpec(4, 3, "softlif", 1.0),
                                          LayerSpec(3, 5, "softlif", 0.95)]),
                      EncoderSpec(["a"], [LayerSpec(3, 6, "softlif", 0.7)], share_tag="d"),
                      EncoderSpec(["b"], [LayerSpec(3, 6, "softlif", 0.7)], share_tag="d")],
            head=[LayerSpec(17, 8, "softlif", 0.9), LayerSpec(8, 1, "linear")],
            output_dim=1,
        )
        rng = np.random.default_rng(seed)
        expected = {}
        for key, width, keep in [("enc0:0", 4, 0.5), ("enc0:1", 3, 1.0), ("enc0:2", 5, 0.95),
                                 ("enc1:0", 6, 0.7), ("enc2:0", 6, 0.7), ("head:0", 8, 0.9)]:
            expected[key] = ((rng.random(width) < keep).astype(float) if keep < 1
                             else np.ones(width), keep)

        masks = sample_masks(spec, seed)
        assert set(masks) == set(expected)
        for key, (mask, _) in expected.items():
            assert np.array_equal(masks[key], mask)

        scales = _draw_scales(spec, [seed + 1, seed, seed])
        keys = [ikey for ikey, _, _, _ in spec.layer_instances()]
        assert scales[keys.index("enc0:1")] is None and scales[-1] is None
        for key, (mask, keep) in expected.items():
            if keep < 1:
                block = scales[keys.index(key)]
                assert block.shape == (3, mask.size)
                assert np.array_equal(block[1], mask / keep)
                assert np.array_equal(block[2], mask / keep)



# seeds of 1 to 7 32-bit words: SeedSequence mixes words past its pool of 4
# in a loop of its own, run per seed by its word count
SEEDS = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1),
                  st.integers(2 ** 64, 2 ** 128 - 1), st.integers(2 ** 128, 2 ** 200))


class TestStreamUniforms:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=8),
           widths=st.lists(st.integers(0, 20), max_size=4))
    @example(seeds=[0, 2 ** 32, 2 ** 64, 2 ** 96, 2 ** 128, 2 ** 160, 2 ** 192, 2 ** 200],
             widths=[3, 0, 5])
    @example(seeds=[2 ** 200], widths=[7])
    @example(seeds=[5, 6], widths=[0, 0])
    @example(seeds=[9], widths=[])
    def test_rows_are_default_rng_streams_bitwise(self, seeds, widths):
        blocks = _stream_uniforms(seeds, widths)
        assert [block.shape for block in blocks] == [(len(seeds), w) for w in widths]
        for k, seed in enumerate(seeds):
            stream = np.random.default_rng(seed)
            for block, width in zip(blocks, widths):
                assert block[k].tobytes() == stream.random(width).tobytes()

    def test_importing_the_package_leaves_numpy_random_unloaded(self):
        # numpy.random is loaded only when a draw is seeded; numpy releases
        # that import it eagerly themselves are held to no more than that
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import spikedrop, spikedrop.cli; "
                "print(before, 'numpy.random' in sys.modules)")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        spec = combo_spec(4, 4)
        w = init_weights(spec, seed=21)
        params = NeuronParams(0.004, 0.03, 1.2, 0.007)
        path = tmp_path / "model.json"
        save_model(path, spec, w, params)
        loaded = load_model(path)
        assert loaded.neuron_params == params
        assert weights_equal(loaded.weights, w)
        assert [l.keep_prob for l in loaded.spec.head] == [l.keep_prob for l in spec.head]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=dropout_networks(activation="softlif"), data=st.data(),
           params=ANY_NEURON_PARAMS)
    def test_round_trip_reproduces_every_bit(self, spec, data, params):
        weights = init_weights(spec, seed=0)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        for store in (weights.weights, weights.biases):
            for key, arr in store.items():
                store[key] = data.draw(arrays(np.float64, arr.shape, elements=finite))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(path, spec, weights, params)
            loaded = load_model(path)
        assert loaded.spec == spec
        assert loaded.neuron_params == params
        for store, got in ((weights.weights, loaded.weights.weights),
                           (weights.biases, loaded.weights.biases)):
            assert set(got) == set(store)
            for key, arr in store.items():
                assert got[key].shape == arr.shape and got[key].tobytes() == arr.tobytes()

    def test_integer_numbers_load_as_floats(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, minimal_spec(), init_weights(minimal_spec(), seed=0), NeuronParams())
        doc = json.loads(path.read_text())
        doc["spec"]["encoders"][0]["layers"][0]["keep_prob"] = 1
        doc["neuron_params"]["v_th"] = 2
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        keep_prob = loaded.spec.encoders[0].layers[0].keep_prob
        assert type(keep_prob) is float and keep_prob == 1.0
        assert type(loaded.neuron_params.v_th) is float and loaded.neuron_params.v_th == 2.0

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": 1}')
        with pytest.raises(InvalidNetworkError):
            load_model(path)

    def test_non_json_file_names_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidNetworkError, match="Expecting value") as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("spec"), "missing field 'spec'"),
        (lambda doc: doc["spec"]["head"][0].pop("in_dim"), "missing field 'in_dim'"),
        (lambda doc: doc.pop("neuron_params"), "missing field 'neuron_params'"),
        (lambda doc: doc.update(format_version=7), "format_version 7"),
        (lambda doc: doc.pop("format_version"), "format_version None"),
        (lambda doc: doc["spec"]["head"][0].update(share_tag="t"), "share_tag 't'"),
        (lambda doc: doc.update(kind="quantum"), "unknown model kind 'quantum'"),
        (lambda doc: doc.update(kind="spiking"), "unknown model kind 'spiking'"),
        (lambda doc: doc.pop("kind"), "missing field 'kind'"),
        (lambda doc: doc["neuron_params"].pop("gamma"), "missing field 'gamma'"),
        (lambda doc: doc["weights"].update({"junk:0": doc["weights"]["head:0"]}),
         "parameters 'junk:0' belong to no layer"),
        (lambda doc: doc["neuron_params"].update({"tau-rc": 0.02}),
         "unknown neuron_params field 'tau-rc'"),
        (lambda doc: doc["spec"]["head"][0].update(in_dim=8.7),
         "in_dim must be an integer, got 8.7"),
        (lambda doc: doc["spec"]["head"][0].update(out_dim="1"),
         "out_dim must be an integer, got '1'"),
        (lambda doc: doc["spec"]["input_slices"][0].update(offset=0.0),
         "offset must be an integer, got 0.0"),
        (lambda doc: doc["spec"]["input_slices"][0].update(length=4.0),
         "length must be an integer, got 4.0"),
        (lambda doc: doc["spec"].update(output_dim=True),
         "output_dim must be an integer, got True"),
        (lambda doc: doc["spec"]["encoders"][0]["layers"][0].update(keep_prob=True),
         "keep_prob must be a number, got True"),
        (lambda doc: doc["spec"]["encoders"][0]["layers"][0].update(keep_prob="0.5"),
         "keep_prob must be a number, got '0.5'"),
        (lambda doc: doc["neuron_params"].update(v_th="1.0"),
         "v_th must be a number, got '1.0'"),
        (lambda doc: doc["neuron_params"].update(tau_rc=float("nan")),
         "tau_rc must be a number, got nan"),
        (lambda doc: doc["neuron_params"].update(gamma=10 ** 400),
         "gamma must be a number, got 10{400}$"),
        (lambda doc: doc.update(format_version=True), "format_version must be an integer, got True"),
        (lambda doc: doc.update(format_version=1.0), "format_version must be an integer, got 1.0"),
        (lambda doc: doc["spec"]["encoders"][0].update(share_tag=""),
         "encoder 0: share_tag must be null or a non-empty string, got ''"),
        (lambda doc: doc["spec"]["encoders"][0].update(share_tag=7),
         "encoder 0: share_tag must be null or a non-empty string, got 7"),
        (lambda doc: doc["spec"]["encoders"][0].update(slices="features"),
         "slices must be a list of strings, got 'features'"),
        (lambda doc: (doc["spec"]["input_slices"][0].update(name=0),
                      doc["spec"]["encoders"][0].update(slices=[0])),
         "name must be a string, got 0"),
        (lambda doc: doc["spec"]["encoders"][0].update(slices=[0]),
         r"slices must be a list of strings, got \[0\]"),
        (lambda doc: doc.update(neuron_params=[]), r"neuron_params must be an object, got \[\]"),
        (lambda doc: doc.update(neuron_params="tau"),
         "neuron_params must be an object, got 'tau'"),
        (lambda doc: doc.update(spec=[]), r"spec must be an object, got \[\]"),
        (lambda doc: doc["spec"].update(encoders={"a": 1}),
         "encoders must be a list of objects, got {'a': 1}"),
        (lambda doc: doc["spec"]["encoders"][0].update(layers={"x": 1}),
         "layers must be a list of objects, got {'x': 1}"),
        (lambda doc: doc.update(weights=[]), r"weights must be an object, got \[\]"),
        (lambda doc: doc["weights"].update({"head:0": [1]}),
         r"head:0 must be an object, got \[1\]"),
        (lambda doc: doc.update(weigths={}), "unknown top-level field 'weigths'"),
        (lambda doc: doc["spec"].update(outputs=1), "unknown spec field 'outputs'"),
        (lambda doc: doc["spec"]["input_slices"][0].update(size=4),
         "unknown input_slices field 'size'"),
        (lambda doc: doc["spec"]["encoders"][0].update(tag="x"), "unknown encoders field 'tag'"),
        (lambda doc: doc["spec"]["encoders"][0]["layers"][0].update(keep_porb=0.5),
         "unknown layers field 'keep_porb'"),
        (lambda doc: doc["spec"]["head"][0].update(bias=0.0), "unknown head field 'bias'"),
        (lambda doc: doc["weights"]["head:0"].update(grad=[0.0]), "unknown head:0 field 'grad'"),
        (lambda doc: doc["weights"]["enc0:0"]["weight"][1].__setitem__(2, "0.5"),
         "enc0:0 weight values must be numbers, got '0.5'"),
        (lambda doc: doc["weights"]["head:0"]["weight"][0].__setitem__(0, True),
         "head:0 weight values must be numbers, got True"),
        (lambda doc: doc["weights"]["enc0:0"]["bias"].__setitem__(3, None),
         "enc0:0 bias values must be numbers, got None"),
        (lambda doc: doc["weights"]["enc0:0"]["weight"][5].pop(),
         "enc0:0 weight is ragged: its rows differ in length"),
    ], ids=["no-spec", "no-in_dim", "no-neuron_params", "version-7", "no-version",
            "layer-share_tag", "kind-quantum", "kind-spiking", "no-kind", "no-gamma",
            "unused-weights", "neuron-field-typo", "in_dim-float", "out_dim-string",
            "offset-float", "length-float", "output_dim-bool", "keep_prob-bool",
            "keep_prob-string", "v_th-string", "tau_rc-nan", "gamma-huge-int",
            "version-bool", "version-float", "share_tag-empty", "share_tag-int",
            "slices-string", "slice-name-int", "slices-int", "neuron_params-list",
            "neuron_params-string", "spec-list", "encoders-object", "layers-object",
            "weights-list", "weight-entry-list", "top-level-typo", "spec-stray", "slice-stray",
            "encoder-stray", "layer-typo", "head-layer-stray", "weight-entry-stray",
            "weight-string", "weight-bool", "bias-null", "weight-ragged"])
    def test_malformed_file_names_file_and_field(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(path, minimal_spec(), init_weights(minimal_spec(), seed=0), NeuronParams())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidNetworkError, match=message) as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    def test_layer_share_tag_written_as_null(self, tmp_path):
        path = tmp_path / "model.json"
        spec = combo_spec(4, 4)
        save_model(path, spec, init_weights(spec, seed=0), NeuronParams())
        doc = json.loads(path.read_text())
        layers = [l for e in doc["spec"]["encoders"] for l in e["layers"]] + doc["spec"]["head"]
        assert all("share_tag" in l and l["share_tag"] is None for l in layers)
        assert [e["share_tag"] for e in doc["spec"]["encoders"]] == [None, "drug", "drug"]


class TestNetworkConfig:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=st.one_of(dropout_networks(), dropout_networks(activation="softlif")),
           params=ANY_NEURON_PARAMS)
    def test_round_trip(self, spec, params):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            save_config(path, spec, params)
            assert load_config(path) == (spec, params)

    def test_save_refuses_what_load_refuses_and_writes_nothing(self, tmp_path):
        spec = combo_spec(2, 2, 4, 4, 0)
        spec.head[0] = LayerSpec(99, 1, "linear")
        path = tmp_path / "config.json"
        with pytest.raises(InvalidNetworkError,
                           match="head dimension mismatch: layer 0 in_dim 99 != 12"):
            save_config(path, spec, P)
        assert not path.exists()

    @pytest.mark.parametrize("doc", [{}, {"neuron_params": None}, {"neuron_params": {}}],
                             ids=["missing", "null", "empty"])
    def test_absent_neuron_constants_take_the_defaults(self, tmp_path, doc):
        path = tmp_path / "config.json"
        save_config(path, minimal_spec(), NeuronParams(tau_ref=0.5))
        path.write_text(json.dumps({**doc, "spec": json.loads(path.read_text())["spec"]}))
        assert load_config(path) == (minimal_spec(), NeuronParams())

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(neuron_param=doc.pop("neuron_params")),
         "unknown top-level field 'neuron_param'"),
        (lambda doc: doc["spec"]["head"][0].update(keep_porb=0.5),
         "unknown head field 'keep_porb'"),
        (lambda doc: doc["neuron_params"].update({"tau-ref": 0.5}),
         "unknown neuron_params field 'tau-ref'"),
    ], ids=["neuron_params-typo", "layer-typo", "neuron-field-typo"])
    def test_unknown_key_names_file_and_key(self, tmp_path, edit, message):
        # a misspelt key must not pass as an absent one (and its defaults)
        path = tmp_path / "config.json"
        save_config(path, minimal_spec(), NeuronParams(tau_ref=0.02))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidNetworkError, match=message) as exc:
            load_config(path)
        assert str(path) in str(exc.value)
