import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikedrop.training as training_mod
from spikedrop.data import Dataset, synth_combo
from spikedrop.network import (
    DropMasks,
    EncoderSpec,
    InvalidNetworkError,
    LayerSpec,
    NetworkSpec,
    _forward,
    _layer_scales,
    combo_spec,
    forward,
    init_weights,
    sample_masks,
)
from spikedrop.neuron import NeuronParams
from spikedrop.training import (
    TrainConfig,
    TrainingDivergedError,
    _AdamState,
    backward,
    loss_mse,
    train,
)
from strategies import dropout_networks, reference_softlif_rate_grad, single_tower, weights_equal

P = NeuronParams()


class TestLossMse:
    def test_perfect_fit(self):
        assert loss_mse([1, 2], [1, 2]) == 0.0

    def test_single_residual(self):
        assert loss_mse([0], [2]) == 4.0

    def test_hand_computed(self):
        assert loss_mse([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse([1, 2], [1])


def tiny_spec(keep_prob=1.0):
    return NetworkSpec(
        input_slices=[("features", 0, 3)],
        encoders=[EncoderSpec(["features"], [LayerSpec(3, 4, "softlif", keep_prob)])],
        head=[LayerSpec(4, 1, "linear")],
        output_dim=1,
    )


def numeric_gradients(spec, weights, x, masks, targets, params, h=1e-5):
    """Central finite differences of loss_mse through the forward pass."""
    grads = weights.zeros_like()

    def loss_at(w):
        out, _ = forward(spec, w, x, masks, params)
        return loss_mse(out, targets)

    for key in weights.keys():
        for arrs, garrs in ((weights.weights, grads.weights),
                            (weights.biases, grads.biases)):
            base = arrs[key]
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = base[idx]
                base[idx] = orig + h
                up = loss_at(weights)
                base[idx] = orig - h
                down = loss_at(weights)
                base[idx] = orig
                garrs[key][idx] = (up - down) / (2 * h)
    return grads


def assert_grads_close(analytic, numeric, rel):
    for key in analytic.weights:
        for a, n in ((analytic.weights[key], numeric.weights[key]),
                     (analytic.biases[key], numeric.biases[key])):
            scale = np.maximum(np.abs(n), 1e-8)
            assert np.max(np.abs(a - n) / scale) < rel


class TestBackward:
    def test_matches_finite_differences_fixed_mask(self):
        spec = tiny_spec(keep_prob=0.75)
        weights = init_weights(spec, seed=0)
        x = np.array([0.4, -0.3, 0.8])
        masks = sample_masks(spec, seed=5)
        targets = np.array([0.7])
        out, cache = forward(spec, weights, x, masks, P)
        analytic = backward(spec, weights, cache, masks, targets, P)
        numeric = numeric_gradients(spec, weights, x, masks, targets, P)
        assert_grads_close(analytic, numeric, rel=1e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences_batched(self, seed):
        spec = tiny_spec(keep_prob=0.8)
        rng = np.random.default_rng(seed)
        weights = init_weights(spec, seed=seed)
        x = rng.normal(size=(4, 3))
        targets = rng.normal(size=4)
        masks = sample_masks(spec, seed=seed + 100)
        out, cache = forward(spec, weights, x, masks, P)
        analytic = backward(spec, weights, cache, masks, targets, P)
        numeric = numeric_gradients(spec, weights, x, masks, targets, P)
        assert_grads_close(analytic, numeric, rel=1e-4)

    def test_masked_neuron_has_zero_gradients(self):
        spec = tiny_spec(keep_prob=0.5)
        weights = init_weights(spec, seed=1)
        x = np.array([0.2, 0.1, -0.4])
        mask = np.array([1.0, 0.0, 1.0, 1.0])
        masks = DropMasks({"enc0:0": mask})
        out, cache = forward(spec, weights, x, masks, P)
        grads = backward(spec, weights, cache, masks, np.array([1.0]), P)
        assert np.all(grads.weights["enc0:0"][1, :] == 0.0)  # incoming
        assert grads.biases["enc0:0"][1] == 0.0
        assert np.all(grads.weights["head:0"][:, 1] == 0.0)  # outgoing

    def test_shared_encoder_gradient_accumulates(self):
        spec = NetworkSpec(
            input_slices=[("a", 0, 3), ("b", 3, 3)],
            encoders=[
                EncoderSpec(["a"], [LayerSpec(3, 4)], share_tag="tw"),
                EncoderSpec(["b"], [LayerSpec(3, 4)], share_tag="tw"),
            ],
            head=[LayerSpec(8, 1, "linear")],
            output_dim=1,
        )
        weights = init_weights(spec, seed=2)
        # identical inputs on both towers, identical outgoing head weights
        weights.weights["head:0"][0, 4:] = weights.weights["head:0"][0, :4]
        x = np.array([0.3, -0.1, 0.6, 0.3, -0.1, 0.6])
        out, cache = forward(spec, weights, x, None, P)
        grads = backward(spec, weights, cache, None, np.array([2.0]), P)

        # single-tower reference with the same layer and half the head
        ref_spec = NetworkSpec(
            input_slices=[("a", 0, 3)],
            encoders=[EncoderSpec(["a"], [LayerSpec(3, 4)], share_tag="tw")],
            head=[LayerSpec(4, 1, "linear")],
            output_dim=1,
        )
        ref_weights = init_weights(ref_spec, seed=99)
        ref_weights.weights["tw:0"] = weights.weights["tw:0"].copy()
        ref_weights.biases["tw:0"] = weights.biases["tw:0"].copy()
        ref_weights.weights["head:0"] = weights.weights["head:0"][:, :4].copy()
        ref_weights.biases["head:0"] = weights.biases["head:0"].copy()
        ref_out, ref_cache = forward(ref_spec, ref_weights, x[:3], None, P)
        # choose the target so the residual matches the two-tower case
        residual_target = ref_out[0] - (out[0] - 2.0)
        ref_grads = backward(ref_spec, ref_weights, ref_cache, None,
                             np.array([residual_target]), P)
        assert np.allclose(grads.weights["tw:0"],
                           2.0 * ref_grads.weights["tw:0"], rtol=1e-9)


def reference_backward(spec, weights, cache, targets, params):
    """backward's traversal, with each SoftLIF derivative taken by the
    reference formula at the layer's pre-activation, recomputed from the
    record's input as the forward pass computed it."""
    preds = cache.output
    g = 2.0 * (preds - np.asarray(targets, dtype=float).reshape(preds.shape)) / preds.size
    grads = weights.zeros_like()

    def layer(rec, g):
        w = weights.weights[rec.weight_key]
        if rec.scale is not None:
            g = g * rec.scale
        if rec.layer.activation == "softlif":
            current = rec.a_in @ w.T + weights.biases[rec.weight_key]
            g = g * reference_softlif_rate_grad(current, params)
        grads.weights[rec.weight_key] += g.T @ rec.a_in
        grads.biases[rec.weight_key] += g.sum(axis=0)
        return g @ w

    n_tower = sum(len(enc.layers) for enc in spec.encoders)
    for rec in reversed(cache.records[n_tower:]):
        g = layer(rec, g)
    start, first = 0, 0
    for enc in spec.encoders:
        width = spec.encoder_output_dim(enc)
        g_enc = g[:, start:start + width]
        for rec in reversed(cache.records[first:first + len(enc.layers)]):
            g_enc = layer(rec, g_enc)
        start += width
        first += len(enc.layers)
    return grads


class TestBackwardBits:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=dropout_networks(activation="softlif"), seed=st.integers(0, 2 ** 32 - 1),
           rows=st.integers(1, 5), gamma=st.sampled_from([0.002, 0.02, 1.0]))
    def test_backward_matches_reference_bitwise(self, spec, seed, rows, gamma):
        params = NeuronParams(tau_ref=0.02, gamma=gamma)
        rng = np.random.default_rng(seed)
        weights = init_weights(spec, seed=seed)
        x = rng.normal(size=(rows, spec.input_dim)) * 3.0
        targets = rng.normal(size=(rows, spec.output_dim))
        masks = sample_masks(spec, seed)
        _, cache = forward(spec, weights, x, masks, params)
        got = backward(spec, weights, cache, masks, targets, params)
        want = reference_backward(spec, weights, cache, targets, params)
        for key in want.weights:
            assert np.array_equal(got.weights[key], want.weights[key])
            assert np.array_equal(got.biases[key], want.biases[key])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(spec=dropout_networks(activation="softlif"), seed=st.integers(0, 2 ** 32 - 1),
           rows=st.integers(1, 5))
    def test_forward_without_records_matches_forward_bitwise(self, spec, seed, rows):
        params = NeuronParams(gamma=0.002)
        weights = init_weights(spec, seed=seed)
        x = np.random.default_rng(seed).normal(size=(rows, spec.input_dim)) * 3.0
        masks = sample_masks(spec, seed)
        out, cache = forward(spec, weights, x, masks, params)
        bare = _forward(spec, weights, x, _layer_scales(spec, masks), params)
        assert np.array_equal(bare, out)
        assert len(cache.records) == len(list(spec.layer_instances()))


class TestAdam:
    def test_zero_gradient_leaves_weights_unchanged(self):
        spec = tiny_spec()
        weights = init_weights(spec, seed=3)
        before = weights.copy()
        state = _AdamState(weights)
        state.step(weights, weights.zeros_like(), TrainConfig())
        assert weights_equal(weights, before)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(adam_betas=(1.0, 0.9))


class TestTrain:
    def test_linear_least_squares_converges(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        true_w = np.array([1.5, -2.0, 0.5])
        ds = Dataset(features=x, targets=x @ true_w,
                     feature_names=["a", "b", "c"])
        spec = single_tower(3, [LayerSpec(3, 1, "linear")])
        weights, history = train(
            spec, ds, TrainConfig(epochs=200, batch_size=32,
                                  learning_rate=0.01, seed=0), P)
        assert history[-1][1] < 1e-4

    def test_nonlinear_beats_mean_predictor(self):
        ds = synth_combo(600, 4, 4, noise_std=0.1, seed=3)
        spec = combo_spec(4, 4, cell_hidden=12, drug_hidden=12,
                          head_hidden=16, keep_prob=1.0)
        weights, history = train(
            spec, ds, TrainConfig(epochs=250, batch_size=32,
                                  learning_rate=3e-3, seed=0), P)
        assert history[-1][1] < 0.5 * np.var(ds.targets)
        assert history[-1][1] < history[0][1]

    def test_deterministic_given_seed(self):
        ds = synth_combo(120, 3, 3, seed=4)
        spec = combo_spec(3, 3, cell_hidden=6, drug_hidden=6,
                          head_hidden=8, keep_prob=0.8)
        cfg = TrainConfig(epochs=4, batch_size=16, seed=12)
        w1, h1 = train(spec, ds, cfg, P)
        w2, h2 = train(spec, ds, cfg, P)
        assert weights_equal(w1, w2)
        assert np.array_equal(np.array(h1), np.array(h2), equal_nan=True)

    def test_keep_prob_one_invariant_to_mask_path(self):
        ds = synth_combo(80, 3, 3, seed=5)
        spec = combo_spec(3, 3, cell_hidden=4, drug_hidden=4,
                          head_hidden=6, keep_prob=1.0)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=7)
        w1, h1 = train(spec, ds, cfg, P)
        w2, h2 = train(spec, ds, cfg, P)
        assert weights_equal(w1, w2)
        assert np.array_equal(np.array(h1), np.array(h2), equal_nan=True)

    def test_empty_dataset_rejected(self):
        spec = tiny_spec()
        ds = Dataset(features=np.empty((0, 3)), targets=np.empty(0),
                     feature_names=list("abc"))
        with pytest.raises(ValueError):
            train(spec, ds, TrainConfig(epochs=1), P)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_detected(self):
        rng = np.random.default_rng(1)
        ds = Dataset(features=rng.normal(size=(64, 3)) * 1e150,
                     targets=rng.normal(size=64) * 1e150,
                     feature_names=list("abc"))
        spec = single_tower(3, [LayerSpec(3, 1, "linear")])
        with pytest.raises(TrainingDivergedError):
            train(spec, ds, TrainConfig(epochs=5, learning_rate=1e10), P)

    @pytest.mark.parametrize("which, rows, width, n_targets, error, message", [
        ("train", 64, 4, 64, InvalidNetworkError, "train dataset has 4 features, spec wants 3"),
        ("train", 64, 3, 80, ValueError, "train dataset has 80 targets for 64 feature rows"),
        ("train", 64, 3, 40, ValueError, "train dataset has 40 targets for 64 feature rows"),
        ("eval", 20, 2, 20, InvalidNetworkError, "eval dataset has 2 features, spec wants 3"),
        ("eval", 20, 3, 25, ValueError, "eval dataset has 25 targets for 20 feature rows"),
    ], ids=["train-width", "train-80-targets", "train-40-targets", "eval-width", "eval-targets"])
    def test_datasets_checked_before_the_first_minibatch(self, monkeypatch, which, rows,
                                                         width, n_targets, error, message):
        def dataset(rows, width, n_targets):
            rng = np.random.default_rng(rows)
            return Dataset(features=rng.normal(size=(rows, width)),
                           targets=rng.normal(size=n_targets), feature_names=["f"] * width)

        sets = {"train": dataset(64, 3, 64), "eval": dataset(20, 3, 20)}
        sets[which] = dataset(rows, width, n_targets)

        def no_forward(*args, **kwargs):
            raise AssertionError("a minibatch ran before the datasets were checked")

        monkeypatch.setattr(training_mod, "forward", no_forward)
        with pytest.raises(error, match=message):
            train(tiny_spec(), sets["train"], TrainConfig(epochs=1), P, eval_dataset=sets["eval"])

    def test_eval_history_column(self):
        ds = synth_combo(100, 2, 2, seed=6)
        holdout = synth_combo(30, 2, 2, seed=7)
        spec = combo_spec(2, 2, cell_hidden=4, drug_hidden=4,
                          head_hidden=4, keep_prob=1.0)
        _, history = train(spec, ds, TrainConfig(epochs=2), P,
                           eval_dataset=holdout)
        assert len(history) == 2
        assert all(np.isfinite(row[2]) for row in history)
