import numpy as np
import pytest

from spikedrop.convert import convert
from spikedrop.network import (
    EncoderSpec,
    InvalidNetworkError,
    LayerSpec,
    NetworkSpec,
    combo_spec,
    init_weights,
)
from spikedrop.neuron import NeuronParams
from strategies import weights_equal


def trained_like_network():
    spec = combo_spec(4, 4, cell_hidden=6, drug_hidden=6, head_hidden=8)
    weights = init_weights(spec, seed=17)
    return spec, weights, NeuronParams(gamma=0.01)


class TestConvert:
    def test_identity_transfer(self):
        spec, weights, params = trained_like_network()
        net = convert(spec, weights, params)
        assert weights_equal(net.weights, weights)
        assert net.neuron_params == params
        # no numeric transformation at all
        for key in weights.keys():
            assert np.max(np.abs(net.weights.weights[key] - weights.weights[key])) == 0.0

    def test_returns_copies(self):
        spec, weights, params = trained_like_network()
        net = convert(spec, weights, params)
        weights.weights["head:0"][:] += 1.0
        assert not weights_equal(net.weights, weights)

    def test_idempotent(self):
        spec, weights, params = trained_like_network()
        once = convert(spec, weights, params)
        twice = convert(once.spec, once.weights, once.neuron_params)
        assert once.spec == twice.spec
        assert weights_equal(once.weights, twice.weights)
        assert once.neuron_params == twice.neuron_params

    def test_rejects_unsupported_activation(self):
        spec = NetworkSpec(
            input_slices=[("x", 0, 3)],
            encoders=[EncoderSpec(["x"], [LayerSpec(3, 4, "sigmoid")])],
            head=[LayerSpec(4, 1, "linear")],
            output_dim=1,
        )
        weights = init_weights(combo_spec(4, 4), seed=0)  # shapes irrelevant
        with pytest.raises(InvalidNetworkError, match="activation"):
            convert(spec, weights, NeuronParams())

    def test_rejects_mismatched_weights(self):
        spec, weights, params = trained_like_network()
        del weights.weights["head:0"]
        with pytest.raises(InvalidNetworkError):
            convert(spec, weights, params)

    def test_linear_layers_stay_linear(self):
        spec, weights, params = trained_like_network()
        net = convert(spec, weights, params)
        assert [l.activation for l in net.spec.head] == ["softlif", "linear"]
