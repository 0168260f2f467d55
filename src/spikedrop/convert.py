"""Turn a trained analog network into a spiking network description.

The transfer is an identity: same architecture, same weights. The smoothing
width used during training plays no role in the spiking dynamics; the
simulator runs the hard-threshold neuron whose stationary rate the smoothed
activation approximated.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .network import NetworkSpec, WeightStore, validate, validate_weights
from .neuron import NeuronParams


@dataclass
class SpikingNetwork:
    """A spiking network: structure and weights copied verbatim from the
    analog source, plus the neuron constants to simulate with."""

    spec: NetworkSpec
    weights: WeightStore
    neuron_params: NeuronParams


def convert(spec: NetworkSpec, weights: WeightStore,
            params: NeuronParams) -> SpikingNetwork:
    """Identity weight transfer; refuses activations other than softlif/linear.

    Linear layers remain linear (non-spiking affine readout). The returned
    network owns copies, so later training of the source does not alter it.
    """
    validate(spec)  # rejects unknown activation tags
    validate_weights(spec, weights)
    return SpikingNetwork(
        spec=copy.deepcopy(spec),
        weights=weights.copy(),
        neuron_params=params,
    )
