"""Turn a trained analog network into a spiking network description.

The transfer is an identity: the spiking network is the analog ``Model``
itself, with the same structure, the same weights and the same neuron
constants. The smoothing width used during training plays no role in the
spiking dynamics; the simulator runs the hard-threshold neuron whose
stationary rate the smoothed activation approximated. ``convert`` returns
copies; Monte-Carlo spiking draws (``mcinfer``) make the same checks but read
the caller's model uncopied.
"""

from __future__ import annotations

import copy

from .network import Model, NetworkSpec, WeightStore, validate, validate_weights
from .neuron import NeuronParams


def convert(spec: NetworkSpec, weights: WeightStore, params: NeuronParams) -> Model:
    """Identity weight transfer; refuses activations other than softlif/linear.

    Linear layers remain linear (non-spiking affine readout). The returned
    model owns copies, so later training of the source does not alter it.
    """
    validate(spec)  # rejects unknown activation tags
    validate_weights(spec, weights)
    return Model(spec=copy.deepcopy(spec), weights=weights.copy(), neuron_params=params)
