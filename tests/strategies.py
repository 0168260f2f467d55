"""Hypothesis strategies and spec and weight helpers shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from spikedrop.network import EncoderSpec, LayerSpec, NetworkSpec


@st.composite
def dropout_networks(draw, activation="linear", max_output_dim=2):
    """Specs whose hidden layers all have ``activation``: towers over one or
    two slices, some passthrough, some shared by a pair of encoders, then a
    head of one to three layers whose hidden layers may drop out and whose
    output layer is linear, 1 to ``max_output_dim`` wide."""
    keep = st.sampled_from([0.5, 0.8, 1.0])
    slices, encoders = [], []

    def new_slices(lengths):
        names = []
        for length in lengths:
            names.append(f"s{len(slices)}")
            slices.append((names[-1], sum(n for _, _, n in slices), length))
        return names

    for t in range(draw(st.integers(1, 3))):
        lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        widths = draw(st.lists(st.integers(1, 4), max_size=2))
        layers, in_dim = [], sum(lengths)
        for width in widths:
            layers.append(LayerSpec(in_dim, width, activation, draw(keep)))
            in_dim = width
        copies = draw(st.integers(1, 2)) if layers else 1
        tag = f"t{t}" if copies == 2 else None
        for _ in range(copies):
            encoders.append(EncoderSpec(new_slices(lengths), layers, share_tag=tag))

    spec = NetworkSpec(input_slices=slices, encoders=encoders, head=[], output_dim=0)
    in_dim = sum(spec.encoder_output_dim(enc) for enc in encoders)
    for width in draw(st.lists(st.integers(1, 4), max_size=2)):
        spec.head.append(LayerSpec(in_dim, width, activation, draw(keep)))
        in_dim = width
    spec.output_dim = draw(st.integers(1, max_output_dim))
    spec.head.append(LayerSpec(in_dim, spec.output_dim, "linear"))
    return spec


def single_tower(input_dim: int, layers, slice_name: str = "features") -> NetworkSpec:
    """A spec with one passthrough encoder and the given layers as the head."""
    return NetworkSpec(
        input_slices=[(slice_name, 0, input_dim)],
        encoders=[EncoderSpec(slices=[slice_name])],
        head=list(layers),
        output_dim=layers[-1].out_dim,
    )


def weights_equal(a, b) -> bool:
    """Whether two WeightStores hold the same keys and bitwise-equal arrays."""
    if set(a.weights) != set(b.weights):
        return False
    return all(
        np.array_equal(a.weights[k], b.weights[k])
        and np.array_equal(a.biases[k], b.biases[k])
        for k in a.weights
    )


# Reference SoftLIF formulas, written out independently of spikedrop.neuron:
# the library must reproduce every bit of them.

def reference_softplus(x, gamma):
    q = np.asarray(x, dtype=float) / gamma
    return gamma * (np.maximum(q, 0.0) + np.log1p(np.exp(-np.abs(q))))


def reference_softlif_rate(current, params):
    soft = np.asarray(reference_softplus(np.asarray(current, dtype=float) - params.v_th,
                                         params.gamma))
    out = np.zeros_like(soft)
    pos = soft > 0
    with np.errstate(over="ignore"):
        out[pos] = 1.0 / (
            params.tau_ref + params.tau_rc * np.log1p(params.v_th / soft[pos])
        )
    return out


def reference_softlif_rate_grad(current, params):
    """d softlif_rate / d current; below q = (J - v_th) / gamma = -30 the
    ratio sigmoid(q) / softplus is taken as 1 / gamma to avoid 0 / 0."""
    j = np.asarray(current, dtype=float)
    x = j - params.v_th
    q = x / params.gamma
    soft = np.asarray(reference_softplus(x, params.gamma))
    rate = reference_softlif_rate(j, params)
    t = np.exp(-np.abs(q))
    sig = np.where(q >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    ratio = np.where(q < -30.0, 1.0 / params.gamma, sig / np.where(soft > 0, soft, 1.0))
    return rate * rate * params.tau_rc * params.v_th * ratio / (soft + params.v_th)
