"""Hypothesis strategies shared by the test modules."""

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
