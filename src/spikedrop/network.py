"""Network architecture description, parameter storage, and the network traversal.

A network is a set of input slices feeding encoder towers whose outputs are
concatenated into a head stack. Encoders carrying the same ``share_tag`` reuse
one parameter set (e.g. one tower applied to each drug of a pair); this is
the only form of weight sharing. Dropout acts in one way only: a layer's
output is multiplied by its inverted-dropout scale ``mask / keep_prob``, so
the deterministic pass, the masked analog pass, the gradient and the spiking
simulation all operate on the same activation scale. Scales come either from
a caller's mask set (``_layer_scales``, which checks it) or straight from
mask seeds, a block of draws at a time (``_draw_scales``). The mask seed
rule is written once, in ``_draw_keep``; ``sample_masks`` is its one-seed
case.

One private traversal (``_traverse``) walks the towers and the head for both
backends: ``_forward`` runs it with the analog layer step, on rows that may
each carry their own scales, and ``snn`` with the LIF layer step. Only
``forward`` asks ``_forward`` for layer records (each SoftLIF layer's input
and ``neuron._softlif`` intermediates, from which ``training.backward``
builds the gradient); Monte-Carlo analog draws and training's epoch-end
losses call ``_forward`` without a record list and keep none.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .neuron import NeuronParams, _softlif

ACTIVATIONS = ("softlif", "linear")

MODEL_FORMAT = "spikedrop-model"
MODEL_FORMAT_VERSION = 1
MODEL_KINDS = ("analog", "spiking")


class InvalidNetworkError(ValueError):
    """A NetworkSpec (or weights attached to one) violates an invariant."""


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: activation applied elementwise, dropout on outputs."""

    in_dim: int
    out_dim: int
    activation: str = "softlif"
    keep_prob: float = 1.0


@dataclass
class EncoderSpec:
    """A tower applied to the concatenation of the named input slices.

    ``layers`` may be empty, in which case the tower passes its input through
    unchanged. Encoders with equal ``share_tag`` share one parameter set.
    """

    slices: list
    layers: list = field(default_factory=list)
    share_tag: Optional[str] = None


@dataclass
class NetworkSpec:
    """Whole-network architecture.

    input_slices: (name, offset, length) triples partitioning the input vector.
    encoders: towers reading those slices.
    head: layer stack applied to the concatenated encoder outputs; the last
          head layer is the network output and never carries dropout.
    """

    input_slices: list
    encoders: list
    head: list
    output_dim: int

    @property
    def input_dim(self) -> int:
        return sum(length for _, _, length in self.input_slices)

    def slice_spans(self) -> dict:
        return {name: (offset, length) for name, offset, length in self.input_slices}

    def encoder_input_dim(self, enc: EncoderSpec) -> int:
        spans = self.slice_spans()
        return sum(spans[name][1] for name in enc.slices)

    def encoder_output_dim(self, enc: EncoderSpec) -> int:
        if enc.layers:
            return enc.layers[-1].out_dim
        return self.encoder_input_dim(enc)

    def layer_instances(self):
        """Yield (instance_key, weight_key, layer, is_output) in traversal order.

        The instance key identifies the physical layer (dropout masks attach
        to it); the weight key identifies the parameter set (shared towers
        map distinct instances onto one weight key).
        """
        for i, enc in enumerate(self.encoders):
            for j, layer in enumerate(enc.layers):
                ikey = f"enc{i}:{j}"
                yield ikey, f"{enc.share_tag}:{j}" if enc.share_tag else ikey, layer, False
        last = len(self.head) - 1
        for j, layer in enumerate(self.head):
            ikey = f"head:{j}"
            yield ikey, ikey, layer, j == last


class WeightStore:
    """Per-layer weight matrices and bias vectors, keyed by weight key.

    Shared layers appear once; towers that share a tag read (and update)
    the same underlying arrays.
    """

    def __init__(self, weights=None, biases=None):
        self.weights = weights if weights is not None else {}
        self.biases = biases if biases is not None else {}

    def keys(self):
        return self.weights.keys()

    def copy(self) -> "WeightStore":
        return WeightStore(
            {k: v.copy() for k, v in self.weights.items()},
            {k: v.copy() for k, v in self.biases.items()},
        )

    def zeros_like(self) -> "WeightStore":
        return WeightStore(
            {k: np.zeros_like(v) for k, v in self.weights.items()},
            {k: np.zeros_like(v) for k, v in self.biases.items()},
        )


@dataclass
class DropMasks:
    """Per-layer-instance binary activity vectors (1 = active) for one draw."""

    masks: dict

    def __contains__(self, key):
        return key in self.masks

    def __getitem__(self, key):
        return self.masks[key]


def _check_layer(layer: LayerSpec, where: str):
    if layer.in_dim < 1 or layer.out_dim < 1:
        raise InvalidNetworkError(f"{where}: layer dims must be positive")
    if not (0.0 < layer.keep_prob <= 1.0):
        raise InvalidNetworkError(f"{where}: keep_prob must be in (0, 1]")
    if layer.activation not in ACTIVATIONS:
        raise InvalidNetworkError(
            f"{where}: unknown activation {layer.activation!r}"
        )


def validate(spec: NetworkSpec) -> None:
    """Check every NetworkSpec invariant; raise on the first violation found."""
    if not spec.input_slices:
        raise InvalidNetworkError("no input slices")
    names = [name for name, _, _ in spec.input_slices]
    if len(set(names)) != len(names):
        raise InvalidNetworkError("duplicate slice names")
    spans = sorted((offset, length, name) for name, offset, length in spec.input_slices)
    cursor = 0
    for offset, length, name in spans:
        if length < 1:
            raise InvalidNetworkError(f"slice {name!r}: length must be positive")
        if offset < cursor:
            raise InvalidNetworkError(f"slice {name!r}: overlapping slices")
        if offset > cursor:
            raise InvalidNetworkError(f"slice {name!r}: slices must cover the input with no gaps")
        cursor = offset + length

    if not spec.encoders:
        raise InvalidNetworkError("at least one encoder required")
    if not spec.head:
        raise InvalidNetworkError("head must contain at least one layer")
    if spec.output_dim < 1:
        raise InvalidNetworkError("output_dim must be positive")

    slice_names = set(names)
    for i, enc in enumerate(spec.encoders):
        if not enc.slices:
            raise InvalidNetworkError(f"encoder {i}: reads no slices")
        for name in enc.slices:
            if name not in slice_names:
                raise InvalidNetworkError(f"encoder {i}: unknown slice {name!r}")
        expected = spec.encoder_input_dim(enc)
        for j, layer in enumerate(enc.layers):
            _check_layer(layer, f"encoder {i} layer {j}")
            if layer.in_dim != expected:
                raise InvalidNetworkError(
                    f"encoder {i} layer {j}: in_dim {layer.in_dim} != expected {expected}"
                )
            expected = layer.out_dim

    # encoders sharing a tag must agree on the full shape sequence
    by_tag = {}
    for enc in spec.encoders:
        if enc.share_tag is None:
            continue
        shape = tuple((l.in_dim, l.out_dim) for l in enc.layers)
        if by_tag.setdefault(enc.share_tag, shape) != shape:
            raise InvalidNetworkError(
                f"shared shape conflict for share_tag {enc.share_tag!r}"
            )

    head_in = sum(spec.encoder_output_dim(enc) for enc in spec.encoders)
    expected = head_in
    for j, layer in enumerate(spec.head):
        _check_layer(layer, f"head layer {j}")
        if layer.in_dim != expected:
            raise InvalidNetworkError(
                f"head dimension mismatch: layer {j} in_dim {layer.in_dim} != {expected}"
            )
        expected = layer.out_dim
    if spec.head[-1].out_dim != spec.output_dim:
        raise InvalidNetworkError(
            f"output dimension mismatch: head ends at {spec.head[-1].out_dim}, "
            f"output_dim is {spec.output_dim}"
        )
    if spec.head[-1].keep_prob != 1.0:
        raise InvalidNetworkError("output layer must not have dropout")

    # a weight key may be shared only by towers carrying the same share_tag;
    # a tag such as "enc0" or "head" would otherwise alias a positional key
    tags = [enc.share_tag for enc in spec.encoders for _ in enc.layers] + [None] * len(spec.head)
    owners = {}
    for tag, (ikey, wkey, _, _) in zip(tags, spec.layer_instances()):
        owner = f"share_tag {tag!r}" if tag else f"untagged layer {ikey!r}"
        first = owners.setdefault(wkey, owner)
        if first != owner:
            raise InvalidNetworkError(
                f"weight key {wkey!r} is claimed by both {first} and {owner}"
            )


def validate_weights(spec: NetworkSpec, weights: WeightStore) -> None:
    """Check that a WeightStore matches the spec's shapes and is finite."""
    needed = {wkey: layer for _, wkey, layer, _ in spec.layer_instances()}
    for wkey, layer in needed.items():
        if wkey not in weights.weights or wkey not in weights.biases:
            raise InvalidNetworkError(f"missing parameters for {wkey!r}")
        w, b = weights.weights[wkey], weights.biases[wkey]
        if w.shape != (layer.out_dim, layer.in_dim):
            raise InvalidNetworkError(f"{wkey!r}: weight shape {w.shape} mismatch")
        if b.shape != (layer.out_dim,):
            raise InvalidNetworkError(f"{wkey!r}: bias shape {b.shape} mismatch")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise InvalidNetworkError(f"{wkey!r}: non-finite parameters")


def init_weights(spec: NetworkSpec, seed: int, bias_value: float = 1.0) -> WeightStore:
    """Seed-deterministic initialization.

    Weights are zero-mean normal with variance 2/in_dim; biases start at the
    firing threshold so that SoftLIF units straddle threshold at init instead
    of sitting in the near-zero-gradient subthreshold tail.
    """
    validate(spec)
    rng = np.random.default_rng(seed)
    store = WeightStore()
    for _, wkey, layer, _ in spec.layer_instances():
        if wkey in store.weights:
            continue
        scale = np.sqrt(2.0 / layer.in_dim)
        store.weights[wkey] = rng.normal(0.0, scale, size=(layer.out_dim, layer.in_dim))
        store.biases[wkey] = np.full(layer.out_dim, float(bias_value))
    return store


def sample_masks(spec: NetworkSpec, seed: int) -> DropMasks:
    """Draw one Bernoulli(keep_prob) drop-mask per hidden layer instance.

    Layers with keep_prob == 1 get all-ones masks without consuming
    randomness; the output layer gets no mask. Deterministic given the seed:
    the one-seed case of the rule in ``_draw_keep``.
    """
    instances = list(spec.layer_instances())
    return DropMasks({
        ikey: np.ones(layer.out_dim) if keep is None else keep[0].astype(float)
        for (ikey, _, layer, is_output), keep in zip(instances, _draw_keep(instances, [seed]))
        if not is_output
    })


def _draw_scales(spec: NetworkSpec, seeds) -> list:
    """The inverted-dropout scales ``mask / keep_prob`` of one draw per seed,
    per layer instance in layer_instances order: a (len(seeds), out_dim)
    array, or None for the output layer and keep_prob == 1 layers, whose
    scale 1 changes no value."""
    instances = list(spec.layer_instances())
    return [None if keep is None else keep / layer.keep_prob
            for (_, _, layer, _), keep in zip(instances, _draw_keep(instances, seeds))]


def _draw_keep(instances: list, seeds) -> list:
    """The mask seed rule, for the layer instances of one spec and one draw
    per seed: a boolean (len(seeds), out_dim) keep mask per instance, None
    for the output layer and keep_prob == 1 layers.

    Draw ``seed`` keeps a neuron where its uniform from ``_stream_uniforms``,
    over the keep_prob < 1 layers, is below keep_prob.
    """
    widths = [0 if is_output or layer.keep_prob == 1.0 else layer.out_dim
              for _, _, layer, is_output in instances]
    blocks = _split_columns(_stream_uniforms(seeds, sum(widths)), widths)
    return [u < layer.keep_prob if width else None
            for (_, _, layer, _), width, u in zip(instances, widths, blocks)]


def _stream_uniforms(seeds, total: int) -> np.ndarray:
    """The stream rule of drop masks (``_draw_keep``) and initial voltages
    (``snn._initial_voltages``): row k is ``default_rng(seeds[k]).random(total)``,
    which the caller slices into one block per layer instance it draws for,
    in layer_instances order (``_split_columns``). These are the bits of one
    ``random(width)`` call per such layer, in that order."""
    uniform = np.empty((len(seeds), total))
    for k, seed in enumerate(seeds):
        uniform[k] = np.random.default_rng(seed).random(total)
    return uniform


def _split_columns(a: np.ndarray, widths) -> list:
    """``a`` (rows, sum(widths)) as one column block (a view) per width, in order."""
    return np.split(a, np.cumsum(widths, dtype=int)[:-1], axis=1)


class LayerRecord(NamedTuple):
    """Cached per-layer values from one forward pass (inputs to backprop)."""

    instance_key: str
    weight_key: str
    layer: LayerSpec
    a_in: np.ndarray      # (n, in_dim) layer input
    softlif: Optional[tuple]  # neuron._softlif's (q, t, soft, rate); None on linear layers
    scale: Optional[np.ndarray]  # mask / keep_prob, (out_dim,) or (n, out_dim); None if unmasked


class ForwardCache(NamedTuple):
    records: list           # one LayerRecord per layer instance, layer_instances order
    output: np.ndarray      # (n, output_dim)


def _gather_slices(spec: NetworkSpec, enc: EncoderSpec, x: np.ndarray) -> np.ndarray:
    """The encoder's input: its named slices of the last axis, concatenated."""
    spans = spec.slice_spans()
    parts = [x[..., spans[name][0]: spans[name][0] + spans[name][1]] for name in enc.slices]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _layer_scales(spec: NetworkSpec, masks: Optional[DropMasks]) -> list:
    """The inverted-dropout scale ``mask / keep_prob`` of every layer instance
    in layer_instances order, None where unmasked. The one place masks are
    checked against the spec and turned into scales."""
    out = []
    for ikey, _, layer, is_output in spec.layer_instances():
        if masks is None or ikey not in masks:
            out.append(None)
            continue
        if is_output:
            raise InvalidNetworkError("output layer cannot be masked")
        mask = np.asarray(masks[ikey], dtype=float)
        if mask.shape != (layer.out_dim,):
            raise InvalidNetworkError(
                f"mask for {ikey!r} has shape {mask.shape}, layer width {layer.out_dim}"
            )
        out.append(mask / layer.keep_prob)
    return out


def _traverse(spec: NetworkSpec, inputs: list, step):
    """Walk the network once: each encoder tower over its gathered input
    (``inputs[e]``, from _gather_slices), the concatenated tower outputs,
    then the head. ``step(i, a)`` evaluates layer instance ``i`` (in
    layer_instances order) on input ``a`` and returns its output."""
    i = 0
    outs = []
    for enc, a in zip(spec.encoders, inputs):
        for _ in enc.layers:
            a = step(i, a)
            i += 1
        outs.append(a)
    a = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=-1)
    for _ in spec.head:
        a = step(i, a)
        i += 1
    return a


def forward(spec: NetworkSpec, weights: WeightStore, input,
            masks: Optional[DropMasks] = None,
            params: NeuronParams = NeuronParams()):
    """Evaluate the network on one input vector or a batch (rows).

    With ``masks`` supplied, each masked layer's output is multiplied by
    its scale mask / keep_prob (one mask shared across the batch). Returns
    ``(output, cache)`` where the cache holds every per-layer intermediate
    needed by backprop.
    """
    x = np.asarray(input, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise InvalidNetworkError(
            f"input has {x.shape[-1] if x.ndim else 0} features, spec wants {spec.input_dim}"
        )
    records = []
    out = _forward(spec, weights, x, _layer_scales(spec, masks), params, records)
    return (out[0] if single else out), ForwardCache(records, out)


def _forward(spec: NetworkSpec, weights: WeightStore, rows: np.ndarray,
             scales: list, params: NeuronParams, records: Optional[list] = None) -> np.ndarray:
    """The analog pass over ``rows`` (n, input_dim), unchecked; returns the
    (n, output_dim) output. ``scales`` holds per layer instance None or a
    scale of shape (out_dim,), shared by every row, or (n, out_dim), one per
    row. Given a ``records`` list, appends one LayerRecord per layer instance
    for backprop; passes that never backpropagate leave it None and keep no
    per-layer arrays alive."""
    instances = list(spec.layer_instances())

    def step(i, a):
        ikey, wkey, layer, _ = instances[i]
        act = a @ weights.weights[wkey].T + weights.biases[wkey]
        parts = None
        if layer.activation == "softlif":
            act, parts = _softlif(act, params)
        if scales[i] is not None:
            act = act * scales[i]
        if records is not None:
            records.append(LayerRecord(ikey, wkey, layer, a, parts, scales[i]))
        return act

    return _traverse(spec, [_gather_slices(spec, enc, rows) for enc in spec.encoders], step)


def combo_spec(cell_dim: int, drug_dim: int, cell_hidden: int = 16,
               drug_hidden: int = 16, head_hidden: int = 32,
               keep_prob: float = 0.9) -> NetworkSpec:
    """Two-drug architecture: a cell tower plus one shared tower per drug.

    head_hidden=0 puts the affine readout directly on the concatenated tower
    outputs; that variant converts to a spiking network with the least error,
    since a linear readout averages synaptic ripple without rectifying it.
    """
    concat = cell_hidden + 2 * drug_hidden
    if head_hidden > 0:
        head = [LayerSpec(concat, head_hidden, "softlif", keep_prob),
                LayerSpec(head_hidden, 1, "linear")]
    else:
        head = [LayerSpec(concat, 1, "linear")]
    return NetworkSpec(
        input_slices=[
            ("cell", 0, cell_dim),
            ("drug_a", cell_dim, drug_dim),
            ("drug_b", cell_dim + drug_dim, drug_dim),
        ],
        encoders=[
            EncoderSpec(["cell"], [LayerSpec(cell_dim, cell_hidden, "softlif", keep_prob)]),
            EncoderSpec(["drug_a"], [LayerSpec(drug_dim, drug_hidden, "softlif", keep_prob)],
                        share_tag="drug"),
            EncoderSpec(["drug_b"], [LayerSpec(drug_dim, drug_hidden, "softlif", keep_prob)],
                        share_tag="drug"),
        ],
        head=head,
        output_dim=1,
    )


# --- model file (JSON) ------------------------------------------------------

def _layer_to_dict(layer: LayerSpec) -> dict:
    return {
        "in_dim": layer.in_dim,
        "out_dim": layer.out_dim,
        "activation": layer.activation,
        "keep_prob": layer.keep_prob,
        "share_tag": None,  # format v1 field; towers share through the encoder tag
    }


def _layer_from_dict(d: dict) -> LayerSpec:
    if d.get("share_tag") is not None:
        raise InvalidNetworkError(
            f"layer share_tag {d['share_tag']!r} is not supported (must be null); "
            "share a tower through the encoder share_tag"
        )
    return LayerSpec(
        in_dim=int(d["in_dim"]),
        out_dim=int(d["out_dim"]),
        activation=d["activation"],
        keep_prob=float(d["keep_prob"]),
    )


def spec_to_dict(spec: NetworkSpec) -> dict:
    return {
        "input_slices": [
            {"name": name, "offset": offset, "length": length}
            for name, offset, length in spec.input_slices
        ],
        "encoders": [
            {
                "slices": list(enc.slices),
                "share_tag": enc.share_tag,
                "layers": [_layer_to_dict(l) for l in enc.layers],
            }
            for enc in spec.encoders
        ],
        "head": [_layer_to_dict(l) for l in spec.head],
        "output_dim": spec.output_dim,
    }


def spec_from_dict(d: dict) -> NetworkSpec:
    return NetworkSpec(
        input_slices=[(s["name"], int(s["offset"]), int(s["length"]))
                      for s in d["input_slices"]],
        encoders=[
            EncoderSpec(
                slices=list(e["slices"]),
                layers=[_layer_from_dict(l) for l in e["layers"]],
                share_tag=e.get("share_tag"),
            )
            for e in d["encoders"]
        ],
        head=[_layer_from_dict(l) for l in d["head"]],
        output_dim=int(d["output_dim"]),
    )


class LoadedModel(NamedTuple):
    kind: str
    spec: NetworkSpec
    weights: WeightStore
    neuron_params: NeuronParams


def save_model(path, spec: NetworkSpec, weights: WeightStore,
               neuron_params: NeuronParams, kind: str = "analog") -> None:
    """Write a model file. Floats are serialized with shortest round-trip
    precision, so load(save(x)) reproduces every value exactly."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    validate(spec)
    validate_weights(spec, weights)
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "kind": kind,
        "neuron_params": asdict(neuron_params),
        "spec": spec_to_dict(spec),
        "weights": {
            key: {
                "weight": weights.weights[key].tolist(),
                "bias": weights.biases[key].tolist(),
            }
            for key in sorted(weights.weights)
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


@contextmanager
def _naming_file(path):
    """Re-raise a defect of the JSON document read from ``path`` as an
    InvalidNetworkError that names the file (and the field, if missing)."""
    try:
        yield
    except KeyError as exc:
        raise InvalidNetworkError(f"{path}: missing field {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidNetworkError(f"{path}: {exc}") from None


def load_model(path) -> LoadedModel:
    """Read a model file; any defect is an InvalidNetworkError naming the file."""
    with open(path, "r", encoding="utf-8") as f, _naming_file(path):
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise InvalidNetworkError(f"not a {MODEL_FORMAT} file: {path}")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise InvalidNetworkError(
            f"{path}: unsupported format_version {doc.get('format_version')!r} "
            f"(this reader supports {MODEL_FORMAT_VERSION})"
        )
    with _naming_file(path):
        if doc["kind"] not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {doc['kind']!r}")
        spec = spec_from_dict(doc["spec"])
        validate(spec)
        np_doc = doc["neuron_params"]
        params = NeuronParams(**{f.name: float(np_doc[f.name]) for f in fields(NeuronParams)})
        weights = WeightStore(
            {k: np.array(v["weight"], dtype=float) for k, v in doc["weights"].items()},
            {k: np.array(v["bias"], dtype=float) for k, v in doc["weights"].items()},
        )
        validate_weights(spec, weights)
        return LoadedModel(doc["kind"], spec, weights, params)
