"""Network architecture description, parameter storage, the network pass, and
the JSON documents that hold a network.

A network is a set of input slices feeding encoder towers whose outputs are
concatenated into a head stack. Encoders carrying the same ``share_tag`` reuse
one parameter set (e.g. one tower applied to each drug of a pair); this is
the only form of weight sharing. Dropout acts in one way only: a layer's
output is multiplied by its inverted-dropout scale ``mask / keep_prob``, so
the deterministic pass, the masked analog pass, the gradient and the spiking
simulation all operate on the same activation scale. Scales come either from
a caller's mask set (``_layer_scales``, which checks it) or straight from
mask seeds, a block of draws at a time (``_draw_scales``): Monte-Carlo
inference and training's minibatches both draw this way. A mask set is a
plain dict from layer instance key to a 0/1 vector. The mask seed rule is
written once, in ``_draw_scales``; ``sample_masks`` is its one-seed case.
Its bits are those of ``default_rng(seed)``, computed for a whole block of
seeds by ``_stream_uniforms``: it hashes every seed at once, seeds numpy's
own PCG64 from each seed's hash words, and imports ``numpy.random`` only
when it runs.

``convert`` is the one checked constructor of ``Model``, the record both
backends run; it holds the caller's spec and weights uncopied.

One private network pass (``_pass``) applies every layer for both backends;
its caller supplies only the neuron of the SoftLIF layers. ``_forward``
supplies the SoftLIF curve (``neuron._softlif``), on rows that may each
carry their own scales, and ``snn`` the LIF neuron. The rows may also be one
row under scales of a row per draw: numpy broadcasting widens each path at
its first per-draw array (a dropout scale, or in ``snn`` the LIF state of a
row per draw), so the layers upstream of it run once. ``forward`` and
training's minibatch pass ask ``_forward`` for layer records (each layer's
input and ``neuron._softlif`` intermediates, from which ``training.backward``
builds the gradient); Monte-Carlo analog draws and training's epoch-end
losses call ``_forward`` without a record list and keep none.

Both documents are read and written here, and nowhere else: the model file
(``save_model``, ``load_model``) and the network config (``save_config``,
``load_config``), which share the ``spec`` and ``neuron_params`` sections.
Every field is read by ``_json``, which names the field and its kind when
it refuses one; a key that no reader knows is refused at every level of
both documents, by name.
"""

from __future__ import annotations

import json
import operator
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .neuron import NeuronParams, _softlif

ACTIVATIONS = ("softlif", "linear")

MODEL_FORMAT = "spikedrop-model"
MODEL_FORMAT_VERSION = 1


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

    def zeros_like(self) -> "WeightStore":
        return WeightStore(
            {k: np.zeros_like(v) for k, v in self.weights.items()},
            {k: np.zeros_like(v) for k, v in self.biases.items()},
        )


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
        if not (enc.share_tag is None or (isinstance(enc.share_tag, str) and enc.share_tag)):
            raise InvalidNetworkError(f"encoder {i}: share_tag must be null or a "
                                      f"non-empty string, got {enc.share_tag!r}")
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
    """Check that a WeightStore holds exactly the spec's parameter sets, of
    the spec's shapes, and is finite."""
    needed = {wkey: layer for _, wkey, layer, _ in spec.layer_instances()}
    unused = (set(weights.weights) | set(weights.biases)) - set(needed)
    if unused:
        raise InvalidNetworkError(f"parameters {min(unused)!r} belong to no layer")
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


def sample_masks(spec: NetworkSpec, seed: int) -> dict:
    """Draw one Bernoulli(keep_prob) drop-mask per hidden layer instance: a
    dict from instance key to a float 0/1 vector.

    Layers with keep_prob == 1 get all-ones masks without consuming
    randomness; the output layer gets no mask. Deterministic given the seed:
    the one-seed case of ``_draw_scales``, whose scale is positive exactly
    where the mask keeps.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return {
        ikey: np.ones(layer.out_dim) if scale is None else (scale[0] > 0).astype(float)
        for (ikey, _, layer, is_output), scale in zip(spec.layer_instances(),
                                                      _draw_scales(spec, [seed]))
        if not is_output
    }


def _draw_scales(spec: NetworkSpec, seeds) -> list:
    """The mask seed rule: the inverted-dropout scales ``mask / keep_prob``
    of one draw per seed, per layer instance in layer_instances order: a
    (len(seeds), out_dim) array, or None for the output layer and
    keep_prob == 1 layers, whose scale 1 changes no value.

    Draw ``seed`` keeps a neuron where its uniform from ``_stream_uniforms``,
    over the keep_prob < 1 layers, is below keep_prob.
    """
    instances = list(spec.layer_instances())
    widths = [0 if is_output or layer.keep_prob == 1.0 else layer.out_dim
              for _, _, layer, is_output in instances]
    return [(u < layer.keep_prob) / layer.keep_prob if width else None
            for (_, _, layer, _), width, u in zip(instances, widths,
                                                  _stream_uniforms(seeds, widths))]


def _stream_uniforms(seeds, widths) -> list:
    """The stream rule of drop masks (``_draw_scales``) and initial voltages
    (``snn._initial_voltages``): one (len(seeds), width) column block per
    width, in order, one per layer instance the caller draws for, in
    layer_instances order. Row k of the blocks laid side by side is
    ``default_rng(seeds[k]).random(sum(widths))``: the bits of one
    ``random(width)`` call per such layer, in that order.

    The whole block is hashed at once: ``_seed_words`` hashes every seed as
    ``SeedSequence`` does, and numpy's PCG64 is seeded from each seed's hash
    words in turn, through ``_SeedWords``; ``random`` turns each 64-bit
    output into ``(raw >> 11) * 2**-53``."""
    # imported and registered here, so importing the package leaves
    # numpy.random unloaded
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)
    bounds = list(accumulate(widths, initial=0))
    seeds = [operator.index(seed) for seed in seeds]
    raw = np.empty((len(seeds), bounds[-1]), dtype=np.uint64)
    for k, words in enumerate(_seed_words(seeds)):
        raw[k] = PCG64(_SeedWords(words)).random_raw(bounds[-1])
    uniform = (raw >> np.uint64(11)) * 2.0 ** -53
    return [uniform[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class _SeedWords:
    """One seed's row of ``_seed_words``, as the seed sequence numpy's PCG64
    reads (registered as an ``ISeedSequence`` by ``_stream_uniforms``): PCG64
    asks for exactly ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=None) -> np.ndarray:
        return self.words


# numpy's SeedSequence hash with its default pool of 4 words. Every hash call
# steps a 32-bit constant that does not depend on the data, so the constants
# are listed once.
_POOL = 4
_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constant's first ``n`` values: ``init``, then each times
    ``mult``, mod 2**32."""
    values = [init]
    for _ in range(n - 1):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)


# mixing the pool from up to 4 entropy words takes 16 hash calls, and
# generate_state(4, uint64) hashes 8 words; call j takes constants j and j + 1
_POOL_CONSTANTS = _hash_constants(_MIX_INIT, _MIX_MULT, 4 * _POOL + 1)
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` on uint32 arrays, one call per column of
    the last axis: call j xors ``constants[j]`` and multiplies by
    ``constants[j + 1]``."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> np.uint32(16))


def _seed_words(seeds: list) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed, as
    a (len(seeds), 4) uint64 array. A seed is entropy of ``ceil(bits / 32)``
    little-endian 32-bit words; the words past the pool's 4 are mixed in, 4
    hash calls each, only for the seeds that have them."""
    lengths = np.array([(seed.bit_length() + 31) // 32 for seed in seeds], dtype=int)
    width = max(_POOL, int(lengths.max(initial=0)))
    words = np.frombuffer(b"".join(seed.to_bytes(4 * width, "little") for seed in seeds),
                          dtype="<u4").reshape(len(seeds), width)
    constants = (_POOL_CONSTANTS if width == _POOL
                 else _hash_constants(_MIX_INIT, _MIX_MULT, 4 * width + 1))
    pool = _hashmix(words[:, :_POOL], constants[:_POOL + 1])
    call = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1],
                                                   constants[call:call + _POOL]))
        call += _POOL - 1
    for src in range(_POOL, width):
        rows = lengths > src
        pool[rows] = _mix(pool[rows], _hashmix(words[rows, src:src + 1],
                                               constants[call:call + _POOL + 1]))
        call += _POOL
    state = _hashmix(np.tile(pool, 2), _STATE_CONSTANTS)
    return state.astype("<u4").view("<u8")


class LayerRecord(NamedTuple):
    """Cached per-layer values from one forward pass (inputs to backprop)."""

    weight_key: str
    a_in: np.ndarray      # (n, in_dim) layer input
    softlif: Optional[tuple]  # neuron._softlif's (q, t, soft, rate); None on linear layers
    scale: Optional[np.ndarray]  # mask / keep_prob, as _forward took it; None if unmasked


class ForwardCache(NamedTuple):
    records: list           # one LayerRecord per layer instance, layer_instances order
    output: np.ndarray      # (n, output_dim)


def _gather_slices(spec: NetworkSpec, enc: EncoderSpec, x: np.ndarray) -> np.ndarray:
    """The encoder's input: its named slices of the last axis, concatenated."""
    spans = spec.slice_spans()
    parts = [x[..., spans[name][0]: spans[name][0] + spans[name][1]] for name in enc.slices]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _layer_scales(spec: NetworkSpec, masks: Optional[Mapping]) -> list:
    """The inverted-dropout scale ``mask / keep_prob`` of every layer instance
    in layer_instances order, None where unmasked. ``masks`` maps instance
    keys to 0/1 vectors, as ``sample_masks`` returns. The one place masks are
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


def forward(spec: NetworkSpec, weights: WeightStore, input,
            masks: Optional[Mapping] = None,
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
    """The analog pass over ``rows`` (m, input_dim), unchecked; returns the
    (n, output_dim) output. ``scales`` holds per layer instance None or a
    scale of shape (out_dim,) or (1, out_dim), shared by every row, or
    (n, out_dim), one per row, where m is n or 1: one row widens to n rows
    at its path's first such scale, and n is m where no scale has n rows.
    Given a ``records`` list, appends one LayerRecord per layer instance for
    backprop; passes that never backpropagate leave it None and keep no
    per-layer arrays alive."""
    return _pass(spec, weights, scales, lambda i, current: _softlif(current, params),
                 records)(_gather_inputs(spec, rows))


def _gather_inputs(spec: NetworkSpec, rows: np.ndarray) -> list:
    """Each encoder's gathered input (``_gather_slices``), in encoder order."""
    return [_gather_slices(spec, enc, rows) for enc in spec.encoders]


def _pass(spec: NetworkSpec, weights: WeightStore, scales: list, rate,
          records: Optional[list] = None):
    """The one place a layer is applied, set up once: returns ``run(inputs)``,
    which walks each tower over its input from ``_gather_inputs``, then the
    head. Layer instance ``i`` is its affine map, then on a SoftLIF layer
    ``rate(i, current)`` (the output and its ``_softlif`` parts or None),
    then its dropout scale ``scales[i]``, which may widen a one-row path
    (``_forward``). The head reads the towers' outputs side by side, each
    broadcast to the most rows any tower has. Given a ``records`` list,
    ``run`` appends one LayerRecord per layer instance."""
    layers = [(wkey, weights.weights[wkey], weights.biases[wkey], layer.activation == "softlif")
              for _, wkey, layer, _ in spec.layer_instances()]
    bounds = list(accumulate((len(enc.layers) for enc in spec.encoders), initial=0))

    def walk(a, lo, hi):
        for i in range(lo, hi):
            wkey, w, b, softlif = layers[i]
            out = a @ w.T + b
            out, parts = rate(i, out) if softlif else (out, None)
            if scales[i] is not None:
                out = out * scales[i]
            if records is not None:
                records.append(LayerRecord(wkey, a, parts, scales[i]))
            a = out
        return a

    def run(inputs):
        outs = [walk(a, lo, hi) for a, lo, hi in zip(inputs, bounds, bounds[1:])]
        if len(outs) > 1:
            # a tower without dropout may still be one row; broadcast only it,
            # since a view per tower costs more than the concatenation
            n = max(len(out) for out in outs)
            outs = [np.concatenate([out if len(out) == n else
                                    np.broadcast_to(out, (n, out.shape[1])) for out in outs],
                                   axis=-1)]
        return walk(outs[0], bounds[-1], len(layers))

    return run


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


# --- documents (JSON): the model file and the network config -----------------

def _layer_to_dict(layer: LayerSpec) -> dict:
    return {**asdict(layer), "share_tag": None}  # a format v1 field, always null


_KINDS = {  # each kind of JSON value _json reads; a number is finite, as a float
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                           and abs(v) <= sys.float_info.max),
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "an object": lambda v: isinstance(v, dict),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v),
}


def _json(d: dict, key: str, kind: str, keys=None):
    """``d[key]``, refused unless it is ``kind`` (a key of ``_KINDS``), as in
    "in_dim must be an integer, got 8.7"; a number comes back as a float.
    With ``keys``, the object (or each object of the list) is refused if it
    holds any other key (``_known``)."""
    value = d[key]
    if not _KINDS[kind](value):
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    if keys is not None:
        for obj in value if isinstance(value, list) else [value]:
            _known(obj, keys, key)
    return float(value) if kind == "a number" else value


def _known(d: dict, keys, where: str) -> None:
    """Refuse a key of ``d`` outside ``keys``, as in "unknown layers field
    'keep_porb'": a misspelt field would otherwise be read as absent."""
    unknown = set(d) - set(keys)
    if unknown:
        raise ValueError(f"unknown {where} field {min(unknown)!r}")


_SPEC_FIELDS = ("input_slices", "encoders", "head", "output_dim")
_LAYER_FIELDS = ("in_dim", "out_dim", "activation", "keep_prob", "share_tag")
_NEURON_FIELDS = tuple(f.name for f in fields(NeuronParams))


def _layer_from_dict(d: dict) -> LayerSpec:
    if d.get("share_tag") is not None:
        raise InvalidNetworkError(
            f"layer share_tag {d['share_tag']!r} is not supported (must be null); "
            "share a tower through the encoder share_tag"
        )
    return LayerSpec(
        in_dim=_json(d, "in_dim", "an integer"),
        out_dim=_json(d, "out_dim", "an integer"),
        activation=d["activation"],
        keep_prob=_json(d, "keep_prob", "a number"),
    )


def _spec_to_dict(spec: NetworkSpec) -> dict:
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


def _spec_from_dict(d: dict) -> NetworkSpec:
    return NetworkSpec(
        input_slices=[(_json(s, "name", "a string"), _json(s, "offset", "an integer"),
                       _json(s, "length", "an integer"))
                      for s in _json(d, "input_slices", "a list of objects",
                                     ("name", "offset", "length"))],
        encoders=[
            EncoderSpec(
                slices=_json(e, "slices", "a list of strings"),
                layers=[_layer_from_dict(l)
                        for l in _json(e, "layers", "a list of objects", _LAYER_FIELDS)],
                share_tag=e.get("share_tag"),
            )
            for e in _json(d, "encoders", "a list of objects", ("slices", "share_tag", "layers"))
        ],
        head=[_layer_from_dict(l) for l in _json(d, "head", "a list of objects", _LAYER_FIELDS)],
        output_dim=_json(d, "output_dim", "an integer"),
    )


class Model(NamedTuple):
    """A network as both backends run it: structure, weights and the neuron
    constants of the SoftLIF curve and of the LIF neuron it approximates."""

    spec: NetworkSpec
    weights: WeightStore
    neuron_params: NeuronParams


def convert(spec: NetworkSpec, weights: WeightStore, params: NeuronParams) -> Model:
    """The identity transfer to a spiking network: the caller's objects,
    checked and uncopied, as one Model. The simulator runs the hard-threshold
    neuron whose rate the SoftLIF curve smoothed (its width plays no role),
    and linear layers stay a non-spiking affine readout."""
    validate(spec)  # rejects unknown activation tags
    validate_weights(spec, weights)
    return Model(spec, weights, params)


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as JSON with one-space indents and a trailing newline:
    the one JSON writer, for both documents and ``compare``'s report."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def save_model(path, spec: NetworkSpec, weights: WeightStore,
               neuron_params: NeuronParams) -> None:
    """Write a model file. Floats are serialized with shortest round-trip
    precision, so load(save(x)) reproduces every value exactly."""
    convert(spec, weights, neuron_params)
    write_json(path, {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "analog",
        "neuron_params": asdict(neuron_params),
        "spec": _spec_to_dict(spec),
        "weights": {
            key: {
                "weight": weights.weights[key].tolist(),
                "bias": weights.biases[key].tolist(),
            }
            for key in sorted(weights.weights)
        },
    })


def _numbers(entry: dict, key: str, part: str) -> np.ndarray:
    """Weights entry ``key``'s ``part`` (weight or bias) as a float array:
    lists of equal length, nested down to values that are each "a number"."""
    items = [entry[part]]
    for item in items:  # grows as it goes: the values of every nested list join it
        if isinstance(item, list):
            items.extend(item)
        elif not _KINDS["a number"](item):
            raise ValueError(f"{key} {part} values must be numbers, got {item!r}")
    try:
        return np.array(entry[part], dtype=float)
    except ValueError:
        raise ValueError(f"{key} {part} is ragged: its rows differ in length") from None


def _neuron_params(d: dict, names) -> NeuronParams:
    """NeuronParams from a neuron_params object: the fields ``names`` read as
    numbers, the others at their defaults."""
    return NeuronParams(**{name: _json(d, name, "a number") for name in names})


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


def load_model(path) -> Model:
    """Read a model file; any defect is an InvalidNetworkError naming the file."""
    with open(path, "r", encoding="utf-8") as f, _naming_file(path):
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise InvalidNetworkError(f"not a {MODEL_FORMAT} file: {path}")
    with _naming_file(path):
        version = _json(doc, "format_version", "an integer") if "format_version" in doc else None
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r} "
                             f"(this reader supports {MODEL_FORMAT_VERSION})")
        _known(doc, ("format", "format_version", "kind", "neuron_params", "spec", "weights"),
               "top-level")
        if doc["kind"] != "analog":
            raise ValueError(f"unknown model kind {doc['kind']!r}")
        spec = _spec_from_dict(_json(doc, "spec", "an object", _SPEC_FIELDS))
        params = _neuron_params(_json(doc, "neuron_params", "an object", _NEURON_FIELDS),
                                _NEURON_FIELDS)
        entries = _json(doc, "weights", "an object")
        entries = {k: _json(entries, k, "an object", ("weight", "bias")) for k in entries}
        weights = WeightStore({k: _numbers(v, k, "weight") for k, v in entries.items()},
                              {k: _numbers(v, k, "bias") for k, v in entries.items()})
        return convert(spec, weights, params)


def save_config(path, spec: NetworkSpec, params: NeuronParams) -> None:
    """Write a network config: the architecture and neuron constants that
    ``load_config`` reads back and ``train`` starts from."""
    validate(spec)
    write_json(path, {"spec": _spec_to_dict(spec), "neuron_params": asdict(params)})


def load_config(path) -> tuple:
    """Read a network config: ``(spec, params)``. An omitted neuron constant,
    or a missing or null neuron_params, keeps its default. Any defect is an
    InvalidNetworkError naming the file."""
    with open(path, "r", encoding="utf-8") as f, _naming_file(path):
        doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError(f"network config must be an object, got {doc!r}")
        _known(doc, ("spec", "neuron_params"), "top-level")
        spec = _spec_from_dict(_json(doc, "spec", "an object", _SPEC_FIELDS))
        validate(spec)
        constants = doc.get("neuron_params")
        constants = ({} if constants is None
                     else _json(doc, "neuron_params", "an object", _NEURON_FIELDS))
        return spec, _neuron_params(constants, constants)
