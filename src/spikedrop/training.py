"""Minibatch Adam training of the analog network for squared-error regression.

Dropout is the only regularizer: each minibatch draws one set of
inverted-dropout scales from one mask seed (``network._draw_scales``, the rule
Monte-Carlo inference draws by), and ``network._forward`` applies that one
draw to every row of the batch and keeps a record list. An epoch's mask
seeds are drawn, and seeded, as one block: ``integers(2**63, size=n)`` gives
the same values as ``n`` scalar calls. The backward pass
takes no masks: it replays each layer's dropout scale from its record, and
builds each SoftLIF layer's derivative from the intermediates kept there
(``neuron._softlif``), so no ``exp`` or ``log1p`` is evaluated twice. The
epoch-end loss passes never backpropagate, so they call ``_forward`` without
a record list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_table
from .neuron import NeuronParams, _check_fields, _softlif_grad
from .network import (
    ForwardCache,
    InvalidNetworkError,
    NetworkSpec,
    WeightStore,
    _draw_scales,
    _forward,
    _layer_scales,
    init_weights,
    validate,
)

# Adam's moment decay rates and denominator floor, the usual defaults
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite loss is encountered during training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def loss_mse(predictions, targets) -> float:
    """Mean squared residual between predictions and targets."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} predictions, {t.size} targets")
    r = p.reshape(-1) - t.reshape(-1)
    return float(np.mean(r * r))


def _layer_backward(rec, g_out, weights: WeightStore, grads: WeightStore,
                    params: NeuronParams) -> np.ndarray:
    """Push the gradient through one cached layer; returns grad w.r.t. its input."""
    if rec.scale is not None:
        g_out = g_out * rec.scale
    if rec.softlif is not None:
        g_cur = g_out * _softlif_grad(rec.softlif, params)
    else:
        g_cur = g_out
    grads.weights[rec.weight_key] += g_cur.T @ rec.a_in
    grads.biases[rec.weight_key] += g_cur.sum(axis=0)
    return g_cur @ weights.weights[rec.weight_key]


def backward(spec: NetworkSpec, weights: WeightStore, cache: ForwardCache,
             targets, params: NeuronParams = NeuronParams()) -> WeightStore:
    """Gradients of loss_mse w.r.t. every weight and bias, from a forward cache.

    Shared layers accumulate contributions from every tower that uses them;
    masks gate gradients exactly as they gated activations, replayed from
    each layer record's dropout scale.
    """
    preds = cache.output
    t = np.asarray(targets, dtype=float)
    if t.size != preds.size:
        raise ValueError(f"length mismatch: {preds.size} predictions, {t.size} targets")
    g = 2.0 * (preds - t.reshape(preds.shape)) / preds.size

    # split the flat records (layer_instances order) into towers and head
    records = iter(cache.records)
    towers = [[next(records) for _ in enc.layers] for enc in spec.encoders]
    grads = weights.zeros_like()
    for rec in reversed(list(records)):
        g = _layer_backward(rec, g, weights, grads, params)

    # split the head-input gradient back into encoder output segments
    offsets = np.cumsum([0] + [spec.encoder_output_dim(enc) for enc in spec.encoders])
    for enc_idx, tower in enumerate(towers):
        g_enc = g[:, offsets[enc_idx]: offsets[enc_idx + 1]]
        for rec in reversed(tower):
            g_enc = _layer_backward(rec, g_enc, weights, grads, params)
    return grads


class _AdamState:
    def __init__(self, weights: WeightStore):
        self.m = weights.zeros_like()
        self.v = weights.zeros_like()
        self.t = 0

    def step(self, weights: WeightStore, grads: WeightStore, cfg: TrainConfig):
        b1, b2 = _ADAM_BETAS
        self.t += 1
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for store, mstore, vstore, gstore in (
            (weights.weights, self.m.weights, self.v.weights, grads.weights),
            (weights.biases, self.m.biases, self.v.biases, grads.biases),
        ):
            for key, g in gstore.items():
                m = mstore[key]
                v = vstore[key]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                store[key] -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)


def _checked_arrays(spec: NetworkSpec, dataset, name: str):
    """The features and targets of ``dataset`` as float arrays, checked
    against the spec's input width and against each other; errors name the
    dataset and both sizes."""
    x = np.asarray(dataset.features, dtype=float)
    y = np.asarray(dataset.targets, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        width = x.shape[-1] if x.ndim else 0
        raise InvalidNetworkError(
            f"{name} dataset has {width} features, spec wants {spec.input_dim}"
        )
    if y.size != x.shape[0]:
        raise ValueError(
            f"{name} dataset has {y.size} targets for {x.shape[0]} feature rows"
        )
    return x, y.reshape(x.shape[0])


def train(spec: NetworkSpec, dataset, config: TrainConfig,
          neuron_params: NeuronParams = NeuronParams(), eval_dataset=None):
    """Train on ``dataset`` (any object with .features and .targets).

    Returns ``(weights, history)`` where history rows are
    ``(epoch, train_mse, eval_mse)`` with eval_mse = nan when no eval set is
    given. The epoch-end losses are deterministic (mask-free) forward passes.
    Both datasets are checked against the spec's input width and their own
    target counts before the first epoch. Fully deterministic given
    config.seed.
    """
    validate(spec)
    x, y = _checked_arrays(spec, dataset, "train")
    n = x.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if eval_dataset is not None:
        x_eval, y_eval = _checked_arrays(spec, eval_dataset, "eval")
    unmasked = _layer_scales(spec, None)

    rng = np.random.default_rng(config.seed)
    weights = init_weights(spec, seed=int(rng.integers(2 ** 32)),
                           bias_value=neuron_params.v_th)
    adam = _AdamState(weights)
    history = []

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        starts = range(0, n, config.batch_size)
        epoch_scales = _draw_scales(spec, rng.integers(2 ** 63, size=len(starts)))
        for b, start in enumerate(starts):
            idx = perm[start: start + config.batch_size]
            scales = [None if s is None else s[b:b + 1] for s in epoch_scales]
            records = []
            out = _forward(spec, weights, x[idx], scales, neuron_params, records)
            batch_loss = loss_mse(out, y[idx])
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}"
                )
            grads = backward(spec, weights, ForwardCache(records, out), y[idx],
                             neuron_params)
            adam.step(weights, grads, config)

        train_mse = loss_mse(_forward(spec, weights, x, unmasked, neuron_params), y)
        if eval_dataset is not None:
            eval_mse = loss_mse(_forward(spec, weights, x_eval, unmasked, neuron_params), y_eval)
        else:
            eval_mse = float("nan")
        history.append((epoch, train_mse, eval_mse))
    return weights, history


def write_history(path, history) -> None:
    """Loss history (``data.write_table``): epoch, train_mse, test_mse."""
    write_table(path, ["epoch", "train_mse", "test_mse"], history)
