"""Leaky integrate-and-fire neurons: steady-state rates, smoothed rates, and step dynamics.

The steady-state firing rate of a LIF neuron under constant input current ``J`` is

    rate(J) = 1 / (tau_ref + tau_rc * log(1 + v_th / max(0, J - v_th)))

which is zero for subthreshold input and not differentiable at ``J = v_th``.
Replacing the hard rectifier with the smoothed softplus
``gamma * log(1 + exp(x / gamma))`` gives the SoftLIF rate, which is smooth
everywhere and converges to the hard rate as ``gamma -> 0``. Networks are
trained on the SoftLIF curve and simulated with the hard-threshold dynamics.

Each formula is written once, in a private helper: ``_rate`` turns a drive
(``J - v_th``, or its softplus for SoftLIF) into a rate, ``_decay`` is one
tick's membrane decay, ``_softlif`` returns the SoftLIF rate with the
intermediates ``(q, t, soft, rate)`` and ``_softlif_grad`` builds the
derivative from them. The analog forward pass keeps them in its layer
records, so the backward pass never evaluates an ``exp`` or ``log1p`` again.

Training puts most SoftLIF currents far below threshold, where ``exp(-|q|)``
is 0 or subnormal and numpy's ``exp`` and ``log1p`` take slow paths. The
helpers keep those lanes off them and still return the bits of the formulas
as written: a lane either gets the value numpy would have returned there
(``exp`` is exactly 0 below ``_EXP_ZERO``; ``log1p(t) == t`` below
``_LOG1P_IS_T``) or its value is discarded. Tests pin both numpy facts and
compare every output with the formulas as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

# Below x/gamma = -30 the ratio sigmoid(x/gamma) / softplus(x) equals
# 1/gamma to within exp(-30); used to avoid 0/0 in the rate gradient.
_LOG_TINY = -30.0
# the lanes _softplus_parts evaluates without exp or log1p (see its docstring)
_EXP_ZERO = -746.0
_LOG1P_IS_T = -38.0
_TINY = 1e-17


@dataclass(frozen=True)
class NeuronParams:
    """LIF constants: refractory period, membrane time constant, firing
    threshold, and the softplus smoothing width used during training."""

    tau_ref: float = 0.002
    tau_rc: float = 0.02
    v_th: float = 1.0
    gamma: float = 0.02

    def __post_init__(self):
        _check_fields(self)
        if self.tau_ref < 0:
            raise ValueError("tau_ref must be >= 0")
        if self.tau_rc <= 0:
            raise ValueError("tau_rc must be > 0")
        if self.v_th <= 0:
            raise ValueError("v_th must be > 0")
        if self.gamma <= 0 or math.isinf(1.0 / self.gamma):  # training divides by gamma
            raise ValueError(f"gamma must be > 0 with a finite reciprocal, got {self.gamma!r}")


def _check_fields(config) -> None:
    """Refuse a value of the wrong kind in a config dataclass: a float field
    must be finite, and an int field (a count or a seed) an integer that is
    not a bool."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        elif not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _rate(drive, params: NeuronParams):
    """``1 / (tau_ref + tau_rc * log1p(v_th / drive))`` where an array of
    drives is positive, else 0: the LIF rate of ``J - v_th`` or its softplus."""
    # Every element is evaluated and the positive ones kept: cheaper than
    # indexing them, and the bits of evaluating them alone. The others divide
    # v_th by 1, so log1p never sees the inf of v_th / 0; a subnormal drive
    # still overflows v_th / drive to inf (rate 0)
    pos = drive > 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(pos, 1.0 / (
            params.tau_ref + params.tau_rc * np.log1p(params.v_th / np.where(pos, drive, 1.0))
        ), 0.0)


def lif_rate(current, params: NeuronParams = NeuronParams()):
    """Steady-state firing rate (Hz) of a LIF neuron under constant current.

    Zero at and below the threshold ``v_th``. Accepts scalars or arrays.
    """
    j, scalar = _as_array(current)
    out = _rate(j - params.v_th, params)
    return float(out) if scalar else out


def _softplus_parts(x, gamma: float):
    """``q = x / gamma``, ``t = exp(-|q|)`` and the softplus value
    ``gamma * (max(q, 0) + log1p(t))``: the one place they are computed.

    Bit for bit those formulas, with ``a = -|q|``:

    - where ``a < _EXP_ZERO`` (-746), ``t`` is 0 and ``exp`` is not asked:
      numpy's ``exp`` is exactly 0 below about -745.13, where ``e**a`` is under
      half the smallest subnormal. Subnormal ``t``, for ``a`` in
      [-745.13, -708.4], still comes from ``exp``.
    - where ``a < _LOG1P_IS_T`` (-38), ``log1p(t)`` is ``t``: exact once
      ``t < 2**-54``, and ``e**-38`` is 3.1e-17. ``log1p`` still runs on
      every lane, on ``max(t, _TINY)``; ``_TINY`` (1e-17, below ``e**-38``)
      lifts only the arguments whose results are not used, 0 and the
      subnormals, off its slow path.

    A NaN ``q`` stays NaN in every output. A ``gamma`` so small that a
    finite ``x / gamma`` overflows is refused: that lane would get the
    ``1 / tau_ref`` ceiling rate whatever the current.
    """
    try:
        with np.errstate(over="raise"):
            q = x / gamma
    except FloatingPointError:
        raise ValueError(f"gamma {gamma!r} is too small: (J - v_th) / gamma overflows") from None
    a = -np.abs(q)
    dead = a < _EXP_ZERO  # False on NaN, which exp passes on
    t = np.where(dead, 0.0, np.exp(np.where(dead, 0.0, a)))
    log1p_t = np.where(a < _LOG1P_IS_T, t, np.log1p(np.maximum(t, _TINY)))
    return q, t, gamma * (np.maximum(q, 0.0) + log1p_t)


def _softlif(current, params: NeuronParams):
    """The SoftLIF rate of an array of currents, and the parts
    ``(q, t, soft, rate)`` from which _softlif_grad builds its derivative."""
    q, t, soft = _softplus_parts(current - params.v_th, params.gamma)
    rate = _rate(soft, params)
    return rate, (q, t, soft, rate)


def _softlif_grad(parts, params: NeuronParams):
    """d rate / d current from the parts _softlif returned for those currents."""
    q, t, soft, rate = parts
    # sigmoid(q) / soft -> 1/gamma as q -> -inf; branch to avoid 0/0 underflow.
    # Lanes below _LOG_TINY are discarded, so they divide normal numbers
    # rather than subnormal ones; soft > 0 above it, as 1 / gamma is finite
    flat = q < _LOG_TINY
    sig = np.where(q >= 0, 1.0, np.maximum(t, _TINY)) / (1.0 + t)
    ratio = np.where(flat, 1.0 / params.gamma, sig / np.where(flat, 1.0, soft))
    return rate * rate * params.tau_rc * params.v_th * ratio / (soft + params.v_th)


def softlif_rate(current, params: NeuronParams = NeuronParams()):
    """SoftLIF rate: the LIF rate with the rectifier replaced by the softplus
    ``gamma * log(1 + exp(x / gamma))``.

    Strictly positive and monotone increasing for all representable currents
    (underflows to 0 only when the smoothed rectifier itself underflows).
    """
    j, scalar = _as_array(current)
    out = _softlif(j, params)[0]
    return float(out) if scalar else out


def _decay(refractory, dt: float, params: NeuronParams):
    """The membrane's decay over one tick of length ``dt`` from the clock
    ``refractory``: only the tick's non-refractory part integrates."""
    return np.exp(-np.clip(dt - refractory, 0.0, dt) / params.tau_rc)


def lif_step_arrays(voltage, refractory, current, dt: float, params: NeuronParams):
    """Advance a vector of LIF neurons by one tick of length ``dt``.

    Exact exponential membrane update toward the input current. A step that
    ends a refractory period integrates only the non-refractory fraction of
    ``dt``. Spikes are registered at step boundaries: the voltage resets to 0
    and the refractory clock restarts at ``tau_ref``.

    Returns ``(voltage, refractory, spiked)`` as new arrays.
    """
    voltage = np.asarray(voltage, dtype=float)
    refractory = np.asarray(refractory, dtype=float)
    current = np.asarray(current, dtype=float)

    v = current + (voltage - current) * _decay(refractory, dt, params)

    spiked = v >= params.v_th
    v = np.where(spiked, 0.0, v)
    refr = np.where(spiked, params.tau_ref, np.maximum(refractory - dt, 0.0))
    return v, refr, spiked

