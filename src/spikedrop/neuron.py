"""Leaky integrate-and-fire neurons: steady-state rates, smoothed rates, and step dynamics.

The steady-state firing rate of a LIF neuron under constant input current ``J`` is

    rate(J) = 1 / (tau_ref + tau_rc * log(1 + v_th / max(0, J - v_th)))

which is zero for subthreshold input and not differentiable at ``J = v_th``.
Replacing the hard rectifier with the smoothed softplus
``gamma * log(1 + exp(x / gamma))`` gives the SoftLIF rate, which is smooth
everywhere and converges to the hard rate as ``gamma -> 0``. Networks are
trained on the SoftLIF curve and simulated with the hard-threshold dynamics.

The SoftLIF formulas are written once, in private helpers: ``_softlif``
evaluates the rate and returns the intermediates ``(q, t, soft, rate)``, and
``_softlif_grad`` builds the derivative from those intermediates with a few
multiplies. The analog forward pass keeps them in its layer records, so the
backward pass never evaluates an ``exp`` or ``log1p`` again. The public
``softplus_gamma``, ``softlif_rate`` and ``softlif_rate_grad`` wrap the same
helpers and give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below x/gamma = -30 the ratio sigmoid(x/gamma) / softplus_gamma(x) equals
# 1/gamma to within exp(-30); used to avoid 0/0 in the rate gradient.
_LOG_TINY = -30.0


@dataclass(frozen=True)
class NeuronParams:
    """LIF constants: refractory period, membrane time constant, firing
    threshold, and the softplus smoothing width used during training."""

    tau_ref: float = 0.002
    tau_rc: float = 0.02
    v_th: float = 1.0
    gamma: float = 0.02

    def __post_init__(self):
        if self.tau_ref < 0:
            raise ValueError("tau_ref must be >= 0")
        if self.tau_rc <= 0:
            raise ValueError("tau_rc must be > 0")
        if self.v_th <= 0:
            raise ValueError("v_th must be > 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def lif_rate(current, params: NeuronParams = NeuronParams()):
    """Steady-state firing rate (Hz) of a LIF neuron under constant current.

    Zero at and below the threshold ``v_th``. Accepts scalars or arrays.
    """
    j, scalar = _as_array(current)
    over = j - params.v_th
    out = np.zeros_like(over)
    pos = over > 0
    # v_th / over may overflow to inf for subnormal over; the rate is then 0
    with np.errstate(over="ignore"):
        out[pos] = 1.0 / (
            params.tau_ref + params.tau_rc * np.log1p(params.v_th / over[pos])
        )
    return float(out) if scalar else out


def _softplus_parts(x, gamma: float):
    """``q = x / gamma``, ``t = exp(-|q|)`` and the softplus value
    ``gamma * (max(q, 0) + log1p(t))``: the one place they are computed."""
    q = x / gamma
    t = np.exp(-np.abs(q))
    return q, t, gamma * (np.maximum(q, 0.0) + np.log1p(t))


def _softlif(current, params: NeuronParams):
    """The SoftLIF rate of an array of currents, and the parts
    ``(q, t, soft, rate)`` from which _softlif_grad builds its derivative."""
    q, t, soft = _softplus_parts(current - params.v_th, params.gamma)
    # v_th / soft is inf where soft is 0 or subnormal, and the rate then 0.
    # Every element is evaluated and the soft > 0 ones kept, which gives them
    # the bits of evaluating them alone and costs less than indexing them
    with np.errstate(over="ignore", divide="ignore"):
        rate = np.where(soft > 0, 1.0 / (
            params.tau_ref + params.tau_rc * np.log1p(params.v_th / soft)
        ), 0.0)
    return rate, (q, t, soft, rate)


def _softlif_grad(parts, params: NeuronParams):
    """d rate / d current from the parts _softlif returned for those currents."""
    q, t, soft, rate = parts
    # sigmoid(q) / soft -> 1/gamma as q -> -inf; branch to avoid 0/0 underflow
    sig = np.where(q >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    ratio = np.where(q < _LOG_TINY, 1.0 / params.gamma, sig / np.where(soft > 0, soft, 1.0))
    return rate * rate * params.tau_rc * params.v_th * ratio / (soft + params.v_th)


def softplus_gamma(x, gamma: float):
    """Smoothed rectifier ``gamma * log(1 + exp(x / gamma))``.

    Overflow-safe: for large positive ``x / gamma`` it evaluates the
    algebraically identical form ``x + gamma * log(1 + exp(-x / gamma))``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    z, scalar = _as_array(x)
    out = _softplus_parts(z, gamma)[2]
    return float(out) if scalar else out


def softlif_rate(current, params: NeuronParams = NeuronParams()):
    """SoftLIF rate: the LIF rate with the rectifier replaced by softplus_gamma.

    Strictly positive and monotone increasing for all representable currents
    (underflows to 0 only when the smoothed rectifier itself underflows).
    """
    j, scalar = _as_array(current)
    out = _softlif(j, params)[0]
    return float(out) if scalar else out


def softlif_rate_grad(current, params: NeuronParams = NeuronParams()):
    """Analytic derivative of softlif_rate with respect to the input current.

    With j = softplus_gamma(current - v_th) and r the SoftLIF rate:

        dr/dJ = r^2 * tau_rc * v_th * sigmoid((J - v_th)/gamma) / (j * (j + v_th))
    """
    j, scalar = _as_array(current)
    grad = _softlif_grad(_softlif(j, params)[1], params)
    return float(grad) if scalar else grad


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

    active_time = np.clip(dt - refractory, 0.0, dt)
    decay = np.exp(-active_time / params.tau_rc)
    v = current + (voltage - current) * decay

    spiked = v >= params.v_th
    v = np.where(spiked, 0.0, v)
    refr = np.maximum(refractory - dt, 0.0)
    refr = np.where(spiked, params.tau_ref, refr)
    return v, refr, spiked

