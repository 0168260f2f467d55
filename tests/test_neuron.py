import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikedrop import neuron
from spikedrop.neuron import (
    NeuronParams,
    _softlif,
    _softlif_grad,
    _softplus_parts,
    lif_rate,
    lif_step_arrays,
    softlif_rate,
)
from strategies import (reference_lif_rate, reference_softlif_parts, reference_softlif_rate,
                        reference_softlif_rate_grad)

P = NeuronParams()  # tau_ref=0.002, tau_rc=0.02, v_th=1, gamma=0.02


def softplus(x, gamma):
    """The smoothed rectifier ``gamma * log(1 + exp(x / gamma))``."""
    return _softplus_parts(x, gamma)[2]


def softlif_grad(current, params):
    """d softlif_rate / d current, as the backward pass builds it."""
    return _softlif_grad(_softlif(current, params)[1], params)


class TestNeuronParams:
    def test_defaults(self):
        assert P.tau_ref == 0.002 and P.tau_rc == 0.02
        assert P.v_th == 1.0 and P.gamma == 0.02

    @pytest.mark.parametrize("kwargs", [
        dict(tau_ref=-0.001),
        dict(tau_rc=0.0),
        dict(v_th=0.0),
        dict(gamma=0.0),
        dict(gamma=-1.0),
        dict(tau_rc=float("inf")),
        dict(v_th=float("nan")),
        dict(tau_ref=float("inf")),
        dict(gamma=float("inf")),
        dict(gamma=1e-320),  # 1 / gamma overflows
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            NeuronParams(**kwargs)


class TestLifRate:
    def test_subthreshold_is_zero(self):
        assert lif_rate(0.5, P) == 0.0

    def test_at_threshold_is_zero(self):
        assert lif_rate(1.0, P) == 0.0

    def test_suprathreshold_closed_form(self):
        # 1 / (0.002 + 0.02 * ln 2)
        assert lif_rate(2.0, P) == pytest.approx(63.04000219064139, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1, 5, 40)
        vec = lif_rate(xs, P)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert lif_rate(float(x), P) == v

    def test_nonnegative_and_nondecreasing(self):
        xs = np.linspace(-5, 20, 500)
        r = lif_rate(xs, P)
        assert np.all(r >= 0)
        assert np.all(np.diff(r) >= 0)


class TestSoftplusGamma:
    def test_at_zero(self):
        assert softplus(0.0, 1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_relu_limit(self):
        assert softplus(1.0, 1e-6) == pytest.approx(1.0, abs=1e-9)

    def test_large_negative_saturates_to_zero(self):
        assert softplus(-50.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_overflow_safe_for_extreme_arguments(self):
        # x/gamma far beyond float exponent range in both directions
        assert softplus(500.0, 1e-4) == pytest.approx(500.0, rel=1e-12)
        assert softplus(-500.0, 1e-4) == 0.0

    def test_monotone_and_above_relu(self):
        xs = np.linspace(-10, 10, 300)
        s = softplus(xs, 0.5)
        assert np.all(np.diff(s) > 0)
        assert np.all(s >= np.maximum(xs, 0.0))


class TestSoftlifRate:
    def test_small_gamma_matches_hard_rate(self):
        p = NeuronParams(gamma=1e-4)
        assert softlif_rate(2.0, p) == pytest.approx(lif_rate(2.0, P), abs=0.1)

    def test_positive_at_threshold(self):
        p = NeuronParams(gamma=0.1)
        assert softlif_rate(1.0, p) > 0.0

    def test_gamma_whose_quotient_overflows_is_refused(self):
        # 1 / 1e-308 is finite, but 1.8 / 1e-308 overflows: that lane would get
        # the 1 / tau_ref ceiling (500 Hz) instead of lif_rate's 92.3 Hz
        p = NeuronParams(gamma=1e-308)
        assert softlif_rate(2.7, p) == lif_rate(2.7, p)
        with pytest.raises(ValueError, match=r"^gamma 1e-308 is too small"):
            _softlif(np.array([1.5, 2.8]), p)

    def test_vanishes_for_very_negative_current(self):
        assert softlif_rate(-1e4, P) == 0.0

    def test_monotone_increasing(self):
        xs = np.linspace(-3, 10, 400)
        r = softlif_rate(xs, P)
        assert np.all(np.diff(r) > 0)

    def test_gamma_convergence_is_monotone(self):
        # error to the hard rate shrinks as gamma shrinks, < 0.5 Hz at 1e-4
        lam = np.linspace(P.v_th + 0.01, P.v_th + 10.0, 200)
        hard = lif_rate(lam, P)
        prev = None
        for gamma in (1e-2, 1e-3, 1e-4):
            err = np.max(np.abs(softlif_rate(lam, NeuronParams(gamma=gamma)) - hard))
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 0.5


class TestSoftlifRateGrad:
    def central_diff(self, x, params, h=1e-5):
        return (softlif_rate(x + h, params) - softlif_rate(x - h, params)) / (2 * h)

    def test_matches_finite_difference_at_two(self):
        p = NeuronParams(gamma=0.1)
        fd = self.central_diff(2.0, p)
        assert softlif_grad(2.0, p) == pytest.approx(fd, rel=1e-5)

    def test_matches_finite_difference_on_grid(self):
        grid = np.linspace(-2.0, 10.0, 100)
        for x in grid:
            fd = self.central_diff(float(x), P)
            assert softlif_grad(float(x), P) == pytest.approx(fd, rel=1e-5)

    def test_flat_tail(self):
        assert softlif_grad(-1e4, P) == pytest.approx(0.0, abs=1e-12)

    def test_finite_positive_at_threshold(self):
        g = softlif_grad(P.v_th, P)
        assert np.isfinite(g) and g > 0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-2, 6, 30)
        vec = softlif_grad(xs, P)
        for x, v in zip(xs, vec):
            assert softlif_grad(float(x), P) == v


# q = (J - v_th) / gamma in each branch of the formulas: q >= 0; the
# sigmoid / softplus ratio for -30 < q < 0; its 1 / gamma limit below -30;
# log1p(t) taken as t below -38; exp(-|q|) subnormal below about -708.4 and
# exactly 0 below about -745.13
Q_REGIONS = st.one_of(
    st.floats(0.0, 800.0),
    st.floats(-30.0, 0.0, exclude_max=True),
    st.floats(-745.0, -30.0, exclude_max=True),
    st.floats(-40.0, -36.0),
    st.floats(-746.0, -700.0),
    st.floats(-1e5, -745.2),
)


def assert_softlif_matches_reference(j, p, equal_nan=False):
    """Every SoftLIF part, the gradient and lif_rate at currents ``j`` equal
    the reference formulas bit for bit."""
    rate, parts = _softlif(j, p)
    want = reference_softlif_parts(j, p)
    for got, ref in zip((rate, *parts), (want[3], *want)):
        assert np.array_equal(got, ref, equal_nan=equal_nan)
    assert np.array_equal(_softlif_grad(parts, p), reference_softlif_rate_grad(j, p),
                          equal_nan=equal_nan)
    assert np.array_equal(lif_rate(j, p), reference_lif_rate(j, p), equal_nan=equal_nan)


class TestSoftlifBits:
    """The shared SoftLIF helpers reproduce the reference formulas bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gamma=st.floats(0.002, 3.0), tau_ref=st.sampled_from([0.0, 0.002, 0.02]),
           qs=st.lists(Q_REGIONS, min_size=1, max_size=40))
    @example(gamma=0.002, tau_ref=0.02, qs=[5.0, 0.0, -1e-9, -12.0, -30.0, -31.0, -400.0, -745.2, -5e4])
    @example(gamma=3.0, tau_ref=0.0, qs=[700.0, 1.5, -29.999, -30.001, -744.0, -746.0])
    @example(gamma=0.002, tau_ref=0.002, qs=[700.0, -700.0, 708.4, -708.4, -745.13, -745.2,
                                             746.0, -746.0, -38.0, -37.4, -36.7])
    def test_rate_and_grad_match_reference(self, gamma, tau_ref, qs):
        p = NeuronParams(tau_ref=tau_ref, gamma=gamma)
        assert_softlif_matches_reference(p.v_th + np.array(qs) * gamma, p)

    def test_nonfinite_currents_match_reference(self):
        # the one comparison with equal_nan: a NaN current gives NaN parts
        p = NeuronParams(gamma=0.002)
        j = np.array([np.inf, -np.inf, np.nan, p.v_th, p.v_th - 746 * p.gamma])
        assert_softlif_matches_reference(j, p, equal_nan=True)

    @pytest.mark.parametrize("current", [-1e4, -0.5, 0.99, 1.0, 1.01, 4.0])
    def test_scalars_match_reference(self, current):
        p = NeuronParams(gamma=0.002)
        assert softlif_rate(current, p) == reference_softlif_rate(current, p)
        assert softlif_grad(current, p) == reference_softlif_rate_grad(current, p)


class TestNumpyFacts:
    """The numpy behaviour that lets _softplus_parts skip exp and log1p on
    some lanes and stay bit for bit: a numpy build that breaks one fails here."""

    def test_exp_is_zero_below_exp_zero(self):
        a = np.concatenate([np.linspace(neuron._EXP_ZERO - 100.0, neuron._EXP_ZERO, 1_000_001),
                            [np.nextafter(neuron._EXP_ZERO, -np.inf), -1e300, -np.inf]])
        assert np.all(np.exp(a) == 0.0)

    def test_log1p_is_identity_below_log1p_is_t(self):
        a = np.linspace(neuron._EXP_ZERO, neuron._LOG1P_IS_T, 1_000_001)
        t = np.exp(a)
        assert np.count_nonzero((t > 0) & (t < np.finfo(float).tiny)) > 1000  # subnormals
        assert np.array_equal(np.log1p(t), t)

    def test_tiny_is_below_every_log1p_argument_used(self):
        assert 0.0 < neuron._TINY < np.exp(neuron._LOG1P_IS_T)


def lif_step_one(voltage, refractory, current, dt=0.001):
    """One tick of a single neuron through lif_step_arrays, as scalars."""
    v, refr, spiked = lif_step_arrays(np.array([voltage]), np.array([refractory]),
                                      np.array([current]), dt, P)
    return v[0], refr[0], bool(spiked[0])


class TestLifStep:
    def test_decay_toward_zero(self):
        v, _, spiked = lif_step_one(0.5, 0.0, 0.0)
        assert not spiked
        assert v == pytest.approx(0.5 * math.exp(-0.05), rel=1e-12)

    def test_charge_toward_current(self):
        v, _, spiked = lif_step_one(0.0, 0.0, 2.0)
        assert not spiked
        assert v == pytest.approx(2 * (1 - math.exp(-0.05)), rel=1e-12)

    def test_spike_resets_and_sets_refractory(self):
        v, refr, spiked = lif_step_one(0.99, 0.0, 50.0)
        assert spiked
        assert v == 0.0
        assert refr == P.tau_ref

    def test_refractory_holds_voltage(self):
        v, refr, spiked = lif_step_one(0.0, 0.002, 5.0)
        assert not spiked
        assert v == 0.0
        assert refr == pytest.approx(0.001)

    def test_partial_step_integrates_remaining_fraction(self):
        # refractory ends halfway through the step: only dt/2 of charging
        dt = 0.001
        v, _, _ = lif_step_one(0.0, dt / 2, 2.0, dt)
        expected = 2 * (1 - math.exp(-(dt / 2) / P.tau_rc))
        assert v == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("current", [1.5, 2.0, 4.0])
    def test_long_run_rate_matches_closed_form(self, current):
        dt = 1e-4
        steps = int(10.0 / dt)
        v = np.zeros(1)
        refr = np.zeros(1)
        spikes = 0
        for _ in range(steps):
            v, refr, spiked = lif_step_arrays(v, refr, current, dt, P)
            spikes += int(spiked[0])
        measured = spikes / 10.0
        assert measured == pytest.approx(lif_rate(current, P), rel=0.02)

    def test_voltage_bounded_under_nonnegative_input(self):
        rng = np.random.default_rng(5)
        v, refr = 0.0, 0.0
        for _ in range(2000):
            v, refr, _ = lif_step_one(v, refr, float(rng.uniform(0, 3)))
            assert 0.0 <= v <= P.v_th
            assert refr >= 0.0

    def test_scalar_wrapper_matches_array_core(self):
        # neurons in one vector call evolve exactly as they would alone
        rng = np.random.default_rng(11)
        v0 = rng.uniform(0, 1, 200)
        r0 = rng.uniform(0, 0.003, 200)
        j = rng.uniform(-1, 4, 200)
        av, ar, asp = lif_step_arrays(v0, r0, j, 0.001, P)
        for k in range(200):
            assert lif_step_one(v0[k], r0[k], j[k]) == (av[k], ar[k], bool(asp[k]))
