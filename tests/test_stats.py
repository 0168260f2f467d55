import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from spikedrop.stats import (
    ecdf_sup_distance,
    ks_p_value,
    ks_two_sample,
    pvalue_uniformity,
)


class TestEcdfSupDistance:
    def test_identical_samples(self):
        x = np.random.default_rng(0).normal(size=50)
        assert ecdf_sup_distance(x, x.copy()) == 0.0

    def test_disjoint_supports(self):
        assert ecdf_sup_distance([1, 2, 3], [4, 5, 6]) == 1.0

    def test_interleaved(self):
        # ECDF values at x in {1,2,3,4}: Fa = .5,.5,1,1  Fb = 0,.5,.5,1
        assert ecdf_sup_distance([1, 3], [2, 4]) == 0.5

    # Both statistics lie on the lattice k / (n m), whose spacing is at
    # least 1 / 1600 here; they may differ only in how the last bit rounds
    # (1 - 2/3 against 1/3), so 1e-15 still pins the lattice point. Only the
    # statistic is compared; scipy's p-value divides by zero on tiny samples.
    @pytest.mark.filterwarnings("ignore:divide by zero")
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           b=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_equals_scipy_statistic_untied(self, a, b):
        expected = scipy_stats.ks_2samp(a, b, method="asymp").statistic
        assert ecdf_sup_distance(a, b) == pytest.approx(expected, rel=0, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40),
           b=st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40))
    def test_equals_scipy_statistic_tied(self, a, b):
        expected = scipy_stats.ks_2samp(a, b, method="asymp").statistic
        assert ecdf_sup_distance(a, b) == pytest.approx(expected, rel=0, abs=1e-15)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ecdf_sup_distance([], [1.0])

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ecdf_sup_distance([1.0, np.nan], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=rng.integers(1, 40))
            b = rng.normal(size=rng.integers(1, 40))
            assert ecdf_sup_distance(a, b) == ecdf_sup_distance(b, a)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=30)
            b = rng.normal(size=25) + 0.3
            d0 = ecdf_sup_distance(a, b)
            assert ecdf_sup_distance(np.exp(a), np.exp(b)) == pytest.approx(d0, abs=1e-15)
            assert ecdf_sup_distance(3 * a - 7, 3 * b - 7) == pytest.approx(d0, abs=1e-15)

    def test_ties_are_handled(self):
        assert ecdf_sup_distance([1, 1, 1], [1, 1, 1]) == 0.0
        # Fa(1)=1 vs Fb(1)=1/3
        assert ecdf_sup_distance([1, 1, 1], [1, 2, 2]) == pytest.approx(2 / 3)

    def test_matches_scipy_statistic(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.normal(size=int(rng.integers(5, 60)))
            b = rng.normal(size=int(rng.integers(5, 60)))
            expected = scipy_stats.ks_2samp(a, b).statistic
            assert ecdf_sup_distance(a, b) == pytest.approx(expected, abs=1e-12)


class TestKsPValue:
    def test_zero_distance_gives_one(self):
        assert ks_p_value(0.0, 100, 100) == 1.0

    def test_maximal_distance_is_essentially_zero(self):
        assert ks_p_value(1.0, 100, 100) < 1e-15

    def test_frozen_series_value(self):
        # lambda = sqrt(50) * 0.2; 2 * (exp(-4) - exp(-16) + ...)
        assert ks_p_value(0.2, 100, 100) == pytest.approx(0.03663105270711935, rel=1e-9)

    def test_monotone_nonincreasing_in_d(self):
        ds = np.linspace(0, 1, 101)
        ps = [ks_p_value(float(d), 80, 120) for d in ds]
        assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))

    def test_bounds(self):
        for d in np.linspace(0, 1, 31):
            p = ks_p_value(float(d), 37, 53)
            assert 0.0 <= p <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ks_p_value(1.5, 10, 10)
        with pytest.raises(ValueError):
            ks_p_value(0.5, 0, 10)

    def test_matches_scipy_kolmogorov_survival(self):
        # plain sqrt(n_e)*d argument, no small-sample correction terms
        from scipy.special import kolmogorov

        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(20, 200)))
            b = rng.normal(size=int(rng.integers(20, 200)))
            res = ks_two_sample(a, b)
            lam = np.sqrt(res.n * res.m / (res.n + res.m)) * res.statistic_d
            assert res.p_value == pytest.approx(float(kolmogorov(lam)), abs=1e-10)


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.random.default_rng(5).normal(size=100)
        res = ks_two_sample(x, x.copy())
        assert res.statistic_d == 0.0
        assert res.p_value == 1.0
        assert res.n == res.m == 100

    def test_shifted_distributions_detected(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=100)
        b = rng.normal(size=100) + 5.0
        assert ks_two_sample(a, b).p_value < 1e-6

    def test_null_acceptance_rate(self):
        rng = np.random.default_rng(7)
        accepted = 0
        for _ in range(100):
            a = rng.normal(size=100)
            b = rng.normal(size=100)
            if ks_two_sample(a, b).p_value > 0.01:
                accepted += 1
        assert accepted >= 95


class TestPvalueUniformity:
    def test_bin_centers(self):
        report = pvalue_uniformity(np.arange(0.05, 1.0, 0.1))
        assert report.histogram.tolist() == [1] * 10
        assert report.fraction_below_005 == 0.0

    def test_degenerate_pileup(self):
        report = pvalue_uniformity([0.001] * 50)
        assert report.fraction_below_005 == 1.0
        assert report.ks_vs_uniform_p < 1e-12

    def test_uniform_draws_pass(self):
        p = np.random.default_rng(8).uniform(size=1000)
        report = pvalue_uniformity(p)
        assert report.ks_vs_uniform_p > 0.01

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pvalue_uniformity([0.5, 1.2])
        with pytest.raises(ValueError):
            pvalue_uniformity([])

    def test_distance_matches_scipy_kstest(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = rng.uniform(size=40)
            report = pvalue_uniformity(p)
            ref = scipy_stats.kstest(p, "uniform")
            assert report.ks_vs_uniform_d == pytest.approx(ref.statistic, abs=1e-12)
