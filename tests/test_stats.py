import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from olivenet.stats import (
    TTestReport,
    compare_configs,
    pooled_sd,
    reg_inc_beta,
    report_text,
    t_critical,
    t_statistic,
    t_upper_tail,
)


class TestPooledSd:
    def test_equal_variances_reduce_to_sqrt(self):
        for v in (0.3, 1.0, 7.5):
            assert pooled_sd(v, v, 10) == pytest.approx(math.sqrt(v), abs=1e-12)

    def test_zero_variances(self):
        assert pooled_sd(0.0, 0.0, 5) == 0.0

    def test_hand_algebra_sqrt_three(self):
        # equal sizes: S_P = sqrt((2 + 4)/2) = sqrt(3), any n_oil >= 2
        for n in (2, 8, 22):
            assert pooled_sd(2.0, 4.0, n) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="pooled deviation needs n_oil >= 2"):
            pooled_sd(1.0, 1.0, 1)


class TestTStatistic:
    def test_equal_means_zero(self):
        assert t_statistic(0.7, 0.7, 1.3, 9) == 0.0

    def test_hand_value(self):
        assert t_statistic(1.0, 0.5, 1.0, 8) == pytest.approx(1.0, abs=1e-12)

    def test_antisymmetric(self, rng):
        for _ in range(20):
            m1, m2 = rng.standard_normal(2)
            sp = rng.uniform(0.1, 2.0)
            n = int(rng.integers(2, 30))
            assert t_statistic(m1, m2, sp, n) == pytest.approx(
                -t_statistic(m2, m1, sp, n), abs=1e-12)

    def test_degenerate_variance(self):
        assert t_statistic(0.5, 0.5, 0.0, 5) == 0.0
        with pytest.raises(ValueError, match="zero dispersion but unequal means"):
            t_statistic(0.6, 0.5, 0.0, 5)


class TestIncompleteBeta:
    def test_against_scipy_oracle(self, rng):
        for _ in range(200):
            a = rng.uniform(0.2, 50.0)
            b = rng.uniform(0.2, 50.0)
            x = rng.uniform(0.0, 1.0)
            assert reg_inc_beta(x, a, b) == pytest.approx(
                scipy.special.betainc(a, b, x), abs=1e-12)

    def test_upper_tail_matches_scipy_sf(self, rng):
        for _ in range(100):
            t = rng.uniform(0.0, 8.0)
            dof = int(rng.integers(1, 200))
            assert t_upper_tail(t, dof) == pytest.approx(
                scipy.stats.t.sf(t, dof), abs=1e-12)


class TestTCritical:
    def test_table_value_dof_42(self):
        # N_oil = 22 gives dof 42: one-sided 5% point 1.681952
        assert t_critical(0.05, 42) == pytest.approx(1.681952, abs=1e-4)

    def test_closed_form_dof_1(self):
        # Cauchy quantile: tan(pi * (0.5 - alpha))
        assert t_critical(0.05, 1) == pytest.approx(math.tan(math.pi * 0.45), abs=1e-3)

    def test_normal_limit(self):
        assert t_critical(0.05, 10 ** 6) == pytest.approx(1.644854, abs=1e-4)

    def test_against_scipy_quantile_oracle(self, rng):
        for _ in range(40):
            alpha = rng.uniform(0.005, 0.45)
            dof = int(rng.integers(1, 500))
            assert t_critical(alpha, dof) == pytest.approx(
                scipy.stats.t.ppf(1.0 - alpha, dof), abs=1e-6)

    def test_strictly_decreasing_in_dof_and_alpha(self):
        dofs = [1, 2, 5, 10, 40, 200]
        vals = [t_critical(0.05, d) for d in dofs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        alphas = [0.01, 0.05, 0.1, 0.25, 0.4]
        vals = [t_critical(a, 12) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            t_critical(0.7, 10)
        with pytest.raises(ValueError):
            t_critical(0.05, 0)


class TestCompareConfigs:
    def test_identical_lists_no_rejection(self, rng):
        x = rng.random(12)
        r = compare_configs(x, x.copy())
        assert r.t_value == 0.0
        assert not r.reject_equal_means

    def test_large_shift_rejected(self, rng):
        x = rng.random(20)
        shift = 10.0 * x.std(ddof=1)
        r = compare_configs(x + shift, x)
        assert r.reject_equal_means
        assert r.t_value > r.t_critical

    def test_default_alpha_is_5_percent(self, rng):
        r = compare_configs(rng.random(10), rng.random(10))
        assert r.alpha == 0.05

    def test_dof_is_2n_minus_2(self, rng):
        r = compare_configs(rng.random(22), rng.random(22))
        assert r.dof == 42
        assert r.n_oil == 22

    def test_swap_antisymmetry_and_sp_symmetry(self, rng):
        a, b = rng.random(15), rng.random(15)
        r1, r2 = compare_configs(a, b), compare_configs(b, a)
        assert r1.t_value == pytest.approx(-r2.t_value, abs=1e-12)
        assert r1.s_p == pytest.approx(r2.s_p, abs=1e-15)

    def test_one_sided_negative_t_never_rejects(self, rng):
        x = rng.random(20)
        shift = 10.0 * x.std(ddof=1)
        r = compare_configs(x, x + shift)  # mean1 << mean2 -> T << 0
        assert not r.reject_equal_means
        two = compare_configs(x, x + shift, two_sided=True)
        assert two.reject_equal_means

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match=r"MAE lists disagree: \(5,\) vs \(6,\)"):
            compare_configs(rng.random(5), rng.random(6))

    def test_invariant_reject_iff_t_above_critical(self, rng):
        for _ in range(50):
            r = compare_configs(rng.random(8), rng.random(8))
            assert r.reject_equal_means == (r.t_value > r.t_critical)

    def test_report_text_fields(self, rng):
        text = report_text(compare_configs(rng.random(6), rng.random(6)))
        for key in ("pooled_sd", "t_value", "dof", "t_critical", "reject_equal_means"):
            assert key in text


class TestNullHypothesisCalibration:
    def test_one_sided_rejection_rate_near_alpha(self):
        # both samples from the same normal: rejections should track alpha
        rng = np.random.default_rng(2024)
        n_trials, n_oil = 10_000, 20
        a = rng.standard_normal((n_trials, n_oil))
        b = rng.standard_normal((n_trials, n_oil))
        m1, m2 = a.mean(axis=1), b.mean(axis=1)
        v1, v2 = a.var(axis=1, ddof=1), b.var(axis=1, ddof=1)
        sp = np.sqrt((v1 + v2) / 2.0)
        t = (m1 - m2) / (sp * np.sqrt(2.0 / n_oil))
        crit = t_critical(0.05, 2 * n_oil - 2)
        rate = float(np.mean(t > crit))
        assert 0.04 <= rate <= 0.06
