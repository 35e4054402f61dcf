import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import SqnrInputs, sqnr_single_beam
from mmwsync import quantization, sqnr


def draw_chain_inputs(rng, n):
    """Random draws in the physical domain of the bound chain.

    The shared distortion factor is evaluated at the worst case,
    eta = (1 - xi_u) / sqrt(sigma^2 (S / lambda_max + 1)), and draws are
    constrained so the quantizer operates at or above its design point
    (eta <= 1).
    """
    s = 10.0 ** rng.uniform(-3, 3, n)
    lam_max = 10.0 ** rng.uniform(-1, 3, n)
    lam_u = lam_max * rng.uniform(0.05, 1.0, n)
    xi_max = rng.uniform(0.0, 0.95, n)
    xi_u = xi_max * rng.uniform(0.0, 1.0, n)
    sigma2 = 10.0 ** rng.uniform(-2, 1, n)
    v = sigma2 * (s / lam_max + 1.0)
    ok = v >= (1.0 - xi_u) ** 2
    return s[ok], lam_u[ok], lam_max[ok], xi_u[ok], xi_max[ok], sigma2[ok]


class TestSingleBeam:
    def test_infinite_resolution_is_plain_snr(self):
        inputs = SqnrInputs(effective_gain_sq=3.0, noise_var=0.5, eta=1.0)
        assert sqnr_single_beam(inputs) == pytest.approx(6.0)

    def test_zero_signal(self):
        inputs = SqnrInputs(effective_gain_sq=0.0, noise_var=1.0, eta=0.9)
        assert sqnr_single_beam(inputs) == 0.0

    def test_two_bit_operating_point(self):
        inputs = SqnrInputs(effective_gain_sq=1.0, noise_var=1.0, eta=0.8825)
        got = sqnr_single_beam(inputs)
        assert got == pytest.approx(0.8825 / (0.8825 + 0.1175 * 2.0), rel=1e-12)
        assert got == pytest.approx(0.7898, abs=5e-4)

    def test_monotone_in_signal_power(self):
        gammas = [
            sqnr_single_beam(SqnrInputs(effective_gain_sq=s, noise_var=1.0, eta=0.8))
            for s in np.linspace(0.0, 50.0, 200)
        ]
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))

    def test_two_bit_point_against_bussgang_gaussian_monte_carlo(self):
        # zero/non-zero-lag correlation power ratio under the decomposition,
        # with the distortion residual harvested from the real quantizer
        # driven by Gaussian input at the operating power
        s, sigma2 = 1.0, 1.0
        bits = 2
        xi = quantization.xi_for_bits(bits)
        eta = 1.0 - xi
        gamma = sqnr_single_beam(SqnrInputs(effective_gain_sq=s, noise_var=sigma2, eta=eta))
        rng = np.random.default_rng(77)
        n = 400_000
        adc = quantization.AdcModel(bits=bits)
        agc = math.sqrt((s + sigma2) / 2.0)

        def residual():
            sig = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(s / 2)
            w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(sigma2 / 2)
            y = sig + w
            return quantization.apply(adc, y, agc) - eta * y, w

        resid0, w0 = residual()
        residn, wn = residual()
        zl = eta * math.sqrt(s) + eta * w0 + resid0
        nzl = eta * wn + residn
        ratio = np.mean(np.abs(zl) ** 2) / np.mean(np.abs(nzl) ** 2)
        assert ratio == pytest.approx(1.0 + gamma, rel=0.05)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            sqnr_single_beam(SqnrInputs(effective_gain_sq=0.0, noise_var=0.0, eta=1.0))


class TestLowerBounds:
    def test_chain_ordering_randomized(self):
        rng = np.random.default_rng(2024)
        s, lam_u, lam_max, xi_u, xi_max, sigma2 = draw_chain_inputs(rng, 20_000)
        for i in range(len(s)):
            eta = (1.0 - xi_u[i]) / math.sqrt(sigma2[i] * (s[i] / lam_max[i] + 1.0))
            gamma = sqnr_single_beam(
                SqnrInputs(effective_gain_sq=s[i], noise_var=lam_u[i], eta=eta)
            )
            g_breve = sqnr.sqnr_lower_bound_single(s[i], lam_max[i], xi_u[i], sigma2[i])
            g_acute = sqnr.sqnr_lower_bound_single(s[i], lam_max[i], xi_max[i], sigma2[i])
            assert g_acute <= g_breve + 1e-12
            assert g_breve <= gamma + 1e-12

    def test_bound_meets_worst_case_form(self):
        # with xi_max = xi_u the two closed forms coincide
        a = sqnr.sqnr_lower_bound_single(5.0, 100.0, 0.1175, 1.0)
        b = sqnr.sqnr_lower_bound_single(5.0, 100.0, 0.1175, 1.0)
        assert a == b

    def test_monotone_decreasing_in_xi_max(self):
        xs = np.linspace(0.0, 0.9, 50)
        vals = [sqnr.sqnr_lower_bound_single(10.0, 100.0, x, 1.0) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @given(
        s=st.floats(min_value=1e-3, max_value=1e3),
        lam_ratio=st.floats(min_value=0.05, max_value=1.0),
        lam_max=st.floats(min_value=0.1, max_value=1e3),
        xi_u_ratio=st.floats(min_value=0.0, max_value=1.0),
        xi_max=st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_chain_ordering_property(self, s, lam_ratio, lam_max, xi_u_ratio, xi_max):
        sigma2 = 1.0
        xi_u = xi_max * xi_u_ratio
        if sigma2 * (s / lam_max + 1.0) < (1.0 - xi_u) ** 2:
            return
        lam_u = lam_max * lam_ratio
        eta = (1.0 - xi_u) / math.sqrt(sigma2 * (s / lam_max + 1.0))
        gamma = sqnr_single_beam(SqnrInputs(effective_gain_sq=s, noise_var=lam_u, eta=eta))
        g_breve = sqnr.sqnr_lower_bound_single(s, lam_max, xi_u, sigma2)
        g_acute = sqnr.sqnr_lower_bound_single(s, lam_max, xi_max, sigma2)
        assert g_acute <= g_breve + 1e-12
        assert g_breve <= gamma + 1e-12

    @given(
        gains=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=64),
        lam=st.floats(min_value=1e-3, max_value=1e3),
        # 27 sigma2 / 4 > (1 - xi)^2 for every xi >= 0: the denominator stays positive
        sigma2=st.floats(min_value=0.2, max_value=1e2),
        xi_pick=st.floats(min_value=0.0, max_value=0.95),
        xi_score=st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_maximizer_independent_of_xi_and_at_twice_lambda(
        self, gains, lam, sigma2, xi_pick, xi_score
    ):
        # 1/f(s) = -1 + sqrt(sigma2/lam)/(1 - xi) * (s + lam)^1.5 / s peaks at s = 2 lam
        gains = np.array(gains)
        picked = int(np.argmax(sqnr.sqnr_lower_bound_single(gains, lam, xi_pick, sigma2)))
        scores = sqnr.sqnr_lower_bound_single(gains, lam, xi_score, sigma2)
        assert scores[picked] >= scores.max() * (1.0 - 1e-12)
        peak = sqnr.sqnr_lower_bound_single(2.0 * lam, lam, xi_score, sigma2)
        assert peak >= scores.max() * (1.0 - 1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sqnr.sqnr_lower_bound_single(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            sqnr.sqnr_lower_bound_single(1.0, 1.0, 1.0)


class TestMultiBeam:
    def test_coherent_composite_gain_factor(self):
        # |h| = n_rf sqrt(n_a) versus the single-beam sqrt(n_a): received
        # power larger by exactly n_rf after the 1/n_rf splitting
        n_rf, n_a = 4, 8
        s_multi = (n_rf * math.sqrt(n_a)) ** 2 / n_rf
        s_single = n_a
        assert s_multi == pytest.approx(n_rf * s_single)
