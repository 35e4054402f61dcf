import math
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_banded
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri

from closed_forms import distortion_factor
from mmwsync import quantization
from mmwsync.quantization import AdcModel

# The solvers that derive quantization's two tables; each entry there is the
# repr of what these return at 1-16 bits.

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _cell_prob(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ndtr(b) - ndtr(a)


def _cell_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of x*phi(x) over [a, b]; infinite limits contribute zero."""
    pa = np.where(np.isfinite(a), _phi(np.where(np.isfinite(a), a, 0.0)), 0.0)
    pb = np.where(np.isfinite(b), _phi(np.where(np.isfinite(b), b, 0.0)), 0.0)
    return pa - pb


def _cell_x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of x^2*phi(x) over [a, b]."""
    ta = np.where(np.isfinite(a), a * _phi(np.where(np.isfinite(a), a, 0.0)), 0.0)
    tb = np.where(np.isfinite(b), b * _phi(np.where(np.isfinite(b), b, 0.0)), 0.0)
    return _cell_prob(a, b) + ta - tb


def _lloyd_cells(thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probability and first moment of every cell of a quantizer.

    ``thresholds`` are the m - 1 finite cell edges; the outer cells are
    unbounded.  Both integrals keep full relative precision in narrow cells
    and in the tails, without which a 14-16-bit table stalls short of its
    tolerance: upper-tail probabilities are ndtr(-a) - ndtr(-b), and
    phi(a) - phi(b) is the larger of the two densities times
    expm1(-|a^2 - b^2| / 2), signed.  The uniform quantizer keeps the plain
    ``_cell_prob`` and ``_cell_mean``: its optimal clip points, and with them
    every ADC step, follow their rounding.
    """
    a = np.concatenate(([-np.inf], thresholds))
    b = np.concatenate((thresholds, [np.inf]))
    p = np.where(a > 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    dens = _phi(thresholds)
    lo, hi = thresholds[:-1], thresholds[1:]
    half_gap = 0.5 * (lo - hi) * (lo + hi)
    inner = np.where(half_gap >= 0, dens[1:], -dens[:-1]) * np.expm1(-np.abs(half_gap))
    mu = np.concatenate(([-dens[0]], inner, [dens[-1]]))
    return p, mu


def _lloyd_state(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Cell probabilities and moments at midpoint thresholds, and the norm of
    the centroid residual levels - mu / p."""
    p, mu = _lloyd_cells(0.5 * (levels[:-1] + levels[1:]))
    residual = levels - mu / p
    return p, mu, math.sqrt(np.sum(residual * residual))


@lru_cache(maxsize=None)
def solve_xi(bits: int) -> float:
    """Minimum MSE of the b-bit scalar quantizer for a unit-variance Gaussian.

    Solves the Lloyd-Max conditions (levels at cell centroids, thresholds at
    level midpoints) y_i p_i - mu_i = 0 by damped Newton steps on their
    tridiagonal Jacobian.  The start is the centroids of the companded cells,
    thresholds sqrt(3) ndtri(i/m), the high-resolution optimum (Panter & Dite
    1951).  A step is taken at the largest length 2^-k that shrinks the
    centroid residual by a factor 1 - 2^-(k+1); when none does, a Lloyd step
    (every level to its centroid) is taken instead.  The iteration stops when
    no level moves by more than 1e-11.
    """
    b = quantization._validate_bits(bits)
    m = 2**b
    p, mu = _lloyd_cells(math.sqrt(3.0) * ndtri(np.arange(1, m) / m))
    levels = mu / p
    p, mu, residual = _lloyd_state(levels)
    for _ in range(100):  # a guard: 1-16 bits converge within 9 iterations
        off = 0.25 * (levels[:-1] - levels[1:]) * _phi(0.5 * (levels[:-1] + levels[1:]))
        band = np.zeros((3, m))
        band[0, 1:] = off
        band[1] = p
        band[1, :-1] += off
        band[1, 1:] += off
        band[2, :-1] = off
        step = solve_banded((1, 1), band, mu - levels * p)
        alpha = 1.0
        while alpha >= 2.0**-10:
            trial = levels + alpha * step
            if np.all(np.diff(trial) > 0):
                trial_state = _lloyd_state(trial)
                if trial_state[2] <= (1.0 - 0.5 * alpha) * residual:
                    break
            alpha *= 0.5
        else:
            trial = mu / p
            trial_state = _lloyd_state(trial)
        moved = float(np.max(np.abs(trial - levels)))
        levels = trial
        p, mu, residual = trial_state
        if moved < 1e-11:
            return float(1.0 - 2.0 * np.sum(levels * mu) + np.sum(levels**2 * p))
    raise RuntimeError(f"Lloyd-Max iteration at {b} bits did not converge")


def _uniform_midrise_mse(bits: int, clip: float) -> float:
    """Gaussian MSE of the uniform midrise quantizer clipped at +-clip."""
    m = 2**bits
    step = 2.0 * clip / m
    k = np.arange(-m // 2, m // 2)
    levels = (k + 0.5) * step
    edges = np.concatenate(([-np.inf], k[1:] * step, [np.inf]))
    a, b = edges[:-1], edges[1:]
    return float(
        np.sum(_cell_x2(a, b) - 2.0 * levels * _cell_mean(a, b) + levels**2 * _cell_prob(a, b))
    )


@lru_cache(maxsize=None)
def solve_clip_scale(bits: int) -> float:
    """Clipping point (in rail-rms units) minimizing the Gaussian MSE of the uniform midrise quantizer."""
    b = quantization._validate_bits(bits)
    res = minimize_scalar(
        lambda c: _uniform_midrise_mse(b, c),
        bounds=(0.1, 30.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


def lloyd_max_quad_oracle(bits: int, iters: int = 400) -> float:
    """Independent Lloyd-Max fixed point using adaptive quadrature."""

    def pdf(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    m = 2**bits
    levels = ndtri((np.arange(m) + 0.5) / m)
    for _ in range(iters):
        edges = np.concatenate(([-12.0], 0.5 * (levels[:-1] + levels[1:]), [12.0]))
        for j in range(m):
            p, _ = integrate.quad(pdf, edges[j], edges[j + 1])
            mu, _ = integrate.quad(lambda x: x * pdf(x), edges[j], edges[j + 1])
            if p > 0:
                levels[j] = mu / p
    edges = np.concatenate(([-12.0], 0.5 * (levels[:-1] + levels[1:]), [12.0]))
    mse = 0.0
    for j in range(m):
        val, _ = integrate.quad(lambda x, r=levels[j]: (x - r) ** 2 * pdf(x), edges[j], edges[j + 1])
        mse += val
    return mse


class TestXiForBits:
    @pytest.mark.parametrize("bits", range(1, 17))
    def test_tables_equal_solvers(self, bits):
        assert quantization.xi_for_bits(bits) == solve_xi(bits)
        assert quantization.optimal_clip_scale(bits) == solve_clip_scale(bits)

    def test_one_bit_closed_form(self):
        # sign quantizer MSE for unit Gaussian: 1 - 2/pi
        assert quantization.xi_for_bits(1) == pytest.approx(1 - 2 / math.pi, abs=1e-9)

    def test_four_bit_against_quad_oracle(self):
        assert quantization.xi_for_bits(4) == pytest.approx(lloyd_max_quad_oracle(4), abs=1e-4)
        assert quantization.xi_for_bits(4) == pytest.approx(0.0095, abs=1e-4)

    @pytest.mark.parametrize("bits", [2, 3])
    def test_low_bits_against_quad_oracle(self, bits):
        assert quantization.xi_for_bits(bits) == pytest.approx(
            lloyd_max_quad_oracle(bits), abs=1e-6
        )

    def test_monotone_refinement(self):
        xis = [quantization.xi_for_bits(b) for b in range(1, 17)]
        assert all(xis[i + 1] < xis[i] for i in range(15))

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_not_above_optimal_uniform_quantizer(self, bits):
        # the Lloyd-Max optimum over all quantizers cannot lose to the best uniform one
        uniform = _uniform_midrise_mse(bits, quantization.optimal_clip_scale(bits))
        assert quantization.xi_for_bits(bits) <= uniform

    def test_normalized_mse_increases_to_panter_dite(self):
        scaled = [quantization.xi_for_bits(b) * 4.0**b for b in range(1, 17)]
        assert all(scaled[i + 1] > scaled[i] for i in range(15))
        # high-resolution limit pi * sqrt(3) / 2 (Panter & Dite 1951)
        assert abs(scaled[-1] - math.pi * math.sqrt(3.0) / 2.0) < 1e-3

    @pytest.mark.parametrize("bits", [0, 17, 2.5, math.inf, -math.inf, math.nan])
    def test_out_of_range(self, bits):
        # an ideal converter has no model, so inf is out of range like any other
        for reject in (quantization.xi_for_bits, quantization.optimal_clip_scale, AdcModel):
            with pytest.raises(ValueError, match=r"bits must be an integer in \[1, 16\]"):
                reject(bits)


class TestAgcRms:
    def test_column_of_row_rail_rms(self):
        rng = np.random.default_rng(11)
        y = (rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))) * [[0.5], [1.0], [2.0], [1e-3]]
        rms = quantization.agc_rms(y)
        assert rms.shape == (4, 1)
        assert rms.tobytes() == np.sqrt(np.mean(np.abs(y) ** 2, axis=1) / 2)[:, None].tobytes()

    @pytest.mark.parametrize(("bad", "message"), [(np.nan, "samples must be finite"),
                                                  (np.inf, "samples must be finite"),
                                                  (None, "agc_rms must be positive")],
                             ids=["nan", "inf", "zero_row"])
    def test_nonfinite_sample_or_silent_row_rejected(self, bad, message):
        y = np.ones((3, 8), np.complex128)
        if bad is None:
            y[1] = 0.0
        else:
            y[2, 5] = bad
        with pytest.raises(ValueError, match=message):
            quantization.agc_rms(y)

    def test_finite_window_whose_power_overflows_rejected_as_such(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="power overflows the float range"):
            quantization.agc_rms(np.full((2, 8), 3e154 + 0j))


class TestApply:
    def test_one_bit_is_sign_quantization(self):
        adc = AdcModel(bits=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        agc = 2.0
        out = quantization.apply(adc, x, agc)
        level = adc.step / 2 * agc
        assert set(np.round(out.real, 12)) <= {round(level, 12), round(-level, 12)}
        np.testing.assert_array_equal(np.sign(out.real), np.sign(x.real))
        np.testing.assert_array_equal(np.sign(out.imag), np.sign(x.imag))

    def test_more_bits_less_mse(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        agc = math.sqrt(0.5)
        mse = {
            b: np.mean(np.abs(quantization.apply(AdcModel(bits=b), x, agc) - x) ** 2)
            for b in (2, 4)
        }
        assert mse[4] < mse[2]

    def test_idempotent_on_quantized_input(self):
        adc = AdcModel(bits=3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        once = quantization.apply(adc, x, 1.5)
        twice = quantization.apply(adc, once, 1.5)
        np.testing.assert_array_equal(once, twice)

    def test_rejects_nonfinite(self):
        adc = AdcModel(bits=2)
        with pytest.raises(ValueError):
            quantization.apply(adc, np.array([1.0, np.nan]), 1.0)

    @pytest.mark.parametrize("bits", [2])
    def test_any_layout_quantizes_like_contiguous_copy(self, bits):
        adc = AdcModel(bits=bits)
        rng = np.random.default_rng(5)
        base = rng.standard_normal((64, 6)) + 1j * rng.standard_normal((64, 6))
        agc = np.array([[0.5], [0.7], [0.9]])
        for x, rms in ((base.T, 0.8), (base[::3, 1::2].T, agc)):
            assert not x.flags.c_contiguous
            want = quantization.apply(adc, np.ascontiguousarray(x), rms)
            np.testing.assert_array_equal(quantization.apply(adc, x, rms), want)
        scalar = np.asarray(base[3, 2])
        want = quantization.apply(adc, scalar.reshape(1), 0.8).reshape(())
        got = quantization.apply(adc, scalar, 0.8)
        assert got.shape == () and got == want

    def test_rejects_bad_agc(self):
        with pytest.raises(ValueError):
            quantization.apply(AdcModel(bits=2), np.ones(4, complex), 0.0)

    @pytest.mark.parametrize("bits", [2])
    @pytest.mark.parametrize("agc", [-1.0, math.nan, np.array([[1.0], [math.nan]])])
    def test_rejects_negative_and_nan_agc(self, bits, agc):
        with pytest.raises(ValueError, match="agc_rms"):
            quantization.apply(AdcModel(bits=bits), np.ones((2, 4), complex), agc)

    @pytest.mark.parametrize("bits", [1, 2, 16])
    @pytest.mark.parametrize("agc", ["scalar", "row", "column"])
    def test_levels_are_the_experiments_rescale_of_the_codes(self, bits, agc):
        # apply's levels are the codes rescaled by the rule every experiment runs on its code sums,
        # here over the identity map, whose L(1) is 1
        adc = AdcModel(bits=bits)
        rng = np.random.default_rng(11)
        x = 3.0 * (rng.standard_normal((16, 640)) + 1j * rng.standard_normal((16, 640)))
        axis = {"row": 1, "column": 0}.get(agc)
        rms = 1.3 if axis is None else np.sqrt(np.mean(np.abs(x) ** 2, axis=axis, keepdims=True) / 2.0)
        want = quantization.midrise_codes(adc, quantization.agc_scale(x, rms))
        quantization.levels_of_code_sums(want, adc, rms, 1.0)
        assert quantization.apply(adc, x, rms).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits", [1, 2, 16])
    @pytest.mark.parametrize("agc", ["scalar", "row"])
    def test_out_byte_identical_to_allocating_call(self, bits, agc):
        # agc_scale then midrise_codes, each written to a buffer or over its
        # input as the experiments' windows are, give the codes of the
        # allocating calls, whose levels are the bytes of apply
        adc = AdcModel(bits=bits)
        rng = np.random.default_rng(7)
        x = 3.0 * (rng.standard_normal((16, 640)) + 1j * rng.standard_normal((16, 640)))
        rms = 1.3 if agc == "scalar" else np.sqrt(np.mean(np.abs(x) ** 2, axis=1) / 2.0)[:, None]
        want = quantization.midrise_codes(adc, quantization.agc_scale(x, rms))
        assert ((want + (0.5 + 0.5j)) * (adc.step * rms)).tobytes() == quantization.apply(adc, x, rms).tobytes()
        kept = x.copy()
        buf = np.full_like(x, np.nan)
        assert quantization.agc_scale(x, rms, out=buf) is buf
        assert buf.tobytes() == quantization.agc_scale(x, rms).tobytes()
        assert x.tobytes() == kept.tobytes()
        assert quantization.midrise_codes(adc, buf, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert quantization.agc_scale(x, rms, out=x) is x
        assert quantization.midrise_codes(adc, x, out=x) is x
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits", [2])
    def test_rejects_out_of_wrong_shape_dtype_or_layout(self, bits):
        adc = AdcModel(bits=bits)
        x = np.ones((4, 6), complex)
        for out in (np.empty((4, 5), complex), np.empty((4, 6), np.complex64),
                    np.empty((6, 4), complex).T, np.empty((4, 6))):
            with pytest.raises(ValueError, match="out"):
                quantization.agc_scale(x, 1.0, out=out)
            with pytest.raises(ValueError, match="out"):
                quantization.midrise_codes(adc, x, out=out)

    @pytest.mark.parametrize("bits", [1, 3, 12])
    def test_midrise_codes_leaves_scaled_unless_out_is_scaled(self, bits):
        adc = AdcModel(bits=bits)
        rng = np.random.default_rng(bits)
        x = rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))
        rms = np.sqrt(np.mean(np.abs(x) ** 2, axis=1) / 2.0)[:, None]
        want = quantization.apply(adc, x, rms)
        scaled = quantization.agc_scale(x, rms)
        kept = scaled.copy()
        buf = np.empty_like(scaled)

        def levels(codes):
            return (codes + (0.5 + 0.5j)) * (adc.step * rms)

        for got in (quantization.midrise_codes(adc, scaled),
                    quantization.midrise_codes(adc, scaled, out=buf)):
            assert levels(got).tobytes() == want.tobytes()
            assert scaled.tobytes() == kept.tobytes()
        assert quantization.midrise_codes(adc, scaled, out=scaled) is scaled
        assert levels(scaled).tobytes() == want.tobytes()

    def test_output_alphabet_size(self):
        adc = AdcModel(bits=3)
        x = np.linspace(-10, 10, 100_000) + 0j
        out = quantization.apply(adc, x, 1.0)
        levels = np.array(sorted(set(np.round(out.real, 12))))
        assert len(levels) == 8
        np.testing.assert_allclose(levels, -levels[::-1], atol=1e-12)


class TestBussgangEmpirical:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_distortion_factor_matches_closed_form(self, bits):
        rng = np.random.default_rng(1234 + bits)
        n = 1_200_000
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        adc = AdcModel(bits=bits)
        q = quantization.apply(adc, y, math.sqrt(0.5))
        eta_emp = distortion_factor(q, y)
        eta_model = 1.0 - quantization.xi_for_bits(bits)
        assert abs(eta_emp - eta_model) / eta_model < 0.02

    def test_distortion_uncorrelated_with_input(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        adc = AdcModel(bits=2)
        q = quantization.apply(adc, y, math.sqrt(0.5))
        eta = distortion_factor(q, y)
        resid = q - eta * y
        rho = abs(np.mean(resid * np.conj(y))) / np.mean(np.abs(y) ** 2)
        assert rho < 0.02


def test_optimal_clip_is_minimum():
    c = quantization.optimal_clip_scale(2)
    mse = _uniform_midrise_mse
    assert mse(2, c) < mse(2, c * 0.9)
    assert mse(2, c) < mse(2, c * 1.1)
