"""Low-resolution ADC models and Bussgang decomposition quantities.

The ADC is a uniform midrise quantizer applied independently to the I and Q
rails after AGC scaling.  ``xi_for_bits`` is the minimum (Lloyd-Max) mean
squared error of a b-bit scalar quantizer for a unit-variance Gaussian, the
quantity the closed-form SQNR expressions are parameterized by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri

INFINITE_BITS = math.inf

_MAX_BITS = 16
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


def _validate_bits(bits: float) -> int:
    if bits != int(bits) or not 1 <= bits <= _MAX_BITS:
        raise ValueError(f"bits must be an integer in [1, {_MAX_BITS}], got {bits}")
    return int(bits)


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
def xi_for_bits(bits: int) -> float:
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
    b = _validate_bits(bits)
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
def optimal_clip_scale(bits: int) -> float:
    """Clipping point (in rail-rms units) minimizing the Gaussian MSE of the uniform midrise quantizer."""
    b = _validate_bits(bits)
    res = minimize_scalar(
        lambda c: _uniform_midrise_mse(b, c),
        bounds=(0.1, 30.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


@dataclass(frozen=True)
class AdcModel:
    """Per-rail uniform midrise quantizer with clipping.

    ``bits`` is an integer in [1, 16] or ``math.inf`` for an ideal converter.
    ``clip_scale`` is the clipping point in units of the per-rail rms; the
    default minimizes the Gaussian MSE for the given resolution.
    """

    bits: float
    clip_scale: float = field(default=math.nan)
    step: float = field(init=False)

    def __post_init__(self):
        if self.bits == INFINITE_BITS:
            object.__setattr__(self, "clip_scale", math.inf)
            object.__setattr__(self, "step", 0.0)
            return
        b = _validate_bits(self.bits)
        clip = self.clip_scale
        if math.isnan(clip):
            clip = optimal_clip_scale(b)
        elif clip <= 0:
            raise ValueError(f"clip_scale must be positive, got {clip}")
        object.__setattr__(self, "bits", float(b))
        object.__setattr__(self, "clip_scale", float(clip))
        object.__setattr__(self, "step", 2.0 * clip / 2**b)

    @property
    def is_infinite(self) -> bool:
        return self.bits == INFINITE_BITS

    def xi(self) -> float:
        """Lloyd-Max quantization MSE for this resolution (0 for infinite bits)."""
        return 0.0 if self.is_infinite else xi_for_bits(int(self.bits))


@dataclass(frozen=True)
class BussgangStats:
    """Linearized quantizer statistics: per-sample gain and distortion power."""

    eta: np.ndarray
    xi: float
    noise_cov_diag: np.ndarray


def check_finite(samples) -> np.ndarray:
    """The sample contract of ``apply``: finite complex values of any shape,
    memory layout or strides; returns them as a complex128 array."""
    samples = np.asarray(samples, dtype=np.complex128)
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return samples


def apply(adc: AdcModel, samples: np.ndarray, agc_rms: float | np.ndarray) -> np.ndarray:
    """Quantize a complex stream: scale by 1/agc_rms, midrise per rail, rescale.

    ``samples`` meet ``check_finite``; ``agc_rms`` is the positive per-rail
    rms the AGC normalizes to (scalar or broadcastable).  An
    infinite-resolution model returns the input unchanged.  The input array
    is never modified.
    """
    samples = check_finite(samples)
    if np.any(np.asarray(agc_rms) <= 0):
        raise ValueError("agc_rms must be positive")
    if adc.is_infinite:
        return samples.copy()
    half = 2 ** (int(adc.bits) - 1)
    out = np.empty(np.broadcast_shapes(samples.shape, np.shape(agc_rms)), np.complex128)
    np.divide(samples, agc_rms, out=out)
    # both rails at once, in place on the interleaved float view
    rails = out.reshape(-1).view(np.float64)
    rails /= adc.step
    np.floor(rails, out=rails)
    np.clip(rails, -half, half - 1, out=rails)
    rails += 0.5
    rails *= adc.step
    out *= agc_rms
    return out


def distortion_factor(quantized: np.ndarray, analog: np.ndarray) -> float:
    """Empirical Bussgang gain E[q* y] / E[|y|^2] over a sample stream."""
    analog = np.asarray(analog)
    quantized = np.asarray(quantized)
    denom = np.mean(np.abs(analog) ** 2)
    if denom == 0:
        raise ValueError("analog stream has zero power")
    return float(np.real(np.mean(np.conj(quantized) * analog)) / denom)


def bussgang_decompose(
    adc: AdcModel,
    unquantized_power_diag: np.ndarray,
    noise_var: float,
    xi: float | None = None,
) -> BussgangStats:
    """Per-sample distortion matrix diagonal and quantization-noise covariance.

    eta[n] = (1 - xi) / sqrt(V[n]) with V[n] = unquantized_power_diag[n] +
    noise_var, and noise_cov_diag[n] = eta[n] * (1 - eta[n]) * V[n].  Valid
    when the quantizer operates at or above its design power (eta <= 1).
    """
    if xi is None:
        xi = adc.xi()
    if not 0 <= xi < 1:
        raise ValueError(f"xi must be in [0, 1), got {xi}")
    power = np.asarray(unquantized_power_diag, dtype=np.float64)
    if np.any(power < 0) or noise_var < 0:
        raise ValueError("powers must be nonnegative")
    v = power + noise_var
    if np.any(v <= 0):
        raise ValueError("total per-sample power must be positive")
    eta = (1.0 - xi) / np.sqrt(v)
    if np.any(eta > 1.0 + 1e-12):
        raise ValueError(
            "per-sample power below the quantizer design point (eta > 1); "
            "rescale the input or the AGC"
        )
    eta = np.minimum(eta, 1.0)
    noise_cov = eta * (1.0 - eta) * v
    return BussgangStats(eta=eta, xi=float(xi), noise_cov_diag=noise_cov)
