"""Low-resolution ADC models and Bussgang decomposition quantities.

The ADC is a uniform midrise quantizer applied independently to the I and Q
rails after AGC scaling.  ``xi_for_bits`` is the minimum (Lloyd-Max) mean
squared error of a b-bit scalar quantizer for a unit-variance Gaussian, the
quantity the closed-form SQNR expressions are parameterized by; it and the
uniform quantizer's optimal clip are tabulated for 1-16 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

INFINITE_BITS = math.inf

_MAX_BITS = 16

# Entry b - 1 of each table belongs to b bits.  _XI holds the minimum (Lloyd-Max)
# MSE of the b-bit scalar quantizer for a unit-variance Gaussian (Max 1960);
# _CLIP holds the clipping point, in rail-rms units, that minimizes the Gaussian
# MSE of the b-bit uniform midrise quantizer.  Both are exact to the last bit of
# their solvers, which tests/test_quantization.py keeps and checks them against.
_XI = (
    0.3633802276324186, 0.11748184782932924, 0.034547760788503856, 0.009501008008191869,
    0.002504668355674755, 0.0006442396653169036, 0.0001634782299799742, 4.118508286676814e-05,
    1.0336831114621248e-05, 2.5893758373030096e-06, 6.47998904201863e-07, 1.6208244346671563e-07,
    4.053103364043409e-08, 1.0134069583500604e-08, 2.5336821529720055e-09, 6.334410773689569e-10,
)
_CLIP = (
    1.595769097903302, 1.9913733723500546, 2.3440777660949093, 2.681604900266082,
    3.010220652727121, 3.3300163743444546, 3.63953115560797, 3.937585747067813,
    4.223732582245505, 4.498158789493898, 4.7614369841406905, 5.0143523062842625,
    5.257717780225809, 5.492309742480057, 5.7188904715315525, 5.938520606548778,
)


def _validate_bits(bits: float) -> int:
    if bits != int(bits) or not 1 <= bits <= _MAX_BITS:
        raise ValueError(f"bits must be an integer in [1, {_MAX_BITS}], got {bits}")
    return int(bits)


@lru_cache(maxsize=None)
def xi_for_bits(bits: int) -> float:
    """Minimum MSE of the b-bit scalar quantizer for a unit-variance Gaussian."""
    return _XI[_validate_bits(bits) - 1]


@lru_cache(maxsize=None)
def optimal_clip_scale(bits: int) -> float:
    """Clipping point (in rail-rms units) minimizing the Gaussian MSE of the uniform midrise quantizer."""
    return _CLIP[_validate_bits(bits) - 1]


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


def check_agc(agc_rms) -> None:
    """The AGC contract of ``apply``: every per-rail rms is positive (not NaN)."""
    if not np.all(np.asarray(agc_rms) > 0):
        raise ValueError("agc_rms must be positive")


def _out_array(out: np.ndarray | None, shape: tuple) -> np.ndarray:
    """``out`` once it is known to be a C-contiguous complex128 array of
    ``shape``; a new one when it is None."""
    if out is None:
        return np.empty(shape, np.complex128)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.complex128
            and out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous complex128 array of shape {shape}")
    return out


def agc_scale(samples: np.ndarray, agc_rms: float | np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """samples / agc_rms as complex128 of the broadcast shape, written to
    ``out`` (a new array when None), which may be ``samples`` itself.

    The scaling is a multiply by 1/agc_rms.  numpy divides by agc_rms + 0j
    as a multiply by the same reciprocal, so the two differ at most in the
    sign of a zero, which the midrise rails do not see.
    """
    out = _out_array(out, np.broadcast_shapes(np.shape(samples), np.shape(agc_rms)))
    np.multiply(samples, 1.0 / np.asarray(agc_rms, dtype=np.float64), out=out)
    return out


def quantize_scaled(adc: AdcModel, scaled: np.ndarray, agc_rms: float | np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Midrise per rail of an ``agc_scale`` output, rescaled by agc_rms.

    The result is written to ``out`` (a new array when None), which may be
    ``scaled`` itself; otherwise ``scaled`` is left as it is, so a caller
    can quantize one scaled window at several resolutions.
    """
    if not scaled.flags.c_contiguous:
        raise ValueError("scaled must be C-contiguous, as agc_scale returns it")
    out = _out_array(out, scaled.shape)
    half = 2 ** (int(adc.bits) - 1)
    # both rails at once, on the interleaved float views
    rails = out.reshape(-1).view(np.float64)
    np.divide(scaled.reshape(-1).view(np.float64), adc.step, out=rails)
    np.floor(rails, out=rails)
    np.clip(rails, -half, half - 1, out=rails)
    rails += 0.5
    rails *= adc.step
    out *= agc_rms
    return out


def apply(adc: AdcModel, samples: np.ndarray, agc_rms: float | np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Quantize a complex stream: scale by 1/agc_rms, midrise per rail, rescale.

    ``samples`` meet ``check_finite`` and ``agc_rms`` meets ``check_agc``: the
    positive per-rail rms the AGC normalizes to (scalar or broadcastable).
    The scaling is a multiply by 1/agc_rms (``agc_scale``).  An
    infinite-resolution model returns a copy of the input.

    The result is written to ``out`` when it is given: a C-contiguous
    complex128 array of the output's shape (the broadcast shape of the
    samples and agc_rms; the samples' own at infinite resolution), which may
    be ``samples`` itself.  The input is never modified unless ``out`` is
    the input.
    """
    samples = check_finite(samples)
    check_agc(agc_rms)
    if adc.is_infinite:
        out = _out_array(out, samples.shape)
        np.copyto(out, samples)
        return out
    scaled = agc_scale(samples, agc_rms, out)
    return quantize_scaled(adc, scaled, agc_rms, out=scaled)


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
