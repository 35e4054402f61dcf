"""Low-resolution ADC model and its quantization-MSE table.

The ADC is a uniform midrise quantizer applied independently to the I and Q
rails after the AGC (``agc_rms``) scales them (``agc_scale``).
``midrise_codes`` gives each rail's output code, and ``levels_of_code_sums``
turns a linear map of the codes, such as a correlation, into that map of the
levels: the one level rule, which ``apply`` runs with the identity map.

``xi_for_bits`` is the minimum (Lloyd-Max) mean squared error of a b-bit
scalar quantizer for a unit-variance Gaussian, the worst-case distortion the
beam-selection bound is parameterized by; it and the uniform quantizer's
optimal clip are tabulated for 1-16 bits.  The Bussgang checks of ``apply``
against 1 - xi are in the tests (``tests/closed_forms.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_BITS = 16

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
    if not 1 <= bits <= MAX_BITS or bits != int(bits):  # the range first: NaN and inf fail it
        raise ValueError(f"bits must be an integer in [1, {MAX_BITS}], got {bits}")
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

    ``bits`` is an integer in [1, 16]; an ideal converter has no model.
    ``clip_scale`` is the clipping point in units of the per-rail rms that
    minimizes the Gaussian MSE at that resolution (``optimal_clip_scale``).
    """

    bits: int
    clip_scale: float = field(init=False)
    step: float = field(init=False)

    def __post_init__(self):
        b = _validate_bits(self.bits)
        clip = optimal_clip_scale(b)
        object.__setattr__(self, "bits", b)
        object.__setattr__(self, "clip_scale", clip)
        object.__setattr__(self, "step", 2.0 * clip / 2**b)


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


def agc_rms(samples: np.ndarray) -> np.ndarray:
    """The AGC: each row's per-rail rms, sqrt(mean |samples|^2 / 2), as a column.

    It is checked as ``apply`` checks its input: a NaN or inf sample makes
    its row's rms NaN or inf, so the samples are checked only once the rms
    is not finite, and a finite window whose |samples|^2 overflows is
    rejected as such.  The rms must then be positive (``check_agc``).
    """
    power = np.abs(samples)  # squared in place: a second fresh array per window costs page faults
    rms = np.sqrt(np.mean(np.square(power, out=power), axis=1) / 2.0)[:, None]
    if not np.all(np.isfinite(rms)):
        check_finite(samples)
        raise ValueError("the window's power overflows the float range")
    check_agc(rms)
    return rms


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


def midrise_codes(adc: AdcModel, scaled: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each rail's output code of an ``agc_scale`` output,
    clip(floor(scaled / step), -2^(b-1), 2^(b-1) - 1), held as floats in a
    complex128 array.

    The code c of a rail stands for the level (c + 0.5) * step.  The result
    is written to ``out`` (a new array when None), which may be ``scaled``
    itself; otherwise ``scaled`` is left as it is, so a caller can quantize
    one scaled window at several resolutions.
    """
    if not scaled.flags.c_contiguous:
        raise ValueError("scaled must be C-contiguous, as agc_scale returns it")
    out = _out_array(out, scaled.shape)
    half = 2 ** (adc.bits - 1)
    # both rails at once, on the interleaved float views
    rails = out.reshape(-1).view(np.float64)
    np.divide(scaled.reshape(-1).view(np.float64), adc.step, out=rails)
    np.floor(rails, out=rails)
    np.clip(rails, -half, half - 1, out=rails)
    return out


def levels_of_code_sums(sums: np.ndarray, adc: AdcModel, agc_rms: float | np.ndarray,
                        reference_sum: complex) -> None:
    """Turns ``sums``, a linear map L of ``midrise_codes`` output, in place into
    L of the levels: (L(codes) + 0.5 (1 + j) L(1)) * (step * agc_rms), equal in
    exact arithmetic over samples that share one AGC rms (only the rounding
    order differs).  ``reference_sum`` is L(1); for a correlation against
    conj(r) it is sum(conj(r)) at every lag where the reference lies inside
    the window.  ``agc_rms`` broadcasts against ``sums``.
    """
    sums += 0.5 * (1 + 1j) * reference_sum
    sums *= adc.step * agc_rms


def apply(adc: AdcModel, samples: np.ndarray, agc_rms: float | np.ndarray) -> np.ndarray:
    """Quantize a complex stream into a new array of its levels:
    ``agc_scale``, ``midrise_codes``, then ``levels_of_code_sums`` of the
    identity map (L(1) = 1), (codes + 0.5 (1 + j)) * (step * agc_rms).

    ``samples`` meet ``check_finite`` and ``agc_rms`` meets ``check_agc``: the
    positive per-rail rms the AGC normalizes to (scalar or broadcastable).
    """
    samples = check_finite(samples)
    check_agc(agc_rms)
    scaled = agc_scale(samples, agc_rms)
    out = midrise_codes(adc, scaled, out=scaled)
    levels_of_code_sums(out, adc, agc_rms, 1.0)
    return out
