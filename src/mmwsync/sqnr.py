"""The beam-selection objective: a worst-case lower bound on the zero-lag
synchronization SQNR.

The bound assumes the flat synchronization channel: one scalar effective
gain per user, a common per-sample distortion factor, and Gaussian
signaling at the quantizer input.  ``optimizer`` maximizes it over the
sent-gain table of each method (single-stream is the one-chain table);
the closed-form SQNR it bounds is in the tests
(``tests/closed_forms.py``), which check the chain bound <= gamma.

The maximizer does not depend on ``xi_max`` or ``noise_var``.  With
c = sqrt(noise_var / lambda_max) / (1 - xi_max),
1 / bound(s) = -1 + c (s + lambda_max)^1.5 / s, so while the denominator is
positive at every gain (27 noise_var / 4 > (1 - xi_max)^2, which the default
noise_var = 1 meets) the bound peaks at s = 2 lambda_max and orders any set
of gains alike for every xi_max and noise_var.
``montecarlo.slot_beam_plans`` therefore searches each slot once for every
ADC resolution.  The bound rises with s below 2 lambda_max, so a table whose
gains all lie below it picks its maximum gain: both methods do at the
default lambda_max_inv_db = -20 (2 lambda_max = 200).
"""

from __future__ import annotations

import numpy as np


def sqnr_lower_bound_single(
    gain_sq, lambda_max: float, xi_max: float, noise_var: float = 1.0
):
    """Worst-case-parameter lower bound on the zero-lag SQNR.

    gain_sq / (lambda_max + ([noise_var*(gain_sq/lambda_max + 1)]^(1/2)
    / (1 - xi_max) - 1) * (gain_sq + lambda_max))

    Accepts a scalar or an array of gains; by default evaluated in
    noise-normalized units (noise_var = 1) where ``lambda_max`` reads as the
    worst-case inverse SNR.
    """
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    if not 0.0 <= xi_max < 1.0:
        raise ValueError(f"xi_max must be in [0, 1), got {xi_max}")
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    s = np.asarray(gain_sq, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("gain_sq must be nonnegative")
    bracket = np.sqrt(noise_var * (s / lambda_max + 1.0)) / (1.0 - xi_max) - 1.0
    out = s / (lambda_max + bracket * (s + lambda_max))
    if np.isscalar(gain_sq) or np.ndim(gain_sq) == 0:
        return float(out)
    return out
