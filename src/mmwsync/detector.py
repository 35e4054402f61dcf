"""UE-side frame-timing detection by cross-correlation.

The receiver slides the stored unquantized reference symbol over the
quantized per-antenna sample window, takes the joint (lag, antenna) argmax of
the squared correlation magnitude, and reports the timing estimate; judging
it against the true timing is the caller's (``montecarlo``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorrelationProfile:
    """Per-antenna correlation values at every candidate lag."""

    values: np.ndarray  # (m_tot, lags) complex


@dataclass(frozen=True)
class TrialOutcome:
    """Detector output for one synchronization attempt."""

    nu_hat: int
    b_hat: int
    peak_power: float


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n: the complex transform lengths that
    numpy's pocketfft runs on its hand-coded radix passes alone."""
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def correlate(received: np.ndarray, reference: np.ndarray) -> CorrelationProfile:
    """Sliding inner products sum_n received[b, n+nu] * conj(reference[n]).

    ``received`` is (m_tot, window) or a single-antenna (window,) vector with
    window >= len(reference); lags run 0 .. window - n.

    The products come from one circular correlation of length
    ``nfft = _next_fast_len(window)``.  It is exact, not an approximation: at a
    lag nu <= window - n the reference spans samples nu .. nu + n - 1 <=
    window - 1 < nfft, so no product wraps around the end of the FFT frame.
    """
    received = np.atleast_2d(np.asarray(received))
    reference = np.asarray(reference)
    n = reference.shape[0]
    window = received.shape[1]
    if window < n:
        raise ValueError(f"received window {window} shorter than reference {n}")
    nfft = _next_fast_len(window)
    spectrum = np.fft.fft(received, nfft, axis=1)
    spectrum *= np.conj(np.fft.fft(reference, nfft))
    corr = np.fft.ifft(spectrum, axis=1, out=spectrum)
    return CorrelationProfile(values=corr[:, : window - n + 1])


def correlator_operation_counts(n: int, t_ue: int, m_tot: int) -> tuple[int, int]:
    """Complex multiplies and additions of a direct sliding correlator over
    one synchronization period, whatever the transmit-side method.

    Each of m_tot antennas tests n * (t_ue - 1) lags of the length-n
    reference: n products and one squared magnitude, n - 1 additions.
    """
    lags = m_tot * n * (t_ue - 1)
    return lags * (n + 1), lags * (n - 1)


def detect(profile: CorrelationProfile) -> TrialOutcome:
    """Joint argmax of |correlation|^2 over lag and antenna.

    The first lag holding the largest power wins, then the smallest antenna
    within a relative 1e-9 of that column's largest power (a NaN is largest),
    so antennas equal up to rounding tie, as in a flat noiseless window.
    """
    magnitude = np.abs(profile.values)
    if magnitude.size == 0:
        raise ValueError("empty correlation profile")
    # x -> x^2 is monotone non-decreasing, so the squared column maxima are the
    # column maxima of |values|^2, ties and NaNs included: only they and the
    # winning column need squaring.
    nu_hat = int(np.argmax(np.square(magnitude.max(axis=0))))
    power = np.square(magnitude[:, nu_hat])
    b_hat = int(np.argmax((power >= (1.0 - 1e-9) * power.max()) | np.isnan(power)))
    return TrialOutcome(nu_hat=nu_hat, b_hat=b_hat, peak_power=float(power[b_hat]))
