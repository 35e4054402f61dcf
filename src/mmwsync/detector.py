"""UE-side frame-timing detection by cross-correlation.

The receiver slides the stored unquantized reference symbol over the
quantized per-antenna sample window, takes the joint (lag, antenna) argmax of
the squared correlation magnitude, and reports the timing estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    success: bool | None = None  # nu_hat equals the true timing, when one was given


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


@lru_cache(maxsize=8)
def _reference_spectrum(dtype: str, shape: tuple, reference: bytes, nfft: int) -> np.ndarray:
    """conj(fft(reference, nfft)), kept for the few references a run correlates
    against; read-only, since every caller shares it."""
    samples = np.frombuffer(reference, dtype=dtype).reshape(shape)
    spectrum = np.conj(np.fft.fft(samples, nfft))
    spectrum.flags.writeable = False
    return spectrum


def correlate(received: np.ndarray, reference: np.ndarray,
              out: np.ndarray | None = None) -> CorrelationProfile:
    """Sliding inner products sum_n received[b, n+nu] * conj(reference[n]).

    ``received`` is (m_tot, window) or a single-antenna (window,) vector with
    window >= len(reference); lags run 0 .. window - n.

    The products come from one circular correlation of length
    ``nfft = _next_fast_len(window)``.  It is exact, not an approximation: at a
    lag nu <= window - n the reference spans samples nu .. nu + n - 1 <=
    window - 1 < nfft, so no product wraps around the end of the FFT frame.

    ``out``, when given, holds the circular correlation: a complex128 array of
    shape (m, nfft), m being the rows of ``received`` (1 for a vector).  It
    may be ``received`` itself when nfft equals the window, which then
    leaves the input overwritten.  The returned values are a view of it.
    """
    received = np.atleast_2d(np.asarray(received))
    reference = np.asarray(reference)
    n = reference.shape[0]
    window = received.shape[1]
    if window < n:
        raise ValueError(f"received window {window} shorter than reference {n}")
    nfft = _next_fast_len(window)
    if out is not None and (out.shape != (received.shape[0], nfft) or out.dtype != np.complex128):
        raise ValueError(f"out must be a complex128 array of shape {(received.shape[0], nfft)}")
    spectrum = np.fft.fft(received, nfft, axis=1, out=out)
    spectrum *= _reference_spectrum(reference.dtype.str, reference.shape, reference.tobytes(), nfft)
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


def detect(profile: CorrelationProfile, nu_true: int | None = None) -> TrialOutcome:
    """Joint argmax of |correlation|^2 over lag and antenna.

    Ties break to the smallest lag, then the smallest antenna index.
    """
    magnitude = np.abs(profile.values)
    if magnitude.size == 0:
        raise ValueError("empty correlation profile")
    # x -> x^2 is monotone non-decreasing, so the squared column maxima are the
    # column maxima of |values|^2, ties and NaNs included: only they and the
    # winning column need squaring.  The first lag whose column holds the
    # maximum wins, then the first antenna in that column.
    nu_hat = int(np.argmax(np.square(magnitude.max(axis=0))))
    power = np.square(magnitude[:, nu_hat])
    b_hat = int(np.argmax(power))
    return TrialOutcome(
        nu_hat=nu_hat,
        b_hat=b_hat,
        peak_power=float(power[b_hat]),
        success=None if nu_true is None else bool(nu_hat == nu_true),
    )


def timing_nmse(nu_true, nu_hat) -> float:
    """Mean of |(nu_true - nu_hat) / nu_true|^2 over paired timing indices.

    Every true position must be nonzero for the ratio to exist.
    """
    errors = []
    for t, t_hat in zip(nu_true, nu_hat, strict=True):
        if t == 0:
            raise ValueError("timing NMSE undefined for true position 0")
        errors.append(abs((t - t_hat) / t) ** 2)
    if not errors:
        raise ValueError("no outcomes")
    return float(np.mean(errors))
