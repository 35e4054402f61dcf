"""The reference synchronization symbol: a Zadoff-Chu sequence on an OFDM grid.

The sequence is the LTE primary sync sequence (3GPP TS 36.211 §6.11.1):
length ``N_ZC``, roots 25, 29 and 34.  It is mapped onto the central
subcarriers of an N-point grid with the DC carrier punctured, transformed to
the time domain with a unitary IDFT, and prefixed with a ``CP_LENGTH``-sample
cyclic extension.  All arrays are complex128 and read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_ZC = 63
ZC_ROOT = 34  # the serving root of the single-cell modes
CP_LENGTH = 64


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SyncWaveform:
    """Time-domain sync symbol: unitary IDFT of the grid ``symbols`` plus cyclic prefix."""

    symbols: np.ndarray
    time_samples: np.ndarray
    samples_with_cp: np.ndarray


def generate_zc(root: int, length: int) -> np.ndarray:
    """s[m] = exp(-j*pi*m*(m+1)*root/length) for m = 0..length-1: constant
    amplitude, impulse-like cyclic autocorrelation."""
    if length < 1:
        raise ValueError(f"ZC length must be >= 1, got {length}")
    if not 0 <= root < length:
        raise ValueError(f"ZC root must be in [0, {length}), got {root}")
    m = np.arange(length, dtype=np.float64)
    return _frozen(np.exp(-1j * np.pi * m * (m + 1) * root / length))


def make_sync_waveform(
    root: int, n_zc: int, n_subcarriers: int, cp_length: int
) -> SyncWaveform:
    """The length-``n_zc`` ZC sequence of ``root`` on an ``n_subcarriers``-point
    grid, its unitary IDFT and a ``cp_length``-sample cyclic prefix.

    The grid is in the index order the IDFT consumes, so the DC carrier sits
    at index N//2.  Element m lands on index floor((N - n_zc - 1)/2) + m + 1.
    When the band straddles DC the single element that lands on it is
    punctured to zero; a degenerate band that merely touches DC is kept.

    time_samples[n] = (1/sqrt(N)) * sum_k symbols[k] * exp(j*2*pi*k*n/N)
    """
    seq = generate_zc(root, n_zc)
    n = n_subcarriers
    if n <= n_zc:
        raise ValueError(f"grid of {n} subcarriers cannot hold a length-{n_zc} sequence")
    if not 0 <= cp_length < n:
        raise ValueError(f"cp_length must be in [0, {n}), got {cp_length}")
    start = (n - n_zc - 1) // 2 + 1
    symbols = np.zeros(n, dtype=np.complex128)
    symbols[start : start + n_zc] = seq
    if start < n // 2 < start + n_zc - 1:
        symbols[n // 2] = 0.0
    time_samples = math.sqrt(n) * np.fft.ifft(symbols)
    with_cp = np.concatenate([time_samples[n - cp_length :], time_samples])
    return SyncWaveform(_frozen(symbols), _frozen(time_samples), _frozen(with_cp))
