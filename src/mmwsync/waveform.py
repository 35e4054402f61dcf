"""Zadoff-Chu synchronization waveforms on an OFDM grid.

A length-``n_zc`` Zadoff-Chu sequence is mapped onto the central subcarriers
of an N-point grid, transformed to the time domain with a unitary IDFT, and
prefixed with a cyclic extension.  All arrays are complex128; values are
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ZcSequence:
    """Constant-amplitude Zadoff-Chu sequence with impulse-like cyclic autocorrelation."""

    length: int
    samples: np.ndarray


@dataclass(frozen=True)
class OfdmGrid:
    """Frequency-domain symbols with the sync sequence on the central band.

    ``symbols`` is stored in the index order consumed by the IDFT; the
    DC carrier sits at index ``n_subcarriers // 2`` in this convention
    (``map_to_grid`` places the band).
    """

    n_subcarriers: int
    symbols: np.ndarray


@dataclass(frozen=True)
class SyncWaveform:
    """Time-domain sync symbol: unitary IDFT of the grid plus cyclic prefix."""

    grid: OfdmGrid
    time_samples: np.ndarray
    samples_with_cp: np.ndarray


def generate_zc(root: int, length: int) -> ZcSequence:
    """Generate s[m] = exp(-j*pi*m*(m+1)*root/length) for m = 0..length-1."""
    if length < 1:
        raise ValueError(f"ZC length must be >= 1, got {length}")
    if not 0 <= root < length:
        raise ValueError(f"ZC root must be in [0, {length}), got {root}")
    m = np.arange(length, dtype=np.float64)
    samples = np.exp(-1j * np.pi * m * (m + 1) * root / length)
    return ZcSequence(length=length, samples=_frozen(samples))


def map_to_grid(seq: ZcSequence, n_subcarriers: int) -> OfdmGrid:
    """Map the sequence onto the central band of an ``n_subcarriers`` grid.

    Element m lands on index floor((N - n_zc - 1)/2) + m + 1.  When the band
    straddles the DC index (N//2) the single element that lands on DC is
    punctured to zero; a degenerate band that merely touches DC is kept.
    """
    n_zc = seq.length
    if n_subcarriers <= n_zc:
        raise ValueError(
            f"grid of {n_subcarriers} subcarriers cannot hold a length-{n_zc} sequence"
        )
    start = (n_subcarriers - n_zc - 1) // 2 + 1
    symbols = np.zeros(n_subcarriers, dtype=np.complex128)
    symbols[start : start + n_zc] = seq.samples
    dc = n_subcarriers // 2
    if start < dc < start + n_zc - 1:
        symbols[dc] = 0.0
    return OfdmGrid(n_subcarriers=n_subcarriers, symbols=_frozen(symbols))


def modulate(grid: OfdmGrid, cp_length: int) -> SyncWaveform:
    """Unitary IDFT of the grid plus a ``cp_length``-sample cyclic prefix.

    time_samples[n] = (1/sqrt(N)) * sum_k symbols[k] * exp(j*2*pi*k*n/N)
    """
    n = grid.n_subcarriers
    if not 0 <= cp_length < n:
        raise ValueError(f"cp_length must be in [0, {n}), got {cp_length}")
    time_samples = math.sqrt(n) * np.fft.ifft(grid.symbols)
    with_cp = np.concatenate([time_samples[n - cp_length :], time_samples])
    return SyncWaveform(
        grid=grid,
        time_samples=_frozen(time_samples),
        samples_with_cp=_frozen(with_cp),
    )


def make_sync_waveform(
    root: int, n_zc: int, n_subcarriers: int, cp_length: int
) -> SyncWaveform:
    """Convenience chain: generate_zc -> map_to_grid -> modulate."""
    return modulate(map_to_grid(generate_zc(root, n_zc), n_subcarriers), cp_length)
