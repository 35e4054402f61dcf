"""Analog beam codebooks, subarray beam sets and their composite beams.

Each RF chain drives a contiguous subarray of ``n_a`` elements through one
codeword; transmitting a common signal on all chains synthesizes a composite
effective beam whose gain toward a direction is the sum of per-subarray inner
products against the matching blocks of the transmit steering vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Codebook:
    """Set of unit-per-element-power analog codewords (rows)."""

    codewords: np.ndarray  # (n_beam, n_a)

    @property
    def n_beam(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_a(self) -> int:
        return self.codewords.shape[1]


def dft_codebook(n_a: int, oversampling: int) -> Codebook:
    """Oversampled DFT codebook: codeword q element a is exp(-j*2*pi*a*q/n_beam)/sqrt(n_a)."""
    if n_a < 1 or oversampling < 1:
        raise ValueError("n_a and oversampling must be >= 1")
    n_beam = n_a * oversampling
    a = np.arange(n_a)[None, :]
    q = np.arange(n_beam)[:, None]
    cw = np.exp(-2j * np.pi * a * q / n_beam) / np.sqrt(n_a)
    return Codebook(codewords=cw)


@dataclass(frozen=True)
class BeamSet:
    """Ordered selection of one codeword per RF chain."""

    codebook: Codebook
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) < 1:
            raise ValueError("beam set must hold at least one codeword")
        if any(not 0 <= i < self.codebook.n_beam for i in self.indices):
            raise ValueError("codeword index out of range")

    @property
    def n_rf(self) -> int:
        return len(self.indices)

    @property
    def vectors(self) -> np.ndarray:
        """(n_rf, n_a) stacked codewords."""
        return self.codebook.codewords[list(self.indices)]


def composite_beam_gain(beam_set: BeamSet, tx_steering: np.ndarray) -> complex:
    """Sum of per-subarray inner products conj(a_tx)[block_j] . p_j.

    ``tx_steering`` must have length n_rf * n_a; block j covers elements
    j*n_a .. (j+1)*n_a - 1.
    """
    n_a = beam_set.codebook.n_a
    n_rf = beam_set.n_rf
    tx_steering = np.asarray(tx_steering)
    if tx_steering.shape[0] != n_rf * n_a:
        raise ValueError(
            f"steering length {tx_steering.shape[0]} != n_rf*n_a = {n_rf * n_a}"
        )
    blocks = np.conj(tx_steering).reshape(n_rf, n_a)
    return complex(np.sum(blocks * beam_set.vectors))


def effective_tx_vector(beam_set: BeamSet) -> np.ndarray:
    """Common-signal transmit vector: codeword j on subarray j, scaled by
    1/sqrt(n_rf) for unit total power."""
    return beam_set.vectors.reshape(-1) / np.sqrt(beam_set.n_rf)
