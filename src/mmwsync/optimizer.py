"""Anchor azimuths and exhaustive codebook selection.

The BS is a uniform linear array and every ray departs at zero elevation, so
each synchronization time-slot covers one slice of the sector's azimuths and
is represented by its centre, the slot's anchor.  The slot's beams are chosen
by maximizing the worst-case SQNR lower bound at that anchor over all
per-subarray codeword combinations (exact enumeration, no pruning).  One
search serves both methods: single-stream beamforming is the one-chain case,
n_rf = 1 on the full-array codebook.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .beamforming import Codebook
from .channel import ArrayGeometry, steering_vector
from .sqnr import sqnr_lower_bound_single

# Most candidates one exhaustive search may score; ``Scenario`` checks both
# searches against it at parse time.
SEARCH_BUDGET = 2**20


@dataclass(frozen=True)
class BoundParams:
    """Worst-case parameters of the selection objective.

    ``lambda_max`` is the worst-case inverse SNR (linear), ``xi_max`` the
    worst-case quantization MSE.  ``noise_var`` defaults to 1 so the bound is
    evaluated in noise-normalized units.
    """

    lambda_max: float
    xi_max: float
    noise_var: float = 1.0


@dataclass(frozen=True)
class BeamSelection:
    """Chosen codeword indices for one slot and the number of candidates scored."""

    indices: tuple[int, ...]
    iteration_count: int


def build_anchor_grid(t_bs: int, azimuth: tuple[float, float]) -> np.ndarray:
    """One anchor azimuth per synchronization time-slot, shape (t_bs,): the
    centres of t_bs equal slices of ``azimuth`` = (lo, hi), in radians."""
    if t_bs < 1:
        raise ValueError("t_bs must be >= 1")
    lo, hi = azimuth
    if lo >= hi:
        raise ValueError("empty azimuth sector")
    edges = np.linspace(lo, hi, t_bs + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def multi_beam_gains(
    codebook: Codebook,
    n_rf: int,
    geometry: ArrayGeometry,
    anchor: float,
) -> np.ndarray:
    """Gain |conj(a) . f|^2 at the anchor azimuth of every per-subarray codeword tuple.

    Entry (q_0, ..., q_{n_rf-1}) belongs to the tuple that puts codeword q_i
    on subarray i, and f is the unit-power vector that tuple sends
    (``beamforming.effective_tx_vector``): |sum_i c_i|^2 / n_rf, c_i being
    subarray i's inner product.  The table does not depend on the bound, so
    one table serves every resolution's search at the anchor.  With n_rf = 1
    on the full-array codebook it is the single-stream table |conj(a) . w_q|^2.
    """
    n_beam = codebook.n_beam
    iterations = n_beam**n_rf
    if iterations > SEARCH_BUDGET:
        raise ValueError(
            f"exhaustive search needs (n_beam)^n_rf = {n_beam}^{n_rf} = {iterations} "
            f"iterations, above SEARCH_BUDGET = {SEARCH_BUDGET}"
        )
    a_tx = steering_vector(geometry, anchor)
    if a_tx.shape[0] != n_rf * codebook.n_a:
        raise ValueError(
            f"geometry has {a_tx.shape[0]} elements, need n_rf*n_a = {n_rf * codebook.n_a}"
        )
    blocks = np.conj(a_tx).reshape(n_rf, codebook.n_a)
    c = blocks @ codebook.codewords.T  # (n_rf, n_beam) per-subarray gains
    return np.abs(reduce(np.add.outer, c)) ** 2 / n_rf


def select_from_gains(gains: np.ndarray, bound: BoundParams) -> BeamSelection:
    """Best codeword tuple of a ``multi_beam_gains`` table under the bound.

    The iteration count is the table's size.  The C-order flat index has q_0
    most significant, so the first-occurrence argmax is the
    lexicographically smallest tie.
    """
    objectives = sqnr_lower_bound_single(gains, bound.lambda_max, bound.xi_max, bound.noise_var)
    flat = int(np.argmax(objectives))
    indices = tuple(int(i) for i in np.unravel_index(flat, gains.shape))
    return BeamSelection(indices=indices, iteration_count=gains.size)

