"""Anchor-direction grids and exhaustive codebook selection.

Each synchronization time-slot is represented by one anchor direction; the
slot's beams are chosen by maximizing the worst-case SQNR lower bound at that
anchor over all per-subarray codeword combinations (exact enumeration, no
pruning).  One search serves both methods: single-stream beamforming is the
one-chain case, n_rf = 1 on the full-array codebook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .beamforming import Codebook
from .channel import ArrayGeometry, steering_vector
from .sqnr import sqnr_lower_bound_single


@dataclass(frozen=True)
class SectorRanges:
    """Angular coverage in radians; ``elevation`` of None means azimuth-only."""

    azimuth: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    elevation: tuple[float, float] | None = (-math.pi / 4, math.pi / 4)

    def __post_init__(self):
        if self.azimuth[0] >= self.azimuth[1]:
            raise ValueError("empty azimuth sector")
        if self.elevation is not None and self.elevation[0] >= self.elevation[1]:
            raise ValueError("empty elevation sector")


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


def _slice_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of n equal slices of [lo, hi]; n = 1 gives the sector center."""
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def _factor_grid(t_bs: int) -> tuple[int, int]:
    """Split t_bs as n_az * n_el with n_el the largest divisor <= sqrt(t_bs)."""
    n_el = 1
    for d in range(int(math.isqrt(t_bs)), 0, -1):
        if t_bs % d == 0:
            n_el = d
            break
    return t_bs // n_el, n_el


def build_anchor_grid(t_bs: int, sector: SectorRanges) -> np.ndarray:
    """One (azimuth, elevation) anchor per synchronization time-slot, shape
    (t_bs, 2): a uniform slice-center lattice over the sector, azimuth-major."""
    if t_bs < 1:
        raise ValueError("t_bs must be >= 1")
    if sector.elevation is None:
        n_az, n_el = t_bs, 1
        el = np.zeros(1)
    else:
        n_az, n_el = _factor_grid(t_bs)
        el = _slice_centers(*sector.elevation, n_el)
    az = _slice_centers(*sector.azimuth, n_az)
    return np.array([(a, e) for a in az for e in el])


def multi_beam_gains(
    codebook: Codebook,
    n_rf: int,
    geometry: ArrayGeometry,
    anchor: tuple[float, float],
    budget: int = 2**20,
) -> np.ndarray:
    """Composite gain |h|^2 at the anchor of every per-subarray codeword tuple.

    Entry (q_0, ..., q_{n_rf-1}) belongs to the tuple that puts codeword q_i
    on subarray i.  The table does not depend on the bound, so one table
    serves every resolution's search at the anchor.  With n_rf = 1 on the
    full-array codebook it is the single-stream table |conj(a) . w_q|^2.
    The entry is |sum_i c_i|^2, n_rf times the gain of the unit-power vector
    ``beamforming.effective_tx_vector`` sends; the two scales coincide at
    n_rf = 1.
    """
    n_beam = codebook.n_beam
    iterations = n_beam**n_rf
    if iterations > budget:
        raise ValueError(
            f"exhaustive search needs (n_beam)^n_rf = {n_beam}^{n_rf} = {iterations} "
            f"iterations, above the configured budget {budget}"
        )
    a_tx = steering_vector(geometry, anchor[0], anchor[1])
    if a_tx.shape[0] != n_rf * codebook.n_a:
        raise ValueError(
            f"geometry has {a_tx.shape[0]} elements, need n_rf*n_a = {n_rf * codebook.n_a}"
        )
    blocks = np.conj(a_tx).reshape(n_rf, codebook.n_a)
    c = blocks @ codebook.codewords.T  # (n_rf, n_beam) per-subarray gains
    return np.abs(reduce(np.add.outer, c)) ** 2


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


@dataclass(frozen=True)
class ComplexityReport:
    """Operation counts for the beam search and the UE correlator."""

    bs_iterations_single_stream: int
    bs_iterations_multi_beam: int
    ue_complex_multiplications: int
    ue_complex_additions: int


def complexity_report(
    t_bs: int,
    n_beam: int,
    n_rf: int,
    n: int,
    t_ue: int,
    m_tot: int,
) -> ComplexityReport:
    """Search iteration counts and per-synchronization-period UE operation counts.

    BS, per synchronization period: t_bs * n_beam single-stream iterations
    versus t_bs * n_beam^n_rf for the multi-beam search.  UE: the
    sliding correlation costs m_tot * n * (n+1) * (t_ue-1) complex multiplies
    and m_tot * n * (n-1) * (t_ue-1) complex additions, independent of the
    transmit-side method.
    """
    if min(t_bs, n_beam, n_rf, n, t_ue, m_tot) < 1:
        raise ValueError("all complexity inputs must be positive")
    return ComplexityReport(
        bs_iterations_single_stream=t_bs * n_beam,
        bs_iterations_multi_beam=t_bs * n_beam**n_rf,
        ue_complex_multiplications=m_tot * n * (n + 1) * (t_ue - 1),
        ue_complex_additions=m_tot * n * (n - 1) * (t_ue - 1),
    )
