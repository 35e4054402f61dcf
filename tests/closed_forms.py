"""Closed forms and protocols the tests check the library against.

None of these runs in an experiment; each is the reference side of a check
on library code:

* ``SqnrInputs`` and ``sqnr_single_beam``: the Bussgang zero-lag SQNR
  gamma, the top of the bound chain that ``sqnr.sqnr_lower_bound_single``
  (the beam objective) must stay below, and the analytic side of the
  Lemma 1 checks;
* ``distortion_factor``: the empirical Bussgang gain of
  ``quantization.apply``, compared with 1 - xi from ``xi_for_bits``;
* ``cyclic_autocorrelation``: the impulse autocorrelation of
  ``waveform.generate_zc``;
* ``zero_lag_freq_correlation``: the frequency-domain zero-lag value of a
  ``channel.propagate`` burst, and the time-domain antenna rule the sqnr
  experiment uses;
* ``solve_gain_for_gamma``, ``correlation_ratio_check``,
  ``codebook_ratio_argmax`` and ``_measured_ratio``: the Lemma 1
  zero/non-zero-lag correlation power ratio, measured through
  ``quantization.apply`` and ``waveform.generate_zc`` codeword by codeword;
* ``select_multi_beam``: one anchor's exhaustive multi-beam search,
  composed of ``optimizer.multi_beam_gains`` and
  ``optimizer.select_from_gains`` as ``montecarlo.slot_beam_plans`` composes
  them.

All SQNR expressions assume the flat synchronization channel: one scalar
effective gain per user, a common per-sample distortion factor, and Gaussian
signaling at the quantizer input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mmwsync import beamforming, channel, optimizer, quantization, waveform
from mmwsync.beamforming import Codebook
from mmwsync.channel import ArrayGeometry
from mmwsync.optimizer import BeamSelection, BoundParams
from mmwsync.quantization import AdcModel

# ---------------------------------------------------------------------------
# zero-lag SQNR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqnrInputs:
    """Scalars feeding the closed form.

    ``effective_gain_sq`` is the received signal power scale, the full
    beam-space product g^2 |[a_rx]_b . a_tx* f|^2.
    """

    effective_gain_sq: float
    noise_var: float
    eta: float

    def __post_init__(self):
        if self.effective_gain_sq < 0 or self.noise_var < 0:
            raise ValueError("powers must be nonnegative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


def sqnr_single_beam(inputs: SqnrInputs) -> float:
    """gamma = eta*S / (eta*sigma^2 + (1 - eta)*(S + sigma^2))."""
    s, sig2, eta = inputs.effective_gain_sq, inputs.noise_var, inputs.eta
    denom = eta * sig2 + (1.0 - eta) * (s + sig2)
    if denom <= 0:
        raise ValueError("SQNR denominator must be positive")
    return eta * s / denom


# ---------------------------------------------------------------------------
# quantizer, waveform and detector references
# ---------------------------------------------------------------------------


def distortion_factor(quantized: np.ndarray, analog: np.ndarray) -> float:
    """Empirical Bussgang gain E[q* y] / E[|y|^2] over a sample stream."""
    analog = np.asarray(analog)
    quantized = np.asarray(quantized)
    denom = np.mean(np.abs(analog) ** 2)
    if denom == 0:
        raise ValueError("analog stream has zero power")
    return float(np.real(np.mean(np.conj(quantized) * analog)) / denom)


def cyclic_autocorrelation(seq: np.ndarray, normalized: bool = True) -> np.ndarray:
    """Cyclic autocorrelation chi[v] = sum_m s[m] conj(s[(m+v) mod L]).

    With ``normalized`` the result is divided by the lag-0 energy, so a root
    coprime with the length gives 1 at lag 0 and ~0 elsewhere.  The raw form
    carries the factor ``length`` at lag 0.
    """
    spec = np.fft.fft(seq)
    raw = np.fft.ifft(np.abs(spec) ** 2).conj()
    if normalized:
        return raw / seq.shape[0]
    return raw


def zero_lag_freq_correlation(received_burst: np.ndarray, reference_symbols: np.ndarray) -> complex:
    """Unitary DFT of the aligned burst correlated against the grid symbols.

    Equals the time-domain correlation at the true lag.
    """
    burst = np.asarray(received_burst)
    n = reference_symbols.shape[0]
    if burst.shape[-1] != n:
        raise ValueError(f"burst length {burst.shape[-1]} != grid size {n}")
    spectrum = np.fft.fft(burst) / np.sqrt(n)
    return complex(np.sum(spectrum * np.conj(reference_symbols)))


# ---------------------------------------------------------------------------
# Lemma 1: correlation power ratio against the closed form
# ---------------------------------------------------------------------------


def solve_gain_for_gamma(gamma: float, eta: float, noise_var: float = 1.0) -> float:
    """Signal power making the closed-form SQNR equal gamma; errors when the
    resolution cannot reach it (gamma >= eta / (1 - eta))."""
    denom = eta - gamma * (1.0 - eta)
    if denom <= 0:
        raise ValueError(f"gamma {gamma} unreachable at eta {eta}")
    return gamma * noise_var / denom


def correlation_ratio_check(
    bits: int,
    gamma_target: float,
    trials: int,
    seed: int,
    length: int = 63,
    root: int = 34,
) -> dict:
    """Measure the zero/non-zero-lag correlation power ratio through the ADC.

    The raw ratio carries the correlation processing gain, so the normalized
    form (ratio - 1) / length is compared against the analytic SQNR; the
    identity predicts ratio = 1 + length * gamma.
    """
    eta = 1.0 - quantization.xi_for_bits(bits)
    s = solve_gain_for_gamma(gamma_target, eta)
    ratio = _measured_ratio(s, bits, trials, seed, length, root)
    gamma_emp = (ratio - 1.0) / length
    gamma_analytic = sqnr_single_beam(SqnrInputs(effective_gain_sq=s, noise_var=1.0, eta=eta))
    return {
        "bits": bits,
        "gamma_target": gamma_target,
        "gamma_analytic": gamma_analytic,
        "gamma_empirical": gamma_emp,
        "measured_ratio": ratio,
        "predicted_ratio": 1.0 + length * gamma_analytic,
        "normalized_ratio": 1.0 + gamma_emp,
    }


def codebook_ratio_argmax(
    bits: int,
    trials_per_codeword: int,
    seed: int,
    n_a: int = 16,
    ue_az: float = 0.35,
    base_gain: float = 0.25,
) -> dict:
    """Measured-vs-analytic best-codeword agreement on a ULA DFT codebook.

    For each codeword the measured power ratio runs the correlation protocol
    at that codeword's beamforming gain; the argmax over measured ratios is
    compared with the argmax over analytic SQNRs (they coincide since the
    ratio is a strictly increasing map of the SQNR).
    """
    cb = beamforming.dft_codebook(n_a, 1)
    geom = ArrayGeometry(kind="ula", n_elements=n_a)
    a = channel.steering_vector(geom, ue_az)
    gains = base_gain * np.abs(np.conj(a) @ cb.codewords.T) ** 2
    eta = 1.0 - quantization.xi_for_bits(bits)
    measured = np.zeros(cb.n_beam)
    analytic = np.zeros(cb.n_beam)
    for q in range(cb.n_beam):
        s = float(gains[q])
        analytic[q] = sqnr_single_beam(SqnrInputs(effective_gain_sq=s, noise_var=1.0, eta=eta))
        measured[q] = _measured_ratio(s, bits, trials_per_codeword, seed + q)
    return {
        "argmax_measured": int(np.argmax(measured)),
        "argmax_analytic": int(np.argmax(analytic)),
        "measured": measured,
        "analytic": analytic,
    }


def _measured_ratio(s: float, bits: int, trials: int, seed: int, length: int = 63,
                    root: int = 34) -> float:
    """Zero/non-zero-lag correlation power ratio through the ADC.

    Protocol: constant-envelope time-domain sequence (exact impulse cyclic
    autocorrelation), flat channel with per-sample signal power s and unit
    noise power, matched AGC; trials run in batches of 20000.
    """
    u = waveform.generate_zc(root, length)
    adc = AdcModel(bits=bits)
    agc = math.sqrt((s + 1.0) / 2.0)
    rng = np.random.default_rng(seed)
    f_u = np.conj(np.fft.fft(u))
    p_zero = p_nonzero = 0.0
    batch = 20000
    for lo in range(0, trials, batch):
        nb = min(batch, trials - lo)
        theta = np.exp(2j * np.pi * rng.random((nb, 1)))
        w = (
            rng.standard_normal((nb, length)) + 1j * rng.standard_normal((nb, length))
        ) * math.sqrt(0.5)
        y = math.sqrt(s) * theta * u[None, :] + w
        q = quantization.apply(adc, y, agc)
        corr = np.fft.ifft(np.fft.fft(q, axis=1) * f_u[None, :], axis=1)
        mag2 = np.abs(corr) ** 2
        p_zero += float(mag2[:, 0].sum())
        p_nonzero += float(mag2[:, 1:].sum())
    return (p_zero / trials) / (p_nonzero / (trials * (length - 1)))


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------


def select_multi_beam(
    codebook: Codebook,
    n_rf: int,
    geometry: ArrayGeometry,
    anchor: float,
    bound: BoundParams,
) -> BeamSelection:
    """Exhaustive search over all (n_beam)^n_rf per-subarray codeword tuples.

    The objective is the worst-case bound evaluated on the composite gain
    |h|^2 of each candidate set; ties resolve to the lexicographically
    smallest index tuple.
    """
    gains = optimizer.multi_beam_gains(codebook, n_rf, geometry, anchor)
    return optimizer.select_from_gains(gains, bound)
