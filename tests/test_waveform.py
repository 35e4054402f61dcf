import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import cyclic_autocorrelation
from mmwsync import waveform
from mmwsync.config import Scenario

ROOT = Path(__file__).resolve().parents[1]


def brute_force_cyclic_autocorr(samples: np.ndarray) -> np.ndarray:
    """O(L^2) oracle: chi[v] = sum_m s[m] conj(s[(m+v) mod L])."""
    length = len(samples)
    out = np.zeros(length, dtype=complex)
    for v in range(length):
        acc = 0.0 + 0.0j
        for m in range(length):
            acc += samples[m] * np.conj(samples[(m + v) % length])
        out[v] = acc
    return out


def dft_oracle(x: np.ndarray) -> np.ndarray:
    """Explicit forward DFT matrix product, unitary scaling."""
    n = len(x)
    k = np.arange(n)
    mat = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return mat @ x / math.sqrt(n)


class TestGenerateZc:
    def test_first_sample_is_one(self):
        seq = waveform.generate_zc(34, 63)
        assert seq[0] == pytest.approx(1 + 0j)

    def test_unit_modulus(self):
        seq = waveform.generate_zc(34, 63)
        np.testing.assert_allclose(np.abs(seq), 1.0, atol=1e-12)

    def test_autocorr_impulse_against_brute_force(self):
        seq = waveform.generate_zc(34, 63)
        oracle = brute_force_cyclic_autocorr(seq) / 63
        got = cyclic_autocorrelation(seq)
        np.testing.assert_allclose(got, oracle, atol=1e-10)
        assert abs(got[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(got[1:])) < 1e-9

    def test_raw_autocorr_scales_with_length(self):
        seq = waveform.generate_zc(34, 63)
        raw = cyclic_autocorrelation(seq, normalized=False)
        assert abs(raw[0]) == pytest.approx(63.0, rel=1e-12)

    @given(st.integers(min_value=1, max_value=62))
    @settings(max_examples=20, deadline=None)
    def test_coprime_roots_have_null_sidelobes(self, root):
        if math.gcd(root, 63) != 1:
            return
        seq = waveform.generate_zc(root, 63)
        corr = cyclic_autocorrelation(seq)
        assert np.max(np.abs(corr[1:])) < 1e-9

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            waveform.generate_zc(63, 63)
        with pytest.raises(ValueError):
            waveform.generate_zc(-1, 63)

    def test_zero_length(self):
        with pytest.raises(ValueError):
            waveform.generate_zc(0, 0)


class TestMapToGrid:
    """The grid step of make_sync_waveform: the sequence on the central band, DC punctured."""

    def test_band_indices_512(self):
        symbols = waveform.make_sync_waveform(34, 63, 512, 64).symbols
        nz = np.nonzero(symbols)[0]
        assert nz[0] == 225
        assert nz[-1] == 287

    def test_dc_punctured(self):
        symbols = waveform.make_sync_waveform(34, 63, 512, 64).symbols
        assert symbols[256] == 0

    def test_degenerate_single_element(self):
        symbols = waveform.make_sync_waveform(0, 1, 4, 0).symbols
        assert np.count_nonzero(symbols) == 1

    def test_band_extraction_recovers_punctured_sequence(self):
        seq = waveform.generate_zc(34, 63)
        symbols = waveform.make_sync_waveform(34, 63, 512, 64).symbols
        expect = seq.copy()
        expect[256 - 225] = 0.0
        np.testing.assert_array_equal(symbols[225 : 225 + 63], expect)

    def test_sequence_longer_than_grid(self):
        with pytest.raises(ValueError):
            waveform.make_sync_waveform(34, 63, 63, 0)


class TestModulate:
    """The time-domain step of make_sync_waveform: unitary IDFT and cyclic prefix."""

    def test_single_dc_bin_gives_constant(self):
        # a length-1 sequence touches DC (index N//2) and is kept: the IDFT of
        # that one bin has constant modulus 1/sqrt(N), alternating in sign
        wf = waveform.make_sync_waveform(0, 1, 4, 0)
        assert wf.symbols[2] == 1.0
        np.testing.assert_allclose(wf.time_samples, [0.5, -0.5, 0.5, -0.5], atol=1e-12)

    def test_round_trip_against_dft_oracle(self):
        wf = waveform.make_sync_waveform(34, 63, 512, 64)
        np.testing.assert_allclose(dft_oracle(wf.time_samples), wf.symbols, atol=1e-10)

    def test_cyclic_prefix_copies_tail(self):
        wf = waveform.make_sync_waveform(34, 63, 512, 64)
        np.testing.assert_array_equal(wf.samples_with_cp[:64], wf.time_samples[-64:])
        np.testing.assert_array_equal(wf.samples_with_cp[64:], wf.time_samples)

    def test_cp_length_validation(self):
        with pytest.raises(ValueError):
            waveform.make_sync_waveform(34, 63, 512, 512)
        with pytest.raises(ValueError):
            waveform.make_sync_waveform(34, 63, 512, -1)


class TestWaveformProperties:
    def test_parseval(self):
        wf = waveform.make_sync_waveform(34, 63, 512, 64)
        time_energy = np.sum(np.abs(wf.time_samples) ** 2)
        freq_energy = np.sum(np.abs(wf.symbols) ** 2)
        assert time_energy == pytest.approx(freq_energy, rel=1e-9)

    @given(root=st.sampled_from([1, 2, 5, 11, 25, 29, 34, 47, 62]))
    @settings(max_examples=9, deadline=None)
    def test_single_dominant_timing_peak(self, root):
        # time-domain autocorrelation of the mapped waveform: single dominant
        # peak at lag zero, sidelobes well below it
        wf = waveform.make_sync_waveform(root, 63, 512, 64)
        d = wf.time_samples
        corr = np.fft.ifft(np.abs(np.fft.fft(d)) ** 2)
        mag = np.abs(corr)
        # the occupied band makes the main lobe a few samples wide; compare
        # against everything outside it
        assert mag[0] == pytest.approx(np.max(mag), rel=1e-12)
        assert np.max(mag[12:-12]) < 0.35 * mag[0]

    def test_samples_are_immutable(self):
        wf = waveform.make_sync_waveform(34, 63, 512, 64)
        for array in (wf.symbols, wf.time_samples, wf.samples_with_cp, waveform.generate_zc(34, 63)):
            with pytest.raises(ValueError):
                array[0] = 0


def test_microbenchmark_measures_the_program_numerology():
    """bench/microbench.py times the layers at constants of its own: read them
    without importing the module and hold them to the program's."""
    constants = {}
    for node in ast.parse((ROOT / "bench" / "microbench.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            constants.update(zip((t.id for t in node.targets[0].elts), ast.literal_eval(node.value)))
    scenario = Scenario()
    program = {"N": scenario.n_subcarriers, "CP": waveform.CP_LENGTH, "N_ZC": waveform.N_ZC,
               "ROOT": waveform.ZC_ROOT, "M_TOT": scenario.m_tot, "N_TOT": scenario.n_tot,
               "WINDOW": scenario.n_subcarriers * scenario.t_ue}
    assert {name: constants[name] for name in program} == program
