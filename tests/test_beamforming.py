import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwsync import beamforming, channel
from mmwsync.beamforming import BeamSet
from mmwsync.channel import ArrayGeometry


def brute_force_composite(beam_set: BeamSet, tx_steering: np.ndarray, n_a: int) -> complex:
    """Per-subarray loop oracle for the composite effective gain."""
    total = 0.0 + 0.0j
    for j, idx in enumerate(beam_set.indices):
        block = tx_steering[j * n_a : (j + 1) * n_a]
        p = beam_set.codebook.codewords[idx]
        total += sum(np.conj(block[a]) * p[a] for a in range(n_a))
    return total


class TestDftCodebook:
    def test_sizes(self):
        cb = beamforming.dft_codebook(8, 2)
        assert cb.n_beam == 16
        assert cb.n_a == 8

    def test_per_element_power(self):
        cb = beamforming.dft_codebook(8, 2)
        np.testing.assert_allclose(np.abs(cb.codewords), 1 / math.sqrt(8), atol=1e-14)

    def test_orthogonality_without_oversampling(self):
        cb = beamforming.dft_codebook(8, 1)
        gram = cb.codewords @ cb.codewords.conj().T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


class TestCompositeBeamGain:
    def test_single_chain_reduces_to_inner_product(self):
        cb = beamforming.dft_codebook(8, 2)
        bs = BeamSet(codebook=cb, indices=(5,))
        a = channel.steering_vector(ArrayGeometry(kind="ula", n_elements=8), 0.31)
        got = beamforming.composite_beam_gain(bs, a)
        assert got == pytest.approx(complex(np.conj(a) @ cb.codewords[5]), abs=1e-12)

    def test_boresight_coherent_sum(self):
        n_a, n_rf = 8, 4
        cb = beamforming.dft_codebook(n_a, 2)
        bs = BeamSet(codebook=cb, indices=(0,) * n_rf)  # codeword 0 points at boresight
        a = channel.steering_vector(ArrayGeometry(kind="ula", n_elements=n_a * n_rf), 0.0)
        got = beamforming.composite_beam_gain(bs, a)
        assert abs(got) == pytest.approx(n_rf * math.sqrt(n_a), rel=1e-12)

    def test_reference_configuration_pattern_against_brute_force(self):
        # ULA with 8 elements, 4 chains, oversampled-by-2 DFT codebook
        n_a, n_rf = 2, 4
        cb = beamforming.dft_codebook(n_a, 2)
        geom = ArrayGeometry(kind="ula", n_elements=8)
        bs = BeamSet(codebook=cb, indices=(0, 1, 3, 2))
        for az in np.linspace(-math.pi / 2, math.pi / 2, 181):
            a = channel.steering_vector(geom, az)
            got = beamforming.composite_beam_gain(bs, a)
            oracle = brute_force_composite(bs, a, n_a)
            assert got == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self):
        cb = beamforming.dft_codebook(8, 2)
        bs = BeamSet(codebook=cb, indices=(0, 1))
        with pytest.raises(ValueError):
            beamforming.composite_beam_gain(bs, np.ones(8))

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=4, max_size=4),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_coherent_upper_bound(self, indices, az):
        cb = beamforming.dft_codebook(8, 2)
        bs = BeamSet(codebook=cb, indices=tuple(indices))
        a = channel.steering_vector(ArrayGeometry(kind="ula", n_elements=32), az)
        assert abs(beamforming.composite_beam_gain(bs, a)) <= 4 * math.sqrt(8) + 1e-9


class TestEffectiveTxVector:
    def test_effective_vector_stacks_scaled_codewords(self):
        cb = beamforming.dft_codebook(4, 2)
        bs = BeamSet(codebook=cb, indices=(1, 6, 3))
        f = beamforming.effective_tx_vector(bs)
        assert f.shape == (12,)
        for j in range(3):
            np.testing.assert_allclose(
                f[4 * j : 4 * (j + 1)], cb.codewords[bs.indices[j]] / math.sqrt(3), rtol=1e-15
            )
        assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_common_signal_product_matches_composite_gain(self):
        # flat rank-1 channel: receiving the multi-beam transmission equals the
        # scalar composite channel scaled by 1/sqrt(n_rf)
        rng = np.random.default_rng(4)
        n_a, n_rf = 8, 4
        cb = beamforming.dft_codebook(n_a, 2)
        geom_tx = ArrayGeometry(kind="ula", n_elements=n_a * n_rf)
        geom_rx = ArrayGeometry(kind="ula", n_elements=4)
        for _ in range(20):
            indices = tuple(rng.integers(0, cb.n_beam, size=n_rf))
            bs = BeamSet(codebook=cb, indices=indices)
            az, aoa = rng.uniform(-1, 1, size=2)
            g = rng.standard_normal() + 1j * rng.standard_normal()
            a_tx = channel.steering_vector(geom_tx, az)
            a_rx = channel.steering_vector(geom_rx, aoa)
            h_mat = g * np.outer(a_rx, np.conj(a_tx))
            direct = h_mat @ beamforming.effective_tx_vector(bs)
            h_comp = beamforming.composite_beam_gain(bs, a_tx)
            scalar = g * a_rx * h_comp / math.sqrt(n_rf)
            np.testing.assert_allclose(direct, scalar, atol=1e-9)

    def test_permutation_changes_composite_gain(self):
        cb = beamforming.dft_codebook(4, 2)
        geom = ArrayGeometry(kind="ula", n_elements=8)
        a = channel.steering_vector(geom, 0.37)
        g1 = beamforming.composite_beam_gain(BeamSet(codebook=cb, indices=(1, 6)), a)
        g2 = beamforming.composite_beam_gain(BeamSet(codebook=cb, indices=(6, 1)), a)
        assert abs(g1 - g2) > 1e-6

    def test_index_validation(self):
        cb = beamforming.dft_codebook(4, 1)
        with pytest.raises(ValueError):
            BeamSet(codebook=cb, indices=(4,))
        with pytest.raises(ValueError):
            BeamSet(codebook=cb, indices=())
