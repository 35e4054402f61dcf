import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from closed_forms import select_multi_beam
from mmwsync import beamforming, channel, cli, optimizer, sqnr
from mmwsync import montecarlo as mc
from mmwsync.beamforming import BeamSet
from mmwsync.channel import ArrayGeometry
from mmwsync.optimizer import BoundParams, SectorRanges


BOUND = BoundParams(lambda_max=100.0, xi_max=0.1175)
AZ_SECTOR = SectorRanges(azimuth=(-math.pi / 3, math.pi / 3), elevation=None)
ROOT = Path(__file__).resolve().parents[1]


def brute_force_multi_beam(codebook, n_rf, geometry, anchor, bound):
    """Independent enumeration oracle: itertools product + public objective."""
    a_tx = channel.steering_vector(geometry, anchor[0], anchor[1])
    best = None
    for indices in itertools.product(range(codebook.n_beam), repeat=n_rf):
        gain = abs(
            beamforming.composite_beam_gain(BeamSet(codebook=codebook, indices=indices), a_tx)
        ) ** 2
        obj = sqnr.sqnr_lower_bound_single(gain, bound.lambda_max, bound.xi_max, bound.noise_var)
        if best is None or obj > best[0] or (obj == best[0] and indices < best[1]):
            best = (obj, indices)
    return best


class TestAnchorGrid:
    def test_single_slot_center(self):
        anchors = optimizer.build_anchor_grid(1, AZ_SECTOR)
        np.testing.assert_allclose(anchors, [[0.0, 0.0]], atol=1e-12)

    def test_four_slots_uniform_azimuth(self):
        anchors = optimizer.build_anchor_grid(4, AZ_SECTOR)
        expect = np.deg2rad([-45.0, -15.0, 15.0, 45.0])
        np.testing.assert_allclose(anchors[:, 0], expect, atol=1e-12)
        np.testing.assert_array_equal(anchors[:, 1], 0.0)

    def test_anchors_inside_sector(self):
        sector = SectorRanges()
        anchors = optimizer.build_anchor_grid(8, sector)
        assert np.all(anchors[:, 0] > sector.azimuth[0])
        assert np.all(anchors[:, 0] < sector.azimuth[1])
        assert np.all(anchors[:, 1] > sector.elevation[0])
        assert np.all(anchors[:, 1] < sector.elevation[1])

    def test_two_dimensional_factorization_azimuth_major(self):
        anchors = optimizer.build_anchor_grid(8, SectorRanges())
        # 4 azimuths by 2 elevations
        assert len(set(anchors[:, 0])) == 4 and len(set(anchors[:, 1])) == 2
        # azimuth-major raster: elevation varies fastest
        assert anchors[0, 0] == anchors[1, 0]
        assert anchors[0, 1] != anchors[1, 1]

    def test_slot_anchor_bijection(self):
        anchors = optimizer.build_anchor_grid(8, SectorRanges())
        assert anchors.shape == (8, 2)
        assert len({tuple(a) for a in anchors}) == 8

    def test_empty_sector(self):
        with pytest.raises(ValueError):
            SectorRanges(azimuth=(0.5, 0.5), elevation=None)
        with pytest.raises(ValueError):
            optimizer.build_anchor_grid(0, AZ_SECTOR)


class TestSelectSingleBeam:
    """Single-stream selection: the one-chain search on a full-array codebook."""

    def test_anchor_on_beam_direction(self):
        n_a = 16
        cb = beamforming.dft_codebook(n_a, 1)
        geom = ArrayGeometry(kind="ula", n_elements=n_a)
        # codeword q points at sin(az) = 2q / n_beam (wrapped); pick q = 3
        az = math.asin(2 * 3 / 16)
        sel = select_multi_beam(cb, 1, geom, (az, 0.0), BOUND)
        assert sel.indices == (3,)

    def test_tie_resolves_to_lowest_index(self):
        cb = beamforming.dft_codebook(16, 1)
        # codeword 3 again at index 0, so the best gain occurs at indices 0 and 4
        doubled = beamforming.Codebook(codewords=np.concatenate([cb.codewords[[3]], cb.codewords]))
        geom = ArrayGeometry(kind="ula", n_elements=16)
        sel = select_multi_beam(doubled, 1, geom, (math.asin(2 * 3 / 16), 0.0), BOUND)
        assert sel.indices == (0,)

    def test_iteration_count(self):
        cb = beamforming.dft_codebook(32, 2)
        geom = ArrayGeometry(kind="ula", n_elements=32)
        sel = select_multi_beam(cb, 1, geom, (0.2, 0.0), BOUND)
        assert sel.iteration_count == 64

    def test_selection_invariant_to_codebook_order(self):
        cb = beamforming.dft_codebook(16, 2)
        geom = ArrayGeometry(kind="ula", n_elements=16)
        rng = np.random.default_rng(8)
        perm = rng.permutation(cb.n_beam)
        cb_perm = beamforming.Codebook(codewords=cb.codewords[perm])
        for az in rng.uniform(-1.0, 1.0, size=10):
            a = select_multi_beam(cb, 1, geom, (az, 0.0), BOUND)
            b = select_multi_beam(cb_perm, 1, geom, (az, 0.0), BOUND)
            np.testing.assert_allclose(
                cb.codewords[a.indices[0]], cb_perm.codewords[b.indices[0]], atol=1e-12
            )


class TestSelectMultiBeam:
    def test_singleton_codebook(self):
        cb = beamforming.dft_codebook(4, 1)
        single = beamforming.Codebook(codewords=cb.codewords[:1])
        geom = ArrayGeometry(kind="ula", n_elements=12)
        sel = select_multi_beam(single, 3, geom, (0.1, 0.0), BOUND)
        assert sel.indices == (0, 0, 0)
        assert sel.iteration_count == 1

    def test_iteration_count_16_4(self):
        cb = beamforming.dft_codebook(8, 2)
        geom = ArrayGeometry(kind="ula", n_elements=32)
        sel = select_multi_beam(cb, 4, geom, (0.3, 0.0), BOUND)
        assert sel.iteration_count == 16**4 == 65536

    def test_matches_brute_force_small_instances(self):
        rng = np.random.default_rng(17)
        for n_beam_ovs, n_rf in [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
            n_a = 2
            cb = beamforming.dft_codebook(n_a, n_beam_ovs)
            geom = ArrayGeometry(kind="ula", n_elements=n_a * n_rf)
            for _ in range(10):
                anchor = (rng.uniform(-1.0, 1.0), 0.0)
                sel = select_multi_beam(cb, n_rf, geom, anchor, BOUND)
                _, indices = brute_force_multi_beam(cb, n_rf, geom, anchor, BOUND)
                assert sel.indices == indices

    def test_beats_random_candidates(self):
        cb = beamforming.dft_codebook(8, 2)
        geom = ArrayGeometry(kind="ula", n_elements=32)
        anchor = (0.42, 0.0)
        sel = select_multi_beam(cb, 4, geom, anchor, BOUND)
        a_tx = channel.steering_vector(geom, *anchor)

        def objective(indices):
            gain = abs(
                beamforming.composite_beam_gain(BeamSet(codebook=cb, indices=indices), a_tx)
            ) ** 2
            return sqnr.sqnr_lower_bound_single(gain, BOUND.lambda_max, BOUND.xi_max, BOUND.noise_var)

        chosen = objective(sel.indices)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            assert objective(tuple(rng.integers(0, 16, size=4))) <= chosen + 1e-12

    def test_budget_error_names_count(self):
        cb = beamforming.dft_codebook(8, 2)
        geom = ArrayGeometry(kind="ula", n_elements=32)
        with pytest.raises(ValueError, match="65536"):
            select_multi_beam(cb, 4, geom, (0.0, 0.0), BOUND, budget=1000)


SHIPPED = sorted((ROOT / "configs").glob("*.yaml")) + sorted((ROOT / "bench" / "scenarios").glob("*.yaml"))
SHIPPED_IDS = [f"{p.parent.name}/{p.stem}" for p in SHIPPED]


def slot_tables(scenario):
    """{method: [gain table of each slot]}, each table the one ``slot_beam_plans`` searches."""
    geom = mc.bs_geometry(scenario)
    anchors = optimizer.build_anchor_grid(scenario.t_bs, mc.sector_ranges(scenario))
    tables = {}
    for method, n_rf in (("proposed", scenario.n_rf), ("single_stream", 1)):
        cb = beamforming.dft_codebook(scenario.n_tot // n_rf, scenario.codebook_oversampling)
        tables[method] = [optimizer.multi_beam_gains(cb, n_rf, geom, tuple(a), scenario.search_budget)
                          for a in anchors]
    return tables


def chosen_gains(scenario):
    """{method: [(chosen gain, slot table)]} of the scenario's beam plans."""
    plans = mc.slot_beam_plans(scenario)
    bits = scenario.adc_bits[0]
    return {method: [(table[tuple(idx)], table) for idx, table in zip(plans[(method, bits)].indices, tables)]
            for method, tables in slot_tables(scenario).items()}


@pytest.mark.parametrize("path", SHIPPED, ids=SHIPPED_IDS)
def test_one_chain_table_is_the_full_array_inner_product(path):
    scenario = cli.parse_config(path)
    geom = mc.bs_geometry(scenario)
    full_cb = beamforming.dft_codebook(scenario.n_tot, scenario.codebook_oversampling)
    for anchor in optimizer.build_anchor_grid(scenario.t_bs, mc.sector_ranges(scenario)):
        a_tx = channel.steering_vector(geom, anchor[0], anchor[1])
        table = optimizer.multi_beam_gains(full_cb, 1, geom, tuple(anchor))
        np.testing.assert_array_equal(table, np.abs(np.conj(a_tx) @ full_cb.codewords.T) ** 2)


class TestGainDistortionTradeOff:
    """Both methods' plans against their gain tables: the bound peaks at
    s = 2 lambda_max, so a slot leaves its table's maximum gain only when
    2 lambda_max falls below it."""

    @pytest.mark.parametrize("path", SHIPPED, ids=SHIPPED_IDS)
    def test_default_lambda_picks_every_maximum_gain(self, path):
        scenario = cli.parse_config(path)
        assert scenario.lambda_max_inv_db == -20.0
        for method, picks in chosen_gains(scenario).items():
            assert [gain == table.max() for gain, table in picks] == [True] * scenario.t_bs, method

    @pytest.mark.parametrize("inv_db, left", [(-15.0, {"proposed": 2, "single_stream": 0}),
                                              (-10.0, {"proposed": 8, "single_stream": 8})])
    def test_slots_leaving_the_maximum(self, inv_db, left):
        scenario = replace(cli.parse_config(ROOT / "configs" / "sqnr_single_ue.yaml"), lambda_max_inv_db=inv_db)
        counts = {method: sum(gain != table.max() for gain, table in picks)
                  for method, picks in chosen_gains(scenario).items()}
        assert counts == left

    @pytest.mark.parametrize("inv_db", [-20.0, -15.0, -14.0, -12.0, -11.0, -10.0])
    def test_chosen_gain_brackets_twice_lambda(self, inv_db):
        scenario = replace(cli.parse_config(ROOT / "configs" / "sqnr_single_ue.yaml"), lambda_max_inv_db=inv_db)
        peak = 2 * scenario.lambda_max
        for method, picks in chosen_gains(scenario).items():
            for gain, table in picks:
                below, above = table[table <= peak], table[table >= peak]
                bracket = {float(below.max())} if below.size else set()
                bracket |= {float(above.min())} if above.size else set()
                assert float(gain) in bracket, (method, gain, bracket)

