import ast
import hashlib
import json
import math
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from closed_forms import SqnrInputs, codebook_ratio_argmax, correlation_ratio_check, sqnr_single_beam
from mmwsync import montecarlo as mc
from mmwsync import quantization
from mmwsync.config import CellConfig, ChannelConfig, Scenario, SectorConfig, scenario_hash


TINY = Scenario(
    trials=8,
    inner_repeats=8,
    t_bs=4,
    adc_bits=(2.0, math.inf),
    snr_db_grid=(0.0,),
    seed=31,
)


class TestScenario:
    def test_hash_stable(self):
        assert scenario_hash(TINY) == scenario_hash(Scenario(**{**TINY.__dict__}))

    def test_hash_changes_with_fields(self):
        other = Scenario(**{**TINY.__dict__, "seed": 32})
        assert scenario_hash(other) != scenario_hash(TINY)

    def test_hash_is_its_own_blob_after_an_equal_scenario(self):
        # equal scenarios of different form: adc_bits 3.0 and 3 (as YAML [3, .inf] parses)
        as_float = Scenario(adc_bits=(3.0, math.inf), seed=918273)
        as_int = Scenario(adc_bits=(3, math.inf), seed=918273)
        assert as_float == as_int
        scenario_hash(as_float)
        for scenario in (as_int, as_float):
            blob = json.dumps(asdict(scenario), sort_keys=True, default=str)
            assert scenario_hash(scenario) == hashlib.sha256(blob.encode()).hexdigest()[:16]

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(mode="warp")
        with pytest.raises(ValueError):
            Scenario(n_tot=30, n_rf=4)
        with pytest.raises(ValueError):
            Scenario(adc_bits=(0.5,))
        with pytest.raises(ValueError):
            Scenario(snr_db_grid=())

    def test_noise_variance_definition(self):
        s = Scenario()
        # 62 occupied carriers of 512: E_d / N at 0 dB
        assert mc.noise_variance(s, 0.0) == pytest.approx(62 / 512)
        assert mc.noise_variance(s, -10.0) == pytest.approx(620 / 512)

    def test_asymmetric_sector_only_in_single_ue(self):
        sector = SectorConfig(azimuth_deg=(-30.0, 60.0))
        assert Scenario(sector=sector).sector == sector
        for mode in ("multi_ue_cell", "multi_cell"):
            with pytest.raises(ValueError, match="sector.azimuth_deg"):
                Scenario(mode=mode, sector=sector)

    def test_lambda_max(self):
        assert Scenario(lambda_max_inv_db=-20.0).lambda_max == pytest.approx(100.0)


class TestBeamPlans:
    def test_plan_shapes_and_power(self):
        plans = mc.slot_beam_plans(TINY)
        assert set(plans) == {
            ("proposed", 2.0),
            ("single_stream", 2.0),
            ("proposed", math.inf),
            ("single_stream", math.inf),
        }
        for (method, _), plan in plans.items():
            assert plan.tx_vectors.shape == (4, 32)
            np.testing.assert_allclose(
                np.linalg.norm(plan.tx_vectors, axis=1), 1.0, rtol=1e-9
            )
        assert plans[("proposed", 2.0)].iteration_count == 4 * 16**4
        assert plans[("single_stream", 2.0)].iteration_count == 4 * 64

    def test_serving_slot(self):
        grid = mc.optimizer.build_anchor_grid(4, (math.radians(-60.0), math.radians(60.0)))
        assert mc.serving_slot(grid, math.radians(-45.0)) == 0
        assert mc.serving_slot(grid, math.radians(44.0)) == 3


class TestReproducibility:
    def test_sqnr_rows_identical(self):
        a = mc.run_sqnr_experiment(TINY)
        b = mc.run_sqnr_experiment(TINY)
        assert a.rows == b.rows
        assert a.aggregates == b.aggregates

    # three worker processes of 43-44 trials each, so the pool really runs
    @pytest.mark.parametrize(
        "run, scenario",
        [
            (mc.run_sqnr_experiment, Scenario(**{**TINY.__dict__, "trials": 130})),
            (mc.run_timing_experiment, Scenario(**{**TINY.__dict__, "trials": 130, "m_tot": 4})),
            (
                mc.run_multicell_experiment,
                Scenario(mode="multi_cell", trials=130, t_bs=2, t_ue=2, m_tot=4,
                         adc_bits=(2.0,), seed=12),
            ),
        ],
        ids=["sqnr", "timing", "multicell"],
    )
    def test_workers_do_not_change_results(self, run, scenario):
        serial = run(scenario, workers=1)
        parallel = run(scenario, workers=3)
        assert serial.rows == parallel.rows

    # contiguous slices of near-equal length, one per worker
    @pytest.mark.parametrize("trials, workers, slices", [
        (16, 2, [(0, 8), (8, 16)]),
        (10, 3, [(0, 3), (3, 6), (6, 10)]),
    ])
    def test_trials_split_into_one_slice_per_worker(self, serial_pool, trials, workers, slices):
        mc.run_sqnr_experiment(Scenario(**{**TINY.__dict__, "trials": trials}), workers=workers)
        assert serial_pool.sizes == [workers]
        assert serial_pool.slices == slices

    def test_one_slice_per_worker_at_most_one_per_trial(self, serial_pool):
        mc.run_sqnr_experiment(Scenario(**{**TINY.__dict__, "trials": 130}), workers=500)
        assert serial_pool.sizes == [130]
        assert serial_pool.slices == [(trial, trial + 1) for trial in range(130)]

    def test_one_worker_builds_no_pool(self, serial_pool):
        mc.run_sqnr_experiment(Scenario(**{**TINY.__dict__, "trials": 130}), workers=1)
        assert serial_pool.sizes == serial_pool.slices == []

    # a trial's draws depend on (seed, trial) alone, so adding an arm or trials keeps the rows
    @pytest.mark.parametrize(
        "run, scenario",
        [
            (mc.run_sqnr_experiment, TINY),
            (mc.run_timing_experiment, Scenario(**{**TINY.__dict__, "m_tot": 4})),
            (mc.run_multicell_experiment, Scenario(mode="multi_cell", t_bs=2, t_ue=2, m_tot=4, seed=12)),
        ],
        ids=["sqnr", "timing", "multicell"],
    )
    def test_added_arm_and_trials_keep_the_rows(self, run, scenario):
        alone = run(replace(scenario, adc_bits=(2,), trials=2)).rows
        extended = run(replace(scenario, adc_bits=(2, math.inf), trials=3)).rows
        assert alone == [r for r in extended if r["bits"] == 2][: len(alone)]

    def test_timing_rows_identical(self):
        s = Scenario(**{**TINY.__dict__, "trials": 6})
        a = mc.run_timing_experiment(s)
        b = mc.run_timing_experiment(s)
        assert a.rows == b.rows


GENERATOR_METHODS = {name for name in dir(np.random.Generator) if not name.startswith("_")}


def drawing_functions(source: str) -> list[str]:
    """The top-level functions of ``source`` that call a ``Generator`` method
    or ``_unit_noise``, or name ``np.random``, in order of definition."""
    def draws(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            return (isinstance(func, ast.Attribute) and func.attr in GENERATOR_METHODS
                    or isinstance(func, ast.Name) and func.id == "_unit_noise")
        return isinstance(node, ast.Attribute) and node.attr == "random"

    return [func.name for func in ast.parse(source).body
            if isinstance(func, ast.FunctionDef) and any(map(draws, ast.walk(func)))]


def nu_per_trial(scenario: Scenario) -> list[int]:
    """The true burst timing of each trial of a timing run, in trial order."""
    return list({r["trial"]: r["nu_true"] for r in mc.run_timing_experiment(scenario).rows}.values())


NU_SCENARIO = Scenario(trials=6, t_bs=8, adc_bits=(2.0,), snr_db_grid=(0.0,), seed=70)


class TestDrawRule:
    def test_only_trials_draws(self):
        """``_trials`` draws every random number of a trial, ``_unit_noise``
        being the noise's draw primitive; the experiment chunks hold no generator."""
        assert drawing_functions(Path(mc.__file__).read_text()) == ["_unit_noise", "_trials"]

    @pytest.mark.parametrize("change", [{"m_tot": 4}, {"n_rf": 2}, {"t_bs": 2}, {"adc_bits": (1.0, math.inf)}],
                             ids=["m_tot", "n_rf", "t_bs", "adc_bits"])
    def test_timing_nu_ignores_the_arrays_and_the_arms(self, change):
        assert nu_per_trial(replace(NU_SCENARIO, **change)) == nu_per_trial(NU_SCENARIO)

    @pytest.mark.xfail(strict=True, reason="one generator draws the drop and the links before nu, so a clustered "
                                           "link or a cell drop moves nu (ROADMAP item 7)")
    def test_regime_and_mode_share_nu(self):
        # seed 70, trials 0-5: nu = 2615, 3167, 3030, 208, 2642, 2665 flat and 470, 713, 1450, 3065,
        # 3702, 1063 clustered
        flat = nu_per_trial(NU_SCENARIO)
        assert nu_per_trial(replace(NU_SCENARIO, channel=ChannelConfig("clustered"))) == flat
        assert nu_per_trial(replace(NU_SCENARIO, mode="multi_ue_cell")) == flat


class TestModes:
    @pytest.mark.parametrize(
        "run", [mc.run_sqnr_experiment, mc.run_timing_experiment], ids=["sqnr", "timing"]
    )
    def test_multi_cell_rejected_naming_mode(self, run):
        with pytest.raises(ValueError, match="mode"):
            run(Scenario(**{**TINY.__dict__, "mode": "multi_cell"}))

    @pytest.mark.parametrize("mode", ["single_ue", "multi_ue_cell"])
    def test_sqnr_and_timing_draw_the_same_paths(self, monkeypatch, mode):
        s = Scenario(
            **{**TINY.__dict__, "mode": mode, "trials": 3, "channel": ChannelConfig("clustered")}
        )
        original = mc.channel.clustered_paths
        seen = {"sqnr": [], "timing": []}
        for name, run in (("sqnr", mc.run_sqnr_experiment), ("timing", mc.run_timing_experiment)):

            def recording(*args, _seen=seen[name], **kwargs):
                _seen.append(original(*args, **kwargs))
                return _seen[-1]

            monkeypatch.setattr(mc.channel, "clustered_paths", recording)
            run(s)
        assert len(seen["sqnr"]) == len(seen["timing"]) == 3
        for a, b in zip(seen["sqnr"], seen["timing"]):
            for field in ("gains", "aod_az", "aoa", "delays"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize(
        "run, scenario",
        [
            (mc.run_sqnr_experiment, TINY),
            (mc.run_timing_experiment, TINY),
            (mc.run_multicell_experiment, Scenario(mode="multi_cell", trials=2, t_bs=2, t_ue=2, m_tot=4, seed=12)),
        ],
        ids=["sqnr", "timing", "multicell"],
    )
    def test_workers_below_one_rejected_before_any_trial(self, monkeypatch, run, scenario, workers):
        def no_search(*args):
            raise AssertionError("the beam search ran")

        monkeypatch.setattr(mc, "slot_beam_plans", no_search)
        with pytest.raises(ValueError, match="workers"):
            run(scenario, workers=workers)


class TestSqnrExperiment:
    def test_infinite_snr_rejected_before_any_trial(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the beam search ran")

        monkeypatch.setattr(mc, "slot_beam_plans", no_search)
        with pytest.raises(ValueError, match="snr_db_grid"):
            mc.run_sqnr_experiment(Scenario(**{**TINY.__dict__, "snr_db_grid": (0.0, math.inf)}))

    def test_rows_and_aggregates(self):
        summary = mc.run_sqnr_experiment(TINY)
        assert len(summary.rows) == 8 * 4  # trials x arms
        for row in summary.rows:
            assert set(row) == {"method", "bits", "snr_db", "sqnr_db_sample"}
        for agg in summary.aggregates:
            assert agg["ci95_lo"] <= agg["mean_sqnr_db"] <= agg["ci95_hi"]
        assert summary.meta["scenario_hash"] == scenario_hash(TINY)
        assert "beam_plans" in summary.meta

    def test_quantization_lowers_sqnr(self):
        s = Scenario(**{**TINY.__dict__, "trials": 48})
        summary = mc.run_sqnr_experiment(s)
        means = {
            (a["method"], a["bits"]): a["mean_sqnr_db"] for a in summary.aggregates
        }
        assert means[("single_stream", 2.0)] < means[("single_stream", math.inf)]
        assert means[("proposed", 2.0)] < means[("proposed", math.inf)]

    def test_cdf_monotone(self):
        summary = mc.run_sqnr_experiment(TINY)
        vals = np.sort([r["sqnr_db_sample"] for r in summary.rows])
        cdf = np.arange(1, len(vals) + 1) / len(vals)
        assert np.all(np.diff(cdf) >= 0)
        assert 0 < cdf[0] and cdf[-1] == 1.0


class TestTimingExperiment:
    def test_row_schema_and_success_flags(self):
        s = Scenario(**{**TINY.__dict__, "trials": 6, "snr_db_grid": (0.0,)})
        summary = mc.run_timing_experiment(s)
        for row in summary.rows:
            assert row["success"] == int(row["nu_hat"] == row["nu_true"])
            assert 1 <= row["nu_true"] <= 512 * 9
            assert 0 <= row["slot"] < s.t_bs
        for agg in summary.aggregates:
            assert 0.0 <= agg["wilson_lo"] <= agg["success_rate"] <= agg["wilson_hi"] <= 1.0

    def test_high_snr_infinite_resolution_flat_is_exact(self):
        s = Scenario(
            trials=12,
            t_bs=4,
            adc_bits=(math.inf,),
            snr_db_grid=(40.0,),
            seed=9,
            channel=ChannelConfig(regime="flat"),
        )
        summary = mc.run_timing_experiment(s)
        agg = [a for a in summary.aggregates if a["method"] == "proposed"][0]
        assert agg["nmse"] == 0.0
        assert agg["success_rate"] == 1.0


class TestTimingNmse:
    def test_all_exact(self):
        assert mc.timing_nmse([10] * 5, [10] * 5) == 0.0

    def test_single_trial_value(self):
        assert mc.timing_nmse([100], [90]) == pytest.approx(0.01)

    def test_uses_stored_truth(self):
        assert mc.timing_nmse([100, 200], [90, 200]) == pytest.approx(0.005)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            mc.timing_nmse([0], [5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.timing_nmse([], [])

    def test_unpaired_rejected(self):
        with pytest.raises(ValueError):
            mc.timing_nmse([5, 6], [5])


class TestWilsonInterval:
    def test_eight_of_ten(self):
        assert mc.wilson_interval(8, 10) == pytest.approx((0.49016, 0.94332), abs=5e-6)

    def test_no_successes_reach_zero(self):
        lo, hi = mc.wilson_interval(0, 10)
        assert lo == 0.0 < hi

    def test_all_successes_reach_one(self):
        lo, hi = mc.wilson_interval(10, 10)
        assert lo < hi == 1.0

    def test_half_is_symmetric_about_one_half(self):
        lo, hi = mc.wilson_interval(5, 10)
        assert lo + hi == pytest.approx(1.0, abs=1e-15)


class TestMulticellExperiment:
    def test_smoke_and_access_probabilities(self):
        s = Scenario(
            mode="multi_cell",
            trials=10,
            t_bs=4,
            adc_bits=(2.0,),
            snr_db_grid=(0.0,),
            seed=12,
            channel=ChannelConfig(regime="flat"),
            cell=CellConfig(),
        )
        summary = mc.run_multicell_experiment(s)
        for agg in summary.aggregates:
            total = agg["access_prob_none"] + sum(
                agg[f"access_prob_slot_{t}"] for t in range(s.t_bs)
            )
            assert total == pytest.approx(1.0)
            assert 0.0 <= agg["detection_probability"] <= 1.0
            assert agg["detection_probability"] >= agg["serving_slot_success_rate"] - 1e-12

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            mc.run_multicell_experiment(TINY)


class TestBussgangValidation:
    def test_ratio_check_matches_analytic(self):
        res = correlation_ratio_check(bits=4, gamma_target=1.0, trials=40_000, seed=3)
        assert res["gamma_empirical"] == pytest.approx(res["gamma_analytic"], rel=0.1)

    def test_codebook_argmax_agreement(self):
        res = codebook_ratio_argmax(bits=2, trials_per_codeword=6000, seed=21)
        assert res["argmax_measured"] == res["argmax_analytic"]

    # measured - model, in dB, per (bits, snr_db): the range over seeds 1-40 of
    # this scenario, both methods, widened by about 0.3 dB.  At 1 bit the model
    # already sits below the measurement at 0 dB, by 2.8 dB on average.
    AGREEMENT_DB = {(1.0, -10.0): (-0.1, 1.5), (1.0, 0.0): (1.0, 4.0),
                    (2.0, -10.0): (-0.5, 0.8), (2.0, 0.0): (0.0, 1.5),
                    (4.0, -10.0): (-0.5, 0.8), (4.0, 0.0): (-0.4, 0.7)}

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_measured_sqnr_against_the_bussgang_model(self, seed):
        """Each finite arm's mean ``sqnr_db_sample`` against the Bussgang gamma.

        Per trial, gamma = sqnr_single_beam(S, sigma^2, 1 - xi_for_bits(b)) at
        the measured antenna's per-sample burst power S.  In a flat link the
        zero-lag correlation over N samples gains N on the noise and on white
        distortion alike, so the model sample is N * gamma.  Below about 0 dB
        the two agree; at 40 dB the distortion that is a fixed function of
        the burst lands in the mean, and the measurement rises above the
        model's saturation (ROADMAP item 5).
        """
        scenario = Scenario(trials=30, adc_bits=(1.0, 2.0, 4.0, math.inf), snr_db_grid=(-10.0, 0.0, 40.0),
                            seed=seed)
        plans = mc.slot_beam_plans(scenario)
        rows = iter(mc.run_sqnr_experiment(scenario).rows)
        measured, model = {}, {}
        for trial in range(scenario.trials):
            _, slot, cells = reference.draw_links(scenario, trial)
            for snr_db in scenario.snr_db_grid:
                sigma2 = mc.noise_variance(scenario, snr_db)
                for (method, bits), plan in plans.items():
                    row = next(rows)
                    assert (row["method"], row["bits"], row["snr_db"]) == (method, bits, snr_db)
                    if bits == math.inf:
                        continue
                    clean = reference.burst(scenario, cells, plan.tx_vectors[slot])
                    power = np.abs(clean @ np.conj(cells[0][1])) ** 2
                    b_hat = int(np.argmax(power >= (1.0 - 1e-9) * power.max()))
                    s = float(np.mean(np.abs(clean[b_hat]) ** 2))
                    gamma = sqnr_single_beam(SqnrInputs(s, sigma2, 1.0 - quantization.xi_for_bits(int(bits))))
                    measured.setdefault((method, bits, snr_db), []).append(row["sqnr_db_sample"])
                    model.setdefault((method, bits, snr_db), []).append(
                        10.0 * math.log10(scenario.n_subcarriers * gamma))
        assert next(rows, None) is None and len(measured) == 2 * 3 * 3
        for (method, bits, snr_db), values in measured.items():
            gap = float(np.mean(values) - np.mean(model[(method, bits, snr_db)]))
            if snr_db < 40.0:
                lo, hi = self.AGREEMENT_DB[(bits, snr_db)]
                assert lo <= gap <= hi, (method, bits, snr_db, gap)
            else:
                assert gap > 0.0, (method, bits, gap)


# every key a scenario file can set, a section's keys prefixed with its name
CONFIG_KEYS = [f"{prefix}{f.name}" for prefix, cls in (("", Scenario), ("sector.", SectorConfig),
                                                        ("channel.", ChannelConfig), ("cell.", CellConfig))
               for f in fields(cls)]


def names_a_key(exc: ValueError) -> bool:
    return any(re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", str(exc)) for key in CONFIG_KEYS)


def log_uniform(lo: float = -323.0, hi: float = 308.0):
    """Positive floats whose exponent is uniform on [lo, hi]; by default the
    whole float range, subnormals included."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def small_configs(draw) -> dict:
    """Scenario keyword arguments of a small array and grid; some break a rule across fields.

    The cell lengths come from the whole float range or, as often, from the
    accepted one, so that odd but accepted cells run; ``cell`` holds them as
    keyword arguments, since ``CellConfig`` itself rejects a length.  The
    sector's angles come the same way from every float or from [-90, 90],
    and half the time as the symmetric pair the cell modes need; ``sector``
    holds them as keyword arguments too, for the same reason.
    """
    length = log_uniform(*draw(st.sampled_from(((-323.0, 308.0), (-3.0, 7.0)))))
    angle = draw(st.sampled_from((st.floats(), st.floats(-90.0, 90.0))))
    hi = draw(angle)
    sector = (-abs(hi), abs(hi)) if draw(st.booleans()) else (draw(angle), hi)
    cfo = st.just(0.0) | log_uniform() | log_uniform().map(lambda e: -e)
    return dict(
        mode=draw(st.sampled_from(("single_ue", "multi_ue_cell", "multi_cell"))),
        n_subcarriers=draw(st.integers(64, 128)),  # 64 breaks "longer than waveform.CP_LENGTH"
        n_tot=draw(st.sampled_from((1, 2, 4, 8, 16))),
        n_rf=draw(st.sampled_from((1, 2, 4))),
        m_tot=draw(st.integers(1, 4)),
        codebook_oversampling=draw(st.integers(1, 2)),
        t_bs=draw(st.integers(1, 4)),
        t_ue=draw(st.integers(2, 3)),
        adc_bits=tuple(draw(st.lists(st.sampled_from((1, 2, 3, 8, 16, math.inf)), min_size=1, max_size=3,
                                     unique=True))),
        # +inf is a noiseless point, which the sqnr experiment rejects
        snr_db_grid=tuple(draw(st.lists(st.floats(-5000.0, 1000.0) | st.just(math.inf), min_size=1, max_size=2,
                                        unique=True))),
        cfo_grid=draw(st.just((0.0,)) | st.lists(cfo, min_size=1, max_size=2, unique=True).map(tuple)),
        trials=draw(st.integers(1, 2)),
        inner_repeats=draw(st.integers(2, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
        channel=ChannelConfig(regime=draw(st.sampled_from(("flat", "clustered")))),
        cell={"radius_m": draw(length), "isd_m": draw(length), "min_distance_m": draw(st.just(0.0) | length)},
        sector={"azimuth_deg": sector},
    )


# the SNR floor at the smallest grid, whose sigma^2 is the largest
FLOOR = dict(n_subcarriers=65, n_tot=8, n_rf=2, m_tot=4, t_bs=2, t_ue=2, adc_bits=(2, math.inf),
             snr_db_grid=(-3000.0,), trials=2, inner_repeats=4, seed=3, channel=ChannelConfig("clustered"))


class TestAcceptedScenariosRun:
    @given(config=small_configs())
    @example(config=FLOOR)
    @example(config=FLOOR | {"mode": "multi_cell"})
    @example(config=FLOOR | {"snr_db_grid": (math.inf,)})
    @example(config=FLOOR | {"mode": "multi_cell", "snr_db_grid": (math.inf,)})
    @example(config=FLOOR | {"adc_bits": (math.inf,)})  # no arm has an ADC model
    @example(config=FLOOR | {"mode": "multi_cell", "adc_bits": (math.inf,)})
    # each was accepted, then stopped deep in a trial on a NaN or an OverflowError
    @example(config=FLOOR | {"cfo_grid": (1e308,)})
    @example(config=FLOOR | {"mode": "multi_ue_cell", "cell": {"radius_m": 1e160}})
    @example(config=FLOOR | {"mode": "multi_cell", "cell": {"isd_m": 1e200}})
    @example(config=FLOOR | {"mode": "multi_ue_cell", "cell": {"radius_m": 1e-300, "min_distance_m": 0.0}})
    # the accepted extremes: CFO at half the grid, the shortest and longest cells, the widest sector
    @example(config=FLOOR | {"cfo_grid": (-32.5, 32.5)})
    @example(config=FLOOR | {"mode": "multi_ue_cell", "cell": {"radius_m": 1e-3, "min_distance_m": 0.0}})
    @example(config=FLOOR | {"mode": "multi_cell", "cell": {"isd_m": 1e7, "min_distance_m": 1e-300}})
    @example(config=FLOOR | {"mode": "multi_ue_cell", "sector": {"azimuth_deg": (-90.0, 90.0)}})
    @settings(max_examples=700, deadline=None)  # about a tenth of the drawn scenarios are accepted
    def test_rejected_naming_a_key_or_finite_aggregates(self, config):
        try:
            scenario = Scenario(**config | {"cell": CellConfig(**config.get("cell", {})),
                                            "sector": SectorConfig(**config.get("sector", {}))})
        except ValueError as exc:
            assert names_a_key(exc), exc
            return
        for experiment, (modes, _, keys, _) in mc._EXPERIMENTS.items():
            if scenario.mode not in modes:
                continue
            noiseless_sqnr = experiment == "sqnr" and math.inf in scenario.snr_db_grid
            try:
                summary = getattr(mc, f"run_{experiment}_experiment")(scenario)
            except ValueError as exc:
                assert names_a_key(exc), (experiment, exc)
                assert not noiseless_sqnr or "snr_db_grid" in str(exc), exc
                continue
            assert not noiseless_sqnr, "the sqnr experiment ran without noise"
            for row in summary.aggregates:
                stats = {k: v for k, v in row.items() if k not in keys}
                assert all(math.isfinite(v) for v in stats.values()), (experiment, row)
            for row in summary.rows:  # bits and snr_db may be inf, an ideal ADC or no noise
                values = [v for k, v in row.items() if k not in ("bits", "snr_db") and isinstance(v, float)]
                assert all(math.isfinite(v) for v in values), (experiment, row)
