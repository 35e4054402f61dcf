import csv
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mmwsync import cli, config, detector, montecarlo, waveform
from mmwsync.config import CellConfig, ChannelConfig, Scenario, SectorConfig


ROOT = Path(__file__).resolve().parents[1]
MINIMAL = "mode: single_ue\n"

TINY_SQNR = """
mode: single_ue
trials: 6
inner_repeats: 8
t_bs: 4
adc_bits: [2, .inf]
snr_db_grid: [0.0]
seed: 77
"""


# (section, field) of every number and number-tuple field a scenario file can set
NUMBER_FIELDS = [
    (section, f)
    for section, cls in (("", Scenario), ("sector", SectorConfig), ("channel", ChannelConfig), ("cell", CellConfig))
    for f in fields(cls)
    if f.type in ("int", "float") or f.type.startswith("tuple[")
]


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return path


def read_rows(path: Path) -> list[dict]:
    """The rows of a CSV the CLI wrote, below its header comment."""
    with path.open() as fh:
        next(fh)
        return list(csv.DictReader(fh))


COMPLEXITY_CASES = sorted((ROOT / "configs").glob("*.yaml")) + [ROOT / "tests/golden/complexity/scenario.yaml"]
COMPLEXITY_IDS = [f"{p.parent.name}/{p.stem}" for p in COMPLEXITY_CASES]


class TestParseConfig:
    def test_one_schema_reached_from_montecarlo_and_cli(self):
        # the names montecarlo and cli import are config's own objects, not copies
        assert montecarlo.Scenario is config.Scenario
        assert montecarlo.CellConfig is config.CellConfig
        assert cli.parse_config is config.parse_config

    def test_minimal_defaults_to_reference_numerology(self, tmp_path):
        scenario = cli.parse_config(write(tmp_path, MINIMAL))
        assert scenario.n_subcarriers == 512
        assert scenario.m_tot == 16
        got = montecarlo.sync_waveform(scenario)
        want = waveform.make_sync_waveform(34, 63, 512, 64)
        for name in ("symbols", "time_samples", "samples_with_cp"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_unknown_key_fails_closed(self, tmp_path):
        path = write(tmp_path, "mode: single_ue\nn_subcariers: 64\n")
        with pytest.raises(ValueError, match="n_subcariers"):
            cli.parse_config(path)

    def test_unknown_nested_key_names_path(self, tmp_path):
        path = write(tmp_path, "mode: single_ue\ncell:\n  radius: 10\n")
        with pytest.raises(ValueError, match="cell.radius"):
            cli.parse_config(path)

    def test_out_of_range_value(self, tmp_path):
        path = write(tmp_path, "mode: single_ue\nadc_bits: [99]\n")
        with pytest.raises(ValueError):
            cli.parse_config(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("adc_bits: []\n", "adc_bits"),
            ("cfo_grid: []\n", "cfo_grid"),
            ("inner_repeats: 1\n", "inner_repeats"),
            # the reference sync symbol's length, root and prefix are constants in mmwsync.waveform
            ("cp_length: 64\n", "unknown configuration key 'cp_length'"),
            ("zc_root: 0\n", "unknown configuration key 'zc_root'"),
            ("n_zc: 1\n", "unknown configuration key 'n_zc'"),
            # a grid must be longer than the 64-sample cyclic prefix
            ("n_subcarriers: 64\n", "n_subcarriers"),
            ("cell:\n  roots: [25, 29, 63]\n", "cell.roots"),
            ("cell:\n  roots: [25, 29, 42]\n", "cell.roots"),
            ("cell:\n  roots: [0, 0, 0]\n", "cell.roots"),
            ("cell:\n  roots: [25, 29, 29]\n", "cell.roots"),
            ("snr_db_grid: [0.0, .nan]\n", "snr_db_grid"),
            ("snr_db_grid: [-.inf]\n", "snr_db_grid"),
            # below -3000 dB the noise variance leaves the float range
            ("snr_db_grid: [-3100.0]\n", "snr_db_grid"),
            ("snr_db_grid: [0.0, -3000.5]\n", "snr_db_grid"),
            ("cfo_grid: [0.0, .nan]\n", "cfo_grid"),
            ("cfo_grid: [.inf]\n", "cfo_grid"),
            ("cfo_grid: [-.inf]\n", "cfo_grid"),
            ("mode: multi_ue_cell\nsector:\n  azimuth_deg: [-30, 60]\n", "sector.azimuth_deg"),
            ("n_rf: 0\n", "n_rf"),
            ("lambda_max_inv_db: .nan\n", "lambda_max_inv_db"),
            ("lambda_max_inv_db: -.inf\n", "lambda_max_inv_db"),
            ("lambda_max_inv_db: .inf\n", "lambda_max_inv_db"),
            ("lambda_max_inv_db: -4000\n", "lambda_max_inv_db"),
            # no array or elevation key: the BS is a ULA and each slot an azimuth slice
            ("bs_geometry: ula\n", "unknown configuration key 'bs_geometry'"),
            ("bs_upa_shape: [4, 8]\n", "unknown configuration key 'bs_upa_shape'"),
            ("sector:\n  elevation_deg: [-45, 45]\n", "unknown configuration key 'sector.elevation_deg'"),
            ("adc_bits: [2, 2.0]\n", "adc_bits"),
            # a nested list fails the entry type rule, ahead of the repeat rule's set()
            ("adc_bits: [[2, 4]]\n", "adc_bits"),
            ("cell:\n  roots: [[25], 29, 34]\n", "cell.roots"),
            ("snr_db_grid: [0.0, 0.0]\n", "snr_db_grid"),
            ("cfo_grid: [0.5, 0.5]\n", "cfo_grid"),
            ("t_bs: 0\n", "t_bs"),
            ("m_tot: 0\n", "m_tot"),
            ("n_tot: 0\n", "n_tot"),
            ("codebook_oversampling: 0\n", "codebook_oversampling"),
            # (32 / 4 * 2)^4 = 64^4 = 16777216 candidates, above 2^20
            ("n_tot: 128\n", "n_tot = 128, n_rf = 4 and codebook_oversampling = 2 give the 4-chain"),
            ("seed: -1\n", "seed"),
            ("trials: 2.5\n", "trials"),
            ("sector:\n  azimuth_deg: [60, -60]\n", "sector.azimuth_deg"),
            # the channel and cell shape constants live in mmwsync.channel, the budget in optimizer
            ("channel:\n  n_clusters: 0\n", "unknown configuration key 'channel.n_clusters'"),
            ("channel:\n  delay_spread_samples: -1\n", "unknown configuration key 'channel.delay_spread_samples'"),
            ("mode: multi_ue_cell\ncell:\n  min_distance_m: 150\n", "cell.min_distance_m"),
            ("mode: multi_cell\ncell:\n  min_distance_m: 250\n", "cell.min_distance_m"),
            ("cell:\n  shadowing_sigma_db: .nan\n", "unknown configuration key 'cell.shadowing_sigma_db'"),
            ("channel:\n  paths_per_cluster: 0\n", "unknown configuration key 'channel.paths_per_cluster'"),
            ("channel:\n  angle_spread_deg: -1\n", "unknown configuration key 'channel.angle_spread_deg'"),
            ("channel:\n  rolloff: .nan\n", "unknown configuration key 'channel.rolloff'"),
            ("mode: multi_ue_cell\ncell:\n  pathloss_exponent: -1.0e6\n",
             "unknown configuration key 'cell.pathloss_exponent'"),
            ("search_budget: 1048576\n", "unknown configuration key 'search_budget'"),
            ("cell:\n  isd_m: .nan\n", "cell.isd_m"),
            # YAML 1.1 reads 1.0e308 as a string (no sign after the e)
            ("cell:\n  radius_m: 1.0e308\n", "cell.radius_m"),
            ("trials: ~\n", "trials"),
            ("mode: multi_ue_cell\ncell:\n  radius_m: .inf\n", "cell.radius_m"),
            ("sector:\n  azimuth_deg: [-.inf, .inf]\n", "sector.azimuth_deg"),
            ("snr_db_grid: [1e3]\n", "snr_db_grid"),
            ("cfo_grid: [1e-3]\n", "cfo_grid"),
            ("adc_bits: [true]\n", "adc_bits"),
            ("cell:\n  roots: [25.0, 29, 34]\n", "cell.roots"),
            ("adc_bits: [99]\n", "adc_bits"),
            ("adc_bits: [.nan]\n", "adc_bits"),
            ("channel:\n  regime: warp\n", "channel.regime"),
            ("mode: multi_ue_cell\ncell:\n  min_distance_m: -50.0\n", "cell.min_distance_m"),
            ("mode: multi_ue_cell\ncell:\n  radius_m: -10.0\n  min_distance_m: -20.0\n", "cell.radius_m"),
            ("mode: multi_cell\ncell:\n  radius_m: -10.0\n", "cell.radius_m"),
            ("cell:\n  isd_m: -10.0\n", "cell.isd_m"),
            # one codeword per subarray, but the one-chain search scores all 2^20 + 1 full-array codewords
            ("n_tot: 1048577\nn_rf: 1048577\ncodebook_oversampling: 1\n", "give the 1-chain beam search 1048577^1"),
            # 4^(2^40) candidates: the check must not evaluate the power
            ("n_tot: 2199023255552\nn_rf: 1099511627776\n", "give the 1099511627776-chain beam search 4^1099511627776"),
            # PyYAML keeps a repeated key's last value; the parser names the key instead
            ("trials: 10\ntrials: 3\n", "configuration key 'trials' is written twice"),
            ("channel:\n  regime: clustered\nchannel:\n  regime: flat\n", "key 'channel' is written twice"),
            ("cell:\n  isd_m: 400.0\n  radius_m: 100.0\n  isd_m: 500.0\n", "key 'cell.isd_m' is written twice"),
            ("cell:\n  foo:\n    a: 1\n    a: 2\n", "configuration key 'cell.foo.a' is written twice"),
            # a mapping that holds itself is walked once
            ("cell: &c\n  x: *c\n", "unknown configuration key 'cell.x'"),
            # YAML 1.1 reads these keys as a bool, an int and None
            ("cell:\n  on: 1\n", "unknown configuration key 'cell.True'"),
            ("yes: 1\n", "unknown configuration key 'True'"),
            ("1: 2\n", "unknown configuration key '1'"),
            ("sector:\n  null: 0\n", "unknown configuration key 'sector.None'"),
            # each ran until a NaN or an OverflowError deep in a trial; 1.0e+308 is a float in YAML 1.1
            ("cfo_grid: [1.0e+308]\n", "cfo_grid"),
            ("cfo_grid: [0.0, -256.5]\n", "cfo_grid"),
            ("mode: multi_ue_cell\ncell:\n  radius_m: 1.0e+160\n", "cell.radius_m"),
            ("mode: multi_cell\ncell:\n  isd_m: 1.0e+200\n", "cell.isd_m"),
            ("mode: multi_ue_cell\ncell:\n  radius_m: 1.0e-300\n  min_distance_m: 0\n", "cell.radius_m"),
        ],
        ids=[
            "adc_bits", "cfo_grid", "inner_repeats", "cp_length",
            "zc_root_zero", "n_zc_one", "n_subcarriers_at_cp_length",
            "cell_root_out_of_range", "cell_root_not_coprime", "cell_roots_zero",
            "cell_roots_repeated", "snr_nan", "snr_neg_inf", "snr_below_floor", "snr_just_below_floor",
            "cfo_nan", "cfo_inf", "cfo_neg_inf",
            "sector_asymmetric", "n_rf_zero", "lambda_nan", "lambda_neg_inf", "lambda_inf",
            "lambda_overflow", "bs_geometry_removed", "ula_with_upa_shape", "elevation_removed",
            "adc_bits_repeated", "adc_bits_nested", "cell_roots_nested", "snr_repeated",
            "cfo_repeated", "t_bs_zero", "m_tot_zero", "n_tot_zero", "oversampling_zero",
            "search_budget_short", "seed_negative", "trials_fractional", "azimuth_decreasing",
            "n_clusters_zero", "delay_spread_negative",
            "min_distance_at_radius", "min_distance_at_half_isd", "shadowing_nan",
            "paths_per_cluster_zero", "angle_spread_negative",
            "rolloff_nan", "pathloss_exponent_string", "search_budget_removed", "isd_nan", "radius_string",
            "trials_null", "radius_inf", "azimuth_inf", "snr_string", "cfo_string", "adc_bits_bool",
            "cell_roots_float", "adc_bits_out_of_range",
            "adc_bits_nan", "regime_unknown", "min_distance_negative", "radius_negative",
            "radius_negative_multi_cell", "isd_negative", "search_budget_short_one_chain", "n_rf_huge",
            "repeated_key", "repeated_section", "repeated_section_key", "repeated_nested_key", "recursive_alias",
            "bool_section_key", "bool_key", "int_key", "null_section_key",
            "cfo_huge", "cfo_past_half_grid", "radius_huge", "isd_huge", "radius_tiny",
        ],
    )
    def test_rejected_at_parse_naming_key(self, tmp_path, text, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            cli.parse_config(write(tmp_path, text))

    @given(field=st.sampled_from(NUMBER_FIELDS), bad=st.sampled_from(("1e-3", "true", ".nan", ".inf", "-.inf")))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_non_number_rejected_at_parse_naming_key(self, tmp_path, field, bad):
        section, f = field
        assume(not (bad == ".inf" and f.name in ("adc_bits", "snr_db_grid")))  # an ideal ADC, no noise
        value = bad
        if f.type.startswith("tuple["):  # one entry for a grid, every entry of a fixed-length tuple
            value = "[" + ", ".join([bad] * (1 if f.type.endswith("...]") else f.type.count(",") + 1)) + "]"
        text = f"{section}:\n  {f.name}: {value}\n" if section else f"{f.name}: {value}\n"
        key = f"{section}.{f.name}" if section else f.name
        with pytest.raises(ValueError, match=re.escape(key)):
            cli.parse_config(write(tmp_path, text))

    def test_snr_floor_parses(self, tmp_path):
        assert cli.parse_config(write(tmp_path, "snr_db_grid: [-3000.0]\n")).snr_db_grid == (-3000.0,)

    def test_cfo_at_half_the_grid_parses(self, tmp_path):
        assert cli.parse_config(write(tmp_path, "cfo_grid: [-256.0, 256.0]\n")).cfo_grid == (-256.0, 256.0)

    def test_infinite_bits_parse(self, tmp_path):
        scenario = cli.parse_config(write(tmp_path, "adc_bits: [2, .inf]\n"))
        assert scenario.adc_bits == (2, math.inf)

    def test_merged_key_is_not_repeated(self, tmp_path):
        # a key the mapping writes once overrides the merged one, as YAML merges do
        text = "cell:\n  <<: {isd_m: 400.0, radius_m: 100.0}\n  isd_m: 450.0\n"
        scenario = cli.parse_config(write(tmp_path, text))
        assert (scenario.cell.isd_m, scenario.cell.radius_m) == (450.0, 100.0)

    def test_nested_sections(self, tmp_path):
        text = "mode: multi_cell\ncell:\n  isd_m: 400.0\nchannel:\n  regime: clustered\n"
        scenario = cli.parse_config(write(tmp_path, text))
        assert scenario.cell.isd_m == 400.0
        assert scenario.channel.regime == "clustered"


class TestRun:
    def test_seed_override_supersedes_file(self, tmp_path):
        path = write(tmp_path, TINY_SQNR)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli.run(cli.RunConfig(str(path), "sqnr", str(out1), seed=123)) == 0
        assert cli.run(cli.RunConfig(str(path), "sqnr", str(out2))) == 0
        header1 = (out1 / "sqnr_samples.csv").read_text().splitlines()[0]
        header2 = (out2 / "sqnr_samples.csv").read_text().splitlines()[0]
        assert "seed=123" in header1
        assert "seed=77" in header2
        assert header1.split("scenario_hash=")[1] != header2.split("scenario_hash=")[1]

    def test_sqnr_csv_schema(self, tmp_path):
        path = write(tmp_path, TINY_SQNR)
        out = tmp_path / "out"
        assert cli.run(cli.RunConfig(str(path), "sqnr", str(out))) == 0
        lines = (out / "sqnr_samples.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario_hash=")
        assert "version=" in lines[0]
        assert lines[1] == "method,bits,snr_db,sqnr_db_sample"
        assert len(lines) == 2 + 6 * 4
        manifest = yaml.safe_load((out / "sqnr_manifest.yaml").read_text())
        assert manifest["scenario"]["trials"] == 6
        assert "beam_plans" in manifest

    def test_rerun_byte_identical(self, tmp_path):
        path = write(tmp_path, TINY_SQNR)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.run(cli.RunConfig(str(path), "sqnr", str(out1)))
        cli.run(cli.RunConfig(str(path), "sqnr", str(out2)))
        for name in ("sqnr_samples.csv", "sqnr_aggregates.csv", "sqnr_manifest.yaml"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_complexity_report_printed(self, tmp_path, capsys):
        path = write(tmp_path, "t_bs: 8\nn_tot: 32\nn_rf: 4\n")
        out = tmp_path / "out"
        assert cli.run(cli.RunConfig(str(path), "complexity", str(out))) == 0
        captured = capsys.readouterr().out
        assert "524288" in captured
        assert "BS iterations (single-stream): 512\n" in captured  # 8 slots x 64 full-array codewords
        assert (out / "complexity.csv").exists()

    @pytest.mark.parametrize("path", COMPLEXITY_CASES, ids=COMPLEXITY_IDS)
    def test_complexity_bs_counts_are_the_searched_plans(self, tmp_path, path):
        assert cli.run(cli.RunConfig(str(path), "complexity", str(tmp_path))) == 0
        row = read_rows(tmp_path / "complexity.csv")[0]
        scenario = cli.parse_config(path)
        plans = montecarlo.slot_beam_plans(scenario)
        for bits in scenario.adc_bits:
            assert int(row["bs_iterations_multi_beam"]) == plans["proposed", bits].iteration_count
            assert int(row["bs_iterations_single_stream"]) == plans["single_stream", bits].iteration_count

    def test_ue_counts_independent_of_method(self, tmp_path):
        rows = []
        for n_rf in (4, 2):
            out = tmp_path / str(n_rf)
            path = write(tmp_path, f"t_bs: 2\nn_tot: 16\nn_rf: {n_rf}\nm_tot: 4\nt_ue: 3\n")
            assert cli.run(cli.RunConfig(str(path), "complexity", str(out))) == 0
            rows.append(read_rows(out / "complexity.csv")[0])
        assert rows[0]["bs_iterations_multi_beam"] != rows[1]["bs_iterations_multi_beam"]
        ue = [(int(r["ue_complex_multiplications"]), int(r["ue_complex_additions"])) for r in rows]
        assert ue == [detector.correlator_operation_counts(n=512, t_ue=3, m_tot=4)] * 2

    def test_sqnr_past_float_resolution_rejected(self, tmp_path, capsys):
        # at 400 dB the noise falls below float resolution: every repetition correlates alike
        text = "trials: 2\nt_bs: 2\ninner_repeats: 4\nsnr_db_grid: [400.0]\n"
        out = tmp_path / "out"
        assert cli.run(cli.RunConfig(str(write(tmp_path, text)), "sqnr", str(out))) == 1
        assert "snr_db_grid" in capsys.readouterr().err
        assert not out.exists()

    def test_timing_csv_schema(self, tmp_path):
        text = "trials: 4\nt_bs: 4\nadc_bits: [2]\nsnr_db_grid: [0.0]\nseed: 5\n"
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert cli.run(cli.RunConfig(str(path), "timing", str(out))) == 0
        lines = (out / "timing_samples.csv").read_text().splitlines()
        assert lines[1] == "method,trial,slot,snr_db,cfo,bits,nu_true,nu_hat,b_hat,peak_power,success"

    @pytest.mark.parametrize("experiment, text", [
        ("sqnr", TINY_SQNR + "cfo_grid: [0.5]\n"),
        ("multicell", "mode: multi_cell\ntrials: 1\nt_bs: 2\ncfo_grid: [0.0, 0.5]\n"),
    ])
    def test_cfo_grid_rejected_without_cfo_axis(self, tmp_path, capsys, monkeypatch, experiment, text):
        def no_search(*args):
            raise AssertionError("the beam search ran")

        monkeypatch.setattr(montecarlo, "slot_beam_plans", no_search)
        out = tmp_path / "out"
        assert cli.run(cli.RunConfig(str(write(tmp_path, text)), experiment, str(out))) == 1
        assert "cfo_grid" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_nonzero_exit(self, tmp_path):
        path = write(tmp_path, "bogus_key: 1\n")
        assert cli.run(cli.RunConfig(str(path), "sqnr", str(tmp_path / "x"))) == 1

    def test_missing_file_nonzero_exit(self, tmp_path):
        assert cli.run(cli.RunConfig(str(tmp_path / "nope.yaml"), "sqnr", str(tmp_path))) == 1

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.RunConfig("x.yaml", "frobnicate", "out")


class TestMain:
    def test_main_end_to_end(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, TINY_SQNR)
        monkeypatch.setattr(
            sys, "argv", ["mmwsync", "--config", str(path), "--experiment", "sqnr", "--out", str(tmp_path / "o")]
        )
        code = cli.main()
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_workers_below_one_reported_as_an_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        argv = ["mmwsync", "--config", str(write(tmp_path, TINY_SQNR)), "--experiment", "sqnr", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv + ["--workers", "0"])
        assert cli.main() == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()
