import csv
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mmwsync import cli, detector, montecarlo
from mmwsync.montecarlo import CellConfig, ChannelConfig, Scenario, SectorConfig


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
    def test_minimal_defaults_to_reference_numerology(self, tmp_path):
        scenario = cli.parse_config(write(tmp_path, MINIMAL))
        assert scenario.n_subcarriers == 512
        assert scenario.cp_length == 64
        assert scenario.n_zc == 63
        assert scenario.m_tot == 16

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
            ("cp_length: 0\nchannel:\n  regime: clustered\n", "cp_length"),
            ("zc_root: 0\n", "zc_root"),
            ("zc_root: 21\n", "zc_root"),
            ("n_zc: 1\nzc_root: 0\n", "zc_root"),
            ("cell:\n  roots: [25, 29, 63]\n", "cell.roots"),
            ("cell:\n  roots: [25, 29, 42]\n", "cell.roots"),
            ("cell:\n  roots: [0, 0, 0]\n", "cell.roots"),
            ("cell:\n  roots: [25, 29, 29]\n", "cell.roots"),
            ("snr_db_grid: [0.0, .nan]\n", "snr_db_grid"),
            ("snr_db_grid: [-.inf]\n", "snr_db_grid"),
            ("cfo_grid: [0.0, .nan]\n", "cfo_grid"),
            ("cfo_grid: [.inf]\n", "cfo_grid"),
            ("cfo_grid: [-.inf]\n", "cfo_grid"),
            ("mode: multi_ue_cell\nsector:\n  azimuth_deg: [-30, 60]\n", "sector.azimuth_deg"),
            ("n_rf: 0\n", "n_rf"),
            ("lambda_max_inv_db: .nan\n", "lambda_max_inv_db"),
            ("lambda_max_inv_db: -.inf\n", "lambda_max_inv_db"),
            ("lambda_max_inv_db: .inf\n", "lambda_max_inv_db"),
            ("lambda_max_inv_db: -4000\n", "lambda_max_inv_db"),
            ("bs_geometry: upa\n", "bs_upa_shape"),
            ("bs_geometry: upa\nbs_upa_shape: [4, 4]\n", "bs_upa_shape"),
            ("bs_geometry: upa\nbs_upa_shape: [-4, -8]\n", "bs_upa_shape"),
            ("bs_geometry: upa\nbs_upa_shape: [2, 4, 4]\n", "bs_upa_shape"),
            ("bs_upa_shape: [4, 8]\n", "bs_upa_shape"),
            ("adc_bits: [2, 2.0]\n", "adc_bits"),
            ("snr_db_grid: [0.0, 0.0]\n", "snr_db_grid"),
            ("cfo_grid: [0.5, 0.5]\n", "cfo_grid"),
            ("t_bs: 0\n", "t_bs"),
            ("m_tot: 0\n", "m_tot"),
            ("n_tot: 0\n", "n_tot"),
            ("codebook_oversampling: 0\n", "codebook_oversampling"),
            ("search_budget: 65535\n", "search_budget"),
            ("seed: -1\n", "seed"),
            ("trials: 2.5\n", "trials"),
            ("sector:\n  azimuth_deg: [60, -60]\n", "sector.azimuth_deg"),
            ("sector:\n  elevation_deg: [10, 10]\n", "sector.elevation_deg"),
            ("channel:\n  n_clusters: 0\n", "channel.n_clusters"),
            ("channel:\n  delay_spread_samples: -1\n", "channel.delay_spread_samples"),
            ("mode: multi_ue_cell\ncell:\n  min_distance_m: 150\n", "cell.min_distance_m"),
            ("mode: multi_cell\ncell:\n  min_distance_m: 250\n", "cell.min_distance_m"),
            ("cell:\n  shadowing_sigma_db: .nan\n", "cell.shadowing_sigma_db"),
            ("channel:\n  paths_per_cluster: 0\n", "channel.paths_per_cluster"),
            ("channel:\n  angle_spread_deg: -1\n", "channel.angle_spread_deg"),
            ("channel:\n  n_clusters: 2.5\n", "channel.n_clusters"),
            ("channel:\n  rolloff: .nan\n", "channel.rolloff"),
            ("mode: multi_ue_cell\ncell:\n  pathloss_exponent: .nan\n", "cell.pathloss_exponent"),
            # YAML 1.1 reads 1.0e308 and -1.0e6 as strings (no sign after the e)
            ("channel:\n  angle_spread_deg: 1.0e308\n", "channel.angle_spread_deg"),
            ("mode: multi_ue_cell\ncell:\n  pathloss_exponent: -1.0e6\n", "cell.pathloss_exponent"),
            ("channel:\n  regime: clustered\n  delay_spread_samples: .inf\n", "channel.delay_spread_samples"),
            ("mode: multi_ue_cell\ncell:\n  radius_m: .inf\n", "cell.radius_m"),
            ("sector:\n  azimuth_deg: [-.inf, .inf]\n", "sector.azimuth_deg"),
            ("snr_db_grid: [1e3]\n", "snr_db_grid"),
            ("cfo_grid: [1e-3]\n", "cfo_grid"),
            ("adc_bits: [true]\n", "adc_bits"),
            ("cell:\n  roots: [25.0, 29, 34]\n", "cell.roots"),
            ("bs_geometry: upa\nbs_upa_shape: [4.0, 8]\n", "bs_upa_shape"),
            ("sector:\n  elevation_deg: [0, 1e3]\n", "sector.elevation_deg"),
            ("adc_bits: [99]\n", "adc_bits"),
            ("adc_bits: [.nan]\n", "adc_bits"),
            ("channel:\n  regime: warp\n", "channel.regime"),
            ("mode: multi_ue_cell\ncell:\n  min_distance_m: -50.0\n", "cell.min_distance_m"),
            ("mode: multi_ue_cell\ncell:\n  radius_m: -10.0\n  min_distance_m: -20.0\n", "cell.radius_m"),
            ("mode: multi_cell\ncell:\n  radius_m: -10.0\n", "cell.radius_m"),
            ("cell:\n  isd_m: -10.0\n", "cell.isd_m"),
            # one codeword per subarray, but the one-chain search scores all four full-array codewords
            ("n_tot: 4\nn_rf: 4\ncodebook_oversampling: 1\nsearch_budget: 3\n", "search_budget"),
        ],
        ids=[
            "adc_bits", "cfo_grid", "inner_repeats", "cp_length",
            "zc_root_zero", "zc_root_not_coprime", "n_zc_one",
            "cell_root_out_of_range", "cell_root_not_coprime", "cell_roots_zero",
            "cell_roots_repeated", "snr_nan", "snr_neg_inf", "cfo_nan", "cfo_inf", "cfo_neg_inf",
            "sector_asymmetric", "n_rf_zero", "lambda_nan", "lambda_neg_inf", "lambda_inf",
            "lambda_overflow", "upa_no_shape", "upa_shape_product", "upa_shape_negative",
            "upa_shape_three_axes", "ula_with_upa_shape", "adc_bits_repeated", "snr_repeated",
            "cfo_repeated", "t_bs_zero", "m_tot_zero", "n_tot_zero", "oversampling_zero",
            "search_budget_short", "seed_negative", "trials_fractional", "azimuth_decreasing",
            "elevation_empty", "n_clusters_zero", "delay_spread_negative",
            "min_distance_at_radius", "min_distance_at_half_isd", "shadowing_nan",
            "paths_per_cluster_zero", "angle_spread_negative", "n_clusters_fractional",
            "rolloff_nan", "pathloss_exponent_nan", "angle_spread_string", "pathloss_exponent_string",
            "delay_spread_inf", "radius_inf", "azimuth_inf", "snr_string", "cfo_string", "adc_bits_bool",
            "cell_roots_float", "upa_shape_float", "elevation_string", "adc_bits_out_of_range",
            "adc_bits_nan", "regime_unknown", "min_distance_negative", "radius_negative",
            "radius_negative_multi_cell", "isd_negative", "search_budget_short_one_chain",
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

    def test_infinite_bits_parse(self, tmp_path):
        scenario = cli.parse_config(write(tmp_path, "adc_bits: [2, .inf]\n"))
        assert scenario.adc_bits == (2, math.inf)

    def test_upa_shape_parses_and_builds(self, tmp_path):
        scenario = cli.parse_config(write(tmp_path, "bs_geometry: upa\nbs_upa_shape: [8, 4]\n"))
        assert scenario.bs_upa_shape == (8, 4)
        assert montecarlo.bs_geometry(scenario).shape == (8, 4)

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
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_trials", no_trials)
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
    def test_main_end_to_end(self, tmp_path, capsys):
        path = write(tmp_path, TINY_SQNR)
        code = cli.main(
            ["--config", str(path), "--experiment", "sqnr", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
