"""Batch command-line front end.

Parses a YAML scenario file (``config.parse_config``), runs the selected
experiment, and writes CSV results plus a manifest echoing the fully
resolved configuration.  Every output file starts with a comment row
identifying the scenario hash, seed and software version, and reruns with
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import __version__ as _VERSION
from . import detector, montecarlo
from .config import Scenario, parse_config, scenario_hash
from .montecarlo import StatSummary

# experiment -> its runner; "complexity" runs no trials and is written by ``_run_complexity``
_RUNNERS = {
    "sqnr": montecarlo.run_sqnr_experiment,
    "timing": montecarlo.run_timing_experiment,
    "cfo": montecarlo.run_timing_experiment,
    "multicell": montecarlo.run_multicell_experiment,
}
EXPERIMENTS = (*_RUNNERS, "complexity")

@dataclass(frozen=True)
class RunConfig:
    """One batch invocation: scenario file, experiment, output location."""

    config_path: str
    experiment: str
    out_dir: str
    seed: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == math.inf:
            return "inf"
        return repr(value)
    return str(value)


def _write_csv(path: Path, scenario_hash: str, seed: int, rows: list[dict]) -> None:
    """The header comment, then one column per key of the rows, in key order."""
    columns = tuple(rows[0])
    with path.open("w", newline="") as fh:
        fh.write(f"# scenario_hash={scenario_hash} seed={seed} version={_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def write_outputs(summary: StatSummary, experiment: str, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = summary.meta
    samples = out_dir / f"{experiment}_samples.csv"
    _write_csv(samples, meta["scenario_hash"], meta["seed"], summary.rows)
    agg = out_dir / f"{experiment}_aggregates.csv"
    _write_csv(agg, meta["scenario_hash"], meta["seed"], summary.aggregates)
    manifest = out_dir / f"{experiment}_manifest.yaml"
    manifest.write_text(yaml.safe_dump(meta | {"experiment": experiment}, sort_keys=True))
    return [samples, agg, manifest]


def _run_complexity(scenario: Scenario, out_dir: Path) -> list[Path]:
    """The BS counts are the candidates ``slot_beam_plans`` scores, one plan
    serving every resolution; the UE counts are the correlator's closed form."""
    plans = montecarlo.slot_beam_plans(scenario)
    bits = scenario.adc_bits[0]
    single, multi = plans["single_stream", bits].iteration_count, plans["proposed", bits].iteration_count
    mults, adds = detector.correlator_operation_counts(scenario.n_subcarriers, scenario.t_ue, scenario.m_tot)
    print(f"BS iterations (single-stream): {single}")
    print(f"BS iterations (multi-beam):    {multi}")
    print(f"UE complex multiplications:    {mults}")
    print(f"UE complex additions:          {adds}")
    row = {"bs_iterations_single_stream": single, "bs_iterations_multi_beam": multi,
           "ue_complex_multiplications": mults, "ue_complex_additions": adds, "t_bs": scenario.t_bs,
           "n_beam": scenario.n_tot // scenario.n_rf * scenario.codebook_oversampling, "n_rf": scenario.n_rf}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "complexity.csv"
    _write_csv(path, scenario_hash(scenario), scenario.seed, [row])
    return [path]


def run(config: RunConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        scenario = parse_config(config.config_path)
        if config.seed is not None:
            scenario = dataclasses.replace(scenario, seed=config.seed)
        out_dir = Path(config.out_dir)
        if config.experiment == "complexity":
            written = _run_complexity(scenario, out_dir)
        else:
            summary = _RUNNERS[config.experiment](scenario, workers=config.workers)
            written = write_outputs(summary, config.experiment, out_dir)
        for path in written:
            print(f"wrote {path}")
        return 0
    except Exception as exc:  # noqa: BLE001 - batch front end reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    """The console entry point: reads its flags from ``sys.argv``."""
    parser = argparse.ArgumentParser(
        prog="mmwsync",
        description="Directional frame-timing synchronization experiments",
    )
    parser.add_argument("--config", dest="config_path", required=True, help="scenario YAML file")
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--out", dest="out_dir", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    try:
        config = RunConfig(**vars(parser.parse_args()))
    except ValueError as exc:  # a bad flag value, reported as run reports a bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
