"""The run path in fresh interpreters: it needs numpy and PyYAML only, a
scenario built in code needs no PyYAML, and ``python -m mmwsync.cli`` runs
the CLI module once, as __main__."""

import os
import subprocess
import sys
from pathlib import Path

import mmwsync

ROOT = Path(__file__).resolve().parents[1]

EXPERIMENTS = """
import sys
from dataclasses import replace

from mmwsync import cli, montecarlo

scenario = replace(cli.parse_config(sys.argv[1]), trials=2)
assert len(montecarlo.run_timing_experiment(scenario).rows) > 0
assert len(montecarlo.run_sqnr_experiment(replace(scenario, inner_repeats=4)).rows) > 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

SCENARIO_IN_CODE = """
import sys

import mmwsync

mmwsync.config.Scenario()
assert "yaml" not in sys.modules, "import mmwsync loaded PyYAML"
from mmwsync import cli

assert cli.parse_config(sys.argv[1]).trials > 0
"""


def run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(mmwsync.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=os.environ | {"PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


def test_experiments_run_without_scipy():
    proc = run_python("-c", EXPERIMENTS, str(ROOT / "configs" / "timing_single_ue.yaml"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scenario_built_in_code_loads_no_pyyaml():
    proc = run_python("-c", SCENARIO_IN_CODE, str(ROOT / "configs" / "timing_single_ue.yaml"))
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_without_runtime_warning():
    proc = run_python("-W", "error::RuntimeWarning", "-m", "mmwsync.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
