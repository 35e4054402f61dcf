"""Golden outputs: the CLI's files for small scenarios, pinned byte for byte.

Each directory under ``tests/golden/`` is named after an experiment and holds
its ``scenario.yaml`` next to the exact files a run of that experiment
writes.  A change that keeps these bytes keeps the rows, the aggregates, the
manifests and the headers.  The files were regenerated once, when every
random number of a trial came to be drawn from one generator keyed on
(seed, trial); from then on a change is held to these bytes.  They moved
three times more, in their hash lines only: when the array and elevation
keys left the scenario, when the channel and cell shape constants and the
search budget left it for named constants in the library, and when the
sync symbol's length, root and cyclic prefix left it for the constants of
``mmwsync.waveform``.  Each time every row, aggregate and beam plan kept
its bytes.  When a link came to hold one tap per distinct ray delay, in
place of a span whose pulse-tail taps carried rounding-level power, the
``peak_power`` of 12 timing and cfo sample rows moved by at most 6.8e-16
relative, and nothing else moved.  When a finite sqnr arm came to
rescale the zero-lag sums of its ADC codes in place of correlating its
quantized samples, 64 finite-bit sample rows and 16 aggregate rows moved by
at most 2.0e-15 relative; the infinite-resolution rows, every other cell
and every other file kept their bytes.  When the timing, cfo and multicell
experiments came to correlate ADC codes and rescale the profile in the same
way, the ``peak_power`` of 9 timing and 12 cfo sample rows moved by at most
8.5e-16 relative, and nothing else moved.  README.md's table of CSV schemas
is held to the golden sample files' column headers.
"""

import re
from pathlib import Path

import pytest

from mmwsync import cli

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def test_every_experiment_has_a_case():
    assert CASES == sorted(cli.EXPERIMENTS)


@pytest.mark.parametrize("experiment", CASES)
def test_outputs_match_golden_bytes(experiment, tmp_path):
    case = GOLDEN / experiment
    assert cli.run(cli.RunConfig(str(case / "scenario.yaml"), experiment, str(tmp_path))) == 0
    expected = sorted(p.name for p in case.iterdir() if p.name != "scenario.yaml")
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), name


def readme_csv_schemas() -> dict[str, str]:
    """The README's "CSV schemas (stable)" table: experiment -> column header."""
    table = README.read_text().split("CSV schemas (stable):", 1)[1].split("\n\n")[1]
    schemas = {}
    for name, columns in re.findall(r"^\| ([a-z /]+) \| `([a-z_,]+)` \|$", table, re.MULTILINE):
        schemas.update(dict.fromkeys(name.split(" / "), columns))
    return schemas


def test_readme_csv_schemas_match_golden_headers():
    schemas = readme_csv_schemas()
    assert sorted(schemas) == ["cfo", "multicell", "sqnr", "timing"]
    for experiment, columns in schemas.items():
        header = (GOLDEN / experiment / f"{experiment}_samples.csv").read_text().splitlines()[1]
        assert header == columns, experiment
