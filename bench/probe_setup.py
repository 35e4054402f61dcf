"""Set-up probe, run in a fresh process: import mmwsync, parse a scenario and
build its first beam plans with every cache cold.

    PYTHONPATH=src python3 bench/probe_setup.py SCENARIO.yaml SEED

Prints one JSON line with the elapsed seconds since this script started and
the chosen beam indices, which the caller compares with its own.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402


def main() -> None:
    from mmwsync import cli, montecarlo

    scenario = replace(cli.parse_config(sys.argv[1]), seed=int(sys.argv[2]))
    plans = montecarlo.slot_beam_plans(scenario)
    elapsed = perf_counter() - _T0
    indices = {f"{m}/bits={b}": p.indices.tolist() for (m, b), p in plans.items()}
    print(json.dumps({"setup_s": elapsed, "beam_plans": indices}))


if __name__ == "__main__":
    main()
