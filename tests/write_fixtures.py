"""Write the scenario files that CI's artifact byte guard runs, into OUTDIR.

    PYTHONPATH=src python tests/write_fixtures.py OUTDIR

The files come from this tree's tests, so a guard that runs two trees on
them gives both the same input:

- ``ties.txt``: the tie-hours day (``test_hedging.tie_hours``);
- ``mesh30.txt``, ``mesh60.txt``: seeded 30- and 60-bus meshes
  (``test_mesh_oracle.seeded_mesh``; the 60-bus cap is 131.13 EUR/MWh at bus 60);
- ``bad.txt``: paper-3bus seed 7 with a negative reactance and inverted load
  bounds in hours 3 and 9;
- ``two-layouts.txt``: seed 7's finite day with the bus-2 offer dropped in
  hours 9-14 (``test_hedging.two_layout_day``).
"""

import sys
from dataclasses import replace
from pathlib import Path

from flexhedge import scenario
from test_hedging import tie_hours, two_layout_day
from test_mesh_oracle import seeded_mesh


def bad_day():
    s = scenario.generate_scenario(scenario.ScenarioSpec(seed=7))
    lines = [replace(s.network.lines[0], reactance_pu=-0.1), *s.network.lines[1:]]
    hours = [replace(d, utilities=[replace(u, p_min_mw=2.0, p_max_mw=1.0) for u in d.utilities])
             if d.hour in (3, 9) else d for d in s.hours]
    return replace(s.network, lines=lines), hours


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    fixtures = {
        "ties.txt": (scenario.build_3bus_network("infinite"), tie_hours()),
        "mesh30.txt": seeded_mesh(30, 1)[:2],
        "mesh60.txt": seeded_mesh(60, 1)[:2],
        "bad.txt": bad_day(),
        "two-layouts.txt": two_layout_day(),
    }
    for name, (net, hours) in fixtures.items():
        with open(out / name, "w") as fobj:
            scenario.write_scenario_file(net, hours, fobj)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
