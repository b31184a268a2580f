"""The benchmark's tracer wraps porodim names from outside the package; a
renamed or deleted name, or a hook handed an iterator where it takes a list,
breaks traced runs.  This runs the tracer over one tiny run of each
subcommand, the oracle at k = 3, and checks that tracing changes no output
and sees the counter the run moves: the porous steps, the oracle's grid
points, the solver calls behind a solve table, or the bytes of an hmin CSV.
The oracle run guards the wrap of maximize_bruteforce, which reads d, k, eps
and grid positionally.
"""

import sys
from pathlib import Path

import pytest

import porodim.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RUNS = {
    "simulate": ["simulate", "--gen", "bernoulli", "--weights", "0.1,0.9", "--k", "2",
                 "--eps", "0.05", "--depth", "40", "--paths", "2", "--seed", "3"],
    "translate": ["translate", "--gen", "cantor_middle_half", "--trials", "3",
                  "--depth", "12", "--seed", "4"],
    "oracle": ["oracle", "--d", "1", "--k", "3", "--grid", "50"],
    "solve": ["solve", "--d", "1", "--k", "2", "--points", "5"],
    "hmin": ["hmin", "--d", "1", "--points", "5"],
}

#: the tracer counter each run must see move
COUNTER = {"simulate": "porosity.porous_steps", "translate": "porosity.porous_steps",
           "oracle": "oracle.grid_points", "solve": "bounds.solve_s.calls",
           "hmin": "cli.csv_bytes"}


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


@pytest.mark.parametrize("command", sorted(RUNS))
def test_traced_run_matches_untraced(tmp_path, tracer_module, command):
    argv = RUNS[command]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert porodim.cli.main([*argv, "--out", str(plain)]) == 0
    tr = tracer_module.Tracer()
    tr.install()
    try:
        code = porodim.cli.main([*argv, "--out", str(traced)])
    finally:
        tr.uninstall()
    assert code == 0
    assert traced.read_bytes() == plain.read_bytes()
    assert tr.counts.get(COUNTER[command], 0) > 0
