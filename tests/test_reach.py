"""Every function in src/porodim runs: tiny runs of each subcommand and of the
workload entry points, traced under sys.setprofile, enter all but those on
ALLOWED.  A function is keyed by its file and the line of its ``def`` or
first decorator, its code object's co_firstlineno: names repeat."""

import ast
import json
import shlex
import sys
from pathlib import Path

import porodim
from porodim.cli import main
from porodim.dimension import estimate_packing_dim
from porodim.measure import Bernoulli, CantorMiddleHalf, CascadeDirichlet
from porodim.porosity import run_translation_trials

from conftest import make_measure

TRACER = "perfbench/tracer.py wraps it by name"
EUCLIDEAN = "the paper's Euclidean form of the bound, read by criterion 4"
PINNED = "test_dyadic.py pins it"
#: module.qualname of each function no run enters, and why it stays
ALLOWED = {
    "porosity.porous_walk": TRACER,
    "measure.TreeMeasure.steps_to": TRACER,
    "porosity.por2_depth": TRACER,
    "porosity.classify_porous": TRACER,
    "porosity.porous_retree": TRACER,
    "dyadic.CubeAddress.ancestor": TRACER,
    "dyadic.CubeAddress.uniform_child": TRACER,
    "dyadic.CubeAddress.contains": TRACER,
    "dimension._trajectory_from_steps": TRACER,
    "bounds.c_const": EUCLIDEAN,
    "bounds.t_dalpha": EUCLIDEAN,
    "dyadic.CubeAddress.__getnewargs__": PINNED,
    "dyadic.CubeAddress.__repr__": PINNED,
}

#: one command a line, each run with --jobs 1: worker processes go untraced
RUNS = """
solve --points 3
solve --d 1 --k 2 --points 3
simulate --gen bernoulli --weights 0.25,0.75 --eps 0.3 --depth 20 --paths 2 --strict \
--trajectories {tmp}/traj.csv
simulate --gen uniform --depth 5 --paths 1
simulate --config {tmp}/mixture.json --k 2 --eps 0.01 --depth 6 --paths 2
simulate --config {tmp}/dirichlet.json --eps 0.1 --depth 6 --paths 1
simulate --config {tmp}/dirichlet_beta.json --depth 6 --paths 1
oracle --d 1 --k 2 --grid 20
oracle --d 2 --k 1 --eps 0.1 --grid 20
translate --gen cantor_middle_half --trials 2 --depth 8 --eta 1 --strict
translate --config {tmp}/dirichlet.json --alpha 0.5 --trials 1 --depth 6
hmin --points 3
"""


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function in src/porodim."""
    found = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min(n.lineno for n in [child, *child.decorator_list])
                found[file, first] = f"{prefix}.{child.name}"
                visit(child, file, f"{prefix}.{child.name}.<locals>")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}.{child.name}")
            else:
                visit(child, file, prefix)

    for path in Path(porodim.__file__).resolve().parent.glob("*.py"):
        visit(ast.parse(path.read_text()), str(path), path.stem)
    return found


def _run_everything(tmp: Path) -> None:
    (tmp / "mixture.json").write_text(json.dumps({"d": 2, "seed": 108, "generator": {
        "type": "mixture", "mixture": [{"weights": [0.25] * 4, "prob": 0.5},
                                       {"weights": [0.05, 0.35, 0.3, 0.3], "prob": 0.5}]}}))
    (tmp / "dirichlet.json").write_text(json.dumps(
        {"d": 2, "seed": 106, "generator": {"type": "dirichlet", "concentration": [0.5] * 4}}))
    (tmp / "dirichlet_beta.json").write_text(json.dumps(  # numpy's beta route
        {"d": 1, "seed": 103, "generator": {"type": "dirichlet", "concentration": [0.05] * 2}}))
    for line in RUNS.strip().splitlines():
        argv = shlex.split(line.format(tmp=tmp))
        assert main([*argv, "--out", str(tmp / "out.csv")]) == 0, argv
    assert main(["hmin", "--bogus"]) == 1  # enters _Parser.error
    assert main(["--version"]) == 0
    for model, seed in ((Bernoulli((0.25, 0.75)), 0), (CascadeDirichlet((0.4, 0.4)), 103)):
        estimate_packing_dim(make_measure(1, model, depth=20, seed=seed), 20, 2, 0)
    run_translation_trials(make_measure(1, CantorMiddleHalf(), depth=12),
                           0.25, 0.25, 0.0, 8, 0, range(2))


def test_every_function_runs_but_the_allowed(tmp_path):
    # a cached function answers a repeat call without being entered, so the
    # caches earlier tests filled are emptied first
    for name, module in list(sys.modules.items()):
        if name.startswith("porodim."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        _run_everything(tmp_path)
    finally:
        sys.setprofile(None)
    entered = {(str(Path(file).resolve()), line) for file, line in entered}
    never = sorted(name for key, name in _functions().items() if key not in entered)
    assert never == sorted(ALLOWED)
