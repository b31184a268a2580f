"""Command-line front door.

Subcommands: solve (dimension-drop curve tables), simulate (path experiments
with a bound check), oracle (brute force vs solver comparison), translate
(random-translation porosity transfer), hmin (converse-bound tables).  All
output is metadata-headed CSV; identical configs produce byte-identical
files.  Exit codes: 0 success, 1 a ValueError (a bad parameter or a query past
the depth) or a run too large for memory, 2 failed pass-criterion under --strict.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__, bounds, oracle
from .dimension import _trajectory_from_steps, hmin_and_converse
from .measure import (
    _PATH_STREAM,
    MAX_DIM,
    GeneratorSpec,
    build_tree_measure,
    derived_rng,
    spec_from_json,
    spec_to_json,
)
from .porosity import (MAX_KD, _check_porosity, run_translation_trials,
                       sample_porous_path, translation_report)


#: Largest simulate run in path steps, depth x paths.  It admits one path
#: 10^5 levels deep; a path keeps its walk, whose addresses have ``level``
#: bits, so its memory grows with the square of its depth.
MAX_PATH_STEPS = 100_000
#: Largest translate run, in trials.
MAX_TRIALS = 10_000


def _fmt(x) -> str:
    """One CSV field: a float to 12 significant digits, anything else as str."""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def write_csv(path, command: str, params: dict, header: list[str], rows) -> None:
    """Metadata header first, so any row is reproducible from the file alone."""
    lines = [f"# command={command}"]
    for key in sorted(params):
        lines.append(f"# {key}={_fmt(params[key])}")
    lines.append(f"# version={__version__}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _load_spec(args, default_depth: int) -> tuple[GeneratorSpec, int]:
    """The measure and path depth: --gen and its flags become the same JSON
    object a --config file holds; --depth, then the config's, then the default."""
    if args.config is not None:
        if args.d is not None or args.weights is not None:
            raise ValueError("--config defines the measure; drop --d and --weights")
        with open(args.config) as fh:
            config = fh.read()
    elif (args.weights is None) == (args.gen == "bernoulli"):
        raise ValueError(
            "--weights w0,w1,... goes with --gen bernoulli, and only with it")
    else:
        gen: dict = {"type": args.gen}
        if args.weights is not None:
            gen["weights"] = [float(x) for x in args.weights.split(",")]
        config = {"d": 1 if args.d is None else args.d, "generator": gen}
    spec, cfg_depth = spec_from_json(config)
    if args.seed is not None:
        spec = GeneratorSpec(spec.d, spec.model, args.seed)
    if args.depth is not None:
        return spec, args.depth
    return spec, default_depth if cfg_depth is None else cfg_depth


def _cases(args, default: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The one (d, k) pair given by --d and --k, or the default table."""
    if (args.d is None) != (args.k is None):
        raise ValueError("--d and --k go together: give both or neither")
    return default if args.d is None else [(args.d, args.k)]


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    pairs = _cases(args, [(2, 1), (2, 2)])
    rows = [(d, k, *row) for d, k in pairs for row in bounds.solve_table(d, k, args.points)]
    write_csv(
        args.out,
        "solve",
        {"pairs": ";".join(f"{d}:{k}" for d, k in pairs), "points": args.points},
        ["d", "k", "eps", "eps_scaled", "s", "t"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


def _jobs(requested: int, tasks: int) -> int:
    """Worker processes to start: never more than the tasks or the CPUs."""
    return max(1, min(requested, tasks, os.cpu_count() or 1))


def _map(fn, tasks: list[tuple], jobs: int):
    """fn(*task) for each task, in order, in a pool of ``jobs`` processes."""
    if jobs == 1:
        return map(fn, *zip(*tasks))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _simulate_one_path(spec: GeneratorSpec, k: int, eps: float, depth: int,
                       seed: int, index: int) -> tuple:
    """CSV row and trajectory of one re-treed path (worker-safe)."""
    base = build_tree_measure(spec, "uniform", depth * k + k,
                              max_level=depth * k + k)
    rng = derived_rng(seed, _PATH_STREAM, index)
    steps, flags = sample_porous_path(base, k, eps, rng, depth)
    traj = _trajectory_from_steps(steps)
    row = (index, depth, traj.terminal_D, float(traj.res_H[-1]), float(traj.res_L[-1]),
           sum(flags) / len(flags), int(traj.porous.sum()), len(flags),
           "", "", "")
    return row, traj


def _cmd_simulate(args) -> int:
    spec, depth = _load_spec(args, 1000)
    paths, k, eps, seed = args.paths, args.k, args.eps, spec.seed
    if depth * paths > MAX_PATH_STEPS:
        raise ValueError(
            f"--depth x --paths must be <= {MAX_PATH_STEPS}, got {depth} x {paths}")
    if not math.isfinite(args.slack):
        raise ValueError(f"--slack must be finite, got {args.slack}")
    if (args.trajectories is not None and args.out is not None
            and os.path.realpath(args.trajectories) == os.path.realpath(args.out)):
        raise ValueError("--trajectories and --out name the same file")
    d = spec.d
    _check_porosity(d, k, eps)  # before any worker starts or node is realized

    tasks = [(spec, k, eps, depth, seed, i) for i in range(paths)]
    rows, traj_rows = [], []
    for row, traj in _map(_simulate_one_path, tasks, _jobs(args.jobs, paths)):
        rows.append(row)
        if args.trajectories:
            traj_rows.extend((row[0], *step) for step in traj.csv_rows())

    dim_estimate = max(r[2] for r in rows)
    eta_hat = sum(r[5] for r in rows) / len(rows)
    t = bounds.t_dk(d, k, eps)
    bound = d - eta_hat * t
    passed = dim_estimate <= bound + args.slack
    rows.append(("summary", depth, dim_estimate, "", "", eta_hat, "", "", t, bound,
                 int(passed)))
    write_csv(
        args.out,
        "simulate",
        {
            "spec": spec_to_json(spec).replace("\n", " "),
            "d": d,
            "k": k,
            "eps": eps,
            "depth": depth,
            "paths": paths,
            "seed": seed,
            "slack": args.slack,
        },
        ["path", "depth", "Dn", "resH", "resL", "eta_hat", "porous_steps", "M_n", "t",
         "bound", "pass"],
        rows,
    )
    if args.trajectories:
        write_csv(
            args.trajectories,
            "simulate-trajectories",
            {"d": d, "k": k, "eps": eps, "depth": depth, "paths": paths, "seed": seed},
            ["path", "n", "I", "L", "H", "lambda", "Mbar", "Dn", "resH", "resL", "porous"],
            traj_rows,
        )
    if not passed and args.strict:
        return 2
    return 0


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    cases = _cases(args, [(1, 1), (1, 2), (2, 1), (2, 2)])
    rows = []
    for d, k in cases:
        eps_list = [args.eps] if args.eps is not None else bounds.eps_grid(d, k, 3)
        for eps in eps_list:
            *values, am = oracle.compare(d, k, eps, args.grid)
            argmax = "q=" + "|".join(_fmt(x) for x in am.q) + ";p=" + _fmt(am.p)
            rows.append((d, k, eps, *values, argmax))
    write_csv(
        args.out,
        "oracle",
        {"cases": ";".join(f"{d}:{k}" for d, k in cases), "grid": args.grid},
        ["d", "k", "eps", "value_bruteforce", "value_candidate", "value_solver", "gap",
         "argmax"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# translate


def _translate_chunk(spec: GeneratorSpec, r: float, alpha: float, eps: float,
                     depth: int, seed: int, indices: range) -> list:
    need = depth + bounds.k_of_alpha(spec.d, alpha, r)
    mu = build_tree_measure(spec, "uniform", need, max_level=need)
    return run_translation_trials(mu, r, alpha, eps, depth, seed, indices)


def _cmd_translate(args) -> int:
    spec, depth = _load_spec(args, 12)
    trials, alpha, eps, seed = args.trials, args.alpha, args.eps, spec.seed
    r = 0.25  # the homothety ratio of the paper's argument; see bounds.k_of_alpha
    if args.eta is not None:
        bounds._check_eta(args.eta)  # before the trials run
    elif args.strict:
        raise ValueError("--strict checks the fraction against --eta; give --eta")

    k = bounds.k_of_alpha(spec.d, alpha, r)
    jobs = _jobs(args.jobs, trials)
    cuts = [j * trials // jobs for j in range(jobs + 1)]
    tasks = [(spec, r, alpha, eps, depth, seed, range(lo, hi))
             for lo, hi in zip(cuts, cuts[1:])]
    results = [tr for chunk in _map(_translate_chunk, tasks, jobs) for tr in chunk]
    report = translation_report(results, spec.d, r, args.eta)

    rows = [(tr.trial, "|".join(_fmt(t) for t in tr.translation), tr.fraction, k, eps, depth)
            for tr in results]
    write_csv(
        args.out,
        "translate",
        {
            "spec": spec_to_json(spec).replace("\n", " "),
            "ratio": r,
            "alpha": alpha,
            "eps": eps,
            "trials": trials,
            "depth": depth,
            "seed": seed,
            "eta_target": "" if args.eta is None else args.eta,
            "mean_fraction": report.mean_fraction,
            "min_fraction": report.min_fraction,
            "threshold": "" if report.threshold is None else report.threshold,
        },
        ["trial", "t", "fraction", "k", "eps", "depth"],
        rows,
    )
    if args.strict and not report.passed:
        return 2
    return 0


# ---------------------------------------------------------------------------
# hmin


def _cmd_hmin(args) -> int:
    d, eta = args.d, args.eta
    rows = []
    for eps in bounds.eps_grid(d, 1, args.points):
        cb = hmin_and_converse(d, eps, eta)
        rows.append((eps, cb.hmin, cb.lower_bound))
    write_csv(
        args.out,
        "hmin",
        {"d": d, "eta": eta, "points": len(rows)},
        ["eps", "hmin", "lower_bound"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------


def _count(most: float = math.inf):
    """The argparse type of a count flag: an int in [1, most]."""
    def parse(text: str) -> int:
        n = int(text)
        if not 1 <= n <= most:
            span = "be >= 1" if most == math.inf else f"lie in [1, {most}]"
            raise argparse.ArgumentTypeError(f"must {span}, got {n}")
        return n
    parse.__name__ = "int"  # int's ValueError reads "invalid int value: 'x'"
    return parse


class _Parser(argparse.ArgumentParser):
    """Parse errors raise ValueError: one stderr line and exit 1."""

    def error(self, message):
        raise ValueError(message)


def _measure_flags(p, depth: int) -> None:
    """The measure and path flags shared by simulate and translate."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="generator config JSON file")
    source.add_argument("--gen", choices=("uniform", "bernoulli", "cantor_middle_half"),
                        help="inline generator")
    p.add_argument("--d", type=int, help=f"ambient dimension for --gen, 1..{MAX_DIM} (default 1)")
    p.add_argument("--weights", help="comma-separated weights for --gen bernoulli")
    p.add_argument("--seed", type=int, help="master seed (default: the config's, else 0)")
    p.add_argument("--depth", type=_count(),
                   help=f"path depth (default: the config's, else {depth})")
    p.add_argument("--eps", type=float, default=0.0, help="hole mass threshold")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--jobs", type=_count(), default=1,
                   help="worker processes (at most)")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when the pass-criterion fails")


def _table_flags(p) -> None:
    """--out, and the --jobs that the serial tables accept and ignore."""
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--jobs", type=_count(), default=1,
                   help="ignored: the table runs serially; accepted because "
                        "perfbench/workloads.py passes --jobs 1")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="porodim",
        description="Porosity and packing-dimension experiments on dyadic tree measures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="dimension-drop curve table")
    _table_flags(p)
    p.add_argument("--d", type=int, help="ambient dimension (with --k; default d=2, k=1,2)")
    p.add_argument("--k", type=int, help="dyadic hole depth (with --d)")
    p.add_argument("--points", type=int, default=101,
                   help=f"grid points per curve, 2..{bounds.MAX_TABLE_POINTS}")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="path simulation with bound check")
    _measure_flags(p, 1000)
    p.add_argument("--paths", type=_count(), default=20,
                   help=f"number of sampled paths, with depth x paths <= {MAX_PATH_STEPS}")
    p.add_argument("--k", type=int, default=1, help=f"hole depth, with k*d <= {MAX_KD}")
    p.add_argument("--slack", type=float, default=0.05,
                   help="bound-check slack for finite-depth estimates (finite)")
    p.add_argument("--trajectories",
                   help="also write full per-step trajectories to this CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="brute force vs solver comparison")
    _table_flags(p)
    p.add_argument("--d", type=int, help="ambient dimension (with --k; default battery)")
    p.add_argument("--k", type=int, help="dyadic hole depth (with --d)")
    p.add_argument("--eps", type=float,
                   help="one hole mass threshold (default 0, 2^-kd/2 and 2^-kd)")
    p.add_argument("--grid", type=int, default=500,
                   help=f"grid points per free dimension, with grid and "
                        f"grid^(k-1) <= {oracle.MAX_GRID_POINTS}")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("translate", help="random-translation porosity transfer")
    _measure_flags(p, 12)
    p.add_argument("--trials", type=_count(MAX_TRIALS), default=100,
                   help=f"number of trials, 1..{MAX_TRIALS}; a trial at d >= 2 "
                        "realizes about 2^((d-1)*depth) source nodes")
    p.add_argument("--alpha", type=float, default=0.25,
                   help=f"Euclidean hole size, with k(alpha, 1/4)*d <= {MAX_KD}")
    p.add_argument("--eta", type=float, help="porous-scale fraction to check, in [0, 1]")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("hmin", help="minimal-entropy converse table")
    _table_flags(p)
    p.add_argument("--d", type=int, default=1, help="ambient dimension")
    p.add_argument("--eta", type=float, default=0.5, help="porous-scale fraction")
    p.add_argument("--points", type=int, default=33,
                   help=f"eps grid points, 2..{bounds.MAX_TABLE_POINTS}")
    p.set_defaults(func=_cmd_hmin)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help and --version print and exit while parsing
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: this run is too large for the memory available",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
