"""The benchmark's workloads: inputs generated from a seed, one round of
public calls into porodim, and a correctness check on every call.

A round is a fixed amount of work whose inputs are a pure function of
``(seed, round index)``; a timed run repeats rounds with fresh inputs until
its time is up.  Round 0 of each workload reproduces an acceptance-criterion
configuration at the workload's default seed.  Only the public call itself
is timed; writing configs, reading CSVs and checking results are not.

Items (the unit of ``items_per_s``):
  walk_deep      one walk step (paths x depth per estimate_packing_dim call)
  cascade_bound  one re-tree path step (paths x depth per simulate run)
  translate      one translation trial (timed on its own)
  solver_oracle  one CSV table row
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

#: Round r of a seeded workload draws from seed + r * ROUND_STRIDE, so
#: round 0 runs exactly the acceptance seed.
ROUND_STRIDE = 1_000_000

#: H(1/4, 3/4) / log 2, the packing dimension of the Bernoulli(1/4, 3/4)
#: product measure (criterion 8).
BERNOULLI_DIM = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75)) / math.log(2.0)

# Criterion 9: a finite-depth estimate may exceed the bound by this slack.
BOUND_SLACK = 0.05
# Criterion 6: brute force and solver agree to this gap.
ORACLE_GAP = 2e-3
# Criterion 10: translation porosity fractions over the round's trials.
MIN_MEAN_FRACTION = 0.4
MIN_FRACTION = 0.25


@dataclass
class Call:
    """One timed public call and the outcome of its correctness check."""

    label: str
    items: int
    seconds: float
    ok: bool
    detail: str = ""


def _timed(fn, *args):
    """(result, seconds, error); an exception is a failed call, not fatal."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the harness must count the failure and go on
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0, None


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Workload:
    name = ""
    why = ""
    item = ""
    default_seed = 0
    #: the workload's time goes mostly to numpy operations on large arrays,
    #: so its timing reference includes them (see worker.py)
    large_arrays = False

    def __init__(self, seed: int, tiny: bool, outdir: str):
        self.seed = seed
        self.tiny = tiny
        self.outdir = outdir

    def setup(self) -> None:
        """Import the package and build what every round reuses.  Calls go
        through module attributes so that the tracer's wrappers are used."""
        import porodim.cli
        import porodim.dimension
        import porodim.measure
        import porodim.porosity

        self.cli = porodim.cli
        self.dim = porodim.dimension
        self.measure = porodim.measure
        self.por = porodim.porosity

    def sizes(self) -> dict:
        raise NotImplementedError

    def inputs(self, r: int) -> dict:
        """The generated inputs of round ``r``."""
        raise NotImplementedError

    def run_round(self, r: int) -> tuple[list[Call], dict[str, str]]:
        """Run round ``r``; returns its calls and the sha256 of each output."""
        raise NotImplementedError

    def _cli_call(self, label: str, argv: list[str], rows: int, items: int, check):
        """Run one CLI command writing ``rows`` CSV rows worth ``items``
        items; ``check(rows)`` returns "" or the reason the output is wrong."""
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            os.remove(out)
        code, secs, err = _timed(self.cli.main, argv)
        if err is None and code != 0:
            err = f"exit code {code}"
        if err is None:
            got = _read_csv(out)
            err = f"{len(got)} rows, expected {rows}" if len(got) != rows else check(got)
        digest = _sha256_file(out) if os.path.exists(out) else ""
        return Call(label, items, secs, not err, err or ""), digest


class WalkDeep(Workload):
    name = "walk_deep"
    item = "walk step"
    default_seed = 3  # criterion 8's path seed
    why = (
        "Bernoulli walks 20k deep via estimate_packing_dim: dyadic bigint "
        "addressing, TreeMeasure.walk and trajectory assembly; no per-node "
        "RNG, no porosity"
    )

    def sizes(self):
        if self.tiny:
            return {"depth": 2000, "paths": 1}
        return {"depth": 20000, "paths": 3}

    def setup(self):
        super().setup()
        m = self.measure
        depth = self.sizes()["depth"]
        spec = m.GeneratorSpec(1, m.Bernoulli((0.25, 0.75)))
        self.mu = m.build_tree_measure(spec, "uniform", depth, max_level=depth)

    def inputs(self, r):
        return {**self.sizes(), "weights": [0.25, 0.75],
                "path_seed": self.seed + r * ROUND_STRIDE}

    def run_round(self, r):
        s = self.sizes()
        seed = self.inputs(r)["path_seed"]
        est, secs, err = _timed(
            self.dim.estimate_packing_dim, self.mu, s["depth"], s["paths"], seed
        )
        if err is None and not abs(est.value - BERNOULLI_DIM) < 0.02:
            err = f"estimate {est.value!r} not within 0.02 of {BERNOULLI_DIM!r}"
        call = Call("estimate_packing_dim", s["depth"] * s["paths"], secs,
                    err is None, err or "")
        digest = "" if est is None else _sha256_text(repr(est.per_path))
        return [call], {"estimate.per_path": digest}


_MIXTURE = {"type": "mixture", "mixture": [
    {"weights": [0.5, 0.5], "prob": 0.5}, {"weights": [0.1, 0.9], "prob": 0.5}]}
_DIRICHLET = {"type": "dirichlet", "concentration": [0.5] * 4}

#: Criterion 9 configs: (label, d, generator, seed offset, k, eps).  The
#: offsets keep the acceptance seeds 101 (mixture) and 106 (Dirichlet).
CASCADES = (
    ("mixture_k1", 1, _MIXTURE, 0, 1, 0.1),
    ("dirichlet_k1", 2, _DIRICHLET, 5, 1, 0.1),
    ("dirichlet_k2", 2, _DIRICHLET, 5, 2, 0.05),
)


def _bound_ok(rows) -> str:
    """Criterion 9: the summary row's estimate stays below bound + slack."""
    summary = rows[-1]
    dim, bound = float(summary["Dn"]), float(summary["bound"])
    if not dim <= bound + BOUND_SLACK:
        return f"dim {dim} > bound {bound} + {BOUND_SLACK}"
    return ""


class CascadeBound(Workload):
    name = "cascade_bound"
    item = "re-tree path step"
    default_seed = 101  # criterion 9's mixture seed; Dirichlet runs at +5
    why = (
        "criterion 9 cascades via simulate --strict at depth 1k (k = 1, 2): "
        "per-node Philox realization and porous classification dominate"
    )

    def sizes(self):
        if self.tiny:
            return {"depth": 400, "paths": 1}
        return {"depth": 1000, "paths": 2}

    def setup(self):
        super().setup()
        self.configs = {}
        for label, d, gen, _, _, _ in CASCADES:
            path = os.path.join(self.outdir, f"{label}.json")
            with open(path, "w") as fh:
                json.dump({"d": d, "generator": gen}, fh)
            self.configs[label] = path

    def inputs(self, r):
        base = self.seed + r * ROUND_STRIDE
        return {**self.sizes(), "runs": [
            {"config": label, "seed": base + off, "k": k, "eps": eps}
            for label, _, _, off, k, eps in CASCADES
        ]}

    def run_round(self, r):
        s = self.sizes()
        calls, digests = [], {}
        for run in self.inputs(r)["runs"]:
            label = run["config"]
            out = os.path.join(self.outdir, f"simulate_{label}.csv")
            argv = [
                "simulate", "--config", self.configs[label],
                "--k", str(run["k"]), "--eps", str(run["eps"]),
                "--depth", str(s["depth"]), "--paths", str(s["paths"]),
                "--seed", str(run["seed"]), "--jobs", "1", "--strict",
                "--out", out,
            ]

            call, digest = self._cli_call(
                f"simulate {label}", argv, s["paths"] + 1,
                s["paths"] * s["depth"], _bound_ok,
            )
            calls.append(call)
            digests[f"simulate_{label}.csv"] = digest
        return calls, digests


class Translate(Workload):
    name = "translate"
    item = "translation trial"
    default_seed = 2024  # criterion 10's seed
    why = (
        "criterion 10 Cantor trials timed one by one: cached pushforward "
        "box-mass recursion, shallow por2 and porous_walk; many short items"
    )
    RATIO, ALPHA, EPS, DEPTH = 0.25, 0.25, 0.0, 12

    def sizes(self):
        return {"trials": 10 if self.tiny else 100, "depth": self.DEPTH,
                "ratio": self.RATIO, "alpha": self.ALPHA, "eps": self.EPS}

    def setup(self):
        super().setup()
        from porodim.bounds import k_of_alpha

        m = self.measure
        need = self.DEPTH + k_of_alpha(1, self.ALPHA)
        spec = m.GeneratorSpec(1, m.CantorMiddleHalf())
        self.mu = m.build_tree_measure(spec, "uniform", need, max_level=need)

    def inputs(self, r):
        n = self.sizes()["trials"]
        return {**self.sizes(), "trial_seed": self.seed,
                "trial_indices": [r * n, (r + 1) * n - 1]}

    def run_round(self, r):
        lo, hi = self.inputs(r)["trial_indices"]
        calls, lines, fractions = [], [], []
        for i in range(lo, hi + 1):
            res, secs, err = _timed(
                self.por.run_translation_trials, self.mu, self.RATIO,
                self.ALPHA, self.EPS, self.DEPTH, self.seed, (i,),
            )
            calls.append(Call(f"trial {i}", 1, secs, err is None, err or ""))
            if err is None:
                tr = res[0]
                fractions.append(tr.fraction)
                lines.append(f"{tr.trial},{tr.translation!r},{tr.fraction!r}")
        if fractions:
            mean = math.fsum(fractions) / len(fractions)
            low = min(fractions)
            if not (mean >= MIN_MEAN_FRACTION and low >= MIN_FRACTION):
                for c in calls:
                    c.ok = False
                    c.detail = c.detail or f"round mean {mean}, min {low}"
        return calls, {"trials": _sha256_text("\n".join(lines))}


class SolverOracle(Workload):
    name = "solver_oracle"
    item = "table row"
    default_seed = 0
    why = (
        "CLI tables oracle, oracle d=2 k=3 grid, solve, hmin: the only "
        "workload in bounds and oracle; builds no tree"
    )
    SOLVE_POINTS, HMIN_POINTS = 101, 33
    large_arrays = True

    def sizes(self):
        return {"oracle_d2k3_grid": 50 if self.tiny else 500,
                "solve_points": self.SOLVE_POINTS, "hmin_points": self.HMIN_POINTS}

    def inputs(self, r):
        j = (self.seed + r) % 16
        return {**self.sizes(),
                "oracle_d2k3_eps": 2.0 ** -6 * (j + 1) / 16,
                "hmin_d": 1 + (self.seed + r) % 2,
                "hmin_eta": ((self.seed + r) % 7 + 1) / 8}

    def run_round(self, r):
        inp = self.inputs(r)
        calls, digests = [], {}

        def gaps_ok(rows):
            worst = max(float(row["gap"]) for row in rows)
            return "" if worst < ORACLE_GAP else f"oracle gap {worst} >= {ORACLE_GAP}"

        def solve_ok(rows):
            # criterion 7: closed forms at eps = 0, zero drop at eps = 2^-kd,
            # strictly decreasing curves
            by_k = {k: [float(x["t"]) for x in rows if x["k"] == str(k)] for k in (1, 2)}
            closed2 = 2 - math.log2(2.0 / (-1.0 + math.sqrt(7.0 / 3.0)))
            if abs(by_k[1][0] - (2 - math.log2(3))) >= 1e-9:
                return f"t(2,1,0) = {by_k[1][0]}"
            if abs(by_k[2][0] - closed2) >= 1e-6:
                return f"t(2,2,0) = {by_k[2][0]}"
            if abs(by_k[1][-1]) >= 1e-9 or abs(by_k[2][-1]) >= 1e-9:
                return "nonzero drop at eps = 2^-kd"
            if not all(a > b for ts in by_k.values() for a, b in zip(ts, ts[1:])):
                return "drop curve not strictly decreasing"
            return ""

        def hmin_ok(rows):
            # H_min(2^-d) = d log 2, and the converse bound (1 - eta) H_min / log 2
            d, eta = inp["hmin_d"], inp["hmin_eta"]
            last = rows[-1]
            if abs(float(last["hmin"]) - d * math.log(2.0)) >= 1e-9:
                return f"hmin(2^-d) = {last['hmin']}"
            for row in rows:
                want = (1.0 - eta) * float(row["hmin"]) / math.log(2.0)
                if abs(float(row["lower_bound"]) - want) >= 1e-9:
                    return f"lower bound {row['lower_bound']} != {want}"
            return ""

        tables = (
            ("oracle", ["oracle", "--out"], 12, gaps_ok),
            ("oracle_d2k3", ["oracle", "--d", "2", "--k", "3",
                             "--eps", repr(inp["oracle_d2k3_eps"]),
                             "--grid", str(inp["oracle_d2k3_grid"]), "--out"],
             1, gaps_ok),
            ("solve", ["solve", "--points", str(self.SOLVE_POINTS), "--out"],
             2 * self.SOLVE_POINTS, solve_ok),
            ("hmin", ["hmin", "--d", str(inp["hmin_d"]),
                      "--eta", repr(inp["hmin_eta"]),
                      "--points", str(self.HMIN_POINTS), "--out"],
             self.HMIN_POINTS, hmin_ok),
        )
        for label, argv, rows, check in tables:
            out = os.path.join(self.outdir, f"{label}.csv")
            call, digest = self._cli_call(
                label, [*argv, out, "--jobs", "1"], rows, rows, check
            )
            calls.append(call)
            digests[f"{label}.csv"] = digest
        return calls, digests


WORKLOADS = {w.name: w for w in (WalkDeep, CascadeBound, Translate, SolverOracle)}
