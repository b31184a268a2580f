"""Layer-boundary tracing for the traced benchmark run.

The tracer wraps public calls of the seven porodim modules from outside the
package: every module namespace that holds a reference to a wrapped function
gets the wrapper, and methods are replaced on their class.  Nothing under
``src/`` changes.  Each call records a span ``(name, start, end, parent)`` in
memory; counts are kept at the same boundaries.  When the traced round ends
the spans are written out and each span's self time (its duration minus the
part its child spans cover) is summed per span name and per layer.

Self times telescope: the self times of all spans add up to the durations of
the root spans, which are the benchmark's own public calls, so the per-layer
self times cover the traced wall time of those calls exactly.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

LAYERS = ("dyadic", "measure", "porosity", "dimension", "bounds", "oracle", "cli")

#: (module, attribute, span name).  An attribute "Class.method" wraps the
#: method on the class.  The span name's first component is the layer.
BOUNDARIES = (
    ("porodim.dyadic", "subdivide_uniform", "dyadic.subdivide_uniform"),
    ("porodim.dyadic", "porous_split", "dyadic.porous_split"),
    ("porodim.dyadic", "CubeAddress.ancestor", "dyadic.address"),
    ("porodim.dyadic", "CubeAddress.uniform_child", "dyadic.address"),
    ("porodim.dyadic", "CubeAddress.contains", "dyadic.address"),
    ("porodim.measure", "node_weights", "measure.node_weights"),
    ("porodim.measure", "build_tree_measure", "measure.build"),
    ("porodim.measure", "TreeMeasure.walk", "measure.walk"),
    ("porodim.measure", "TreeMeasure.sample_path", "measure.walk"),
    ("porodim.measure", "apply_homothety", "measure.pushforward"),
    ("porodim.measure", "_box_mass", "measure.pushforward"),
    ("porodim.porosity", "_classify_full", "porosity.classify"),
    ("porodim.porosity", "classify_porous", "porosity.classify"),
    ("porodim.porosity", "por2_depth", "porosity.por2"),
    ("porodim.porosity", "por2_profile", "porosity.por2"),
    ("porodim.porosity", "porous_retree", "porosity.retree"),
    ("porodim.porosity", "porous_walk", "porosity.walk"),
    ("porodim.porosity", "porous_fraction_trajectory", "porosity.fraction"),
    ("porodim.porosity", "run_translation_trials", "porosity.translate"),
    ("porodim.dimension", "estimate_packing_dim", "dimension.estimate"),
    ("porodim.dimension", "sampled_trajectory", "dimension.estimate"),
    ("porodim.dimension", "_trajectory_from_steps", "dimension.trajectory"),
    ("porodim.dimension", "hmin_and_converse", "dimension.hmin"),
    ("porodim.bounds", "solve_s", "bounds.solve_s"),
    ("porodim.bounds", "t_dk", "bounds.table"),
    ("porodim.bounds", "solve_table", "bounds.table"),
    ("porodim.oracle", "maximize_bruteforce", "oracle.bruteforce"),
    ("porodim.oracle", "fixed_point_candidate", "oracle.fixed_point"),
    ("porodim.oracle", "compare", "oracle.compare"),
    ("porodim.cli", "main", "cli.main"),
    ("porodim.cli", "write_csv", "cli.write_csv"),
)

#: Per-layer metrics the traced run reports, with units.  Counts and self
#: times cover one traced round; the walk sweep fields are filled by the
#: depth sweep and stay 0 on workloads that do not run it.
PER_LAYER_METRICS = (
    ("dyadic.self_s", "s"),
    ("dyadic.subdivide_uniform.calls", "count"),
    ("dyadic.porous_split.calls", "count"),
    ("measure.self_s", "s"),
    ("measure.node_weights.calls", "count"),
    ("measure.node_weights.self_s", "s"),
    ("measure.distinct_nodes", "count"),
    ("measure.realizations_per_node", "ratio"),
    ("measure.walk.self_s", "s"),
    ("measure.walk.steps", "count"),
    ("measure.walk.us_per_step.d1000", "us"),
    ("measure.walk.us_per_step.d10000", "us"),
    ("measure.walk.us_per_step.d50000", "us"),
    ("measure.walk.depth_cost_ratio", "ratio"),
    ("measure.walk.peak_rss_mb.d1000", "MB"),
    ("measure.walk.peak_rss_mb.d10000", "MB"),
    ("measure.walk.peak_rss_mb.d50000", "MB"),
    ("measure.pushforward.self_s", "s"),
    ("measure.pushforward.source_realizations", "count"),
    ("porosity.self_s", "s"),
    ("porosity.classify.calls", "count"),
    ("porosity.classify.calls.k1", "count"),
    ("porosity.classify.calls.k2", "count"),
    ("porosity.classify.calls.k3", "count"),
    ("porosity.classify.calls.k4", "count"),
    ("porosity.classify.self_s", "s"),
    ("porosity.por2.calls", "count"),
    ("porosity.por2.self_s", "s"),
    ("porosity.porous_steps", "count"),
    ("dimension.self_s", "s"),
    ("dimension.trajectory.self_s", "s"),
    ("dimension.trajectory.steps", "count"),
    ("bounds.self_s", "s"),
    ("bounds.solve_s.calls", "count"),
    ("bounds.solve_s.self_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.bruteforce.self_s", "s"),
    ("oracle.grid_points", "count"),
    ("oracle.fixed_point.iterations", "count"),
    ("cli.self_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.self_sum_s", "s"),
    ("trace.traced_round_s", "s"),
    ("trace.untraced_round_s", "s"),
    ("trace.overhead", "ratio"),
)

SWEEP_DEPTHS = (1000, 10000, 50000)


def _grid_points(d: int, k: int, eps: float, grid: int) -> int:
    """Candidates maximize_bruteforce evaluates, computed from its arguments:
    hole-mass grid values times the simplex lattice points of the k - 1 free
    level masses (index sum <= grid - 1)."""
    p_values = min(grid, 65) if eps > 0.0 else 1
    return p_values * math.comb(grid - 1 + k - 1, k - 1)


class Tracer:
    """Spans and counts for one traced round; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # parallel span columns: name id, start, end, parent index (-1 = root)
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self._pushforward_depth = 0
        self.counts: dict[str, int] = {}
        self._nodes: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- count hooks, called with the wrapped call's arguments -------------

    def _on_call(self, attr: str, args, kwargs) -> None:
        if attr == "node_weights":
            spec, q = args[0], args[1]
            self._count("measure.node_weights.calls")
            if self._pushforward_depth:
                self._count("measure.pushforward.source_realizations")
            # distinct (seed, address) pairs within one public call; hashed
            # because deep addresses hold level-bit integers
            call = self._stack[0] if self._stack else -1
            self._nodes.add(hash((call, spec.seed, q.level, q.coords)))
        elif attr == "subdivide_uniform":
            self._count("dyadic.subdivide_uniform.calls")
        elif attr == "porous_split":
            self._count("dyadic.porous_split.calls")
        elif attr == "_classify_full":
            self._count("porosity.classify.calls")
            self._count(f"porosity.classify.calls.k{args[2]}")
        elif attr == "por2_depth":
            self._count("porosity.por2.calls")
        elif attr == "solve_s":
            self._count("bounds.solve_s.calls")
        elif attr == "_trajectory_from_steps":
            self._count("dimension.trajectory.steps", len(args[0]))
        elif attr == "maximize_bruteforce":
            d, k, eps = args[:3]
            grid = args[3] if len(args) > 3 else kwargs.get("grid", 500)
            self._count("oracle.grid_points", _grid_points(d, k, eps, grid))

    def _on_result(self, attr: str, args, result) -> None:
        if attr == "fixed_point_candidate":
            self._count("oracle.fixed_point.iterations", result.iterations)
        elif attr == "porous_walk":
            self._count(
                "porosity.porous_steps",
                sum(part.hole is not None for _, part, _, _ in result),
            )
        elif attr == "write_csv" and args[0] is not None:
            self._count("cli.csv_bytes", os.path.getsize(args[0]))

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, fn, attr: str, span: str):
        nid = self._name_id(span)
        pushforward = span == "measure.pushforward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._on_call(attr, args, kwargs)
            if pushforward:
                self._pushforward_depth += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if pushforward:
                    self._pushforward_depth -= 1
            self._on_result(attr, args, result)
            return result

        return wrapper

    def _wrap_walk(self, fn, span: str):
        """TreeMeasure.walk is a generator: one span per resumption, so the
        consumer's work between steps is not charged to the walk."""
        nid = self._name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    step = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self._count("measure.walk.steps")
                if step[1].hole is not None:
                    self._count("porosity.porous_steps")
                yield step

        return wrapper

    def install(self) -> None:
        homes = {m: importlib.import_module(m) for m, _, _ in BOUNDARIES}
        package = [
            m for name, m in list(sys.modules.items())
            if name == "porodim" or name.startswith("porodim.")
        ]
        for modname, attr, span in BOUNDARIES:
            home = homes[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                wrap = (
                    self._wrap_walk(fn, span)
                    if attr == "TreeMeasure.walk"
                    else self._wrap_function(fn, meth, span)
                )
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, wrap)
                continue
            fn = getattr(home, attr)
            wrap = self._wrap_function(fn, attr, span)
            for mod in package:
                if mod.__dict__.get(attr) is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrap)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            out[self.names[self.span_name[i]]] += dur - child[i]
        return out

    def root_seconds(self) -> float:
        return math.fsum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_parent[i] < 0
        )

    def write_spans(self, path: str) -> None:
        """One line per span: index, name, start, end, parent (seconds on
        the perf_counter clock)."""
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]!r},"
                    f"{self.span_end[i]!r},{self.span_parent[i]}\n"
                )

    def metrics(self, untraced_round_s: float, scale: float) -> dict[str, float]:
        """Per-layer metrics of the traced round (sweep fields left at 0).

        Times are multiplied by ``scale``, the traced round's reference
        scale; ``untraced_round_s`` is already scaled."""
        selfs = {name: t * scale for name, t in self.self_times().items()}
        m = dict.fromkeys((name for name, _ in PER_LAYER_METRICS), 0)
        m.update(self.counts)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = math.fsum(
                t for name, t in selfs.items() if name.split(".")[0] == layer
            )
        for span in (
            "measure.node_weights", "measure.walk", "measure.pushforward",
            "porosity.classify", "porosity.por2", "dimension.trajectory",
            "bounds.solve_s", "oracle.bruteforce",
        ):
            m[f"{span}.self_s"] = selfs.get(span, 0.0)
        m["measure.distinct_nodes"] = len(self._nodes)
        if self._nodes:
            m["measure.realizations_per_node"] = (
                m["measure.node_weights.calls"] / len(self._nodes)
            )
        traced = self.root_seconds() * scale
        m["trace.spans"] = len(self.span_name)
        m["trace.self_sum_s"] = math.fsum(selfs.values())
        m["trace.traced_round_s"] = traced
        m["trace.untraced_round_s"] = untraced_round_s
        m["trace.overhead"] = traced / untraced_round_s - 1.0
        return m
