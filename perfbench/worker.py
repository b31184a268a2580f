"""One benchmark process: set up a workload, then measure it.

Started by run.py in a fresh interpreter so that set-up time and peak RSS
belong to the workload alone.  Prints one JSON object on stdout.

Modes:
  setup    set up and stop (one set-up time sample)
  measure  set up, then repeat rounds with fresh inputs for --seconds
  trace    set up, repeat round 0 untraced for --seconds, then run round 0
           once under the tracer and report per-layer metrics
  sweep    one Bernoulli walk depth of the depth sweep

Times are reported in reference seconds.  The host's CPU is shared, and the
speed this process gets drifts by tens of percent over tens of seconds,
which no median over a short run removes.  So every round is bracketed by a
fixed reference workload, and the round's wall times are scaled by
REFERENCE_S / (measured reference time).  The reference mirrors the
workload's kind of work, so that it feels the same contention: workloads
whose time goes to numpy operations on large arrays add such operations to
it.  The reference is benchmark code, so a faster program still reads
faster.  Raw wall-clock figures are kept in
the record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Nominal time of reference_loop(large_arrays), close to its time on an
#: idle 2-core x86-64 host with CPython 3.11 and numpy 2.4.
REFERENCE_S = {False: 0.009, True: 0.012}


def _reference_work(np, large_arrays: bool) -> None:
    """A fixed mix of the work porodim does: small-int arithmetic, growing
    big integers (deep dyadic addresses), tuple and dict churn and numpy
    operations on small arrays; with ``large_arrays``, also numpy operations
    on arrays larger than the L2 cache, as in the brute-force grid."""
    acc = 0
    for j in range(35_000):
        acc += j * j
    big = 1
    for j in range(3_000):
        big = (big << 3) | (j & 7)
    table = {}
    for j in range(8_000):
        table[(j, j + 1)] = (j,)
    a = np.arange(1.0, 20_001.0)
    for _ in range(30):
        a = np.log(a) + 1.0
    if large_arrays:
        b = np.linspace(1.0, 2.0, 300_000)
        for _ in range(2):
            b = np.log(b) + 1.0


def reference_loop(large_arrays: bool) -> float:
    """Median of three runs of the reference work, in wall seconds."""
    import numpy

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work(numpy, large_arrays)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(rounds) -> dict:
    """End-to-end figures over rounds, each (calls, digests, scale)."""
    calls = [c for cs, _, _ in rounds for c in cs]
    rates = [
        sum(c.items for c in cs) / (sum(c.seconds for c in cs) * scale)
        for cs, _, scale in rounds
    ]
    raw_rates = [
        sum(c.items for c in cs) / sum(c.seconds for c in cs) for cs, _, _ in rounds
    ]
    out = {
        "items_per_s": statistics.median(rates),
        "raw_items_per_s": statistics.median(raw_rates),
        "reference_scale": [scale for _, _, scale in rounds],
        "rounds": len(rounds),
        "calls": len(calls),
        "attempted": sum(c.items for c in calls),
        "failed": sum(c.items for c in calls if not c.ok),
        "failures": [f"{c.label}: {c.detail}" for c in calls if not c.ok][:5],
        "latency": None,
    }
    if all(c.items == 1 for c in calls) and len(calls) >= 100:
        # items timed one by one: per-item latency with >= 10 samples past p90
        ms = [c.seconds * scale * 1e3 for cs, _, scale in rounds for c in cs]
        deciles = statistics.quantiles(ms, n=10)
        out["latency"] = {"item_p50_ms": statistics.median(ms),
                          "item_p90_ms": deciles[8], "samples": len(ms)}
    return out


def run_scaled(fn, large_arrays: bool):
    """(fn(), scale): the reference work runs before and after ``fn``."""
    before = reference_loop(large_arrays)
    result = fn()
    after = reference_loop(large_arrays)
    return result, REFERENCE_S[large_arrays] / (0.5 * (before + after))


def _run_rounds(workload, seconds: float, fresh_inputs: bool) -> list:
    """Rounds until ``seconds`` have passed; always at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = len(rounds) if fresh_inputs else 0
        (calls, digests), scale = run_scaled(
            lambda: workload.run_round(r), workload.large_arrays
        )
        rounds.append((calls, digests, scale))
    return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("setup", "measure", "trace", "sweep"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--outdir", required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--depth", type=int, default=0, help="sweep depth")
    p.add_argument("--paths", type=int, default=1, help="sweep paths")
    args = p.parse_args(argv)

    import numpy

    import porodim
    import workloads

    if Path(porodim.__file__).resolve().parent != ROOT / "src" / "porodim":
        raise SystemExit(f"porodim imported from {porodim.__file__}, not {ROOT}/src")

    if args.mode == "sweep":
        return _sweep(args)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.outdir)
    wl.setup()
    raw_setup_s = time.monotonic() - args.t0
    out = {
        "setup_s": raw_setup_s * REFERENCE_S[wl.large_arrays]
        / reference_loop(wl.large_arrays),
        "raw_setup_s": raw_setup_s,
        "numpy": numpy.__version__,
    }
    if args.mode == "measure":
        rounds = _run_rounds(wl, args.seconds, fresh_inputs=True)
        out.update(summarize(rounds))
        out["peak_rss_mb"] = _peak_rss_mb()
        out["digests"] = rounds[0][1]
    elif args.mode == "trace":
        out.update(_trace(wl, args))
    json.dump(out, sys.stdout)
    return 0


def _trace(wl, args) -> dict:
    from tracer import Tracer

    untraced = _run_rounds(wl, args.seconds, fresh_inputs=False)
    untraced_s = statistics.median(
        sum(c.seconds for c in cs) * scale for cs, _, scale in untraced
    )
    tracer = Tracer()
    tracer.install()
    try:
        (calls, digests), scale = run_scaled(lambda: wl.run_round(0), wl.large_arrays)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(args.outdir, "..", f"spans-{wl.name}.csv"))
    out = summarize([*untraced, (calls, digests, scale)])
    out["metrics"] = tracer.metrics(untraced_s, scale)
    out["digests"] = digests
    if digests != untraced[0][1]:
        out["failures"].append("traced outputs differ from untraced outputs")
        out["failed"] = out["attempted"]
    return out


def _sweep(args) -> int:
    """One depth of the walk sweep: us per step and the process's peak RSS."""
    from porodim import measure
    from porodim.dimension import estimate_packing_dim
    from workloads import BERNOULLI_DIM

    spec = measure.GeneratorSpec(1, measure.Bernoulli((0.25, 0.75)))
    mu = measure.build_tree_measure(spec, "uniform", args.depth, max_level=args.depth)

    def walk():
        t0 = time.perf_counter()
        est = estimate_packing_dim(mu, args.depth, args.paths, args.seed)
        return est, time.perf_counter() - t0

    (est, secs), scale = run_scaled(walk, large_arrays=False)
    steps = args.depth * args.paths
    json.dump({
        "us_per_step": secs * scale / steps * 1e6,
        "peak_rss_mb": _peak_rss_mb(),
        "ok": abs(est.value - BERNOULLI_DIM) < 0.02,
        "steps": steps,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
