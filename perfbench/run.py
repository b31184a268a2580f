"""porodim benchmark: four workloads driven through the package's public
entry points, end-to-end metrics from untraced runs and per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload walk_deep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root (or any checkout of it); the package is
imported from ``src/`` next to this directory, never from site-packages.
Each workload runs in fresh worker processes, serially: several set-up-only
processes give the median ``setup_s``, then one process measures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The
line before it is the full record: provenance, per-workload inputs, sample
counts, output digests and any failures.  The exit code is 1 when any item
failed its correctness check, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_METRICS, SWEEP_DEPTHS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_METRICS = (
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: set-up-only processes per run; with the measuring process's own set-up
#: this gives five samples for the median
SETUP_PROBES = 4
#: hard limit on the whole run, below the 180 s a run may take
RUN_BUDGET_S = 170.0
#: sweep paths per depth, so each depth walks about 50k steps in total
SWEEP_PATHS = {1000: 50, 10000: 5, 50000: 1}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an item failing)."""


def _child(mode: str, args, outdir: Path, deadline: float, extra=()) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--t0", repr(t0),
        "--outdir", str(outdir), *(["--tiny"] if args.tiny else []), *extra,
    ]
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {mode} timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _git(*argv: str) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), *argv],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, numpy_version: str) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    wl = WORKLOADS[args.workload](args.seed, args.tiny, "")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_sha256(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "why": wl.why,
        "item": wl.item,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs_round0": wl.inputs(0),
    }


def run_workload(args) -> tuple[dict, dict]:
    """(result line, full record) for one workload."""
    deadline = time.monotonic() + RUN_BUDGET_S
    outdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res = _child("trace", args, outdir, deadline)
            metrics = res["metrics"]
            if args.workload == "walk_deep":
                _depth_sweep(args, outdir, deadline, metrics, res)
            units = PER_LAYER_METRICS
        else:
            probes = [
                _child("setup", args, outdir, deadline)
                for _ in range(1 if args.tiny else SETUP_PROBES)
            ]
            res = _child("measure", args, outdir, deadline)
            metrics = {k: res[k] for k in ("items_per_s", "peak_rss_mb")}
            setups = [*probes, res]
            metrics["setup_s"] = statistics.median(p["setup_s"] for p in setups)
            res["raw"] = {
                "items_per_s": res["raw_items_per_s"],
                "setup_s": statistics.median(p["raw_setup_s"] for p in setups),
                "reference_scale": statistics.median(res["reference_scale"]),
            }
            units = END_TO_END_METRICS
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record = {
        "provenance": provenance(args, res["numpy"]),
        "fail_frac": res["failed"] / res["attempted"],
        "samples": {k: res[k] for k in ("rounds", "calls", "attempted")},
        "item_latency": res["latency"],
        "raw_wall_clock": res.get("raw"),
        "output_sha256": res["digests"],
        "failures": res["failures"],
    }
    return result, record


def _depth_sweep(args, outdir: Path, deadline: float, metrics: dict, res: dict) -> None:
    """Walk cost and peak RSS at 1k, 10k and 50k steps, one process each."""
    for depth in SWEEP_DEPTHS:
        paths = 1 if args.tiny else SWEEP_PATHS[depth]
        out = _child("sweep", args, outdir, deadline,
                     ("--depth", str(depth), "--paths", str(paths)))
        metrics[f"measure.walk.us_per_step.d{depth}"] = out["us_per_step"]
        metrics[f"measure.walk.peak_rss_mb.d{depth}"] = out["peak_rss_mb"]
        res["attempted"] += out["steps"]
        if not out["ok"]:
            res["failed"] += out["steps"]
            res["failures"].append(f"sweep depth {depth}: estimate off target")
    lo, hi = SWEEP_DEPTHS[0], SWEEP_DEPTHS[-1]
    metrics["measure.walk.depth_cost_ratio"] = (
        metrics[f"measure.walk.us_per_step.d{hi}"]
        / metrics[f"measure.walk.us_per_step.d{lo}"]
    )


def _print_table(name: str, result: dict, record: dict) -> None:
    samples = record["samples"]
    print(f"== {name}: {samples['rounds']} rounds, {samples['calls']} timed calls, "
          f"{samples['attempted']} items, fail_frac {record['fail_frac']:g}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:40s} {entry['value']:>14.6g} {entry['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the acceptance-criterion seed)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes, for the benchmark's smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "porodim" / "__init__.py").is_file():
        print(f"error: no porodim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed
    results = {}
    try:
        for name in names:
            args.workload = name
            args.seed = WORKLOADS[name].default_seed if seed is None else seed
            result, record = run_workload(args)
            results[name] = result
            if len(names) > 1:
                _print_table(name, result, record)
            print(json.dumps({"record": record}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = results[names[0]] if len(names) == 1 else {"workloads": results}
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
