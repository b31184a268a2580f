"""Smoke test of the benchmark itself, at tiny input sizes (about a minute):

    python3 perfbench/smoke.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and a traced run every per-layer
metric, that no item fails, that another seed generates other inputs, and
that traced and untraced runs write identical outputs (same sha256 per CSV).
It also checks that the benchmark refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and the benchmark's files.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(root: Path, *argv: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *argv],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def _expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: _units(spec["end_to_end"]), 1: _units(spec["per_layer"])}
    _expect(
        [(w["name"], w["why"]) for w in spec["workloads"]]
        == [(name, wl.why) for name, wl in WORKLOADS.items()],
        "BENCHMARK.json lists the benchmark's workloads and why each was chosen",
    )
    for name, wl in WORKLOADS.items():
        runs = {}
        for seed, trace in ((wl.default_seed, 0), (wl.default_seed + 1, 0),
                            (wl.default_seed, 1), (wl.default_seed, 2)):
            # trace 2 stands for a second traced run at the same seed
            code, lines = _run(ROOT, "--workload", name, "--seed", str(seed),
                               "--trace", str(min(trace, 1)))
            _expect(code == 0, f"{name} seed {seed} trace {trace} exits 0")
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == want[min(trace, 1)],
                    f"{name} trace {trace}: every metric with its unit")
            _expect(result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1, f"{name}: no failed items")
            runs[seed, trace] = record, result["metrics"]
        (a, _), (b, _) = runs[wl.default_seed, 0], runs[wl.default_seed + 1, 0]
        (t, m1), (_, m2) = runs[wl.default_seed, 1], runs[wl.default_seed, 2]
        _expect(a["provenance"]["inputs_round0"] != b["provenance"]["inputs_round0"],
                f"{name}: the seed changes the generated inputs")
        _expect(a["output_sha256"] == t["output_sha256"],
                f"{name}: traced and untraced outputs have identical digests")
        counts = [k for k, v in m1.items()
                  if v["unit"] in ("count", "bytes") or k == "measure.realizations_per_node"]
        _expect(all(m1[k]["value"] == m2[k]["value"] for k in counts),
                f"{name}: per-layer counts repeat exactly across traced runs")
        total, traced = m1["trace.self_sum_s"]["value"], m1["trace.traced_round_s"]["value"]
        _expect(abs(total - traced) <= 1e-9 * traced,
                f"{name}: layer self times add up to the traced call time")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(bare, "--workload", "translate", "--seed", "1", "--trace", "0")
        _expect(code != 0 and not lines, "without the sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
