"""Run every workload for several seeds, print every metric, record a baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run lasts BENCHMARK.json's `run_seconds`.  Set k (of 10) runs each
workload once with seed k, rotating the workload order from set to set, so
that slow and fast spells of a noisy host fall on every workload alike.
Then one traced run per workload gives the per-layer split.
The table shows, per workload and metric, the median, the quartiles and the
spread (interquartile range over median) of the untraced runs, and the fail
share (failed over attempted commands).  With `--out` the same figures are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    names = list(workloads.GENERATORS)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))["run_seconds"]

    results = {name: [] for name in names}
    for k in range(SETS):
        for name in names[k % len(names):] + names[:k % len(names)]:
            results[name].append(run_once(name, k, seconds, 0))

    record = {"sets": SETS, "seconds": seconds, "workloads": {}}
    print(f"{'workload':9} {'metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}  unit")
    for name in names:
        runs = results[name]
        entry = {"metrics": {}, "correct": all(r["correct"] for r in runs)}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry["fail_share"] = failed / attempted
        for metric, first in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = first["unit"]
            entry["metrics"][metric] = stats
            print(f"{name:9} {metric:34} {stats['median']:12.4f} "
                  f"{stats['q1']:12.4f} {stats['q3']:12.4f} "
                  f"{stats['spread']:7.3f}  {stats['unit']}")
        print(f"{name:9} {'fail_share':34} {entry['fail_share']:12.4f} "
              f"{'':12} {'':12} {'':7}  share "
              f"({failed}/{attempted}; correct={entry['correct']})")
        traced = run_once(name, 0, seconds, 1)["metrics"]
        entry["trace"] = {k: v["value"] for k, v in traced.items()}
        self_s = {layer: traced[f"{layer}.self_s"]["value"]
                  for layer in tracer.LAYERS}
        wall = traced["trace.wall_s"]["value"]
        entry["dominant_layer"] = max(self_s, key=self_s.get)
        for metric, v in traced.items():
            print(f"{name:9} {metric:34} {v['value']:12.4f} "
                  f"{'':12} {'':12} {'':7}  {v['unit']} (traced)")
        split = ", ".join(f"{layer} {100 * s / wall:.0f}%" for layer, s in
                          sorted(self_s.items(), key=lambda kv: -kv[1])
                          if s / wall >= 0.01)
        print(f"{name:9} self-time split: {split}")
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
