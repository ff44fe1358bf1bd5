"""Repeat the benchmark over seeds and write the spread of every metric.

    python3 perfbench/sweep.py

Runs `run.py` on every workload of BENCHMARK.json with seeds 1-10 and
`run_seconds`, one process at a time, then one traced run per workload at
seed 1, and writes perfbench/baseline.json.  For every metric of the
summary lines (the bounded end-to-end ones and the unbounded timings) it
reports the median, the quartiles of `statistics.quantiles(values, n=4)`
and their distance as a share of the median (the spread), next to the
metric's bound from BENCHMARK.json where it has one.  It also counts, per
artifact of the cold run, the distinct sha256s over the set's runs
(`distinct_digests`; 1 means byte-reproducible).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1
OUT = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    tagged = {ln.split()[1]: json.loads(ln.split(" ", 2)[2])
              for ln in lines if ln.startswith(("# env ", "# digests "))}
    summary = {}
    for ln in lines:
        if ln.startswith("metric "):
            name, rest = ln[len("metric "):].split(" = ", 1)
            value = rest.split()[0]
            if value != "n/a":
                summary[name] = float(value)
    return json.loads(lines[-1]), summary, tagged["env"], tagged["digests"]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        digests: dict[str, set] = {}
        correct, attempted, failed = True, 0, 0
        for seed in SEEDS:
            result, shown, env, run_digests = run_once(workload, seed, seconds, 0)
            summary.setdefault("env", env)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, digest in run_digests.items():
                digests.setdefault(name, set()).add(digest)
            # the result line carries the full digits of the bounded metrics
            shown.update({k: m["value"] for k, m in result["metrics"].items()})
            for name, value in shown.items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.5g}" for k, v in shown.items()), flush=True)
        per_artifact = {name: len(d) for name, d in sorted(digests.items())}
        entry = {"correct": correct, "attempted": attempted, "failed": failed,
                 "distinct_digests": max(per_artifact.values(), default=0),
                 "distinct_digests_by_artifact": per_artifact, "metrics": {}}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            stats = spread(vals)
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
            print(f"  {workload} {name}: median {stats['median']:.5g}, "
                  f"spread {stats['spread']} (bound {stats['bound']})", flush=True)
        print(f"  {workload} distinct_digests: {per_artifact}", flush=True)
        result, _, _, _ = run_once(workload, TRACE_SEED, seconds, 1)
        entry["trace_seed"] = TRACE_SEED
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry
    OUT.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
