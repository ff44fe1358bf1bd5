"""Self-test of the benchmark harness (smoke sizes, a minute or two).

    python3 perfbench/selftest.py

Runs every workload with `--smoke`, untraced and traced, and checks that
- the result line has exactly the metrics BENCHMARK.json lists for the
  mode, with the same units, and BENCHMARK.json agrees with metrics.py;
- the summary lines print every end-to-end metric with its unit;
- the span tree of each traced run is well formed: every child lies inside
  its parent, and no self time is negative;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  with a nonzero code and prints no result.
Smoke sizes are too coarse for the output checks, so `correct` is not
asserted here.  Exits nonzero on the first broken expectation.
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

from tracer import Span, Tracer  # noqa: E402


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def expect(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def load_spans(path: Path) -> Tracer:
    tracer = Tracer()
    for d in json.loads(path.read_text()):
        span = Span(d["id"], d["name"], d["start_ns"], d["parent"])
        span.end = d["end_ns"]
        tracer.spans.append(span)
    return tracer


def check_benchmark_file(bench: dict):
    sys.path.insert(0, str(ROOT / "src"))
    import metrics

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == metrics.END_TO_END, "end_to_end differs from metrics.END_TO_END")
    expect(layer == metrics.PER_LAYER, "per_layer differs from metrics.PER_LAYER")
    for m in bench["per_layer"]:
        want = "higher" if m["name"] in metrics.HIGHER_IS_BETTER else "lower"
        expect(m["better"] == want, f"{m['name']} better={m['better']}")
    return e2e, layer, {**metrics.END_TO_END, **metrics.SUMMARY_ONLY}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layer, printed = check_benchmark_file(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--smoke"])
            label = f"{workload} trace={trace}"
            expect(res.returncode == 0, f"{label} exited {res.returncode}: {res.stderr}")
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result keys {sorted(result)}")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                   f"{label} attempted {result['attempted']}")
            want = layer if trace else e2e
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{label} metrics/units differ from BENCHMARK.json")
            for name, unit in printed.items():
                expect(any(line.startswith(f"metric {name} = ")
                           and f" {unit} (n=" in line for line in lines),
                       f"{label} summary lacks {name} [{unit}]")
            if trace:
                spans = [ln.split()[2] for ln in lines if ln.startswith("# spans ")]
                expect(len(spans) == 1, f"{label} printed no span file")
                tracer = load_spans(ROOT / spans[0])
                expect(len(tracer.spans) > 0, f"{label} recorded no spans")
                problems = tracer.tree_errors()
                expect(not problems, f"{label} span tree: {problems[:3]}")
            print(f"ok {label}: {len(result['metrics'])} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run(["--workload", "kprofile", "--seed", "1", "--seconds", "1",
               "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(res.returncode != 0, "run.py succeeded without the program's sources")
    expect('"correct"' not in res.stdout, "run.py printed a result without sources")
    print("ok bare directory: exit", res.returncode)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
