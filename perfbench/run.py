"""hypres benchmark: run one workload in this process and report its metrics.

    python3 perfbench/run.py --workload toy-cold --seed 1 --seconds 6 --trace 0

Run from the root of a checkout: the program under test is imported from
its `src/`.  The process pins BLAS/OpenMP to one thread before numpy loads.
Summary lines (every metric with unit and sample count, the environment,
known defects, failed checks and artifact sha256s) come first; the last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the bounded end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  Each run appends a record (metrics, artifact
sha256s, environment, raw times) to `.perfbench/results/runs.jsonl`; a
traced run also writes its spans there.
`--smoke` shrinks every workload to a few seconds (used by selftest.py).
"""

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("toy-cold", "threebody-cold", "kprofile")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness self-test")
    return ap.parse_args(argv)


def blas_threads() -> dict:
    """Thread count reported by every OpenBLAS loaded into this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                out[Path(path).name] = func()
                break
    return out


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


# The libraries hypres imports.  They load before the program, so that the
# program's import time is that of its own modules alone.
LIBRARIES = ("numpy", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg",
             "scipy.interpolate", "scipy.optimize", "concurrent.futures",
             "argparse", "configparser", "hashlib")
PROGRAM_MODULES = ("hypres.pipeline", "hypres.models")
IMPORT_REPEATS = 9

# Speed reference that setup_s is scaled by (README.md, "setup_s"): loading
# fresh copies of a few pure-Python standard library modules from their
# files, without entering them in sys.modules.
REFERENCE_MODULES = ("argparse", "configparser", "dataclasses", "inspect",
                     "statistics", "fractions", "ast")


def reference_seconds() -> float:
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        spec = importlib.util.spec_from_file_location(
            f"_perfbench_reference_{name}", sys.modules[name].__file__)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return time.perf_counter() - t0


def program_import_seconds(references: list) -> list:
    """Times of importing the program's modules afresh, each import after
    one reference load (appended to `references`)."""
    times = []
    for _ in range(IMPORT_REPEATS):
        references.append(reference_seconds())
        for key in [k for k in sys.modules if k == "hypres" or k.startswith("hypres.")]:
            del sys.modules[key]
        t0 = time.perf_counter()
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def summary_lines(args, outcome, e2e, env):
    from metrics import END_TO_END, SUMMARY_ONLY, accuracy, fail_frac, p90

    lines = [f"# hypres benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}",
             "# env " + json.dumps(env, sort_keys=True)]
    e0_err, gamma_err = accuracy(outcome)
    n_fits = len(outcome.accuracy)
    op_times = [s for _, s in outcome.ops]
    shown = {  # name -> (value or None when undefined, sample note)
        "wall_s": (e2e["wall_s"], f"n={outcome.wall_n}"),
        "op_ms": (e2e["op_ms"], f"n={len(op_times)}, p90 {1e3 * p90(op_times):.6g} ms"),
        "energies_per_s": (e2e["energies_per_s"], f"n={outcome.energies}"),
        "setup_s": (e2e["setup_s"],
                    f"n={e2e['setup_n']}, result line; measured "
                    f"{e2e['setup_measured_s']:.6g} s, of it program import "
                    f"{e2e['program_import_s']:.6g} s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "n=1, result line"),
        "fail_frac": (fail_frac(outcome),
                      f"n={outcome.attempted}, unexpected {outcome.failed}, "
                      f"known defect {outcome.known}"),
        "e0_abs_err": (e0_err if n_fits else None, f"n={n_fits} oracle fits, worst"),
        "gamma_rel_err": (gamma_err if n_fits else None,
                          f"n={n_fits} oracle fits, worst"),
    }
    for name, unit in {**END_TO_END, **SUMMARY_ONLY}.items():
        value, note = shown[name]
        text = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"metric {name} = {text} {unit} ({note})")
    if outcome.known:
        lines.append(f"known defects: {outcome.known} operations failed or "
                     "were skipped in the documented three-body defects")
        lines.extend(f"known defect: {d}"
                     for d in list(dict.fromkeys(outcome.defects))[:10])
    lines.extend(f"failed check: {p}" for p in outcome.problems[:20])
    # cold-run artifact sha256s, compared across the runs of a set by sweep.py
    lines.append("# digests " + json.dumps(outcome.digests, sort_keys=True))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypres" / "__init__.py").is_file():
        print(f"error: no hypres sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in LIBRARIES + REFERENCE_MODULES:
        importlib.import_module(name)
    references: list = []
    program_imports = program_import_seconds(references)
    import hypres

    if not Path(hypres.__file__).resolve().is_relative_to(SRC):
        print(f"error: hypres imported from {hypres.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import metrics
    import workloads
    from tracer import Tracer

    env = environment()
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(work=work, seed=args.seed, seconds=args.seconds,
                            smoke=args.smoke, tracer=tracer,
                            reference=reference_seconds)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = metrics.end_to_end(outcome, program_imports, references)
    if tracer is None:
        result = {k: e2e[k] for k in metrics.END_TO_END}
        units = metrics.END_TO_END
    else:
        result = metrics.per_layer(tracer, outcome)
        units = metrics.PER_LAYER
        for name, value in result.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
        q1, mid, q3 = metrics.op_overhead_quartiles(outcome)
        print(f"# trace.op_overhead_ms per operation class: q1 {q1:.4g}, "
              f"median {mid:.4g}, q3 {q3:.4g} ms (traced ops "
              f"{len(outcome.traced_ops)}, untraced {len(outcome.ops)})")

    for line in summary_lines(args, outcome, e2e, env):
        print(line)

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke, "env": env,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "known": outcome.known, "problems": outcome.problems,
        "defects": outcome.defects,
        "digests": outcome.digests, "metrics": dict(e2e, **result),
        "ops": outcome.ops, "traced_ops": outcome.traced_ops,
        "setup": outcome.setup, "program_imports": program_imports,
        "import_references": references, "setup_references": outcome.references,
    }
    with open(results / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        spans = results / f"spans-{args.workload}-{args.seed}-{os.getpid()}.json"
        spans.write_text(json.dumps(tracer.dump()))
        print(f"# spans {spans.relative_to(ROOT)} ({len(tracer.spans)})")

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
