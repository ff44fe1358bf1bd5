"""Metric names, units and their computation from one run's outcome and spans.

END_TO_END metrics go on the result line of an untraced run, PER_LAYER
metrics on that of a traced run; BENCHMARK.json lists the same names and
units (the self-test checks that they agree).  SUMMARY_ONLY metrics are
printed on the summary lines of every run but are not on the result line:
the timings spread too far from run to run on a shared machine to carry a
bound of at most 25% (README.md), and the rest are zero or undefined on
some workloads.
"""

from __future__ import annotations

import resource
from statistics import median, quantiles

import numpy as np

from workloads import (STAGE_FILES, Outcome, by_class, op_overhead_ms,
                       per_energy_fit, refit_distinct, typical_op)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUMMARY_ONLY = {
    "wall_s": "s",
    "op_ms": "ms",
    "energies_per_s": "1/s",
    "fail_frac": "ratio",
    "e0_abs_err": "energy",
    "gamma_rel_err": "ratio",
}

STAGES = tuple(STAGE_FILES)
READS = ("tableio.read_table", "tableio.read_keyvalues", "tableio.load_couplings",
         "tableio.load_terms", "samples.read_samples")
WRITES = ("tableio.write_table", "tableio.write_keyvalues",
          "tableio.save_couplings", "tableio.save_terms", "samples.write_samples")

PER_LAYER = {
    "adiabatic.point_solves": "count",
    "adiabatic.accepted_points": "count",
    "adiabatic.solve_ratio": "ratio",
    "adiabatic.grid_s": "s",
    "adiabatic.assemble_s": "s",
    "adiabatic.eigsh_s": "s",
    "adiabatic.coupling_s": "s",
    "fem.quadrature_calls": "count",
    "fem.quadrature_s": "s",
    "radial.build_grid_s": "s",
    "radial.grid_points": "count",
    "radial.pencil_calls": "count",
    "radial.pencil_s": "s",
    "radial.box_eigsh_s": "s",
    "radial.propagate_s": "s",
    "radial.energies_propagated": "count",
    "radial.extract_k_s": "s",
    "radial.k_asym_max": "defect",
    "radial.call_fixed_ms": "ms",
    "radial.per_energy_ms": "ms",
    "scan.alphas": "count",
    "scan.track_s": "s",
    "scan.swaps": "count",
    "scan.detect_s": "s",
    "scan.windows": "count",
    "scan.window_energies": "count",
    "scan.samples_kept": "count",
    "scan.keep_ratio": "ratio",
    "scan.sample_k_s": "s",
    "fitting.fit_calls": "count",
    "fitting.fit_failures": "count",
    "fitting.iterations": "count",
    "fitting.fit_s": "s",
    "fitting.compare_s": "s",
    "fitting.oracle_fits": "count",
    "fitting.e0_abs_err": "energy",
    "fitting.gamma_rel_err": "ratio",
    **{f"pipeline.stage.{s}_s": "s" for s in STAGES},
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "pipeline.reload_calls": "count",
    "pipeline.reload_s": "s",
    "pipeline.fail_frac": "ratio",
    "pipeline.known_failures": "count",
    "tableio.read_calls": "count",
    "tableio.read_s": "s",
    "tableio.write_s": "s",
    "tableio.bytes_written": "bytes",
    "tableio.digest_s": "s",
    "artifacts.distinct_digests": "count",
    "trace.spans": "count",
    "trace.wall_overhead_s": "s",
    "trace.op_overhead_ms": "ms",
}


# per-layer metrics where a larger value is the better one (all others: lower)
HIGHER_IS_BETTER = {
    "adiabatic.solve_ratio", "scan.samples_kept", "scan.keep_ratio",
    "fitting.oracle_fits", "pipeline.cache_hits",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values) -> float:
    return float(np.percentile(values, 90)) if values else 0.0


def fail_frac(outcome: Outcome) -> float:
    return (outcome.failed + outcome.known) / max(1, outcome.attempted)


# setup_s is the program's own set-up time (import of its modules plus the
# workload's preparation), each part scaled by the speed reference of
# run.py timed alternately with it, to a machine on which that reference
# takes this long
REFERENCE_S = 0.01


def end_to_end(outcome: Outcome, program_imports: list,
               import_references: list) -> dict:
    """Timing, set-up and memory metrics of an untraced run."""
    import_s = median(program_imports)
    prep_s = median(outcome.setup)
    return {
        "wall_s": outcome.wall,
        "op_ms": 1e3 * typical_op(outcome.ops),
        "energies_per_s": outcome.energies_per_s,
        "setup_s": REFERENCE_S * (import_s / median(import_references)
                                  + prep_s / median(outcome.references)),
        "setup_measured_s": import_s + prep_s,
        "program_import_s": import_s,
        "setup_n": len(program_imports) + len(outcome.setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_overhead_quartiles(outcome: Outcome) -> tuple[float, float, float]:
    """Quartiles (ms) over operation classes of the traced minus the
    untraced median operation time, over the classes timed both ways."""
    traced, untraced = by_class(outcome.traced_ops), by_class(outcome.ops)
    diffs = [1e3 * (traced[c] - untraced[c]) for c in traced if c in untraced]
    q1, mid, q3 = quantiles(diffs, n=4)
    return q1, mid, q3


def accuracy(outcome: Outcome) -> tuple[float, float]:
    """Worst |E0 - oracle| and |Gamma - oracle| / oracle over oracle fits."""
    if not outcome.accuracy:
        return 0.0, 0.0
    return (max(a for a, _ in outcome.accuracy),
            max(g for _, g in outcome.accuracy))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, outcome: Outcome) -> dict:
    t = tracer
    solves = len(t.named("adiabatic.solve_adiabatic_point"))
    accepted = outcome.accepted_points
    offered = t.counter("scan.sample_k", "offered")
    kept = t.counter("scan.sample_k", "kept")
    fixed_ms, per_energy_ms = per_energy_fit(outcome)
    e0_err, gamma_err = accuracy(outcome)

    hits = misses = 0
    kids = t.children()
    for name in (f"pipeline.stage_{s}" for s in STAGES):
        for span in t.named(name):
            if span.error:
                continue
            stack, wrote = list(kids.get(span.id, [])), False
            while stack and not wrote:
                child = stack.pop()
                wrote = child.name in WRITES
                stack.extend(kids.get(child.id, []))
            misses += wrote
            hits += not wrote

    outermost_writes = [
        s for s in t.spans
        if s.name in WRITES and not any(a.name in WRITES for a in t.ancestors(s))
    ]
    outermost_reads = [
        s for s in t.spans
        if s.name in READS and not any(a.name in READS for a in t.ancestors(s))
    ]
    values = {
        "adiabatic.point_solves": solves,
        "adiabatic.accepted_points": accepted,
        "adiabatic.solve_ratio": _ratio(accepted, solves),
        "adiabatic.grid_s": t.total_s("adiabatic.build_grids"),
        "adiabatic.assemble_s": t.total_s("adiabatic.assemble_adiabatic_operator"),
        "adiabatic.eigsh_s": sum(
            s.seconds for s in t.within("scipy.eigsh", ["adiabatic.solve_adiabatic_point"])),
        "adiabatic.coupling_s": t.self_s("adiabatic.solve_with_couplings"),
        "fem.quadrature_calls": len(t.named("fem.Grid1D.quadrature")),
        "fem.quadrature_s": t.total_s("fem.Grid1D.quadrature"),
        "radial.build_grid_s": t.total_s("radial.build_grid"),
        "radial.grid_points": t.counter("radial.build_grid", "points", max),
        "radial.pencil_calls": len(t.named("radial.assemble_pencil")),
        "radial.pencil_s": t.total_s("radial.assemble_pencil"),
        "radial.box_eigsh_s": sum(
            s.seconds for s in t.within("scipy.eigsh", ["radial.stabilization_eigenvalues"])),
        "radial.propagate_s": t.total_s("radial.propagate_ratio"),
        "radial.energies_propagated": t.counter("radial.propagate_ratio", "energies"),
        "radial.extract_k_s": t.total_s("radial.extract_k"),
        "radial.k_asym_max": t.counter("radial.extract_k", "asym_max", max, 0.0),
        "radial.call_fixed_ms": fixed_ms,
        "radial.per_energy_ms": per_energy_ms,
        "scan.alphas": t.counter("scan.scan_branches", "alphas"),
        "scan.track_s": t.self_s("scan.scan_branches"),
        "scan.swaps": t.counter("scan.scan_branches", "swaps"),
        "scan.detect_s": t.total_s("scan.detect_resonances"),
        "scan.windows": t.counter("scan.detect_resonances", "windows"),
        "scan.window_energies": t.counter("scan.detect_resonances", "energies"),
        "scan.samples_kept": kept,
        "scan.keep_ratio": _ratio(kept, offered),
        "scan.sample_k_s": t.total_s("scan.sample_k"),
        "fitting.fit_calls": len(t.named("fitting.fit")),
        "fitting.fit_failures": sum(1 for s in t.named("fitting.fit") if s.error),
        "fitting.iterations": t.counter("fitting.fit", "iterations"),
        "fitting.fit_s": t.total_s("fitting.fit"),
        "fitting.compare_s": t.total_s("fitting.compare_models"),
        "fitting.oracle_fits": len(outcome.accuracy),
        "fitting.e0_abs_err": e0_err,
        "fitting.gamma_rel_err": gamma_err,
        **{f"pipeline.stage.{s}_s": t.total_s(f"pipeline.stage_{s}") for s in STAGES},
        "pipeline.cache_hits": hits,
        "pipeline.cache_misses": misses,
        "pipeline.reload_calls": len(t.named("tableio.load_couplings")),
        "pipeline.reload_s": t.total_s("tableio.load_couplings",
                                       "radial.RadialProblem.from_tables"),
        "pipeline.fail_frac": fail_frac(outcome),
        "pipeline.known_failures": outcome.known,
        "tableio.read_calls": len(outermost_reads),
        "tableio.read_s": sum(s.seconds for s in outermost_reads),
        "tableio.write_s": sum(s.seconds for s in outermost_writes),
        "tableio.bytes_written": sum(s.counts.get("bytes", 0) for s in outermost_writes),
        "tableio.digest_s": t.total_s("tableio.digest_file", "tableio.digest_text"),
        "artifacts.distinct_digests": refit_distinct(outcome),
        "trace.spans": len(t.spans),
        "trace.wall_overhead_s": outcome.wall_overhead,
        "trace.op_overhead_ms": op_overhead_ms(outcome),
    }
    return values
