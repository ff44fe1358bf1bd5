"""In-memory span tracer and the wrappers that feed it from outside `src/`.

A span is one call into a public function of a hypres module (or into
`scipy.sparse.linalg.eigsh`): its name, start and end (perf_counter_ns), the
span that was open when it began, and whatever counters the wrapper read
from the call's arguments or result.  Spans stay in memory until the run
writes them out; the tracer also sums the time its wrappers spend outside
the calls they wrap (`overhead_ns`).  `instrument()` swaps the wrappers in for the duration of
a `with` block, in the defining module and in every hypres module that
imported the same function with `from ... import`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "error", "counts")

    def __init__(self, sid, name, start, parent):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.error = None
        self.counts = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start_ns": self.start,
            "end_ns": self.end, "parent": self.parent, "error": self.error,
            "counts": self.counts,
        }


class Tracer:
    """Spans of one process, in start order; parent is a span id or -1."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.overhead_ns = 0  # spent in the wrappers' own bookkeeping

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), name, time.perf_counter_ns(), parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        top = self._open.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    # ---- queries -------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ancestors(self, span: Span):
        pid = span.parent
        while pid >= 0:
            parent = self.spans[pid]
            yield parent
            pid = parent.parent

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s)
        return kids

    def total_s(self, *names: str) -> float:
        """Wall time inside spans of these names, nested repeats counted once."""
        wanted = set(names)
        return sum(
            s.seconds for s in self.spans
            if s.name in wanted
            and not any(a.name in wanted for a in self.ancestors(s))
        )

    def self_s(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover."""
        kids = self.children()
        total = 0
        for s in self.named(name):
            covered = 0
            cursor = s.start
            for c in sorted(kids.get(s.id, []), key=lambda c: c.start):
                lo = max(c.start, cursor)
                if c.end > lo:
                    covered += c.end - lo
                    cursor = c.end
            total += (s.end - s.start) - covered
        return total * 1e-9

    def within(self, name: str, ancestor_names) -> list[Span]:
        """Spans called `name` that run inside a span of one of the names."""
        wanted = set(ancestor_names)
        return [
            s for s in self.named(name)
            if any(a.name in wanted for a in self.ancestors(s))
        ]

    def counter(self, name: str, key: str, reduce=sum, default=0):
        values = [s.counts[key] for s in self.named(name) if key in s.counts]
        return reduce(values) if values else default

    def tree_errors(self) -> list[str]:
        """Broken invariants of the span tree (empty when well formed)."""
        problems = []
        for s in self.spans:
            if s.end is None:
                problems.append(f"span {s.id} {s.name} never closed")
                continue
            if s.end < s.start:
                problems.append(f"span {s.id} {s.name} ends before it starts")
            if s.parent >= 0:
                p = self.spans[s.parent]
                if p.end is not None and not (p.start <= s.start and s.end <= p.end):
                    problems.append(f"span {s.id} {s.name} outside parent {p.id}")
        for name in {s.name for s in self.spans}:
            if self.self_s(name) < 0:
                problems.append(f"negative self time for {name}")
        return problems

    def dump(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]


# --------------------------------------------------------------------------
# counters read from calls (args, kwargs, result or None, span)


def _arg(args, kwargs, index, key):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else None


def _count_energies(args, kwargs, result, span):
    energies = _arg(args, kwargs, 2, "energies")
    span.counts["energies"] = int(np.atleast_1d(energies).size)


def _count_extract(args, kwargs, result, span):
    _count_energies(args, kwargs, result, span)
    if result is not None:
        _, defects = result
        span.counts["asym_max"] = float(max(defects)) if len(defects) else 0.0


def _count_grid(args, kwargs, result, span):
    if result is not None:
        span.counts["points"] = int(result.n_points)


def _count_scan(args, kwargs, result, span):
    if result is not None:
        span.counts["alphas"] = int(result.alpha_grid.size)
        span.counts["swaps"] = int(result.swaps.sum())


def _count_windows(args, kwargs, result, span):
    if result is not None:
        span.counts["windows"] = len(result)
        span.counts["energies"] = int(sum(w.n_samples for w in result))


def _count_samples(args, kwargs, result, span):
    window = _arg(args, kwargs, 1, "window")
    span.counts["offered"] = int(window.n_samples)
    if result is not None:
        span.counts["kept"] = len(result)


def _count_fit(args, kwargs, result, span):
    if result is not None:
        span.counts["iterations"] = int(result.iterations)


def _count_written(args, kwargs, result, span):
    path = _arg(args, kwargs, 0, "path")
    try:
        span.counts["bytes"] = os.stat(path).st_size
    except (OSError, TypeError):
        pass


# (module, attribute, counter hook); "Class.method" names patch the class
TARGETS = [
    ("hypres.adiabatic", "build_grids", None),
    ("hypres.adiabatic", "assemble_adiabatic_operator", None),
    ("hypres.adiabatic", "solve_adiabatic_point", None),
    ("hypres.adiabatic", "solve_terms", None),
    ("hypres.adiabatic", "solve_with_couplings", None),
    ("hypres.fem", "Grid1D.quadrature", None),
    ("hypres.radial", "build_grid", _count_grid),
    ("hypres.radial", "assemble_pencil", None),
    ("hypres.radial", "stabilization_eigenvalues", None),
    ("hypres.radial", "propagate_ratio", _count_energies),
    ("hypres.radial", "extract_k", _count_extract),
    ("hypres.radial", "RadialProblem.from_tables", None),
    ("hypres.scan", "scan_branches", _count_scan),
    ("hypres.scan", "detect_resonances", _count_windows),
    ("hypres.scan", "sample_k", _count_samples),
    ("hypres.fitting", "fit", _count_fit),
    ("hypres.fitting", "compare_models", None),
    ("hypres.pipeline", "run_pipeline", None),
    ("hypres.pipeline", "stage_terms", None),
    ("hypres.pipeline", "stage_couplings", None),
    ("hypres.pipeline", "stage_scan", None),
    ("hypres.pipeline", "stage_sample", None),
    ("hypres.pipeline", "stage_fit", None),
    ("hypres.pipeline", "stage_xsec", None),
    ("hypres.tableio", "read_table", None),
    ("hypres.tableio", "read_keyvalues", None),
    ("hypres.tableio", "load_couplings", None),
    ("hypres.tableio", "load_terms", None),
    ("hypres.tableio", "write_table", _count_written),
    ("hypres.tableio", "write_keyvalues", _count_written),
    ("hypres.tableio", "save_couplings", _count_written),
    ("hypres.tableio", "save_terms", _count_written),
    ("hypres.tableio", "digest_file", None),
    ("hypres.tableio", "digest_text", None),
    ("hypres.samples", "read_samples", None),
    ("hypres.samples", "write_samples", _count_written),
    ("scipy.sparse.linalg", "eigsh", None),
]


def span_name(module: str, attr: str) -> str:
    short = module.rsplit(".", 1)[-1] if module.startswith("hypres.") else "scipy"
    return f"{short}.{attr}"


def _wrap(tracer: Tracer, name: str, func, hook):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        entered = time.perf_counter_ns()
        span = tracer.begin(name)
        result = None
        called = time.perf_counter_ns()
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            returned = time.perf_counter_ns()
            if hook is not None:
                hook(args, kwargs, result, span)
            tracer.finish(span)
            tracer.overhead_ns += (called - entered) + (time.perf_counter_ns() - returned)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every TARGETS call through a span of `tracer` inside the block."""
    undo = []
    try:
        for module_name, attr, hook in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__, hook))
                else:
                    new = _wrap(tracer, name, raw, hook)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, name, original, hook)
            holders = [module] + [
                m for key, m in list(sys.modules.items())
                if key.startswith("hypres") and m is not None and m is not module
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
