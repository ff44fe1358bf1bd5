"""Workloads of the hypres benchmark: inputs, measured loops, output checks.

Every workload makes its inputs from the seed and hands the program only
those inputs (INI files, energy batches).  The hypres modules are imported
by `run.py` from the checkout's `src/` before anything here runs.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

# Program functions are called through their modules, so that the wrappers
# `tracer.instrument` installs there are the ones that run.
from hypres import pipeline, radial
from hypres.errors import FitFailureError, MatchingQualityError, StageError
from hypres.models import TwoChannelToy, coupled_wells
from hypres.pipeline import RunConfig

from tracer import Tracer, instrument

# Oracle of the toy resonance: the complex pole of the outgoing-wave
# determinant, frozen in tests/conftest.py (TOY_E0, TOY_GAMMA).  The
# tolerance is that of acceptance criterion 3 (tests/test_acceptance.py).
TOY_E0 = 3.0218214054
TOY_GAMMA = 3.1215e-3
TOY_TOL = 0.01 * TOY_GAMMA

# Converged lowest metastable (t, d, mu) level and the coarse-grid
# tolerance of tests/test_three_body_pipeline.py.
THREEBODY_E0 = -0.15917
THREEBODY_TOL = 2e-3
THREEBODY_TERMS = 4
Q_ANTISYM_TOL = 1e-12

# configs/toy.ini, with the output directory filled in per run.
TOY_INI = """\
[system]
kind = toy

[scan]
alpha_min = {alpha_min}
alpha_max = {alpha_max}
alpha_step = 0.25
n_levels = {n_levels}
halfwidth = 8.0

[radial]
h_max = {h_max}

[fit]
model = {model}
weighting = {weighting}

[output]
directory = {out}
"""
TOY_SIZES = dict(alpha_min=8.0, alpha_max=24.0, n_levels=14, h_max=0.01)
TOY_SMOKE = dict(alpha_min=12.0, alpha_max=16.0, n_levels=14, h_max=0.04)
TOY_FIT = ("both", "relative")

# The coarse (t, d, mu) INI of tests/test_three_body_pipeline.py.
THREEBODY_INI = """\
[system]
kind = three-body

[basis]
n_chi = {n_chi}
n_theta = {n_theta}
n_terms = 4
rho_min = 0.5
rho_max = {rho_max}
n_rho = {n_rho}
n_refine = {n_refine}

[radial]
rho_start = 0.5
rho_match = {rho_max}
h_max = {h_max}

[scan]
alpha_min = {alpha_min}
alpha_max = {alpha_max}
alpha_step = 1.0
n_levels = 10
sigma = -0.157
halfwidth = 8.0

[fit]
model = {model}
weighting = {weighting}

[output]
directory = {out}
"""
THREEBODY_SIZES = dict(n_chi=61, n_theta=31, rho_max=100.0, n_rho=70,
                       n_refine=14, h_max=0.1, alpha_min=50.0, alpha_max=90.0)
THREEBODY_SMOKE = dict(n_chi=21, n_theta=11, rho_max=30.0, n_rho=14,
                       n_refine=2, h_max=0.2, alpha_min=15.0, alpha_max=28.0)
THREEBODY_FIT = ("general", "relative")

FIT_CHOICES = [(m, w) for m in ("general", "diagonal", "both")
               for w in ("relative", "uniform")]

# stage -> artifacts it writes (resonance 0), in pipeline order
STAGE_FILES = {
    "terms": ("terms.dat",),
    "couplings": ("couplings.dat",),
    "scan": ("branches.dat", "windows.dat"),
    "sample": ("ksamples_0.dat",),
    "fit": ("fit_0.txt",),
    "xsec": ("profiles_k_0.dat", "profiles_invk_0.dat", "profiles_xsec_0.dat"),
}
CACHED_STAGES = ("terms", "couplings", "scan", "sample")

KPROFILE_SIZES = [1, 2, 4, 8, 16, 32, 64, 128]
KPROFILE_SMOKE = [1, 2, 4]
SETUP_REPEATS = 5


@dataclass
class Context:
    work: Path
    seed: int
    seconds: float
    smoke: bool
    tracer: Tracer | None  # None: untraced run
    reference: Callable[[], float]  # s of one speed-reference load (run.py)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    wall: float = 0.0   # s of one end-to-end job
    wall_n: int = 0     # samples behind `wall`
    ops: list = field(default_factory=list)     # (class, s) per repeated op
    traced_ops: list = field(default_factory=list)
    setup: list = field(default_factory=list)   # s per repeatable set-up
    references: list = field(default_factory=list)  # s per reference load
    wall_overhead: float = 0.0  # s of tracer bookkeeping inside `wall`
    calls: list = field(default_factory=list)   # (energies, s) per K call
    energies: int = 0          # K evaluations made
    energies_per_s: float = 0.0
    attempted: int = 0
    failed: int = 0   # unexpected: any error or check outside tolerance
    known: int = 0    # the documented three-body defects and their skips
    problems: list = field(default_factory=list)
    defects: list = field(default_factory=list)   # known-defect failures
    accuracy: list = field(default_factory=list)  # (|dE0|, |dGamma|/Gamma)
    digests: dict = field(default_factory=dict)   # artifact -> sha256 (cold)
    refit_digests: dict = field(default_factory=dict)  # choice -> {sha256}
    accepted_points: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}" if detail else name)


def _traced(ctx: Context, on: bool):
    return instrument(ctx.tracer) if (on and ctx.tracer is not None) else nullcontext()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The checks parse artifacts with these few lines of their own, so that they
# neither rely on the program's tableio nor add spans to a traced run.


def _keyvalues(path: Path) -> dict:
    pairs = {}
    for line in path.read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def _rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def _header(path: Path) -> dict:
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            break
        if ":" in line:
            key, value = line[1:].split(":", 1)
            meta[key.strip()] = value.strip()
    return meta


def _stage_status(out: Path, error: Exception | None):
    """(failing stage or None, stages skipped after it) of a cold run: the
    first stage whose artifacts are missing is the one that raised."""
    failing, skipped = None, []
    for stage, files in STAGE_FILES.items():
        if failing is not None:
            skipped.append(stage)
        elif not all((out / f).exists() for f in files):
            failing = stage
    if failing is None and error is not None:
        failing = "xsec"
    return failing, skipped


# The three-body run's documented defects (ROADMAP item 1), by stage: the
# fit drives the pole onto the sample edge (FitFailureError, or a converged
# zero-width pole whose cross-section range is empty in xsec), and K
# asymmetry near the 1e-4 limit (MatchingQualityError in sample).  Which of
# them a run meets varies with ARPACK's random start vector.
KNOWN_THREEBODY = {
    "fit": FitFailureError,
    "xsec": StageError,
    "sample": MatchingQualityError,
}
# stage that raised, for a refit that wrote no fit_0.txt
REFIT_STAGE = {FitFailureError: "fit", MatchingQualityError: "sample"}


def _refit_choices(seed: int):
    """Seeded endless sequence of [fit] settings: whole shuffled rounds of
    the six (model, weighting) pairs."""
    rng = random.Random(seed)
    while True:
        yield from rng.sample(FIT_CHOICES, len(FIT_CHOICES))


class PipelineWorkload:
    """Cold pipeline run into a fresh directory, then seeded refits on the
    warm cache it leaves (only the fit and xsec stages may rewrite)."""

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "toy":
            self.template, self.base_fit = TOY_INI, TOY_FIT
        else:
            self.template, self.base_fit = THREEBODY_INI, THREEBODY_FIT

    def sizes(self, smoke: bool) -> dict:
        if self.kind == "toy":
            return TOY_SMOKE if smoke else TOY_SIZES
        return THREEBODY_SMOKE if smoke else THREEBODY_SIZES

    def ini_text(self, ctx: Context, out: Path, choice) -> str:
        model, weighting = choice
        return self.template.format(out=out, model=model, weighting=weighting,
                                    **self.sizes(ctx.smoke))

    def run(self, ctx: Context) -> Outcome:
        outcome = Outcome()
        out = ctx.work / "out"
        ini = ctx.work / "run.ini"

        for _ in range(SETUP_REPEATS):
            outcome.references.append(ctx.reference())
            t0 = time.perf_counter()
            shutil.rmtree(out, ignore_errors=True)
            ini.write_text(self.ini_text(ctx, out, self.base_fit))
            RunConfig.from_file(ini).out_dir()
            outcome.setup.append(time.perf_counter() - t0)

        error = None
        with _traced(ctx, True):
            t0 = time.perf_counter()
            try:
                pipeline.run_pipeline(RunConfig.from_file(ini))
            except Exception as exc:  # counted and reported below
                error = exc
            outcome.wall = time.perf_counter() - t0
            outcome.wall_n = 1
        if ctx.tracer is not None:
            outcome.wall_overhead = ctx.tracer.overhead_ns * 1e-9
        self._account_cold(outcome, out, error)
        self._check_cold(outcome, out)
        outcome.digests = {
            p.name: _sha256(p) for p in sorted(out.iterdir()) if p.is_file()
        }
        ksamples = out / "ksamples_0.dat"
        if ksamples.exists():
            outcome.energies = _rows(ksamples).shape[0]
            outcome.energies_per_s = outcome.energies / outcome.wall

        self._refits(ctx, outcome, out, ini)
        return outcome

    def _account_cold(self, outcome: Outcome, out: Path, error):
        failing, skipped = _stage_status(out, error)
        outcome.attempted += len(STAGE_FILES)
        if failing is None:
            return
        n_bad = 1 + len(skipped)
        detail = (f"stage {failing} raised {type(error).__name__}: {error}; "
                  f"skipped {', '.join(skipped) or 'none'}")
        if self._known(failing, error):
            outcome.known += n_bad
            outcome.defects.append(detail)
        else:
            outcome.failed += n_bad
            outcome.problems.append(detail)

    def _known(self, stage: str, error) -> bool:
        expected = KNOWN_THREEBODY.get(stage) if self.kind == "three-body" else None
        return expected is not None and isinstance(error, expected)

    def _check_fit(self, outcome: Outcome, fit_path: Path, label: str):
        pairs = _keyvalues(fit_path)
        e0, gamma = float(pairs["E0"]), float(pairs["Gamma"])
        if self.kind == "toy":
            de0 = abs(e0 - TOY_E0)
            dgamma = abs(gamma - TOY_GAMMA)
            outcome.accuracy.append((de0, dgamma / TOY_GAMMA))
            outcome.check(f"{label} E0 vs oracle", de0 <= TOY_TOL,
                          f"|E0 - {TOY_E0}| = {de0:.3e}")
            outcome.check(f"{label} Gamma vs oracle", dgamma <= TOY_TOL,
                          f"|Gamma - {TOY_GAMMA}| = {dgamma:.3e}")
        else:
            de0 = abs(e0 - THREEBODY_E0)
            outcome.check(f"{label} E0 vs converged level",
                          de0 <= THREEBODY_TOL, f"|E0 - {THREEBODY_E0}| = {de0:.3e}")
            outcome.check(f"{label} Gamma >= 0", gamma >= 0.0, f"Gamma = {gamma}")

    def _check_cold(self, outcome: Outcome, out: Path):
        if self.kind == "three-body" and (out / "couplings.dat").exists():
            path = out / "couplings.dat"
            rows = _rows(path)
            n = int(_header(path).get("n_terms", -1))
            outcome.accepted_points = rows.shape[0]
            outcome.check("couplings n_terms", n == THREEBODY_TERMS, f"n_terms = {n}")
            if n == THREEBODY_TERMS and rows.shape[1] == 1 + n + 2 * n * n:
                q = rows[:, 1 + n + n * n:].reshape(-1, n, n)
                defect = float(np.abs(q + q.transpose(0, 2, 1)).max())
                outcome.check("Q antisymmetric", defect < Q_ANTISYM_TOL,
                              f"max |Q + Q^T| = {defect:.3e}")
        if self.kind == "three-body" and (out / "windows.dat").exists():
            rows = _rows(out / "windows.dat")
            centre = float(rows[0, 1]) if rows.size else math.nan
            outcome.check("plateau centre",
                          abs(centre - THREEBODY_E0) <= THREEBODY_TOL,
                          f"e_center = {centre}")
        if (out / "fit_0.txt").exists():
            self._check_fit(outcome, out / "fit_0.txt", "cold fit")

    def _refits(self, ctx, outcome, out, ini):
        """Seeded refits for `ctx.seconds` and until every [fit] setting has
        been timed; in a traced run every other refit is traced, so that the
        two typical refits differ by the tracing overhead per operation."""
        protected = [out / f for s in CACHED_STAGES for f in STAGE_FILES[s]]
        before = {p: (p.stat().st_mtime_ns, _sha256(p))
                  for p in protected if p.exists()}
        choices = _refit_choices(ctx.seed)
        # [fit] setting of the fit_0.txt on disk: refitting to it would be a
        # cache hit, not a refit, so it is skipped and need not be timed
        on_disk = self.base_fit if (out / "fit_0.txt").exists() else None
        sinks = _sinks(ctx, outcome)
        start = time.perf_counter()
        n = 0
        while (time.perf_counter() - start < ctx.seconds
               or not _covered(sinks, {"/".join(c) for c in FIT_CHOICES
                                       if c != on_disk})):
            sink = sinks[n % len(sinks)]
            traced = sink is outcome.traced_ops
            n += 1
            # a failed fit leaves the previous fit_0.txt in place
            choice = next(choices)
            while choice == on_disk:
                choice = next(choices)
            ini.write_text(self.ini_text(ctx, out, choice))
            fit_path = out / "fit_0.txt"
            fit_mtime = fit_path.stat().st_mtime_ns if fit_path.exists() else None
            error = None
            with _traced(ctx, traced):
                t0 = time.perf_counter()
                try:
                    pipeline.run_pipeline(RunConfig.from_file(ini))
                except Exception as exc:  # counted and reported below
                    error = exc
                sink.append(("/".join(choice), time.perf_counter() - t0))
            outcome.attempted += 1
            label = f"refit {choice[0]}/{choice[1]}"
            fit_written = (fit_path.exists()
                           and fit_path.stat().st_mtime_ns != fit_mtime)
            if fit_written:
                on_disk = choice
            if error is None:
                self._check_fit(outcome, fit_path, label)
                outcome.refit_digests.setdefault(sink[-1][0], set()).add(
                    _sha256(fit_path))
            else:
                stage = "xsec" if fit_written else REFIT_STAGE.get(type(error))
                detail = f"{label} raised {type(error).__name__}: {error}"
                if self._known(stage, error):
                    outcome.known += 1
                    outcome.defects.append(detail)
                else:
                    outcome.failed += 1
                    outcome.problems.append(detail)
            rewritten = [p.name for p, (mtime, _) in before.items()
                         if p.stat().st_mtime_ns != mtime]
            outcome.check("cache hits through sample", not rewritten,
                          f"{label} rewrote {', '.join(rewritten)}")
        for p, (_, digest) in before.items():
            outcome.check(f"{p.name} bytes kept", _sha256(p) == digest,
                          "bytes changed across refits")


def _sinks(ctx: Context, outcome: Outcome) -> list:
    """Where repeated operations go, in turn: untraced, then traced."""
    return [outcome.ops] if ctx.tracer is None else [outcome.ops, outcome.traced_ops]


def _covered(sinks, classes) -> bool:
    return all(classes <= {cls for cls, _ in sink} for sink in sinks)


def _kprofile_models(smoke: bool):
    h_max = 0.05 if smoke else 0.01
    specs = [
        ("toy", TwoChannelToy().problem(), 0.5, 6.0),
        ("coupled_wells4", coupled_wells(4), 0.4, 2.5),
    ]
    return [
        (name, problem, radial.build_grid(problem, h_max=h_max), lo, hi)
        for name, problem, lo, hi in specs
    ]


def kprofile(ctx: Context) -> Outcome:
    """Seeded K(E) sweeps through extract_k: per cycle, every batch size once
    per model, in seeded order, at seeded energies of the two-open window."""
    outcome = Outcome()
    models = None
    for _ in range(SETUP_REPEATS):
        outcome.references.append(ctx.reference())
        t0 = time.perf_counter()
        models = _kprofile_models(ctx.smoke)
        outcome.setup.append(time.perf_counter() - t0)
    sizes = KPROFILE_SMOKE if ctx.smoke else KPROFILE_SIZES
    rng = np.random.default_rng(ctx.seed)
    margin = 1e-3

    def cycle():
        batches = []
        for name, problem, grid, lo, hi in models:
            for n in rng.permutation(sizes):
                energies = np.sort(rng.uniform(lo + margin, hi - margin, int(n)))
                batches.append((name, problem, grid, energies))
        return batches

    # calls go on for --seconds and until every (model, batch size) has been
    # timed; in a traced run every other call is traced
    classes = {f"{name}/{n}" for name, *_ in models for n in sizes}
    sinks = _sinks(ctx, outcome)
    bookkeeping = []  # (class, s of tracer bookkeeping) per traced call
    batches = []
    start = time.perf_counter()
    n = 0
    while time.perf_counter() - start < ctx.seconds or not _covered(sinks, classes):
        if not batches:
            batches = cycle()
        name, problem, grid, energies = batches.pop(0)
        sink = sinks[n % len(sinks)]
        n += 1
        traced = sink is outcome.traced_ops
        cls = f"{name}/{energies.size}"
        outcome.attempted += 1
        overhead_ns = ctx.tracer.overhead_ns if traced else 0
        with _traced(ctx, traced):
            t0 = time.perf_counter()
            try:
                mats, defects = radial.extract_k(problem, energies, grid=grid)
            except Exception as exc:  # counted and reported
                mats, error = None, exc
            dt = time.perf_counter() - t0
        sink.append((cls, dt))
        if traced:
            bookkeeping.append((cls, (ctx.tracer.overhead_ns - overhead_ns) * 1e-9))
        if mats is None:
            outcome.failed += 1
            outcome.problems.append(
                f"extract_k on {energies.size} energies raised "
                f"{type(error).__name__}: {error}")
            continue
        outcome.calls.append((energies.size, dt))
        outcome.energies += energies.size
        _check_k(outcome, mats, defects, energies)

    # one cycle, every (model, batch size) at its typical call time
    outcome.wall = sum(by_class(outcome.ops).values())
    outcome.wall_n = len(outcome.ops)
    outcome.energies_per_s = len(models) * sum(sizes) / outcome.wall
    if bookkeeping:
        outcome.wall_overhead = sum(by_class(bookkeeping).values())
    return outcome


def _check_k(outcome: Outcome, mats, defects, energies):
    entries = np.array([m.entries for m in mats])
    finite = len(mats) == energies.size and bool(np.isfinite(entries).all())
    outcome.check("K finite", finite, f"{energies.size} energies")
    scale = np.maximum(1.0, np.abs(entries).reshape(len(mats), -1).max(axis=1))
    worst = float(np.max(np.asarray(defects) / (radial.ASYMMETRY_LIMIT * scale)))
    outcome.check("K asymmetry within limit", worst <= 1.0,
                  f"defect at {worst:.3f} of the limit")


WORKLOADS = {
    "toy-cold": PipelineWorkload("toy").run,
    "threebody-cold": PipelineWorkload("three-body").run,
    "kprofile": kprofile,
}


def by_class(ops) -> dict:
    """Median seconds per operation class (fit setting, or model/batch)."""
    groups: dict = {}
    for cls, seconds in ops:
        groups.setdefault(cls, []).append(seconds)
    return {cls: median(v) for cls, v in groups.items()}


def typical_op(ops) -> float:
    """Mean over classes of the per-class median: a median operation that
    does not depend on how many of each class fit into the run."""
    medians = by_class(ops)
    return sum(medians.values()) / len(medians)


def op_overhead_ms(outcome: Outcome) -> float:
    if not outcome.ops or not outcome.traced_ops:
        return 0.0
    return 1e3 * (typical_op(outcome.traced_ops) - typical_op(outcome.ops))


def per_energy_fit(outcome: Outcome):
    """Least-squares (fixed ms per call, ms per energy) of the K calls."""
    if len({n for n, _ in outcome.calls}) < 2:
        return 0.0, 0.0
    n = np.array([c[0] for c in outcome.calls], dtype=float)
    t = np.array([c[1] for c in outcome.calls]) * 1e3
    slope, intercept = np.polyfit(n, t, 1)
    return float(intercept), float(slope)


def refit_distinct(outcome: Outcome) -> int:
    return max((len(v) for v in outcome.refit_digests.values()), default=0)
