"""Batch pipeline: configuration, cached stages, and artifact files.

Stages run in dependency order (terms -> couplings -> scan -> sample ->
fit -> xsec), as listed in `STAGE_TABLE`, which the CLI reads too.  Each
stage writes one or more text artifacts whose headers record the digest of
the configuration sections (and of the input file) that produced them.
One runner serves every stage: it refuses missing or stale inputs with a
CacheError naming the stage that produces them, keeps outputs whose headers
match, and otherwise runs the stage.

Module level imports only what the configuration, the stage table and the
runner use (numpy, errors, tableio).  Each stage, and each helper that
builds a layer object (the channel set and masses too), imports its layer
when it runs, so a process whose stage is cached loads no FEM, scan or fit
code, and importing this module loads no channel or pole-form algebra.

The configuration is one INI-style file with a section per stage; the
defaults reproduce the full three-body run (131x61 basis grid, 6 retained
channels, rho in [0.05, 500]) so a config that only names the system is
complete.  It is read once, each value cast to the type of its default, so
a bad key or value is a ConfigError before any stage runs.
"""

from __future__ import annotations

import configparser
import io
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import CacheError, ConfigError, HypresError, StageError
from .tableio import (
    digest_file,
    digest_text,
    load_couplings,
    load_terms,
    read_header,
    read_keyvalues,
    read_table,
    save_couplings,
    save_terms,
    write_keyvalues,
    write_table,
)

if TYPE_CHECKING:
    from .channels import ChannelSet, ThreeBodyMasses

# Each key's type is the type of its default; None marks an optional float,
# whose empty value reads as None.  [toy] keys are the toy model's parameters
# (floats); RunConfig.toy checks their names.
DEFAULTS = {
    "system": {
        "kind": "three-body",
        "m1": 26.584935828866946,
        "m2": 17.75167309872182,
        "z1": 1,
        "z2": 1,
        "z_light": -1,
    },
    "basis": {
        "n_chi": 131,
        "n_theta": 61,
        "n_terms": 6,
        "rho_min": 0.05,
        "rho_max": 500.0,
        "n_rho": 400,
        "n_refine": 80,
    },
    "radial": {"rho_start": 0.05, "rho_match": 500.0, "h_max": 0.05},
    "scan": {
        "alpha_min": 50.0,
        "alpha_max": 400.0,
        "alpha_step": 1.0,
        "n_levels": 12,
        "sigma": None,
        "e_max": None,
        "halfwidth": 8.0,
    },
    "fit": {"model": "general", "weighting": "relative"},
    "output": {"directory": "out"},
    "toy": {},
}

# the words an enumerated key may take
WORDS = {
    ("system", "kind"): ("three-body", "toy"),
    ("fit", "model"): ("general", "diagonal", "both"),
    ("fit", "weighting"): ("uniform", "relative"),
}


@dataclass
class RunConfig:
    """Typed values of every configuration key, and the text of each key
    the file gave; the digests hash that text (a default as its str)."""

    values: dict
    text: dict

    @classmethod
    def from_file(cls, path, directory=None) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}") from exc
        return cls.from_text(text, source=str(path), directory=directory)

    @classmethod
    def from_text(cls, text: str, source: str = "<text>",
                  directory=None) -> "RunConfig":
        """Config from INI text, each value cast once; directory, when given,
        replaces [output] directory.  Malformed INI (a key given twice, a
        line outside any section), an unknown section or key, a malformed
        value and a word outside its WORDS are each a ConfigError."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if parser.defaults():
            raise ConfigError(f"unknown section [{parser.default_section}]")
        values = {section: dict(keys) for section, keys in DEFAULTS.items()}
        texts = {section: {} for section in DEFAULTS}
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if section != "toy" and key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown key [{section}] {key}")
                values[section][key] = _typed(section, key, raw)
                texts[section][key] = raw
        if directory is not None:
            values["output"]["directory"] = texts["output"]["directory"] = str(directory)
        return cls(values=values, text=texts)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def canonical(self, sections) -> str:
        """Normalized text of the given sections (for digests)."""
        buf = io.StringIO()
        for sec in sections:
            buf.write(f"[{sec}]\n")
            for key in sorted(self.values[sec]):
                value = self.text[sec].get(key, self.values[sec][key])
                buf.write(f"{key} = {'' if value is None else value}\n")
        return buf.getvalue()

    def digest(self, sections) -> str:
        return digest_text(self.canonical(sections))

    @property
    def kind(self) -> str:
        return self.get("system", "kind")

    def out_dir(self) -> Path:
        d = Path(self.get("output", "directory"))
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {d}: {exc}") from exc
        return d

    def masses(self) -> ThreeBodyMasses:
        from .channels import ThreeBodyMasses
        keys = ("m1", "m2", "z1", "z2", "z_light")
        return ThreeBodyMasses(**{key: self.get("system", key) for key in keys})

    def toy(self):
        from .models import TwoChannelToy
        try:
            return TwoChannelToy(**self.values["toy"])
        except TypeError as exc:  # a key that is not a toy parameter
            raise ConfigError(f"unknown key in [toy]: {exc}") from exc


def _typed(section: str, key: str, raw: str):
    """raw read as the type of the key's default; [toy] values are floats."""
    default = DEFAULTS[section].get(key, 0.0)
    words = WORDS.get((section, key))
    if words is not None and raw not in words:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not one of {', '.join(words)}")
    if isinstance(default, str):
        return raw
    if default is None and not raw:
        return None
    cast = int if isinstance(default, int) else float
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}") from exc


# --------------------------------------------------------------------------
# stage plumbing


@dataclass(frozen=True)
class Stage:
    """One row of the stage table.

    sections are the config sections whose digest the header records
    ("basis" stands for the system kind's own section: [toy] for the toy
    kind, [basis] for three-body); outputs are the files the stage writes,
    the last one being its result; inputs are the files that must be fresh
    before it runs; digested is the input whose file digest the header
    records; header names the parameters the header records; params are the
    parameters the stage takes besides the configuration.  File names may
    use {resonance}.
    """

    name: str
    help: str
    sections: tuple
    outputs: tuple
    run: Callable
    inputs: tuple = ()
    digested: str | None = None
    header: tuple = ()
    params: tuple = ()


def _check_cache(path: Path, expect: dict) -> bool:
    """True when path exists and its header matches every expected value.

    Only the header is read: artifacts are replaced whole once written, so
    a file with a matching header is complete.
    """
    try:
        meta = read_header(path)
    except (CacheError, UnicodeDecodeError):
        return False
    return all(meta.get(k) == v for k, v in expect.items())


def _expect(stage: Stage, config: RunConfig, params: dict) -> dict:
    """Header of a fresh output of stage under config and params; header
    parameters absent from params are not checked."""
    kind_section = "toy" if config.kind == "toy" else "basis"
    sections = [kind_section if s == "basis" else s for s in stage.sections]
    expect = {"config-digest": config.digest(sections)}
    if stage.digested is not None:
        path = config.out_dir() / stage.digested.format(**params)
        expect["input-digest"] = digest_file(path) if path.exists() else "missing"
    expect.update((key, str(params[key])) for key in stage.header if key in params)
    return expect


def _run(name: str, config: RunConfig, force: bool, **params) -> Path:
    """Run one stage through its cache; returns its last output file.

    Missing or stale inputs raise CacheError naming the stage that produces
    them; outputs whose headers match are kept unless force is set.  A
    HypresError leaves with its `stage` set to this stage's name.
    """
    stage = _STAGE[name]
    out_dir = config.out_dir()
    try:
        for pattern in stage.inputs:
            producer = _PRODUCER[pattern]
            path = out_dir / pattern.format(**params)
            if not path.exists():
                raise CacheError(
                    f"missing {path.name}; run the '{producer}' stage first"
                )
            if not _check_cache(path, _expect(_STAGE[producer], config, params)):
                raise CacheError(
                    f"stale cache {path.name} (config changed); rerun '{producer}'"
                )
        expect = _expect(stage, config, params)
        outputs = [out_dir / p.format(**params) for p in stage.outputs]
        if force or not all(_check_cache(p, expect) for p in outputs):
            stage.run(config, expect, *outputs, **params)
        return outputs[-1]
    except HypresError as exc:
        exc.stage = name
        raise


def _hyperangular_grid(config: RunConfig):
    from .adiabatic import HyperangularGrid
    return HyperangularGrid(
        n_chi=config.get("basis", "n_chi"),
        n_theta=config.get("basis", "n_theta"),
    )


def _analytic_solution(config: RunConfig):
    """Terms and H/Q tables of the toy kind, in the FEM solve's form."""
    from .adiabatic import AdiabaticSolution
    rho, eps, h, q = config.toy().tables()
    return AdiabaticSolution(rho_grid=rho, terms=eps, h_table=h, q_table=q,
                             meta={"kind": "toy"})


def _terms(config: RunConfig, expect: dict, out: Path):
    if config.kind == "toy":
        return save_terms(out, _analytic_solution(config), expect)
    from .adiabatic import solve_terms
    rho_grid = np.geomspace(
        config.get("basis", "rho_min"),
        config.get("basis", "rho_max"),
        config.get("basis", "n_rho"),
    )
    sol = solve_terms(
        config.masses(), _hyperangular_grid(config), rho_grid,
        config.get("basis", "n_terms"),
    )
    save_terms(out, sol, expect)


def _couplings(config: RunConfig, expect: dict, out: Path):
    if config.kind == "toy":
        return save_couplings(out, _analytic_solution(config), expect)
    from .adiabatic import refine_rho_grid, solve_with_couplings
    # terms.dat only places the refinement; every point of the refined grid
    # is solved again, since the couplings need its basis
    rho_grid, terms, _ = load_terms(out.with_name("terms.dat"))
    sol = solve_with_couplings(
        config.masses(), _hyperangular_grid(config),
        refine_rho_grid(rho_grid, terms, config.get("basis", "n_refine")),
        config.get("basis", "n_terms"),
    )
    save_couplings(out, sol, expect)


def _radial_setup(config: RunConfig):
    """The radial problem of couplings.dat and its one master grid, which
    ends at rho_match: the scan's boxes and the sample's K match share it.
    The toy's channels carry no 15/(4 rho^2) term, as in its own problem."""
    from .radial import RadialProblem, build_grid
    rho, eps, h, q, _ = load_couplings(config.out_dir() / "couplings.dat")
    if config.kind == "toy":
        toy = config.toy()
        rho_start, rho_match = toy.rho_start, toy.rho_match
    else:
        rho_start = config.get("radial", "rho_start")
        rho_match = config.get("radial", "rho_match")
    problem = RadialProblem.from_tables(
        rho, eps, h, q, rho_start=rho_start, rho_match=rho_match,
        include_rho_term=config.kind == "three-body",
    )
    return problem, build_grid(problem, h_max=config.get("radial", "h_max"))


def _scan_config(config: RunConfig, problem):
    from .scan import ScanConfig
    # detection starts in the two-open-channel regime of the 2x2 sample
    # contract, just above the second-lowest threshold
    thr = np.sort(problem.thresholds)
    return ScanConfig(
        alpha_min=config.get("scan", "alpha_min"),
        alpha_max=config.get("scan", "alpha_max"),
        alpha_step=config.get("scan", "alpha_step"),
        n_levels=config.get("scan", "n_levels"),
        sigma=config.get("scan", "sigma"),
        e_min=float(thr[min(1, thr.size - 1)]) + 1e-9,
        e_max=config.get("scan", "e_max"),
        energy_window_halfwidth=config.get("scan", "halfwidth"),
    )


def _scan(config: RunConfig, expect: dict, out_b: Path, out_w: Path):
    from .scan import detect_resonances, scan_branches
    problem, grid = _radial_setup(config)
    cfg = _scan_config(config, problem)
    spectrum = scan_branches(problem, cfg, grid=grid)
    rows = np.hstack([spectrum.alpha_grid[:, None], spectrum.levels])
    write_table(
        out_b, rows,
        dict(expect, n_branches=spectrum.n_branches,
             monotone_defect=f"{spectrum.monotone_defect():.3e}"),
        "alpha Lambda_1..Lambda_n",
    )
    windows = detect_resonances(spectrum, cfg, thresholds=problem.thresholds)
    wrows = [
        [i, w.e_center, w.gamma_est, w.slope, w.alpha_at, e, alpha, branch]
        for i, w in enumerate(windows)
        for e, (alpha, branch) in zip(w.energies, w.provenance)
    ]
    write_table(
        out_w,
        np.asarray(wrows) if wrows else np.empty((0, 8)),
        dict(expect, n_windows=len(windows)),
        "window e_center gamma_est slope alpha_at E alpha branch",
    )


def load_windows(path):
    """The scan's ResonanceWindows from windows.dat, and its header."""
    from .scan import ResonanceWindow
    rows, meta = read_table(path)
    windows = []
    for i in range(int(meta.get("n_windows", 0))):
        sel = rows[rows[:, 0] == i]
        windows.append(
            ResonanceWindow(
                e_center=float(sel[0, 1]),
                gamma_est=float(sel[0, 2]),
                slope=float(sel[0, 3]),
                alpha_at=float(sel[0, 4]),
                energies=sel[:, 5],
                provenance=tuple((float(a), int(b)) for a, b in sel[:, 6:8]),
            )
        )
    return windows, meta


def _sample(config: RunConfig, expect: dict, out: Path, resonance: int):
    from .samples import write_samples
    from .scan import sample_k
    windows, _ = load_windows(out.with_name("windows.dat"))
    if not windows:
        raise StageError("no resonance windows detected by the scan stage")
    if not 0 <= resonance < len(windows):
        raise StageError(
            f"resonance index {resonance} out of range (found {len(windows)})"
        )
    window = windows[resonance]
    problem, grid = _radial_setup(config)
    samples = sample_k(problem, window, grid=grid)
    header = [f"{k}: {v}" for k, v in expect.items()]
    header.append(f"e_center: {window.e_center:.17e}")
    header.append(f"gamma_est: {window.gamma_est:.6e}")
    write_samples(out, samples, header_lines=header)


def _fit_weights(samples, mode: str):
    """Per-sample fit weights of a [fit] weighting word."""
    if mode == "uniform":
        return None
    norms = [
        max(1e-6, s.k11 ** 2 + 2.0 * s.k12 ** 2 + s.k22 ** 2) for s in samples
    ]
    return tuple(1.0 / n for n in norms)


def _report_pairs(result, prefix=""):
    rep = result.report
    p = result.params
    pairs = {
        f"{prefix}model": result.model,
        f"{prefix}E1": p.E1,
        f"{prefix}a1": p.a1,
        f"{prefix}a2": p.a2,
        f"{prefix}a": p.a,
        f"{prefix}b1": p.b1,
        f"{prefix}b2": p.b2,
        f"{prefix}b": p.b,
        f"{prefix}rank_defect": p.rank_defect,
        f"{prefix}residual": result.residual,
        f"{prefix}iterations": result.iterations,
        f"{prefix}weight_mode": result.weight_mode,
        f"{prefix}E0": rep.E0,
        f"{prefix}Gamma": rep.Gamma,
        f"{prefix}Gamma1": rep.partial_widths[0],
        f"{prefix}Gamma2": rep.partial_widths[1],
        f"{prefix}branching1": rep.branching[0],
        f"{prefix}branching2": rep.branching[1],
        f"{prefix}Delta1": rep.eigenphases[0],
        f"{prefix}Delta2": rep.eigenphases[1],
        f"{prefix}mixing_nu": rep.mixing_angle,
        f"{prefix}beta_tilde1": rep.beta_tilde[0],
        f"{prefix}beta_tilde2": rep.beta_tilde[1],
        f"{prefix}degenerate_background": rep.degenerate_background,
        f"{prefix}ill_conditioned_background": rep.ill_conditioned_background,
    }
    return pairs


def _fit(config: RunConfig, expect: dict, out: Path, resonance: int, model: str):
    from .fitting import FitProblem, compare_models, fit
    from .samples import read_samples
    samples = read_samples(out.with_name(f"ksamples_{resonance}.dat"))
    weights = _fit_weights(samples, config.get("fit", "weighting"))
    # the upper threshold is the top term at the last rho point, as in
    # RadialProblem.from_tables
    _, eps, _, _, _ = load_couplings(out.with_name("couplings.dat"))
    upper = float(np.max(eps[-1]))

    if model == "both":
        comparison = compare_models(samples, weights=weights)
        pairs = _report_pairs(comparison.general)
        if comparison.diagonal is None:
            pairs["diagonal_status"] = "no admissible start"
        else:
            pairs.update(_report_pairs(comparison.diagonal, prefix="diagonal_"))
            pairs["residual_ratio"] = comparison.residual_ratio
            pairs["branching_shift"] = comparison.branching_shift
        best = comparison.general
    else:
        best = fit(FitProblem(samples=tuple(samples), weights=weights, model=model))
        pairs = _report_pairs(best)
    pairs["E0_below_upper_threshold"] = upper - best.report.E0
    pairs["minus_E0"] = -best.report.E0
    pairs["Gamma2_over_Gamma"] = best.report.branching[1]
    write_keyvalues(out, pairs, header=expect)
    # Table-shaped summary row on stdout is the CLI's job; keep data pure.


# the model cross sections: XSEC_POINTS energies over E0 +- XSEC_SPAN_WIDTHS
# Gamma, cut at the upper threshold
XSEC_POINTS = 201
XSEC_SPAN_WIDTHS = 8.0


def _xsec(config: RunConfig, expect: dict, out_k: Path, out_i: Path,
          out_x: Path, resonance: int):
    from .algebra import cross_sections
    from .breit_wigner import BWPoleParams, bw_k
    from .samples import read_samples
    pairs, _ = read_keyvalues(out_k.with_name(f"fit_{resonance}.txt"))
    samples = read_samples(out_k.with_name(f"ksamples_{resonance}.dat"))
    params = BWPoleParams.from_amplitudes(
        E1=pairs["E1"], a1=pairs["a1"], a2=pairs["a2"], a=pairs["a"],
        beta1=math.sqrt(pairs["b1"]),
        beta2=math.copysign(math.sqrt(pairs["b2"]), pairs["b"] or 1.0),
    )
    rows_k = [[s.energy, s.k11, s.k12, s.k22] for s in samples]
    write_table(out_k, rows_k, dict(expect), "E K11 K12 K22")
    rows_i = []
    for s in samples:
        d11 = s.k11 - pairs["a1"]
        d12 = s.k12 - pairs["a"]
        d22 = s.k22 - pairs["a2"]
        if min(abs(d11), abs(d12), abs(d22)) == 0.0:
            continue
        rows_i.append([s.energy, 1.0 / d11, 1.0 / d12, 1.0 / d22])
    write_table(
        out_i, rows_i, dict(expect),
        "E 1/(K11-a1) 1/(K12-a) 1/(K22-a2)",
    )

    channels = _channel_set(config)
    gamma = pairs["Gamma"]
    e0 = pairs["E0"]
    upper = float(np.max(channels.thresholds))
    span = XSEC_SPAN_WIDTHS * gamma
    lo = max(e0 - span, upper + 1e-9)
    hi = e0 + span
    if hi <= lo:
        raise StageError(
            f"cross-section range [{lo}, {hi}] empty: E0 = {e0!r}, "
            f"Gamma = {gamma!r}, upper threshold {upper!r}"
        )
    rows_x = []
    for e in np.linspace(lo, hi, XSEC_POINTS):
        if e == params.E1:
            continue
        sigma = cross_sections(bw_k(params, float(e)), channels)
        rows_x.append([e, sigma[0, 0], sigma[0, 1], sigma[1, 1]])
    write_table(out_x, rows_x, dict(expect), "E sigma11 sigma12 sigma22")


def _channel_set(config: RunConfig) -> ChannelSet:
    from .channels import ChannelSet
    if config.kind == "three-body":
        return config.masses().channel_set()
    toy = config.toy()
    # plain Schroedinger units: k = q, so 2 mu = 1
    return ChannelSet(
        thresholds=tuple(toy.thresholds), reduced_masses=(0.5, 0.5)
    )


_PHYSICS = ("system", "basis", "radial", "scan")

# The stage list, in dependency order; the CLI builds its subcommands from it.
STAGE_TABLE = (
    Stage("terms", "adiabatic terms table", _PHYSICS[:2], ("terms.dat",),
          _terms),
    Stage("couplings", "terms plus nonadiabatic coupling tables", _PHYSICS[:2],
          ("couplings.dat",), _couplings, inputs=("terms.dat",)),
    Stage("scan", "stabilization scan and resonance windows", _PHYSICS,
          ("branches.dat", "windows.dat"), _scan,
          inputs=("couplings.dat",), digested="couplings.dat"),
    Stage("sample", "K(E) samples inside one window", _PHYSICS,
          ("ksamples_{resonance}.dat",), _sample,
          inputs=("couplings.dat", "windows.dat"), digested="couplings.dat",
          header=("resonance",), params=("resonance",)),
    Stage("fit", "pole-form fit and resonance report", ("fit",),
          ("fit_{resonance}.txt",), _fit,
          inputs=("couplings.dat", "ksamples_{resonance}.dat"),
          digested="ksamples_{resonance}.dat",
          header=("model",), params=("resonance", "model")),
    Stage("xsec", "profile files: K entries, inverse parts, cross sections",
          (),
          ("profiles_k_{resonance}.dat", "profiles_invk_{resonance}.dat",
           "profiles_xsec_{resonance}.dat"), _xsec,
          inputs=("fit_{resonance}.txt",), digested="fit_{resonance}.txt",
          params=("resonance",)),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
_STAGE = {stage.name: stage for stage in STAGE_TABLE}
_PRODUCER = {name: stage.name for stage in STAGE_TABLE for name in stage.outputs}


# One public function per stage.  The pipeline and the CLI look them up by
# name at call time, so a wrapper set on the module attribute (a profiler's,
# say) sees every call.


def stage_terms(config: RunConfig, force: bool = False) -> Path:
    """Adiabatic terms table (Fig.-1-style data)."""
    return _run("terms", config, force)


def stage_couplings(config: RunConfig, force: bool = False) -> Path:
    """Terms plus H/Q coupling tables (the radial-stage input contract)."""
    return _run("couplings", config, force)


def stage_scan(config: RunConfig, force: bool = False) -> Path:
    """Box-size scan: branch table plus detected resonance windows."""
    return _run("scan", config, force)


def stage_sample(config: RunConfig, resonance: int = 0, force: bool = False) -> Path:
    """K(E) samples at the stabilization energies of one detected window."""
    return _run("sample", config, force, resonance=resonance)


def stage_fit(config: RunConfig, resonance: int = 0, model: str | None = None,
              force: bool = False) -> Path:
    """Pole-form fit of the sampled K(E); writes the resonance report."""
    return _run("fit", config, force, resonance=resonance,
                model=model or config.get("fit", "model"))


def stage_xsec(config: RunConfig, resonance: int = 0, force: bool = False) -> Path:
    """Profile files: sampled K entries, inverse resonant parts, and the
    model cross sections on a uniform grid across the window."""
    return _run("xsec", config, force, resonance=resonance)


def run_stage(name: str, config: RunConfig, force: bool = False, **params) -> Path:
    """The stage called name, with the params it takes from the given ones."""
    stage = _STAGE[name]
    kwargs = {key: params[key] for key in stage.params if key in params}
    return globals()[f"stage_{name}"](config, force=force, **kwargs)


def run_pipeline(config: RunConfig, resonance: int = 0, model: str | None = None,
                 force: bool = False, upto: str | None = None):
    """Stages in dependency order, optionally stopping after `upto`.

    Returns the path of the last artifact written.
    """
    if upto is not None and upto not in STAGES:
        raise ConfigError(f"unknown stage {upto!r}")
    last = STAGES.index(upto) if upto else len(STAGES) - 1
    for name in STAGES[: last + 1]:
        path = run_stage(name, config, force=force, resonance=resonance,
                         model=model)
    return path
