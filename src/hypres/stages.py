"""Stage bodies: what each pipeline stage computes and writes on a cache miss.

`hypres.pipeline` holds the configuration, the stage table and the runner.
The runner hands each body the paths its table row names (the call is in
`pipeline.Stage`), so a body names no artifact.  The runner imports this
module only when a stage must run (outputs missing, stale or forced), so
importing the pipeline, `hypres --help` and a fully cached run never
compile these bodies.  A process that runs any stage compiles them then:
it does the same work as when they sat in the pipeline module.  Each body
still imports its layer (FEM, radial solver, scan, fit) when it runs.
Table functions are called through the `tableio` module, never bound here,
so a wrapper set on them while this module first loads (a profiler's,
say) does not stay behind once removed.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import tableio
from .errors import StageError, ValidationError
from .models import TwoChannelToy

if TYPE_CHECKING:
    from .channels import ChannelSet
    from .pipeline import RunConfig


def _hyperangular_grid(config: RunConfig):
    from .adiabatic import HyperangularGrid
    return HyperangularGrid(
        n_chi=config.get("basis", "n_chi"),
        n_theta=config.get("basis", "n_theta"),
    )


def _terms(config: RunConfig, expect: dict, out: Path):
    if config.kind == "toy":
        rho, eps, _, _ = TwoChannelToy().tables()
        return tableio.save_terms(out, rho, eps, {"kind": "toy", **expect})
    from .adiabatic import solve_terms
    from .channels import dtmu_masses
    rho_grid = np.geomspace(
        *(config.get("basis", key) for key in ("rho_min", "rho_max", "n_rho")))
    sol = solve_terms(
        dtmu_masses(), _hyperangular_grid(config), rho_grid,
        config.get("basis", "n_terms"),
    )
    tableio.save_terms(out, sol.rho_grid, sol.terms, dict(sol.meta, **expect))


def _couplings(config: RunConfig, expect: dict, terms: Path, out: Path):
    if config.kind == "toy":
        return tableio.save_couplings(out, *TwoChannelToy().tables(),
                                      {"kind": "toy", **expect})
    from .adiabatic import refine_rho_grid, solve_with_couplings
    from .channels import dtmu_masses
    # the terms table only places the refinement; every point of the refined
    # grid is solved again, since the couplings need its basis
    rho_grid, eps, _ = tableio.load_terms(terms)
    sol = solve_with_couplings(
        dtmu_masses(), _hyperangular_grid(config),
        refine_rho_grid(rho_grid, eps, config.get("basis", "n_refine")),
        config.get("basis", "n_terms"),
    )
    tableio.save_couplings(out, sol.rho_grid, sol.terms, sol.h_table,
                           sol.q_table, dict(sol.meta, **expect))


def _radial_setup(config: RunConfig, couplings: Path):
    """The radial problem of the couplings table and its one master grid,
    which ends at rho_match: the scan's boxes and the sample's K match share it.
    The toy's channels carry no 15/(4 rho^2) term, as in its own problem."""
    from .radial import RadialProblem, build_grid
    rho, eps, h, q, _ = tableio.load_couplings(couplings)
    # the toy's range is its tables' [rho_start, rho_match], from_tables' default
    ends = {} if config.kind == "toy" else {
        key: config.get("radial", key) for key in ("rho_start", "rho_match")}
    problem = RadialProblem.from_tables(
        rho, eps, h, q, include_rho_term=config.kind == "three-body", **ends)
    return problem, build_grid(problem, h_max=config.get("radial", "h_max"))


def _scan(config: RunConfig, expect: dict, couplings: Path, out_b: Path,
          out_w: Path):
    from .scan import ScanConfig, detect_resonances, scan_branches
    # bad settings fail before the grid is built
    cfg = ScanConfig(**config.values["scan"])
    problem, grid = _radial_setup(config, couplings)
    spectrum = scan_branches(problem, cfg, grid=grid)
    rows = np.hstack([spectrum.alpha_grid[:, None], spectrum.levels])
    header = dict(expect, n_branches=spectrum.n_branches)
    if cfg.sigma is None:
        # with sigma, branch b is the b-th level nearest sigma, which jumps
        # whenever a level leaves that window: never monotone
        header["monotone_defect"] = f"{spectrum.monotone_defect():.3e}"
    tableio.write_table(out_b, rows, header, "alpha Lambda_1..Lambda_n")
    windows = detect_resonances(spectrum, cfg, problem.thresholds)
    wrows = [[i, w.e_center, w.gamma_est, w.slope, w.alpha_at, *row]
             for i, w in enumerate(windows) for row in w.rows]
    tableio.write_table(
        out_w,
        np.asarray(wrows) if wrows else np.empty((0, 8)),
        dict(expect, n_windows=len(windows)),
        "window e_center gamma_est slope alpha_at E alpha branch",
    )


def load_windows(path):
    """The scan's ResonanceWindows from windows.dat, and its header; a
    header n_windows that is not a count, or a window without rows of the
    8 columns, is a ValidationError."""
    from .scan import ResonanceWindow
    rows, meta = tableio.read_table(path)
    n_windows = tableio.header_number(path, meta, "n_windows")
    if n_windows and rows.shape[-1] != 8:
        raise ValidationError(f"{path}: expected 8 columns, got {rows.shape[-1]}")
    windows = []
    for i in range(n_windows):
        sel = rows[rows[:, 0] == i]
        if not len(sel):
            raise ValidationError(f"{path}: no rows of window {i} of {n_windows}")
        windows.append(
            ResonanceWindow(
                e_center=float(sel[0, 1]),
                gamma_est=float(sel[0, 2]),
                slope=float(sel[0, 3]),
                alpha_at=float(sel[0, 4]),
                rows=sel[:, 5:8],
            )
        )
    return windows, meta


def _sample(config: RunConfig, expect: dict, couplings: Path, windows: Path,
            out: Path, resonance: int):
    from .samples import write_samples
    from .scan import sample_k
    windows, _ = load_windows(windows)
    if not windows:
        raise StageError("no resonance windows detected by the scan stage")
    if not 0 <= resonance < len(windows):
        raise StageError(
            f"resonance index {resonance} out of range (found {len(windows)})"
        )
    window = windows[resonance]
    problem, grid = _radial_setup(config, couplings)
    samples = sample_k(problem, window, grid=grid)
    write_samples(out, samples, dict(
        expect, e_center=f"{window.e_center:.17e}",
        gamma_est=f"{window.gamma_est:.6e}"))


def _report_pairs(result, prefix=""):
    rep = result.report
    p = result.params
    pairs = {
        f"{prefix}model": result.model,
        f"{prefix}start": result.start,
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
        f"{prefix}weighting": result.weighting,
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


def _fit(config: RunConfig, expect: dict, samples: Path, out: Path, model: str):
    from .fitting import FitProblem, compare_models, fit
    from .samples import read_samples
    sampled, _ = read_samples(samples)
    weighting = config.get("fit", "weighting")
    if model == "both":
        comparison = compare_models(sampled, weighting)
        pairs = _report_pairs(comparison.general)
        if comparison.diagonal is None:
            pairs["diagonal_status"] = "no admissible start"
        else:
            pairs.update(_report_pairs(comparison.diagonal, prefix="diagonal_"))
            pairs["residual_ratio"] = comparison.residual_ratio
            pairs["branching_shift"] = comparison.branching_shift
        best = comparison.general
    else:
        best = fit(FitProblem(tuple(sampled), weighting, model))
        pairs = _report_pairs(best)
    pairs["minus_E0"] = -best.report.E0
    pairs["Gamma2_over_Gamma"] = best.report.branching[1]
    tableio.write_keyvalues(out, pairs, header=expect)
    # Table-shaped summary row on stdout is the CLI's job; keep data pure.


# the model cross sections: XSEC_POINTS energies over E0 +- XSEC_SPAN_WIDTHS
# Gamma, cut at the upper threshold
XSEC_POINTS = 201
XSEC_SPAN_WIDTHS = 8.0


def _xsec(config: RunConfig, expect: dict, report: Path, samples: Path,
          out_k: Path, out_i: Path, out_x: Path):
    from .algebra import cross_sections
    from .breit_wigner import BWPoleParams, bw_k
    from .samples import read_samples
    pairs, _ = tableio.read_keyvalues(report)
    pole = ("E1", "a1", "a2", "a", "b1", "b2", "b")
    tableio.check_numbers(report, pairs, (*pole, "E0", "Gamma"))
    samples, _ = read_samples(samples)
    params = BWPoleParams(**{key: pairs[key] for key in pole})
    rows_k = [[s.energy, s.k11, s.k12, s.k22] for s in samples]
    tableio.write_table(out_k, rows_k, dict(expect), "E K11 K12 K22")
    rows_i = []
    for s in samples:
        d11 = s.k11 - pairs["a1"]
        d12 = s.k12 - pairs["a"]
        d22 = s.k22 - pairs["a2"]
        if min(abs(d11), abs(d12), abs(d22)) == 0.0:
            continue
        rows_i.append([s.energy, 1.0 / d11, 1.0 / d12, 1.0 / d22])
    tableio.write_table(
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
    tableio.write_table(out_x, rows_x, dict(expect), "E sigma11 sigma12 sigma22")


def _channel_set(config: RunConfig) -> ChannelSet:
    from .channels import ChannelSet, dtmu_masses
    if config.kind == "three-body":
        return dtmu_masses().channel_set()
    # plain Schroedinger units: k = q, so 2 mu = 1
    return ChannelSet(
        thresholds=tuple(TwoChannelToy().thresholds), reduced_masses=(0.5, 0.5)
    )
