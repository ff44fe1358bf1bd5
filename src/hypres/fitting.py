"""Least-squares fit of sampled K(E) to the rank-1 pole form.

The model is fitted in the amplitude parametrization

    theta = (E1, a1, a2, a, beta1, beta2),
    b1 = beta1^2,  b2 = beta2^2,  b = beta1 beta2,

so the rank-1 residue constraint holds exactly and one redundant parameter
disappears.  Both models use this one vector.  The traditional resonance
formula is the same form without inelastic background: the diagonal model
pins a = 0 and frees the other five slots (FREE); comparing the two fits on
identical samples shows how much the inelastic background moves the
branching ratio.

The minimizer is a damped Gauss-Newton iteration (Levenberg-Marquardt style
trust-region fallback) on the weighted Frobenius misfit

    sum_s w_s || K_model(E_s) - K_s ||_F^2,

with analytic Jacobian; it is deterministic given samples, weighting,
model and starting point.  The weights w_s are 1 ("uniform"), or with
"relative" weighting 1 / max(1e-6, ||K_s||_F^2), so that each sample's K
counts at unit norm; `fit` is their one home.  The samples are the (n, 7)
rows E K11 K12 K22 defect alpha branch of `hypres.samples`; the fit reads
the first four columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .breit_wigner import BWPoleParams, ResonanceReport, resonance_from_pole
from .errors import BracketError, FitFailureError, ValidationError

XTOL = 1e-10
FTOL = 1e-10
MAX_ITER = 400
POLE_SIDE_SAMPLES = 2  # admissible pole: samples needed on each side

MODEL_GENERAL = "general"
MODEL_DIAGONAL = "diagonal"
# theta slots each model fits; the diagonal model keeps a (slot 3) at +0.0
FREE = {MODEL_GENERAL: (0, 1, 2, 3, 4, 5), MODEL_DIAGONAL: (0, 1, 2, 4, 5)}


@dataclass(frozen=True)
class FitResult:
    """Converged fit: parameters, report, and quality metrics."""

    params: BWPoleParams
    report: ResonanceReport
    residual: float  # rms misfit per matrix entry, weighted
    model: str
    weighting: str
    iterations: int
    start: str  # which start won: "varpro", "guess", "guess 2", ...


@dataclass(frozen=True)
class ModelComparison:
    """General vs diagonal-background fits of the same samples."""

    general: FitResult
    diagonal: FitResult | None  # None (ratio, shift NaN): no admissible start
    residual_ratio: float  # diagonal / general, >= 1 for nested models
    branching_shift: float  # |Gamma2/Gamma difference| between the two fits


def _edge_median(values: np.ndarray, order: np.ndarray) -> float:
    n = max(2, len(values) // 6)
    edges = np.concatenate([values[order[:n]], values[order[-n:]]])
    return float(np.median(edges))


def initial_guess(samples) -> BWPoleParams:
    """Starting parameters from the pole passage visible in the (n, 7) samples.

    The inverse of a simple pole is linear in E, so E1 comes from the root
    of a straight-line fit to 1/(K11 - median K11); backgrounds come from
    window-edge medians and residues from the slopes of the inverse entries.
    """
    if len(samples) < 3:
        raise BracketError(f"need at least 3 samples, got {len(samples)}")
    e, k = samples[:, 0], samples[:, 1:4]
    order = np.argsort(e)

    e1 = None
    for col in (0, 2, 1):
        centered = k[:, col] - np.median(k[:, col])
        if not (np.any(centered > 0) and np.any(centered < 0)):
            continue
        keep = np.abs(centered) > 1e-12 * max(1.0, np.abs(k[:, col]).max())
        if keep.sum() < 2:
            continue
        slope, icpt = np.polyfit(e[keep], 1.0 / centered[keep], 1)
        if slope == 0.0:
            continue
        e1 = -icpt / slope
        break
    if e1 is None:
        raise BracketError("no pole passage (sign change) in any K entry")

    a1 = _edge_median(k[:, 0], order)
    a = _edge_median(k[:, 1], order)
    a2 = _edge_median(k[:, 2], order)

    # 1/(K_ij - a_ij) = -(E - E1)/b_ij: slope of the inverse gives the residue.
    res = []
    for col, bg in ((0, a1), (1, a), (2, a2)):
        centered = k[:, col] - bg
        keep = np.abs(centered) > 1e-12 * max(1.0, np.abs(k[:, col]).max())
        if keep.sum() >= 2:
            slope, _ = np.polyfit(e[keep], 1.0 / centered[keep], 1)
            res.append(-1.0 / slope if slope != 0.0 else 0.0)
        else:
            res.append(0.0)
    b1, b, b2 = res
    if b1 <= 0.0 and b2 <= 0.0:
        b1 = b2 = abs(b)
    beta1 = math.sqrt(max(b1, 0.0))
    if beta1 == 0.0:
        beta1 = math.sqrt(abs(b)) if b else math.sqrt(max(b2, 0.0)) * 1e-3
    beta2 = math.copysign(math.sqrt(max(b2, 0.0)), b if b else 1.0)
    return BWPoleParams.from_amplitudes(e1, a1, a2, a, beta1, beta2)


def _theta_from_params(p: BWPoleParams, model: str) -> np.ndarray:
    a = p.a if model == MODEL_GENERAL else 0.0
    return np.array([p.E1, p.a1, p.a2, a, *p.amplitudes])


def _params_from_theta(theta: np.ndarray) -> BWPoleParams:
    e1, a1, a2, a, beta1, beta2 = theta
    if beta1 < 0.0:  # overall sign convention: beta1 >= 0
        beta1, beta2 = -beta1, -beta2
    return BWPoleParams.from_amplitudes(e1, a1, a2, a, beta1, beta2)


def _residual_and_jacobian(theta, e, k, w):
    """Weighted residual vector and six-column Jacobian of the pole form.

    Off-diagonal rows carry sqrt(2) so the objective is the Frobenius misfit
    of the full symmetric matrix.
    """
    e1, a1, a2, a, beta1, beta2 = theta
    de = e - e1
    if np.any(de == 0.0):
        de = np.where(de == 0.0, 1e-300, de)
    inv = 1.0 / de
    inv2 = inv * inv
    sw = np.sqrt(w)
    s2 = math.sqrt(2.0)

    r = np.concatenate(
        [
            sw * (a1 - beta1**2 * inv - k[:, 0]),
            s2 * sw * (a - beta1 * beta2 * inv - k[:, 1]),
            sw * (a2 - beta2**2 * inv - k[:, 2]),
        ]
    )

    n = e.size
    jac = np.zeros((3 * n, 6))
    one = np.ones(n)
    # row block 11
    jac[0:n, 0] = sw * (-(beta1**2) * inv2)
    jac[0:n, 1] = sw * one
    jac[0:n, 4] = sw * (-2.0 * beta1 * inv)
    # row block 12
    jac[n : 2 * n, 0] = s2 * sw * (-(beta1 * beta2) * inv2)
    jac[n : 2 * n, 3] = s2 * sw * one
    jac[n : 2 * n, 4] = s2 * sw * (-beta2 * inv)
    jac[n : 2 * n, 5] = s2 * sw * (-beta1 * inv)
    # row block 22
    jac[2 * n : 3 * n, 0] = sw * (-(beta2**2) * inv2)
    jac[2 * n : 3 * n, 2] = sw * one
    jac[2 * n : 3 * n, 5] = sw * (-2.0 * beta2 * inv)
    return r, jac


def _lm_minimize(theta0, e, k, w, model):
    """Damped Gauss-Newton with multiplicative trust-region fallback.

    Steps move the model's FREE slots of theta; the others keep theta0's
    values.
    """
    free = list(FREE[model])
    theta = theta0.copy()
    r, jac = _residual_and_jacobian(theta, e, k, w)
    cost = float(r @ r)
    lam = 1e-6
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        # a C-contiguous copy: the column norms then sum in the same order
        # whichever columns are free
        jac = np.ascontiguousarray(jac[:, free])
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        accepted = False
        for _ in range(60):
            aug = np.vstack([jac / scale, math.sqrt(lam) * np.eye(len(free))])
            rhs = np.concatenate([-r, np.zeros(len(free))])
            step = np.linalg.lstsq(aug, rhs, rcond=None)[0] / scale
            trial = theta.copy()
            trial[free] += step
            r_t, jac_t = _residual_and_jacobian(trial, e, k, w)
            cost_t = float(r_t @ r_t)
            if np.isfinite(cost_t) and cost_t <= cost:
                accepted = True
                break
            lam *= 8.0
        if not accepted:
            return theta, cost, n_iter, False
        rel_step = np.max(np.abs(step) / np.maximum(
            np.abs(theta[free]), np.abs(trial[free]) + 1e-300))
        rel_fall = (cost - cost_t) / cost if cost > 0.0 else 0.0
        theta, r, jac, cost = trial, r_t, jac_t, cost_t
        lam = max(lam / 4.0, 1e-14)
        if (rel_step < XTOL and rel_fall < FTOL) or cost == 0.0:
            return theta, cost, n_iter, True
    return theta, cost, n_iter, False


def _linear_solve_at_pole(e1, e, k, w, model):
    """Exact weighted linear fit of (backgrounds, residue) at fixed E1.

    Each matrix entry is linear in its background and residue: K_entry =
    a_entry + b_entry * x with x = -1/(E - E1); returns the three (a, b)
    pairs, the total weighted cost, and the entry weights actually used.
    """
    x = -1.0 / (e - e1)
    cost = 0.0
    coefs = []
    for col, wmul, force_zero_a in (
        (0, 1.0, False),
        (1, 2.0, model == MODEL_DIAGONAL),
        (2, 1.0, False),
    ):
        y = k[:, col]
        ww = w * wmul
        if force_zero_a:
            b = float((ww * x * y).sum() / (ww * x * x).sum())
            a = 0.0
        else:
            sw = ww.sum()
            sx = (ww * x).sum()
            sxx = (ww * x * x).sum()
            sy = (ww * y).sum()
            sxy = (ww * x * y).sum()
            det = sw * sxx - sx * sx
            if det == 0.0:
                a, b = sy / sw, 0.0
            else:
                a = (sxx * sy - sx * sxy) / det
                b = (sw * sxy - sx * sy) / det
        resid = y - a - b * x
        cost += float((ww * resid * resid).sum())
        coefs.append((a, b))
    return coefs, cost


def _varpro_refine(e, k, w, model):
    """Pole-position refinement by variable projection.

    The cost as a function of E1 alone (all linear parameters eliminated
    exactly) is scanned over the sample window and polished by golden
    section inside the best inter-sample interval; deterministic.
    """
    es = np.sort(e)
    lo, hi = es[0], es[-1]
    span = hi - lo
    grid = np.linspace(lo + 1e-3 * span, hi - 1e-3 * span, 241)
    # avoid sample energies (cost is defined but stiff exactly there)
    cost = np.array([_linear_solve_at_pole(g, e, k, w, model)[1] for g in grid])
    i0 = int(np.argmin(cost))
    a = grid[max(i0 - 1, 0)]
    b = grid[min(i0 + 1, grid.size - 1)]
    inside = es[(es > a) & (es < b)]
    if inside.size:  # shrink to one smooth inter-sample interval
        mid = grid[i0]
        left = inside[inside < mid]
        right = inside[inside > mid]
        a = float(left.max()) + 1e-12 * span if left.size else a
        b = float(right.min()) - 1e-12 * span if right.size else b
    phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = _linear_solve_at_pole(x1, e, k, w, model)[1]
    f2 = _linear_solve_at_pole(x2, e, k, w, model)[1]
    for _ in range(200):
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = _linear_solve_at_pole(x1, e, k, w, model)[1]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = _linear_solve_at_pole(x2, e, k, w, model)[1]
    e1 = 0.5 * (a + b)
    coefs, _ = _linear_solve_at_pole(e1, e, k, w, model)
    (a1, b1), (a12, b12), (a2, b2) = coefs
    # nearest rank-1 positive-semidefinite residue
    residue = np.array([[b1, b12], [b12, b2]])
    vals, vecs = np.linalg.eigh(residue)
    lead = int(np.argmax(vals))
    lam = max(vals[lead], 1e-300)
    beta = math.sqrt(lam) * vecs[:, lead]
    if beta[0] < 0.0:
        beta = -beta
    return np.array([e1, a1, a2, a12, beta[0], beta[1]])


def fit(samples: np.ndarray, weighting="uniform", model=MODEL_GENERAL,
        guesses=None) -> FitResult:
    """Fit the pole form to the (n, 7) samples; returns parameters and report.

    weighting is "uniform" or "relative" and model "general" or "diagonal";
    another word, fewer samples than the model's free parameters + 1, or
    energies that are all equal raise ValidationError.

    Each start is polished by the damped Gauss-Newton iteration: first the
    variable-projection optimum of the pole position over the sample window
    ("varpro"), then each of the guesses (BWPoleParams) in the given order
    ("guess", "guess 2", ...); guesses=None means the one data-driven
    initial_guess of the samples.  A start is admissible when its iteration
    converges and its pole lies inside the sampled energies with at least
    POLE_SIDE_SAMPLES samples strictly on each side; a pole pushed onto
    the window edge with a collapsing residue is the "no resonance"
    minimum that noisy samples can offer, and it is rejected even when
    its cost is lower.  So is a pole whose width b1 + b2 is not above the
    float spacing math.ulp(E1): no energy grid can resolve it.  The
    lowest-cost admissible result is returned, the earliest start on a tie.

    Raises FitFailureError (carrying the best-so-far parameters) only when
    no start is admissible; resonance_from_pole's
    InconsistentParametersError propagates when the returned parameters
    imply a negative width.
    """
    if weighting not in ("uniform", "relative"):
        raise ValidationError(f"unknown weighting {weighting!r}")
    if model not in FREE:
        raise ValidationError(f"unknown model {model!r}")
    n_params = len(FREE[model])
    if len(samples) < n_params + 1:
        raise ValidationError(
            f"{model} model needs at least {n_params + 1} samples, "
            f"got {len(samples)}"
        )
    e, k = samples[:, 0], samples[:, 1:4]
    if np.ptp(e) == 0.0:
        raise ValidationError("sample energies are all equal")
    if weighting == "uniform":
        w = np.ones(len(e))
    else:
        w = np.array([1.0 / max(1e-6, k11 ** 2 + 2.0 * k12 ** 2 + k22 ** 2)
                      for k11, k12, k22 in k.tolist()])
    if guesses is None:
        guesses = (initial_guess(samples),)
    starts = [("varpro", _varpro_refine(e, k, w, model))]
    for i, guess in enumerate(guesses):
        starts.append(("guess" if i == 0 else f"guess {i + 1}",
                       _theta_from_params(guess, model)))
    runs = []  # (cost, start, theta, iterations, why it is inadmissible)
    for name, theta0 in starts:
        theta, cost, n_iter, converged = _lm_minimize(theta0, e, k, w, model)
        below = int(np.count_nonzero(e < theta[0]))
        above = int(np.count_nonzero(e > theta[0]))
        width = theta[-2] ** 2 + theta[-1] ** 2  # b1 + b2
        why = None
        if not converged:
            why = f"no convergence after {n_iter} iterations"
        elif min(below, above) < POLE_SIDE_SAMPLES:
            why = (f"pole E1={theta[0]:.12g} has {below} samples below, "
                   f"{above} above")
        elif not width > math.ulp(theta[0]):
            why = (f"pole E1={theta[0]:.12g} has b1 + b2 = {width:.3e}, "
                   f"not above the float spacing at E1")
        runs.append((cost, name, theta, n_iter, why))
    admissible = [run for run in runs if run[4] is None]
    cost, start, theta, n_iter, _ = min(admissible or runs, key=lambda r: r[0])
    params = _params_from_theta(theta)
    residual = math.sqrt(cost / (4.0 * float(np.sum(w))))
    if not admissible:
        reasons = "; ".join(f"{run[1]}: {run[4]}" for run in runs)
        raise FitFailureError(
            f"no admissible start ({reasons}); best residual {residual:.3e}",
            best_params=params,
            residual=residual,
        )
    return FitResult(
        params=params,
        report=resonance_from_pole(params),
        residual=residual,
        model=model,
        weighting=weighting,
        iterations=n_iter,
        start=start,
    )


def compare_models(samples, weighting="uniform") -> ModelComparison:
    """Fit general and diagonal-background models to identical samples.

    The diagonal model is fitted from its varpro start and the data-driven
    guess.  The general model is then fitted once, from its varpro start,
    the guess and the diagonal solution, keeping the lowest-cost admissible
    optimum, so its residual can never exceed the diagonal one (nested
    models).  When the diagonal model has no admissible start, the general
    fit goes without the diagonal start and the comparison carries
    diagonal=None.  FitFailureError from the general fit propagates.
    """
    guess = initial_guess(samples)
    try:
        diag = fit(samples, weighting, MODEL_DIAGONAL, guesses=(guess,))
    except FitFailureError:
        diag = None
    best = fit(samples, weighting, MODEL_GENERAL,
               guesses=(guess,) if diag is None else (guess, diag.params))
    if diag is None:
        return ModelComparison(best, None, math.nan, math.nan)
    shift = abs(best.report.branching[1] - diag.report.branching[1])
    ratio = diag.residual / best.residual if best.residual > 0 else math.inf
    return ModelComparison(best, diag, ratio, shift)
