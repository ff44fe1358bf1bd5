"""Radial propagation, matching, and box eigenvalues."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, expm
from scipy.special import jv

from hypres import radial
from hypres.errors import (
    ClosedChannelError,
    EigensolverError,
    MatchingQualityError,
    MatrixInversionError,
    NoOpenChannelError,
    ValidationError,
)
from hypres.models import BoxMode, TwoChannelToy, coupled_wells
from hypres.radial import (
    CHUNK_ROWS,
    RadialProblem,
    assemble_pencil,
    build_grid,
    extract_k,
    propagate_ratio,
    stabilization_eigenvalues,
)
from hypres.scan import N_BUFFER
from oracles import k_matrix_direct


def flat_problem(value=0.0, rho_start=1e-7, rho_match=30.0, barrier=False):
    def eps(rho):
        return np.full(np.shape(rho) + (1,), value)

    return RadialProblem(
        thresholds=np.array([value]),
        eps=eps,
        rho_start=rho_start,
        rho_match=rho_match,
        include_rho_term=barrier,
    )


class TestFreeMotion:
    def test_free_k_vanishes(self):
        prob = flat_problem()
        grid = build_grid(prob, h_max=0.01)
        ks, defects = extract_k(prob, [0.3, 0.9, 1.7], grid=grid)
        for k in ks:
            assert abs(k.entries[0, 0]) < 1e-6
        assert defects.max() == 0.0  # single channel: exactly symmetric

    def test_hyperradial_barrier_phase(self):
        # the universal 15/(4 rho^2) barrier alone: the regular solution is
        # sqrt(rho) J_2(q rho); matching that oracle at the same two grid
        # points must agree with the propagated K
        prob = flat_problem(rho_start=1e-4, rho_match=400.0, barrier=True)
        grid = build_grid(prob, rho_end=400.0, h_max=0.02)
        ks, _ = extract_k(prob, [0.5, 1.0], grid=grid)
        r1, r2 = grid.points[-2], grid.points[-1]
        for e, k in zip([0.5, 1.0], ks):
            q = np.sqrt(e)
            f = [np.sqrt(r) * jv(2, q * r) for r in (r1, r2)]
            m = np.array(
                [[np.sin(q * r1), np.cos(q * r1)],
                 [np.sin(q * r2), np.cos(q * r2)]]
            )
            ca, cb = np.linalg.solve(m, f)
            assert k.entries[0, 0] == pytest.approx(cb / ca, abs=1e-5)
            # far from the axis the asymptotic phase is -3 pi / 4, K -> 1
            assert k.entries[0, 0] == pytest.approx(1.0, abs=0.05)


class TestBoxSpectrum:
    def test_analytic_levels(self):
        box = BoxMode(offset=0.7, rho_start=1.0, rho_match=40.0)
        prob = box.problem()
        alpha = 11.0
        grid = build_grid(prob, rho_end=alpha, h_max=0.02)
        vals = stabilization_eigenvalues(prob, alpha, 5, grid=grid)
        assert np.abs(vals - box.exact_levels(alpha, 5)).max() < 1e-6

    def test_dirichlet_monotonicity(self):
        box = BoxMode(offset=0.0, rho_start=1.0, rho_match=40.0)
        prob = box.problem()
        grid = build_grid(prob, rho_end=30.0, h_max=0.02)
        prev = None
        for alpha in np.arange(10.0, 30.0 + 1e-9, 2.0):
            vals = stabilization_eigenvalues(prob, alpha, 6, grid=grid)
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
            prev = vals

    def test_numerov_fourth_order(self):
        # levels 3-5 of the exact box spectrum; levels 1-2 reach roundoff at
        # the finest step
        box = BoxMode(offset=0.7, rho_start=1.0, rho_match=40.0)
        prob = box.problem()
        alpha = 11.0
        errors = []
        for h_max in (0.04, 0.02, 0.01):
            grid = build_grid(prob, rho_end=alpha, h_max=h_max)
            vals = stabilization_eigenvalues(prob, alpha, 5, grid=grid)
            errors.append(np.abs(vals - box.exact_levels(alpha, 5))[2:])
        errors = np.array(errors)
        order = np.log2(errors[:-1] / errors[1:])
        assert np.all((order > 3.5) & (order < 4.5)), order

    def test_box_past_grid_end_rejected(self, toy_problem):
        # the grid ends at rho_match = 28: a larger box is not snapped back
        grid = build_grid(toy_problem, h_max=0.04)
        end, bond = grid.points[-1], grid.bond_h[-1]
        assert end == toy_problem.rho_match
        with pytest.raises(ValidationError):
            stabilization_eigenvalues(toy_problem, 35.0, 4, grid=grid)
        at_end = stabilization_eigenvalues(toy_problem, end, 4, grid=grid)
        near = stabilization_eigenvalues(toy_problem, end + 0.4 * bond, 4,
                                         grid=grid)
        assert np.array_equal(near, at_end)

    def test_box_errors_print_plain_floats(self, monkeypatch, toy_problem):
        # numpy scalars read as 0.02 in the messages, not np.float64(0.02)
        grid = build_grid(toy_problem, h_max=0.05)
        start = np.float64(toy_problem.rho_start)
        with pytest.raises(ValidationError) as err:
            stabilization_eigenvalues(toy_problem, 0.5 * start, 4, grid=grid)
        assert str(err.value) == f"alpha={0.5 * float(start)!r} below rho_start"
        with pytest.raises(ValidationError) as err:
            stabilization_eigenvalues(toy_problem, start, 4, grid=grid)
        assert str(err.value) == f"alpha={float(start)!r} leaves too few grid points"
        alpha = np.float64(10.0)
        monkeypatch.setattr(
            radial.lapack, "dgbtrf",
            lambda ab, *args, **kwargs: (ab, np.zeros(ab.shape[1], np.int32), 1))
        with pytest.raises(EigensolverError) as err:
            stabilization_eigenvalues(toy_problem, alpha, 4, grid=grid,
                                      sigma=np.float64(2.5))
        assert "at sigma=2.5, alpha=10.0" in str(err.value)
        monkeypatch.undo()

        def stall(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", stall)
        with pytest.raises(EigensolverError) as err:
            stabilization_eigenvalues(toy_problem, alpha, 4, grid=grid)
        assert "box eigensolver stalled at alpha=10.0" in str(err.value)


def loop_w_samples(problem, points):
    """Per-point reference for build_grid's W samples and gauge: scalar
    w_bare calls and one 2-D midpoint-exponential gauge step per bond, in
    the real closed form exp(a) = cos(sqrt M) + sinc(sqrt M) a of a = h A,
    M = a^T a, from one real SVD per bond: a = U diag(s) V^T gives
    R = (V diag(cos s) + U diag(sin s)) V^T, and the step is the
    Newton-Schulz polish R (3 I - R^T R) / 2."""
    n = problem.n_channels
    gauge = None
    if problem.has_gauge():
        gauge = np.empty((points.size, n, n))
        s = np.eye(n)
        gauge[0] = s
        for k in range(points.size - 1):
            h = points[k + 1] - points[k]
            q = np.asarray(problem.q_mat(points[k] + 0.5 * h), dtype=float)
            u, sv, vt = np.linalg.svd(h * (0.5 * (q - q.T)))
            step = (vt.T * np.cos(sv) + u * np.sin(sv)) @ vt
            s = step @ (1.5 * np.eye(n) - 0.5 * step.T @ step) @ s
            gauge[k + 1] = s
    w = np.empty((points.size, n, n))
    for k, rho in enumerate(points):
        wb = problem.w_bare(rho)
        if gauge is not None:
            wb = gauge[k].T @ wb @ gauge[k]
        w[k] = 0.5 * (wb + wb.T)
    return w, gauge


def written_out_w(problem, points, gauge=None):
    """W's arithmetic written out point by point, independent of w_bare:
    diag(eps) + H + Q @ Q + 15/(4 rho^2) I, then 1/2 (W + W^T), and with a
    gauge S^T W S, then 1/2 (W + W^T) again.  The model's terms are taken at
    all points at once, so only the arithmetic is per point (an analytic
    model's array and scalar exp may differ far below any physical scale)."""
    eps = np.asarray(problem.eps(points), dtype=float)
    h = None if problem.h_mat is None else np.asarray(problem.h_mat(points), dtype=float)
    q = None if problem.q_mat is None else np.asarray(problem.q_mat(points), dtype=float)
    n = problem.n_channels
    bare, rotated = np.empty((points.size, n, n)), np.empty((points.size, n, n))
    for k, rho in enumerate(points):
        w = np.diag(eps[k])
        if h is not None:
            w = w + h[k]
        if q is not None:
            w = w + q[k] @ q[k]
        if problem.include_rho_term:
            w = w + 15.0 / (4.0 * rho * rho) * np.eye(n)
        w = bare[k] = 0.5 * (w + w.T)
        if gauge is not None:
            w = gauge[k].T @ w @ gauge[k]
            w = 0.5 * (w + w.T)
        rotated[k] = w
    return bare, rotated


def loop_join_bond(bond_h):
    """Per-bond reference for build_grid's join marks (math.isclose)."""
    join = np.zeros(bond_h.size, dtype=bool)
    for k in range(1, bond_h.size):
        if not math.isclose(bond_h[k], bond_h[k - 1], rel_tol=1e-9):
            join[k - 1 : k + 1] = True
    return join


def wells_table_problem(with_q, n=4):
    """coupled_wells(n) sampled into tables, as the pipeline builds problems."""
    wells = coupled_wells(n)
    rho = np.linspace(wells.rho_start, wells.rho_match, 600)
    q = None
    if with_q:
        # small antisymmetric first-derivative coupling, so the gauge runs
        q = np.zeros((rho.size, n, n))
        for i in range(n - 1):
            bump = 0.05 * np.exp(-(((rho - 3.0 - i) / 1.5) ** 2))
            q[:, i, i + 1], q[:, i + 1, i] = bump, -bump
    return RadialProblem.from_tables(
        rho, wells.eps(rho), wells.h_mat(rho), q, include_rho_term=False
    )


def loop_build_grid(problem, h_max):
    """Reference for build_grid: its probe loop with one scalar w_bare and
    eigvalsh per probe, and the same samples, joins and gauge ends."""
    rho_end = problem.rho_match
    e_ref = float(np.max(problem.thresholds)) + 1.0

    def h_required(rho):
        w = problem.w_bare(rho)
        kap_sq = np.max(np.abs(np.linalg.eigvalsh(w) - e_ref))
        kap = math.sqrt(max(kap_sq, 1e-12))
        return min(h_max, 2.0 * math.pi / (radial.POINTS_PER_WAVE * kap))

    pieces = []
    rho = problem.rho_start
    h = h_max
    while h_required(rho) < h:
        h *= 0.5
    while rho < rho_end - 1e-12:
        probe = rho
        while probe < rho_end and h_required(min(probe * 1.3 + h, rho_end)) < 2.0 * h:
            probe = probe * 1.3 + h
        limit = min(probe, rho_end)
        n_steps = max(1, int(math.ceil((limit - rho) / h)))
        if rho + n_steps * h > rho_end:
            n_steps = max(1, int(math.ceil((rho_end - rho) / h)))
            h_seg = (rho_end - rho) / n_steps
        else:
            h_seg = h
        seg = rho + h_seg * np.arange(1, n_steps + 1)
        pieces.append(seg)
        rho = seg[-1]
        h = min(2.0 * h, h_max)
    points = np.concatenate([[problem.rho_start]] + pieces)
    bond_h = np.diff(points)
    left, right = bond_h[:-1], bond_h[1:]
    step = np.abs(right - left) > 1e-9 * np.maximum(np.abs(left), np.abs(right))
    join_bond = np.zeros(bond_h.size, dtype=bool)
    join_bond[:-1] |= step
    join_bond[1:] |= step
    gauge = radial._gauge_path(problem, points) if problem.has_gauge() else None
    w = problem.w_bare(points)
    if gauge is not None:
        w = np.swapaxes(gauge, 1, 2) @ w @ gauge
    return {"points": points, "bond_h": bond_h, "join_bond": join_bond,
            "w_samples": 0.5 * (w + np.swapaxes(w, 1, 2)),
            "gauge": None if gauge is None else gauge[-2:]}


GRID_PROBLEMS = {
    "toy": lambda: TwoChannelToy().problem(),
    "coupled_wells4": lambda: coupled_wells(4),
    "box": lambda: BoxMode(offset=0.7).problem(),
    "wells2_barrier": lambda: replace(coupled_wells(2), include_rho_term=True,
                                      rho_start=0.05),
    "toy_tables": lambda: RadialProblem.from_tables(
        *TwoChannelToy().tables(), include_rho_term=False),
}


class TestGridBuild:
    @pytest.mark.parametrize("h_max", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("model", list(GRID_PROBLEMS))
    def test_grid_matches_scalar_probe_loop(self, model, h_max):
        prob = GRID_PROBLEMS[model]()
        grid = build_grid(prob, h_max=h_max)
        want = loop_build_grid(prob, h_max)
        for name, array in want.items():
            got = getattr(grid, name)
            assert (got is None and array is None) or np.array_equal(got, array), name

    @pytest.mark.parametrize("kwargs", [
        {"h_max": 0.0}, {"h_max": -0.01}, {"h_max": math.nan},
        {"h_max": math.inf}, {"rho_end": 1.0}, {"rho_end": 0.5},
        {"rho_end": math.nan}, {"rho_end": math.inf}, {"h_max": 1e-9},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_step_or_end_refused(self, kwargs):
        # BoxMode starts at rho = 1.0
        with pytest.raises(ValidationError):
            build_grid(BoxMode().problem(), **{"h_max": 0.05, **kwargs})

    @pytest.mark.parametrize("with_q", [False, True])
    def test_table_samples_match_loop_bitwise(self, with_q):
        prob = wells_table_problem(with_q)
        assert prob.has_gauge() == with_q
        grid = build_grid(prob, h_max=0.05)
        w, gauge = loop_w_samples(prob, grid.points)
        assert np.array_equal(grid.w_samples, w)
        if with_q:
            # the grid keeps the path's last two points, where K is matched
            assert np.array_equal(radial._gauge_path(prob, grid.points), gauge)
            assert np.array_equal(grid.gauge, gauge[-2:])
        else:
            assert grid.gauge is None

    @pytest.mark.parametrize("model", ["wells2_barrier", "wells_tables_gauge",
                                       "wells_tables_gauge_barrier"])
    def test_w_matches_written_out_sum_bytewise(self, model):
        # bytes, not np.array_equal, which takes -0.0 for +0.0; the last
        # case has every term, so a sum in another order shows there
        prob = {
            "wells2_barrier": GRID_PROBLEMS["wells2_barrier"],
            "wells_tables_gauge": lambda: wells_table_problem(True),
            "wells_tables_gauge_barrier": lambda: replace(
                wells_table_problem(True), include_rho_term=True),
        }[model]()
        grid = build_grid(prob, h_max=0.05)
        gauge = loop_w_samples(prob, grid.points)[1]
        assert (gauge is None) == (model == "wells2_barrier")
        bare, rotated = written_out_w(prob, grid.points, gauge)
        assert prob.w_bare(grid.points).tobytes() == bare.tobytes()
        assert grid.w_samples.tobytes() == rotated.tobytes()
        if gauge is not None:
            assert radial._gauge_path(prob, grid.points).tobytes() == gauge.tobytes()
            assert grid.gauge.tobytes() == gauge[-2:].tobytes()

    @pytest.mark.parametrize("model", ["toy", "coupled_wells4"])
    def test_gauge_free_samples_are_w_bare(self, model):
        # w_bare is symmetric already; only a gauge rotation is symmetrized
        prob = TwoChannelToy().problem() if model == "toy" else coupled_wells(4)
        assert not prob.has_gauge()
        grid = build_grid(prob, h_max=0.01)
        assert np.array_equal(grid.w_samples, prob.w_bare(grid.points))

    def test_gauge_follows_q_of_compact_support(self):
        # Q = 0.3 at rho = 2 and zero from rho = 5 on, so zero at the
        # midpoint of [rho_start, rho_match]: the gauge must still run
        def q_mat(rho):
            rho = np.asarray(rho, dtype=float)
            bump = 0.3 * np.clip(1.0 - ((rho - 2.0) / 3.0) ** 2, 0.0, None) ** 2
            q = np.zeros(rho.shape + (2, 2))
            q[..., 0, 1], q[..., 1, 0] = bump, -bump
            return q

        prob = replace(coupled_wells(2), q_mat=q_mat)
        assert prob.has_gauge()
        grid = build_grid(prob, h_max=0.05)
        path = radial._gauge_path(prob, grid.points)
        assert np.array_equal(grid.gauge, path[-2:])
        assert np.abs(path[-1] - np.eye(2)).max() > 1e-2
        # an all-zero Q table is no first-derivative coupling
        tab = RadialProblem.from_tables(*TwoChannelToy().tables(),
                                        include_rho_term=False)
        assert tab.q_mat is None and not tab.has_gauge()

    @pytest.mark.parametrize("model", ["toy", "coupled_wells4"])
    def test_analytic_samples_match_loop(self, model):
        # numpy's array and scalar exp may differ far below any physical
        # scale (entries ~1e-37 and smaller); nothing else may
        prob = TwoChannelToy().problem() if model == "toy" else coupled_wells(4)
        grid = build_grid(prob, h_max=0.05)
        w, _ = loop_w_samples(prob, grid.points)
        assert np.abs(grid.w_samples - w).max() <= 1e-30

    def test_join_marks_match_isclose_loop(self):
        # the barrier at rho_start = 1e-3 forces several step doublings
        prob = replace(coupled_wells(4), include_rho_term=True)
        grid = build_grid(prob, rho_end=6.0, h_max=0.05)
        assert np.unique(grid.bond_h.round(12)).size >= 4
        assert np.array_equal(grid.join_bond, loop_join_bond(grid.bond_h))

    @pytest.mark.parametrize("n", [2, 3, 5, "vanishing", "degenerate"])
    def test_gauge_steps_match_expm(self, n):
        # each closed-form step is scipy's expm of h A to 1e-13, with O(1)
        # rotation angles; the path stays orthogonal to 1e-12.  "vanishing":
        # 3 channels whose Q is zero below rho = 20, where every step must
        # be I exactly.  "degenerate": 4 channels whose A has two equal
        # rotation rates, so M = a^T a is a multiple of I and any basis is
        # a set of singular vectors of a
        case, n = n, {"vanishing": 3, "degenerate": 4}.get(n, n)
        rng = np.random.default_rng(n)
        coef = rng.standard_normal((3, n, n))
        if case == "degenerate":
            rot = np.linalg.qr(coef[0])[0]
            coef[0] = rot @ np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]) @ rot.T
            coef[1], coef[2] = 0.5 * coef[0], 0.0

        def q_mat(rho):
            rho = np.asarray(rho, dtype=float)[..., None, None]
            q = coef[0] + coef[1] * np.sin(rho) + coef[2] * np.cos(2.0 * rho)
            return q * np.clip(rho - 20.0, 0.0, 1.0) if case == "vanishing" else q

        prob = RadialProblem(thresholds=np.zeros(n), eps=lambda r: 0.0,
                             q_mat=q_mat, rho_start=0.1, rho_match=40.0)
        points = np.cumsum(np.concatenate([[0.1], rng.uniform(0.05, 0.8, 200)]))
        path = radial._gauge_path(prob, points)
        zero_bonds = 0
        for k in range(points.size - 1):
            h = points[k + 1] - points[k]
            q = q_mat(points[k] + 0.5 * h)
            want = expm(h * 0.5 * (q - q.T))
            step = radial._gauge_path(prob, points[k:k + 2])[1]
            assert np.abs(step - want).max() <= 1e-13
            if not q.any():
                zero_bonds += 1
                assert np.array_equal(step, np.eye(n))
        assert (zero_bonds > 0) == (case == "vanishing")
        gram = np.swapaxes(path, 1, 2) @ path
        assert np.abs(gram - np.eye(n)).max() <= 1e-12

    def test_gauge_step_keeps_small_rates_beside_a_huge_one(self):
        # criterion 6's table has steps of 2e6 radians beside rates of
        # 1e-4 in other planes: an eigh of M = a^T a loses the small ones
        # (3e-4 off here), an SVD without the Newton-Schulz step leaves the
        # step 1e-10 off orthogonal; the reference is exact up to the
        # roundoff of forming a (2e6 eps)
        rates = (2.0e6, 7.66e-5, 7.43e-5)
        rot = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))[0]
        gen, want = np.zeros((6, 6)), np.zeros((6, 6))
        for k, t in enumerate(rates):
            gen[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, t], [-t, 0.0]]
            want[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[math.cos(t), math.sin(t)],
                                                      [-math.sin(t), math.cos(t)]]
        a = rot @ gen @ rot.T
        q = 0.5 * (a - a.T)
        prob = RadialProblem(thresholds=np.zeros(6), eps=lambda r: 0.0,
                             q_mat=lambda r: np.broadcast_to(q, np.shape(r) + q.shape),
                             rho_start=1.0, rho_match=2.0)
        step = radial._gauge_path(prob, np.array([1.0, 2.0]))[1]
        assert np.abs(step - rot @ want @ rot.T).max() <= 1e-8
        assert np.abs(step.T @ step - np.eye(6)).max() <= 1e-13

    def test_gauge_path_peaks_near_its_bytes(self):
        # real steps, no complex eigh: 2401 points of 4 channels peak at
        # 6.5 times the returned bytes (9.3 times through the complex path)
        prob = wells_table_problem(True)
        points = build_grid(prob, h_max=0.01).points
        assert points.size == 2401
        tracemalloc.start()
        try:
            gauge = radial._gauge_path(prob, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8.0 * gauge.nbytes

    def test_w_bare_shapes(self):
        prob = coupled_wells(4)
        assert prob.w_bare(1.5).shape == (4, 4)
        assert prob.w_bare(np.array([1.5, 2.0, 2.5])).shape == (3, 4, 4)


def loop_pencil_parts(grid):
    """Per-point reference for the pencil's blocks, in the arithmetic of
    radial._a1_weights' docstring: the bond blocks g0, g1 and the diagonal
    blocks d0, d1, (g0, g1, d0, d1) with g0, d0 of shape (M, N, N)."""
    w = grid.w_samples
    eye = np.eye(w.shape[1])
    nb = grid.bond_h.size
    g0, g1 = np.empty((nb,) + eye.shape), np.empty(nb)
    for k, h in enumerate(grid.bond_h):
        if grid.join_bond[k]:
            g0[k], g1[k] = -eye / h, 0.0
        else:
            g0[k], g1[k] = -eye / h + h * (w[k] + w[k + 1]) / 24.0, h / 12.0
    d0, d1 = np.empty(w.shape), np.empty(nb + 1)
    for k in range(nb + 1):
        hl = grid.bond_h[max(k - 1, 0)]
        hr = grid.bond_h[min(k, nb - 1)]
        plain = (k > 0 and grid.join_bond[k - 1]) or (k < nb and grid.join_bond[k])
        d1[k] = 0.5 * (hl + hr) * (1.0 if plain else 10.0 / 12.0)
        d0[k] = (1.0 / hl + 1.0 / hr) * eye + d1[k] * w[k]
    return g0, g1, d0, d1


def dense_to_band(a, kl, skip):
    """General-band storage of a square matrix with kl = ku below `skip`
    zero workspace rows: a[i, j] at [skip + kl + i - j, j], zero elsewhere."""
    n = a.shape[0]
    i, j = np.indices(a.shape)
    inside = np.abs(i - j) <= kl
    out = np.zeros((skip + 2 * kl + 1, n))
    out[(skip + kl + i - j)[inside], j[inside]] = a[inside]
    return out


def dense_pencil(grid, last):
    """Dense block-tridiagonal (A0, A1) over points 1..last-1 from the
    per-point blocks."""
    g0, g1, d0, d1 = loop_pencil_parts(grid)
    n = g0.shape[1]
    m = last - 1
    a0, a1 = np.zeros((m * n, m * n)), np.zeros((m * n, m * n))
    for i, k in enumerate(range(1, last)):
        row = slice(i * n, (i + 1) * n)
        a0[row, row], a1[row, row] = d0[k], d1[k] * np.eye(n)
        if i + 1 < m:
            nxt = slice((i + 1) * n, (i + 2) * n)
            a0[row, nxt], a0[nxt, row] = g0[k], g0[k].T
            a1[row, nxt] = a1[nxt, row] = g1[k] * np.eye(n)
    return a0, a1


class TestPencil:
    @pytest.fixture(scope="class")
    def joined_grid(self):
        # the hyperradial barrier forces step halvings, so join bonds appear;
        # more rows than CHUNK_ROWS, so the rows are written in two pieces
        prob = replace(coupled_wells(2), include_rho_term=True, rho_start=0.05)
        grid = build_grid(prob, rho_end=6.0, h_max=0.02)
        assert grid.join_bond.any() and grid.n_points - 2 > CHUNK_ROWS
        return grid

    @pytest.mark.parametrize("shift", [0.0, 0.7])
    def test_rows_are_the_dense_pencil(self, joined_grid, shift):
        # the rows of every interior point, written from W, are bit for bit
        # the per-point blocks, signed zeros included (a join bond's
        # off-diagonal -I/h entries are -0.0, which a shift >= 0 keeps)
        last = joined_grid.n_points - 1
        ref0, ref1 = dense_pencil(joined_grid, last)
        n = joined_grid.w_samples.shape[1]
        kl = 2 * n - 1
        assert np.array_equal(ref0, ref0.T)
        ab = assemble_pencil(joined_grid, last, shift)
        want = dense_to_band(ref0 - shift * ref1, kl, kl)
        assert ab.tobytes() == want.tobytes()
        assert (np.signbit(ab) & (ab == 0.0)).any()
        # A1 per point: d1 per row, g1 per bond, here up to the far end
        _, d1, g1 = radial._a1_weights(joined_grid, last)
        assert d1.shape == g1.shape == (last - 1,)
        a1_diag, a1_off = np.repeat(d1, n), np.repeat(g1[:-1], n)
        a1 = np.diag(a1_diag) + np.diag(a1_off, n) + np.diag(a1_off, -n)
        assert np.array_equal(a1, ref1)
        # every bond block, the K sweep's bond to the far end included
        g0_ref, g1_ref = loop_pencil_parts(joined_grid)[:2]
        g0 = radial._bond_blocks(joined_grid, slice(1, last))
        assert g0.tobytes() == g0_ref[1:].tobytes()
        assert g1.tobytes() == g1_ref[1:].tobytes()

    def test_box_pencils_are_leading_blocks(self, joined_grid):
        n = joined_grid.w_samples.shape[1]
        kl = 2 * n - 1
        shift = 0.7
        for last in (5, joined_grid.n_points // 2, joined_grid.n_points - 1):
            ref0, ref1 = dense_pencil(joined_grid, last)
            ab = assemble_pencil(joined_grid, last, shift)
            assert ab.flags.f_contiguous
            assert np.array_equal(ab, dense_to_band(ref0 - shift * ref1, kl, kl)), last
        # an inner block (the rows of one K chunk, written as the K sweep
        # writes them) drops both outer couplings
        first, last = 4, joined_grid.n_points // 2
        ref0, ref1 = dense_pencil(joined_grid, last)
        inner = slice((first - 1) * n, None)
        inv_h, d1, g1 = radial._a1_weights(joined_grid, last)
        ab = np.zeros((3 * kl + 1, (last - first) * n), order="F")
        radial._write_a0(joined_grid, ab, first, last, inv_h[first - 1:],
                         d1[first - 1:])
        radial._subtract_a1(ab, n, shift * d1[first - 1:].repeat(n),
                            shift * g1[first - 1:-1].repeat(n))
        want = dense_to_band((ref0 - shift * ref1)[inner, inner], kl, kl)
        assert np.array_equal(ab, want)

    def test_k_sweep_assembles_into_one_workspace(self, monkeypatch, toy_problem):
        # each chunk's A0 rows are written once, into one template, however
        # many energies there are, and every solve of every chunk and energy
        # factors one other array, never a fresh one
        grid = build_grid(toy_problem, h_max=0.05)
        assert grid.n_points - 2 > CHUNK_ROWS
        chunks = math.ceil((grid.n_points - 2) / CHUNK_ROWS)
        written, solved = [], []
        write, solve = radial._write_a0, radial.lapack.dgbsv

        def record_write(grid, ab, *args):
            written.append(ab)
            return write(grid, ab, *args)

        def record_solve(kl, ku, ab, b, **kwargs):
            solved.append(ab)
            return solve(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(radial, "_write_a0", record_write)
        monkeypatch.setattr(radial.lapack, "dgbsv", record_solve)
        propagate_ratio(grid, [2.2, 2.9, 3.4])
        assert len(written) == chunks and len(solved) == 3 * chunks
        assert all(np.shares_memory(ab, written[0]) for ab in written)
        assert all(np.shares_memory(ab, solved[0]) for ab in solved)
        assert not np.shares_memory(written[0], solved[0])

    def test_pencil_peaks_near_its_bytes(self):
        # the rows are written from W, CHUNK_ROWS points of blocks at a
        # time, with no (points, N, N) block array: the largest box of 2401
        # points of 4 channels peaks at 1.14 times the workspace's bytes
        grid = build_grid(coupled_wells(4), h_max=0.01)
        tracemalloc.start()
        try:
            ab = assemble_pencil(grid, grid.n_points - 1, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * ab.nbytes

    def test_k_sweep_peak_stays_flat_in_energies(self):
        # 128 energies of coupled_wells(4) (2401 points, 10 chunks) peak at
        # 0.68 MB: the template and the workspace (180 KB each), the grid's
        # A1 weights and per energy an N x N ratio and u.  A sweep that kept
        # each energy's last chunk solution (32 KB) would peak at 4.8 MB,
        # one that kept the pencil's band with the grid at 0.93 MB
        grid = build_grid(coupled_wells(4), h_max=0.01)
        energies = np.linspace(0.401, 2.499, 128)
        tracemalloc.start()
        try:
            propagate_ratio(grid, energies)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.8e6

    def test_grid_keeps_only_w_and_its_steps(self):
        # after a box solve and a K call the grid holds its points, steps,
        # join marks, W and the gauge at the match's two points: no array
        # derived from W (pencil rows, A1 weights, a W floor) stays with it
        prob = wells_table_problem(True)
        grid = build_grid(prob, h_max=0.02)
        stabilization_eigenvalues(prob, 5.0, 4, grid=grid)
        extract_k(prob, [float(np.sort(prob.thresholds)[1]) + 0.1], grid=grid)
        n = prob.n_channels
        held = [a for v in vars(grid).values()
                for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        assert grid.gauge.shape == (2, n, n)
        assert sum(a.nbytes for a in held) == (
            grid.points.nbytes + grid.bond_h.nbytes + grid.join_bond.nbytes
            + grid.w_samples.nbytes + grid.gauge.nbytes)

    def test_reused_grid_matches_fresh_grids(self, toy_problem):
        # the grid keeps its pencil between calls; box levels must not
        # depend on which alpha or which solver touched it first
        def fresh(alpha):
            grid = build_grid(toy_problem, h_max=0.05)
            return stabilization_eigenvalues(toy_problem, alpha, 5, grid=grid)

        grid = build_grid(toy_problem, h_max=0.05)
        alphas = [20.0, 14.0, 9.0]
        for alpha in alphas:
            vals = stabilization_eigenvalues(toy_problem, alpha, 5, grid=grid)
            assert np.array_equal(vals, fresh(alpha)), alpha
        extract_k(toy_problem, [2.5], grid=grid)
        for alpha in alphas[::-1]:
            vals = stabilization_eigenvalues(toy_problem, alpha, 5, grid=grid)
            assert np.array_equal(vals, fresh(alpha)), alpha


def loop_propagate_ratio(grid, energies):
    """Per-point reference for propagate_ratio: the ratio recursion
    P_k = -bond_k^{-1} (diag_k + bond_{k-1} P_{k-1}^{-1}) from u_0 = 0."""
    g0, g1, d0, d1 = loop_pencil_parts(grid)
    eye = np.eye(g0.shape[1])
    out = []
    for e in energies:
        def bond(k):
            return g0[k] - g1[k] * e * eye

        p = -np.linalg.solve(bond(1), d0[1] - d1[1] * e * eye)
        for k in range(2, grid.n_points - 1):
            rhs = d0[k] - d1[k] * e * eye + bond(k - 1) @ np.linalg.inv(p)
            p = -np.linalg.solve(bond(k), rhs)
        out.append(p)
    return np.array(out)


def banded_cases():
    toy = replace(TwoChannelToy().problem(), include_rho_term=True)
    wells = replace(coupled_wells(2), include_rho_term=True, rho_start=0.05)
    return {
        "toy_joins": (toy, 4.0),
        "wells2_barrier": (wells, 5.0),
        "wells2_gauge": (wells_table_problem(True, n=2), 5.0),
    }


class TestBandedKernel:
    @pytest.mark.parametrize("case", ["toy_joins", "wells2_barrier", "wells2_gauge"])
    @pytest.mark.parametrize("target", [None, "middle"])
    def test_box_eigenvalues_match_dense(self, case, target):
        prob, alpha = banded_cases()[case]
        grid = build_grid(prob, rho_end=alpha, h_max=0.05)
        assert grid.join_bond.any() or grid.gauge is not None
        last = grid.index_of(alpha)
        a0, a1 = dense_pencil(grid, last)
        assert a0.shape[0] <= 800
        ref = eigh(a0, a1, eigvals_only=True)
        n_levels = 6
        sigma = None
        if target is None:
            want = ref[:n_levels]
        else:
            sigma = 0.5 * (ref[20] + ref[21]) + 1e-3
            want = np.sort(ref[np.argsort(np.abs(ref - sigma))[:n_levels]])
        vals = stabilization_eigenvalues(prob, alpha, n_levels, grid=grid,
                                         sigma=sigma)
        assert np.abs(vals - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [0.2, 8.0, 16.0, 24.0])
    def test_box_eigenvalues_at_scan_size(self, toy_problem, toy_scan_config,
                                          alpha):
        # at the scan's own k (eigenvalues only, no vectors) the box solve
        # gives the lowest k eigenvalues of the dense pencil; a box of
        # n <= k pencil rows (alpha = 0.2: 4 interior points, n = 8) gives n - 1
        k = toy_scan_config.n_levels + N_BUFFER
        grid = build_grid(toy_problem, rho_end=24.0, h_max=0.04)
        a0, a1 = dense_pencil(grid, grid.index_of(alpha))
        levels = min(k, a0.shape[0] - 1)
        assert (levels < k) == (alpha < 1.0)
        want = eigh(a0, a1, eigvals_only=True)[:levels]
        vals = stabilization_eigenvalues(toy_problem, alpha, k, grid=grid)
        assert vals.shape == (levels,)
        assert np.abs(vals - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("model", ["toy", "coupled_wells4"])
    def test_propagate_ratio_matches_recursion(self, model):
        prob = TwoChannelToy().problem() if model == "toy" else coupled_wells(4)
        grid = build_grid(prob, h_max=0.05)
        rows = grid.n_points - 2
        assert rows > CHUNK_ROWS and rows % CHUNK_ROWS
        top = float(prob.thresholds.max())
        energies = np.array([top + 0.05, top + 0.6, top + 1.3])
        p = propagate_ratio(grid, energies)
        ref = loop_propagate_ratio(grid, energies)
        for got, want in zip(p, ref):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


    def test_singular_factors_raise(self, monkeypatch, toy_problem):
        # LAPACK reports a zero pivot through info > 0
        grid = build_grid(toy_problem, h_max=0.05)

        def zero_pivot(ab, *args, **kwargs):
            return ab, np.zeros(ab.shape[1], dtype=np.int32), 1

        monkeypatch.setattr(radial.lapack, "dgbtrf", zero_pivot)
        with pytest.raises(EigensolverError):
            stabilization_eigenvalues(toy_problem, 10.0, 4, grid=grid)
        monkeypatch.setattr(
            radial.lapack, "dgbsv",
            lambda kl, ku, ab, b, **kwargs: (ab, None, b, 1),
        )
        with pytest.raises(MatrixInversionError) as err:
            extract_k(toy_problem, [2.5], grid=grid)
        assert err.value.energy == 2.5


class TestTwoChannel:
    def test_k_against_direct_integration(self, toy_problem, toy_grid):
        # independent oracle: RK4 at 10x finer effective resolution; the
        # tolerance is relative to the entry scale (K22 passes through a
        # large-background region)
        energies = [2.2, 3.0, 3.6]
        ks, _ = extract_k(toy_problem, energies, grid=toy_grid)
        for e, k in zip(energies, ks):
            oracle = k_matrix_direct(toy_problem, e, n_steps=30000)
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(k.entries - oracle).max() < 1e-6 * scale, f"E={e}"

    def test_symmetry_defect(self, toy_problem, toy_grid):
        energies = np.linspace(1.2, 3.4, 7)
        ks, defects = extract_k(toy_problem, energies, grid=toy_grid)
        scales = np.array([max(1.0, np.abs(k.entries).max()) for k in ks])
        # the well-conditioned-energy bound on the matching quality
        assert (defects / scales).max() < 1e-6

    @pytest.mark.parametrize("h_max", [0.016, 0.008])
    def test_symmetry_at_roundoff_near_pole(self, toy_problem, h_max):
        # matching to the pencil's discrete free waves leaves no O(h^2)
        # asymmetry, even where |K| ~ 9 next to the toy resonance
        grid = build_grid(toy_problem, h_max=h_max)
        ks, defects = extract_k(toy_problem, [3.02170], grid=grid)
        scale = max(1.0, np.abs(ks[0].entries).max())
        assert scale > 5.0
        assert defects[0] < 1e-10 * scale

    def test_match_radius_independence(self, toy):
        # doubling rho_match changes K by < 1e-4 relative
        from dataclasses import replace

        base = toy.problem()
        far = replace(base, rho_match=2.0 * base.rho_match)
        e = [2.5]
        k1 = extract_k(base, e, grid=build_grid(base, h_max=0.02))[0][0]
        k2 = extract_k(far, e, grid=build_grid(far, h_max=0.02))[0][0]
        scale = np.abs(k1.entries).max()
        assert np.abs(k1.entries - k2.entries).max() < 1e-4 * scale

    def test_truncation_convergence(self):
        # retaining more channels changes K by a decreasing amount
        full = coupled_wells(4)
        e = 1.2
        mats = {}
        for n in (2, 3, 4):
            sub = coupled_wells(n)
            grid = build_grid(sub, h_max=0.02)
            mats[n] = extract_k(sub, [e], grid=grid)[0][0].entries[:2, :2]
        d32 = np.abs(mats[3] - mats[2]).max()
        d43 = np.abs(mats[4] - mats[3]).max()
        assert d43 < d32
        assert full.n_channels == 4


class TestGuardsAndErrors:
    def test_threshold_guard(self, toy_problem, toy_grid):
        with pytest.raises(ClosedChannelError):
            extract_k(toy_problem, [0.5], grid=toy_grid)

    def test_no_open_channel(self, toy_problem, toy_grid):
        with pytest.raises(NoOpenChannelError):
            extract_k(toy_problem, [-1.0], grid=toy_grid)

    def test_mixed_batch_rejected(self, toy_problem, toy_grid):
        with pytest.raises(ValidationError):
            extract_k(toy_problem, [0.2, 1.0], grid=toy_grid)

    def test_empty_batch_rejected_before_propagation(self, monkeypatch):
        # refused with a ValidationError, never an IndexError from the
        # first energy's open channels, and before any ratio is propagated
        prob = coupled_wells(2)
        grid = build_grid(prob, h_max=0.05)
        calls = []
        monkeypatch.setattr(radial, "propagate_ratio",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValidationError, match="empty energy batch"):
            extract_k(prob, [], grid)
        assert calls == []

    def test_matching_quality_error(self, toy, monkeypatch):
        # matching inside the coupling region leaves K visibly asymmetric
        from dataclasses import replace

        bad = replace(toy.problem(), rho_match=3.2)
        grid = build_grid(bad, h_max=0.01)
        monkeypatch.setattr(radial, "ASYMMETRY_LIMIT", 1e-10)
        with pytest.raises(MatchingQualityError) as err:
            extract_k(bad, [2.5], grid=grid)
        assert err.value.defect > 0.0

    def test_problem_validation(self):
        with pytest.raises(ValidationError):
            RadialProblem(
                thresholds=np.array([0.0]),
                eps=lambda rho: np.zeros(1), rho_start=2.0, rho_match=1.0,
            )

    @pytest.mark.parametrize("shift_start, shift_match", [(-0.1, 0.0), (0.0, 1.0)])
    def test_tables_are_not_extrapolated(self, toy, shift_start, shift_match):
        # the toy tables span exactly [rho_start, rho_match]
        rho, eps, h, q = toy.tables()
        with pytest.raises(ValidationError, match="coupling table"):
            RadialProblem.from_tables(
                rho, eps, h, q, rho_start=toy.rho_start + shift_start,
                rho_match=toy.rho_match + shift_match, include_rho_term=False,
            )


class TestTablesPath:
    def test_tables_match_callables(self, toy, toy_problem):
        dense = TwoChannelToy()
        dense.n_rho = 2400  # twice the table points of toy.tables()
        rho, eps, h, q = dense.tables()
        tab = RadialProblem.from_tables(
            rho, eps, h, q,
            rho_start=toy.rho_start, rho_match=toy.rho_match,
            include_rho_term=False,
        )
        e = [2.8]
        g1 = build_grid(toy_problem, h_max=0.02)
        g2 = build_grid(tab, h_max=0.02)
        k1 = extract_k(toy_problem, e, grid=g1)[0][0].entries
        k2 = extract_k(tab, e, grid=g2)[0][0].entries
        assert np.abs(k1 - k2).max() < 1e-6
