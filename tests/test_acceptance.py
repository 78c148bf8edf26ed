"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure). Expensive runs are shared through session-scoped fixtures.
"""

import csv
import os
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from boundfem.adapt import adaptive_solve_loop, error_indicators
from boundfem.app import convergence_study
from boundfem.cases import get_case
from boundfem.fespace import DiscreteFunction, FunctionSpace
from boundfem.forms import vh_norm
from boundfem.mesh import refine_uniform_red
from boundfem.penalty import PenaltyConfig, PenaltyOperator
from boundfem.report import bound_violation_report, cross_section
from boundfem.solver import (NewtonSystem, build_operators,
                             newton_solve, solve_linear_resmin)
from einsum_reference import nodal_values, penalty_P

DATA = os.path.join(os.path.dirname(__file__), "data")


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def violation_of(u_func, bounds):
    rep = bound_violation_report(u_func, bounds)
    return rep.undershoot + rep.overshoot


# ----------------------------------------------------------------------
# shared runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def case1_run():
    case = get_case("case1")
    problem = case.problem()
    mesh = case.make_mesh()
    U = FunctionSpace(mesh, case.p, "continuous")
    V = FunctionSpace(mesh, case.p, "broken")
    t0 = time.perf_counter()
    ops = build_operators(problem, U, V)
    lin = solve_linear_resmin(problem, U, V, ops=ops)
    pen = PenaltyConfig()
    res = newton_solve(problem, U, V, pen, tol=case.tol, ops=ops)
    elapsed = time.perf_counter() - t0
    return dict(case=case, problem=problem, U=U, V=V, ops=ops, lin=lin,
                newton=res, pen=pen, elapsed=elapsed)


@pytest.fixture(scope="session")
def case1_study():
    # penalized and unpenalized solves over four uniformly refined meshes
    case = get_case("case1")
    problem = case.problem()
    pen = PenaltyConfig()
    mesh = case.make_mesh()
    rows = []
    for level in range(4):
        U = FunctionSpace(mesh, 1, "continuous")
        V = FunctionSpace(mesh, 1, "broken")
        ops = build_operators(problem, U, V)
        lin = solve_linear_resmin(problem, U, V, ops=ops)
        res = newton_solve(problem, U, V, pen, tol=case.tol, ops=ops)
        rows.append(dict(level=level, ops=ops,
                         eps_unpen=vh_norm(lin.eps, ops.G),
                         eps_pen=vh_norm(res.eps, ops.G),
                         converged=res.converged))
        if level < 3:
            mesh = refine_uniform_red(mesh)
    return rows


@pytest.fixture(scope="session")
def case3_run():
    case = get_case("case3")
    problem = case.problem()
    pen = PenaltyConfig(quadrature=case.penalty_quadrature)
    t0 = time.perf_counter()
    result = adaptive_solve_loop(
        problem, pen, case.make_mesh(), theta_mark=case.theta_mark,
        max_levels=case.levels, p=case.p, tol=case.tol)
    elapsed = time.perf_counter() - t0
    return dict(case=case, problem=problem, result=result, elapsed=elapsed)


@pytest.fixture(scope="session")
def case2_runs():
    case = get_case("case2")
    problem = case.problem()
    settings = dict(theta_mark=case.theta_mark, max_levels=case.levels,
                    max_dofs=case.max_dofs, p=case.p, tol=case.tol)
    t0 = time.perf_counter()
    pen = adaptive_solve_loop(problem, PenaltyConfig(), case.make_mesh(), **settings)
    unpen = adaptive_solve_loop(problem, None, case.make_mesh(), **settings)
    elapsed = time.perf_counter() - t0
    return dict(case=case, pen=pen, unpen=unpen, elapsed=elapsed)


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_1_bound_violation_contrast(case1_run):
    """Penalized violation <= 1e-4, unpenalized >= 1e-2, ratio >= 100."""
    r = case1_run
    bounds = (0.0, 1.0)
    v_pen = violation_of(DiscreteFunction(r["U"], r["newton"].u), bounds)
    v_unpen = violation_of(DiscreteFunction(r["U"], r["lin"].u), bounds)
    ok = (v_pen <= 1e-4 and v_unpen >= 1e-2 and v_unpen >= 100.0 * v_pen
          and r["elapsed"] <= 60.0)
    report("criterion 1: bound-violation contrast", ok,
           f"penalized {v_pen:.3e}, unpenalized {v_unpen:.3e}, "
           f"ratio {v_unpen / max(v_pen, 1e-300):.0f}x, {r['elapsed']:.1f}s")


def test_criterion_2_newton_convergence(case1_run):
    """Converged in <= 30 accepted iterations with monotone residuals."""
    res = case1_run["newton"]
    rs = [rec.residual_norm for rec in res.log]
    monotone = all(a > b for a, b in zip(rs, rs[1:]))
    ok = (res.converged and res.iterations <= 30 and monotone
          and case1_run["elapsed"] <= 60.0)
    report("criterion 2: Newton convergence", ok,
           f"{res.iterations} accepted iterations, monotone={monotone}, "
           f"converged={res.converged}")


def test_criterion_3_convergence_rates():
    """Smooth problem, 5 uniform levels: L2 slope 2.0 +/- 0.2 in h, Vh >= 1."""
    t0 = time.perf_counter()
    study = convergence_study("smooth", levels=5)
    elapsed = time.perf_counter() - t0
    h = np.array([r.h for r in study.rows])
    l2 = np.array([r.err_l2 for r in study.rows])
    evh = np.array([r.err_vh for r in study.rows])
    slope_l2 = np.polyfit(np.log(h), np.log(l2), 1)[0]
    slope_vh = np.polyfit(np.log(h), np.log(evh), 1)[0]
    # regression against the committed reference run
    with open(os.path.join(DATA, "smooth_uniform_reference.csv")) as fh:
        ref = [row for row in csv.DictReader(fh) if row.get("err_l2")]
    ref_l2 = np.array([float(row["err_l2"]) for row in ref])
    matches = np.allclose(l2, ref_l2, rtol=1e-6)
    ok = (abs(slope_l2 - 2.0) <= 0.2 and slope_vh >= 1.0 and matches
          and elapsed <= 120.0)
    report("criterion 3: convergence rates", ok,
           f"L2 slope {slope_l2:.3f}, Vh slope {slope_vh:.3f}, "
           f"fixture match={matches}, {elapsed:.1f}s")


def test_criterion_4_energy_norm_price(case1_study):
    """|eps_penalized| >= |eps_unpenalized| - 1e-12 on every study mesh."""
    worst = min(row["eps_pen"] - row["eps_unpen"] for row in case1_study)
    ok = worst >= -1e-12 and all(row["converged"] for row in case1_study)
    report("criterion 4: energy-norm price", ok,
           f"min(pen - unpen) = {worst:.3e} over {len(case1_study)} meshes")


def test_criterion_5_consistency_reproduction():
    """u* = x: resmin returns u*, |eps| <= 1e-10, penalty residual <= 1e-12."""
    from boundfem.forms import ProblemSpec
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                     f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                     u_min=-1.0, u_max=2.0, gamma0=1e-5)
    mesh = get_case("case1").make_mesh()
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    sol = solve_linear_resmin(pr, U, V)
    ustar = nodal_values(U, lambda x: x[..., 0])
    u_err = np.abs(sol.u - ustar).max()
    eps_norm = vh_norm(sol.eps, sol.ops.G)
    pen = PenaltyOperator(pr, U, V, PenaltyConfig())
    pen_res = np.abs(penalty_P(pen, ustar)).max()
    ok = u_err <= 1e-10 and eps_norm <= 1e-10 and pen_res <= 1e-12
    report("criterion 5: consistency/reproduction", ok,
           f"u error {u_err:.2e}, |eps| {eps_norm:.2e}, penalty residual {pen_res:.2e}")


def test_criterion_6_algebra_suite(case1_run):
    """Gram SPD; J symmetric at every iteration; orthogonality; Riesz."""
    r = case1_run
    ops, lin = r["ops"], r["lin"]
    np.linalg.cholesky(ops.G.toarray())          # SPD by factorization
    # instrument a fresh Newton run: every factorized Jacobian is symmetric
    import boundfem.solver as solver_mod
    seen = []
    original = solver_mod._factorize

    def recording(K, context):
        seen.append(abs(K - K.T).max() <= 1e-12 * abs(K).max())
        return original(K, context)

    solver_mod._factorize = recording
    try:
        newton_solve(r["problem"], r["U"], r["V"], r["pen"], tol=r["case"].tol, ops=ops)
    finally:
        solver_mod._factorize = original
    j_sym = len(seen) > 0 and all(seen)
    scale = np.linalg.norm(ops.L)
    galerkin = np.abs(ops.B.T @ lin.eps).max() <= 1e-10 * scale
    res_vec = ops.L - ops.B @ lin.u
    dual = np.sqrt(res_vec @ spla.spsolve(ops.G.tocsc(), res_vec))
    riesz = abs(vh_norm(lin.eps, ops.G) - dual) <= 1e-8 * max(dual, 1e-300)
    ok = j_sym and galerkin and riesz
    report("criterion 6: algebra suite", ok,
           f"J symmetric={j_sym}, Galerkin orthogonality={galerkin}, "
           f"Riesz identity={riesz}")


def test_criterion_7_penalty_jacobian_fd():
    """Jacobian matches central differences at 20 non-kink states (1e-6)."""
    from boundfem.forms import ProblemSpec
    from boundfem.mesh import build_structured_mesh
    mesh = build_structured_mesh(3, 3)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    pr = ProblemSpec(beta=(1.0, 0.5), K=0.0, sigma=0.3, f=0.2, g=0.0,
                     u_min=0.0, u_max=1.0, gamma0=1e-2)
    op = PenaltyOperator(pr, U, V, PenaltyConfig())
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    while checked < 20:
        u0 = rng.uniform(-0.5, 1.5, U.n_dofs)
        if min(np.abs(arg).min() for _, arg in op._terms(u0)) < 1e-4:
            continue
        d = rng.standard_normal(U.n_dofs)
        step = 1e-7 * max(1.0, np.abs(u0).max())
        fd = (penalty_P(op, u0 + step * d) - penalty_P(op, u0 - step * d)) / (2 * step)
        Jd = op.jacobian(u0) @ d
        worst = max(worst, np.linalg.norm(fd - Jd) / np.linalg.norm(Jd))
        checked += 1
    ok = worst <= 1e-6
    report("criterion 7: penalty Jacobian vs finite differences", ok,
           f"worst relative error {worst:.2e} over 20 states")


def test_criterion_8_adaptive_behavior(case3_run):
    """>= 15 levels in 10 min; violation <= 1e-3 per level; layer chased."""
    result = case3_run["result"]
    problem = case3_run["problem"]
    records = result.records
    viols = [rec.undershoot + rec.overshoot for rec in records]
    worst = max(viols)
    # localization identity at the final level, and spot checks via records
    ind = error_indicators(problem, result.V_h, result.eps)
    total = vh_norm(result.eps, build_operators(problem, result.U_h,
                                                result.V_h).G)
    local_ok = abs(ind.squared.sum() - total ** 2) <= 1e-10 * total ** 2
    centroids = result.mesh.vertices[result.mesh.elements].mean(axis=1)
    frac = float((centroids[:, 0] <= 0.05).mean())
    ok = (len(records) >= 15 and case3_run["elapsed"] <= 600.0
          and worst <= 1e-3 and frac >= 0.30 and local_ok
          and all(rec.newton_converged for rec in records))
    report("criterion 8: adaptive behavior", ok,
           f"{len(records)} levels in {case3_run['elapsed']:.1f}s, "
           f"worst violation {worst:.2e}, {100 * frac:.0f}% of elements near "
           f"x=0, localization={local_ok}")


def test_criterion_8_localization_every_level():
    """Sum-of-squares identity holds at every level of a fresh short run."""
    case = get_case("case3")
    problem = case.problem()
    pen = PenaltyConfig(quadrature=case.penalty_quadrature)
    mesh = case.make_mesh()
    from boundfem.adapt import dorfler_mark
    from boundfem.mesh import bisect_marked
    for level in range(6):
        U = FunctionSpace(mesh, 1, "continuous")
        V = FunctionSpace(mesh, 1, "broken")
        ops = build_operators(problem, U, V)
        res = newton_solve(problem, U, V, pen, tol=case.tol, ops=ops)
        ind = error_indicators(problem, V, res.eps)
        total = vh_norm(res.eps, ops.G)
        assert abs(ind.squared.sum() - total ** 2) <= 1e-10 * max(total ** 2, 1e-300)
        mesh = bisect_marked(mesh, dorfler_mark(ind, case.theta_mark))
    report("criterion 8b: localization identity per level", True,
           "identity within 1e-10 at 6 levels")


def test_criterion_9_case2_cross_section(case2_runs):
    """Penalized diagonal within [-1e-3, 1+1e-3] at >= 20k dofs; unpenalized
    violates by >= 1e-2."""
    pen, unpen = case2_runs["pen"], case2_runs["unpen"]
    assert pen.records[-1].dofs_v >= 20000
    assert unpen.records[-1].dofs_v >= 20000
    u_pen = DiscreteFunction(pen.U_h, pen.u)
    u_unpen = DiscreteFunction(unpen.U_h, unpen.u)
    _, _, vals_pen = cross_section(u_pen, (0.0, 0.0), (1.0, 1.0))
    _, _, vals_unpen = cross_section(u_unpen, (0.0, 0.0), (1.0, 1.0))
    lo, hi = np.nanmin(vals_pen), np.nanmax(vals_pen)
    in_band = lo >= -1e-3 and hi <= 1.0 + 1e-3
    excess = max(0.0, -np.nanmin(vals_unpen)) + max(0.0, np.nanmax(vals_unpen) - 1.0)
    ok = in_band and excess >= 1e-2 and case2_runs["elapsed"] <= 300.0
    report("criterion 9: case2 cross-section", ok,
           f"penalized range [{lo:.2e}, {hi:.6f}], unpenalized excess "
           f"{excess:.3e}, dofs {pen.records[-1].dofs_v}, "
           f"{case2_runs['elapsed']:.0f}s")
