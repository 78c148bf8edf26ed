import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from boundfem.cases import get_case
from boundfem.fespace import FunctionSpace
from boundfem.forms import ProblemSpec, vh_norm
from boundfem.mesh import (bisect_marked, build_structured_mesh, read_mesh,
                           refine_uniform_red, write_mesh)
from boundfem.penalty import PenaltyConfig
from boundfem.solver import (NewtonSystem, SolverBreakdown,
                             MAX_RETRIES, SYMMETRIC_LU, _factorize, _newton_step, _saddle_apply,
                             _saddle_matrix, _solve_saddle, build_operators, clip_inset,
                             damped_update, newton_solve, solve_linear_resmin,
                             write_iteration_log)
from test_mesh import jittered
from einsum_reference import nodal_values, penalty_P


def assembled_residual(system, x):
    """The block residual with dP(u) assembled, and B + dP(u) itself."""
    eps, u = system.split(x)
    ops = system.ops
    Bu = ops.B + system.pen.jacobian(u)
    top = ops.L - ops.G @ eps - ops.B @ u - penalty_P(system.pen, u)
    return np.concatenate([top, -(Bu.T @ eps)]), Bu


@pytest.fixture
def manufactured():
    # u* = x with sigma = 1, beta = (1, 0), K = 0: f = 1 + x, g = x
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                     f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0])
    mesh = build_structured_mesh(4, 4)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    return pr, U, V


def test_linear_resmin_reproduces_linear_exact(manufactured):
    pr, U, V = manufactured
    sol = solve_linear_resmin(pr, U, V)
    ustar = nodal_values(U, lambda x: x[..., 0])
    assert np.abs(sol.u - ustar).max() <= 1e-12
    assert vh_norm(sol.eps, sol.ops.G) <= 1e-10
    assert sol.block_residual <= 1e-10


def test_linear_resmin_zero_data():
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0, f=0.0, g=0.0)
    mesh = build_structured_mesh(3, 3)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    sol = solve_linear_resmin(pr, U, V)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.eps).max() == 0.0


def test_galerkin_orthogonality_and_riesz_identity():
    pr = ProblemSpec(beta=(1.0, 0.5), K=1e-2, sigma=0.1, f=1.0, g=0.0)
    mesh = build_structured_mesh(4, 4)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    sol = solve_linear_resmin(pr, U, V)
    scale = np.linalg.norm(sol.ops.L)
    assert np.abs(sol.ops.B.T @ sol.eps).max() <= 1e-10 * scale
    # |eps|_Vh equals the algebraic dual residual sqrt(r' G^-1 r)
    r = sol.ops.L - sol.ops.B @ sol.u
    y = spla.spsolve(sol.ops.G.tocsc(), r)
    assert vh_norm(sol.eps, sol.ops.G) == pytest.approx(np.sqrt(r @ y), rel=1e-8)


def test_singular_system_reports_breakdown():
    # zeroing one trial column leaves a dof unconstrained: singular saddle
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0, f=1.0, g=0.0)
    mesh = build_structured_mesh(2, 2)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    ops = build_operators(pr, U, V)
    B = ops.B.tolil()
    B[:, 0] = 0.0
    ops.B = B.tocsr()
    with pytest.raises(SolverBreakdown):
        solve_linear_resmin(pr, U, V, ops=ops)


def test_damped_update_formulas():
    # zeta = 0 gives a full step
    x, rnew, t, zeta, retries = damped_update(
        np.zeros(2), np.ones(2), 10.0, 0.0, lambda c: 1e-12)
    assert t == 1.0 and retries == 0
    # zeta = 1, |R| = 9 gives t = 0.1
    _, _, t, zeta, _ = damped_update(
        np.zeros(2), np.ones(2), 9.0, 1.0, lambda c: 1e-12)
    assert t == pytest.approx(0.1)
    assert zeta == pytest.approx(0.1)  # relaxed by 10 on acceptance


def test_damped_update_escalates_and_caps():
    # a residual that never decreases trips the retry cap
    calls = []

    def stuck(c):
        calls.append(1)
        return 100.0

    with pytest.raises(RuntimeError):
        damped_update(np.zeros(1), np.ones(1), 1.0, 0.0, stuck)
    assert len(calls) == MAX_RETRIES + 1  # initial try plus every retry


def test_newton_trivial_bounds_single_full_step(manufactured):
    # bounds far outside the range: the penalty never activates and the
    # residual is affine, so one full Newton step from u = 0 solves it
    pr, U, V = manufactured
    prb = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                      u_min=-100.0, u_max=100.0, gamma0=1e-5)
    cfg = PenaltyConfig()
    res = newton_solve(prb, U, V, cfg, tol=1e-8, initial=np.zeros(U.n_dofs))
    assert res.converged
    assert res.iterations == 1
    assert res.log[0].t == 1.0
    ustar = nodal_values(U, lambda x: x[..., 0])
    assert np.abs(res.u - ustar).max() <= 1e-9

    # from the default linear-solve start it is already converged
    res0 = newton_solve(prb, U, V, cfg, tol=1e-8)
    assert res0.converged and res0.iterations <= 1
    assert np.abs(res0.u - ustar).max() <= 1e-9


def test_newton_residual_zero_at_solution_and_jacobian_symmetric(manufactured):
    pr, U, V = manufactured
    prb = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                      u_min=-0.5, u_max=1.5, gamma0=1e-4)
    cfg = PenaltyConfig()
    ops = build_operators(prb, U, V)
    res = newton_solve(prb, U, V, cfg, tol=1e-10, ops=ops)
    system = NewtonSystem(prb, ops, cfg)
    r = system.residual(np.concatenate([res.eps, res.u]))
    Bu = ops.B + system.pen.jacobian(res.u)
    scale = max(1.0, np.linalg.norm(ops.L))
    assert np.linalg.norm(r) <= 1e-9 * scale
    J = _saddle_matrix(ops.G, Bu, np.float64)
    assert abs(J - J.T).max() <= 1e-12 * abs(J).max()


def test_newton_monotone_accepted_residuals_and_log(tmp_path):
    eps_l = 0.01
    exact = lambda x: 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3 - 0.25) / eps_l) + 1)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0,
                     f=0.0, g=exact, u_min=0.0, u_max=1.0, gamma0=1e-5)
    mesh = build_structured_mesh(6, 6)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    res = newton_solve(pr, U, V, PenaltyConfig(), tol=1e-5)
    assert res.converged
    rs = [rec.residual_norm for rec in res.log]
    assert all(a > b for a, b in zip(rs, rs[1:]))
    path = tmp_path / "log.csv"
    # the log leads with the level of each record
    write_iteration_log(path, res.log, levels=[7] * len(res.log))
    header = path.read_text().splitlines()[0]
    assert header == "level,k,residual_norm,t,zeta,increment_norm,retries,active"
    rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
    assert len(rows) == len(res.log)
    assert all(row[0] == "7" for row in rows)
    assert [int(row[-2]) for row in rows] == [rec.retries for rec in res.log]
    assert [int(row[-1]) for row in rows] == [rec.active for rec in res.log]


def test_newton_deterministic():
    exact = lambda x: 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3 - 0.25) / 0.01) + 1)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0,
                     f=0.0, g=exact, u_min=0.0, u_max=1.0, gamma0=1e-5)
    mesh = build_structured_mesh(5, 5)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    logs = []
    for _ in range(2):
        res = newton_solve(pr, U, V, PenaltyConfig(), tol=1e-5)
        logs.append([(r.k, r.residual_norm, r.t, r.zeta, r.increment_norm)
                     for r in res.log])
    assert logs[0] == logs[1]


def test_nonconvergence_reported_not_raised(monkeypatch):
    import boundfem.solver as solver
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    exact = lambda x: 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3 - 0.25) / 0.01) + 1)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0,
                     f=0.0, g=exact, u_min=0.0, u_max=1.0, gamma0=1e-5)
    mesh = build_structured_mesh(5, 5)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    res = newton_solve(pr, U, V, PenaltyConfig(), tol=1e-14)
    assert not res.converged
    assert res.reason == "iteration limit reached"
    assert res.u.shape == (U.n_dofs,)


def test_error_in_trial_propagates(monkeypatch):
    # only the retry cap is reported as a result; any other RuntimeError
    # raised while a trial is evaluated leaves newton_solve
    case, pr, U, V = case1_level0()

    def failing(self, line, t):
        raise RuntimeError("trial evaluation failed")

    monkeypatch.setattr(NewtonSystem, "residual_norm", failing)
    with pytest.raises(RuntimeError, match="trial evaluation failed"):
        newton_solve(pr, U, V, PenaltyConfig(), tol=case.tol)


@pytest.mark.parametrize("name", ["case1", "case3"])
def test_newton_history_independent_of_trial_evaluation(name, monkeypatch):
    # trials from the line tables and trials from the full residual at
    # x + t dx take the same decisions: equal logs, bitwise-equal u and eps
    case = get_case(name)
    pr = case.problem()
    mesh = case.make_mesh()
    U, V = FunctionSpace(mesh, 1, "continuous"), FunctionSpace(mesh, 1, "broken")
    cfg = PenaltyConfig(case.penalty_quadrature)
    assert cfg.quadrature == {"case1": "gauss", "case3": "nodal"}[name]
    runs = []
    for full in (False, True):
        with monkeypatch.context() as m:
            if full:
                m.setattr(NewtonSystem, "residual_norm", lambda self, line, t:
                          np.linalg.norm(self.residual(line.x + t * line.dx)))
            runs.append(newton_solve(pr, U, V, cfg, tol=case.tol))
    lined, full = runs
    assert sum(rec.retries for rec in lined.log) >= 1
    assert [(r.t, r.zeta, r.retries, r.residual_norm, r.active) for r in lined.log] == \
        [(r.t, r.zeta, r.retries, r.residual_norm, r.active) for r in full.log]
    assert lined.reason == full.reason
    assert np.array_equal(lined.u, full.u) and np.array_equal(lined.eps, full.eps)


def test_assemble_newton_system_inactive_penalty_matches_linear(manufactured):
    # bounds far away: B_u equals the linear form and the residual is the
    # linear block residual
    pr, U, V = manufactured
    prb = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                      u_min=-100.0, u_max=100.0, gamma0=1e-5)
    ops = build_operators(prb, U, V)
    rng = np.random.default_rng(6)
    eps = 0.01 * rng.standard_normal(V.n_dofs)
    u = rng.uniform(0.0, 1.0, U.n_dofs)
    system = NewtonSystem(prb, ops, PenaltyConfig())
    r = system.residual(np.concatenate([eps, u]))
    J = _saddle_matrix(ops.G, ops.B + system.pen.jacobian(u), np.float64)
    expected_top = ops.L - ops.G @ eps - ops.B @ u
    expected_bottom = -(ops.B.T @ eps)
    np.testing.assert_allclose(r, np.concatenate([expected_top, expected_bottom]),
                               atol=1e-14)
    assert abs(J - J.T).max() <= 1e-12 * abs(J).max()
    assert abs(J[:V.n_dofs, V.n_dofs:] - ops.B).max() == 0.0


def test_trial_mass_matrix_built_on_first_use(manufactured, monkeypatch):
    import boundfem.solver as solver
    pr, U, V = manufactured
    calls = []
    assemble_mass = solver.assemble_mass
    monkeypatch.setattr(solver, "assemble_mass",
                        lambda space: calls.append(space) or assemble_mass(space))
    ops = build_operators(pr, U, V)
    solve_linear_resmin(pr, U, V, ops=ops)
    assert calls == []
    M_u = ops.M_u
    assert ops.M_u is M_u and calls == [U]
    ones = np.ones(U.n_dofs)
    assert ones @ (M_u @ ones) == pytest.approx(1.0, rel=1e-13)   # |unit square|


def test_clip_inset_strictly_interior():
    u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    c = clip_inset(u, 0.0, 1.0)
    assert np.all(c > 0.0) and np.all(c < 1.0)
    assert c[2] == 0.5
    one_sided = clip_inset(u, None, 1.0)
    assert one_sided[0] == -1.0 and one_sided[4] < 1.0


def test_newton_on_flat_clipped_regions_converges():
    # data with large exactly-flat regions: the start must not sit exactly
    # on the penalty kink, or the damping stalls at iteration zero
    def g(x):
        s = -x[..., 1]
        on_inlet = (np.abs(x[..., 0]) < 1e-12) & (x[..., 1] < 0)
        return np.where(on_inlet, 0.5 + 0.001 * s, 0.0)

    pr = ProblemSpec(beta=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
                     K=0.0, sigma=0.0, f=0.0, g=g,
                     u_min=0.0, u_max=1.0, gamma0=1e-5)
    mesh = build_structured_mesh(4, 8, (0.0, 1.0, -1.0, 1.0))
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    res = newton_solve(pr, U, V, PenaltyConfig(), tol=1e-5)
    assert res.converged


# ----------------------------------------------------------------------
# Factorization paths, the Newton step check and matrix-free trial residuals
# ----------------------------------------------------------------------

def smooth_spaces(p, nx=4):
    case = get_case("smooth")
    mesh = build_structured_mesh(nx, nx)
    return case.problem(), FunctionSpace(mesh, p, "continuous"), FunctionSpace(mesh, p, "broken")


@pytest.mark.parametrize("p", [2, 3])
def test_higher_degree_linear_solve_meets_contract(p):
    pr, U, V = smooth_spaces(p)
    sol = solve_linear_resmin(pr, U, V)
    assert sol.block_residual <= 1e-10


def record_fills(monkeypatch):
    """Lists that receive the L+U fill, the keyword arguments and the matrix
    of every `splu` call."""
    fills, options, matrices = [], [], []
    splu = spla.splu

    def recorded(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        options.append(kwargs)
        matrices.append(A)
        return lu

    monkeypatch.setattr(spla, "splu", recorded)
    return fills, options, matrices


def test_symmetric_factorizations_use_one_column_panels(monkeypatch):
    # the linear P1 saddle K and the Riesz G are factorized in their own dof
    # order with panel_size = relax = 1, which shrinks SuperLU's panel work
    # arrays; in that order a larger relax is slow (module docstring, "Workspace")
    case = get_case("case1")
    mesh = case.make_mesh()
    ops = build_operators(case.problem(), FunctionSpace(mesh, 1, "continuous"),
                          FunctionSpace(mesh, 1, "broken"))
    _, options, matrices = record_fills(monkeypatch)
    ops.linear
    ops.riesz(ops.L)
    assert len(options) == 2
    assert all(o["panel_size"] == 1 and o["relax"] == 1 for o in options)
    K_lu, G_lu = matrices
    K = sp.bmat([[ops.G, ops.B], [ops.B.T, None]], format="csc")
    assert K_lu.shape == K.shape == (ops.V_h.n_dofs + ops.U_h.n_dofs,) * 2
    # K goes to SuperLU in single precision on its own pattern ("Precision")
    assert K_lu.dtype == np.float32
    assert np.array_equal(K_lu.indptr, K.indptr) and np.array_equal(K_lu.indices, K.indices)
    assert np.array_equal(K_lu.data, K.data.astype(np.float32))
    assert G_lu.shape == ops.G.shape and (G_lu != ops.G).nnz == 0


def test_only_the_linear_saddle_factor_is_single_precision(monkeypatch):
    # the linear P1 K is factorized in float32 and refined in double; the
    # Riesz G and an active Newton matrix keep float64 factors ("Precision")
    case = get_case("case1")
    pr = case.problem()
    mesh = refine_uniform_red(case.make_mesh())
    ops = build_operators(pr, FunctionSpace(mesh, 1, "continuous"),
                          FunctionSpace(mesh, 1, "broken"))
    system = NewtonSystem(pr, ops, PenaltyConfig())
    _, _, matrices = record_fills(monkeypatch)
    x = ops.linear[0]
    ops.riesz(ops.L)
    assert _newton_step(system, x, system.residual(x))[1] > 0     # J is active
    assert [A.dtype for A in matrices] == [np.float32, np.float64, np.float64]


def graded_case2_mesh(bisections):
    """case2's mesh with its four elements nearest the inlet point (0, -0.35)
    bisected `bisections` times: h_min 2.4e-4 after 20."""
    mesh = get_case("case2").make_mesh()
    for _ in range(bisections):
        c = mesh.vertices[mesh.elements].mean(axis=1)
        mesh = bisect_marked(mesh, np.argsort(np.hypot(c[:, 0], c[:, 1] + 0.35))[:4])
    return mesh


def saddle_blocks(name):
    """(G, B) of a saddle matrix: the linear K on case1 refined once or on
    case2 bisected 20 times at the inlet, J = B + dP(u) active at case1's
    linear solution, or the p = 2 K on case1 refined once."""
    case = get_case("case2" if name == "case2" else "case1")
    mesh = graded_case2_mesh(20) if name == "case2" else refine_uniform_red(case.make_mesh())
    p = 2 if name == "p2" else 1
    ops = build_operators(case.problem(), FunctionSpace(mesh, p, "continuous"),
                          FunctionSpace(mesh, p, "broken"))
    if name != "J":
        return ops.G, ops.B
    u = ops.linear[0][ops.V_h.n_dofs:]
    dP = NewtonSystem(case.problem(), ops, PenaltyConfig()).pen.jacobian(u)
    assert abs(dP).max() > 0.0
    return ops.G, ops.B + dP


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["case1", "case2", "J", "p2"])
def test_saddle_matrix_is_bmat_in_the_factor_dtype(name, dtype):
    # built in the factor's dtype, K is bitwise the cast of the double block matrix
    G, B = saddle_blocks(name)
    K = _saddle_matrix(G, B, dtype)
    ref = sp.bmat([[G, B], [B.T, None]], format="csc").astype(dtype)
    assert K.format == "csc" and K.dtype == dtype and K.shape == ref.shape
    assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
    assert np.array_equal(K.data.view(np.uint8), ref.data.view(np.uint8))


@pytest.mark.parametrize("name", ["case1", "case2", "J", "p2"])
def test_blockwise_saddle_product_matches_the_assembled_one(name):
    # a vector x, and the 2-column [x, dx] that `NewtonSystem.line` takes
    G, B = saddle_blocks(name)
    K = _saddle_matrix(G, B, np.float64)
    rng = np.random.default_rng(3)
    for shape in (sum(B.shape), (sum(B.shape), 2)):
        x = rng.standard_normal(shape)
        Kx = K @ x
        np.testing.assert_allclose(_saddle_apply(G, B, x), Kx, rtol=0.0,
                                   atol=1e-13 * np.linalg.norm(Kx))


def test_linear_p1_solve_builds_no_double_saddle_matrix(monkeypatch):
    # the linear P1 K exists once, in float32: the builder and splu see no
    # float64 saddle matrix; an active Newton matrix is built in float64
    import boundfem.solver as solver
    case = get_case("case1")
    pr = case.problem()
    mesh = refine_uniform_red(case.make_mesh())
    ops = build_operators(pr, FunctionSpace(mesh, 1, "continuous"),
                          FunctionSpace(mesh, 1, "broken"))
    built = []
    saddle_matrix = solver._saddle_matrix

    def recorded(G, B, dtype):
        built.append(np.dtype(dtype))
        return saddle_matrix(G, B, dtype)

    monkeypatch.setattr(solver, "_saddle_matrix", recorded)
    _, _, matrices = record_fills(monkeypatch)
    x = ops.linear[0]
    assert built == [np.float32] and [A.dtype for A in matrices] == [np.float32]
    system = NewtonSystem(pr, ops, PenaltyConfig())
    assert _newton_step(system, x, system.residual(x))[1] > 0     # J is active
    assert built == [np.float32, np.float64]


@pytest.mark.parametrize("name", ["case1", "case2"])
def test_refined_linear_solve_reaches_the_double_floor(name):
    # measured: relative block residual 2.9e-16 (case1) and 1.8e-16 (case2)
    # against the float64 LU's 1.7e-15 and 6.4e-16; relative gap to the
    # float64 solution 1.9e-15 and 1.2e-15
    mesh = (refine_uniform_red(get_case(name).make_mesh()) if name == "case1"
            else graded_case2_mesh(20))
    sol = solve_linear_resmin(get_case(name).problem(), FunctionSpace(mesh, 1, "continuous"),
                              FunctionSpace(mesh, 1, "broken"))
    assert sol.block_residual <= 1e-14
    K = _saddle_matrix(sol.ops.G, sol.ops.B, np.float64)
    rhs = np.concatenate([sol.ops.L, np.zeros(len(sol.u))])
    ref = spla.splu(K.tocsc(), **SYMMETRIC_LU).solve(rhs)
    x = np.concatenate([sol.eps, sol.u])
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_linear_solve_with_a_zero_factor_breaks_down(manufactured, monkeypatch):
    # refinement stops once the residual no longer halves, and the SOLVE_RTOL
    # check reports what it leaves
    import boundfem.solver as solver
    pr, U, V = manufactured

    class Zero:
        def solve(self, b):
            return np.zeros_like(b)

    monkeypatch.setattr(solver, "_factorize", lambda K, symmetric: Zero())
    with pytest.raises(SolverBreakdown, match="relative residual 1.000e"):
        solve_linear_resmin(pr, U, V)


@pytest.mark.parametrize("p,max_fill", [(2, 400_000), (3, 1_000_000)])
def test_higher_degree_saddle_keeps_colamd_without_diffusion(p, max_fill, monkeypatch):
    # case1 has no diffusion: on its 11x11 mesh COLAMD fills L+U with 229,049
    # (p = 2) and 613,395 (p = 3) entries, the symmetric ordering with 1.29 M
    # and 1.47 M (module docstring, "Orderings")
    fills, _, _ = record_fills(monkeypatch)
    case = get_case("case1")
    mesh = case.make_mesh()
    sol = solve_linear_resmin(case.problem(), FunctionSpace(mesh, p, "continuous"),
                              FunctionSpace(mesh, p, "broken"))
    assert sol.block_residual <= 1e-10
    assert len(fills) == 1 and fills[0] <= max_fill


def test_active_newton_matrix_takes_colamd(monkeypatch):
    # J = B + dP(u) at the linear solution of case1 refined once, where the
    # Gauss penalty is active: COLAMD fills L+U with 417,481 entries, the
    # symmetric ordering with 1,722,000 (module docstring, "Orderings")
    case = get_case("case1")
    pr = case.problem()
    mesh = refine_uniform_red(case.make_mesh())
    ops = build_operators(pr, FunctionSpace(mesh, 1, "continuous"),
                          FunctionSpace(mesh, 1, "broken"))
    system = NewtonSystem(pr, ops, PenaltyConfig())
    x = ops.linear[0]
    fills, options, _ = record_fills(monkeypatch)
    line, active = _newton_step(system, x, system.residual(x))
    assert active > 0 and np.all(np.isfinite(line.dx))
    assert len(fills) == 1 and fills[0] <= 600_000
    # COLAMD keeps SuperLU's default panels (module docstring, "Workspace")
    assert "panel_size" not in options[0] and "relax" not in options[0]


def test_every_factorization_follows_a_heap_release(monkeypatch):
    # the C heap's free pages go back to the OS right before each LU, so no
    # factor is stacked on freed assembly temporaries (module docstring,
    # "Workspace"); two penalized case1 levels factorize K and G each
    import boundfem.solver as solver
    from boundfem.app import convergence_study
    events = []
    monkeypatch.setattr(solver, "_release_heap", lambda: events.append("release"))
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: events.append("LU")
                        or splu(*args, **kwargs))
    study = convergence_study("case1", with_penalty=True, levels=2)
    assert len(study.rows) == 2
    assert events == ["release", "LU"] * 4


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="malloc_trim is a glibc function")
def test_heap_release_is_glibc_malloc_trim():
    # on glibc the release is never silently the no-op fallback
    import boundfem.solver as solver
    assert solver._release_heap.func.__name__ == "malloc_trim"
    assert solver._release_heap.args[0].value == 0
    assert solver._release_heap() in (0, 1)


def test_p2_smooth_study_converges_at_higher_order():
    # the p = 2 saddle systems take COLAMD, a path no benchmark workload runs;
    # measured slopes against sqrt(dofs): -2.594 (L2) and -2.142 (Vh)
    from boundfem.app import convergence_study
    study = convergence_study("smooth", p=2, levels=4)
    assert len(study.rows) == 4
    assert study.slope_l2 <= -2.5 and study.slope_vh <= -2.0


def test_p2_penalized_newton_runs_and_reports():
    pr, U, V = smooth_spaces(2, nx=3)
    prb = ProblemSpec(beta=pr.beta, K=pr.K, sigma=pr.sigma, f=pr.f, g=pr.g,
                      u_min=0.05, gamma0=1e-4)
    res = newton_solve(prb, U, V, PenaltyConfig(), tol=1e-6)
    assert res.reason in ("residual at solver floor", "increment below tolerance",
                          "damping retry cap exceeded", "iteration limit reached")
    assert res.iterations >= 1 and np.all(np.isfinite(res.u))


def p1_linear_inputs(tmp_path):
    mesh = bisect_marked(refine_uniform_red(build_structured_mesh(4, 4)), [0, 5, 9, 30])
    write_mesh(mesh, tmp_path / "mesh.txt")
    yield "jittered", jittered(refine_uniform_red(build_structured_mesh(5, 5)), 3)
    yield "read_mesh", read_mesh(tmp_path / "mesh.txt")


def relative_gap(K, b, x):
    ref = spla.spsolve(K.tocsc(), b)
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_p1_symmetric_factorization_matches_spsolve(tmp_path):
    pr = get_case("smooth").problem()
    for name, mesh in p1_linear_inputs(tmp_path):
        U = FunctionSpace(mesh, 1, "continuous")
        V = FunctionSpace(mesh, 1, "broken")
        sol = solve_linear_resmin(pr, U, V)
        K = _saddle_matrix(sol.ops.G, sol.ops.B, np.float64)
        rhs = np.concatenate([sol.ops.L, np.zeros(U.n_dofs)])
        assert relative_gap(K, rhs, np.concatenate([sol.eps, sol.u])) <= 1e-12, name
        r = sol.ops.L - sol.ops.B @ sol.u
        assert relative_gap(sol.ops.G, r, sol.ops.riesz(r)) <= 1e-12, name


def test_p1_newton_jacobian_factorization_matches_spsolve(manufactured):
    pr, U, V = manufactured
    prb = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                      u_min=0.2, u_max=0.8, gamma0=1e-3)
    ops = build_operators(prb, U, V)
    system = NewtonSystem(prb, ops, PenaltyConfig())
    rng = np.random.default_rng(11)
    x = np.concatenate([0.01 * rng.standard_normal(V.n_dofs), rng.uniform(0, 1, U.n_dofs)])
    r, Bu = assembled_residual(system, x)
    assert abs(Bu - ops.B).max() > 0.0          # the penalty is active
    J = _saddle_matrix(ops.G, Bu, np.float64)
    dx = _factorize(J, True).solve(r)
    assert relative_gap(J, r, dx) <= 1e-12


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_newton_rejects_nonpositive_tol(manufactured, tol):
    pr, U, V = manufactured
    pr = replace(pr, u_min=0.0, u_max=2.0, gamma0=1e-5)
    with pytest.raises(ValueError, match="tol must be positive"):
        newton_solve(pr, U, V, PenaltyConfig(), tol=tol)


def test_inaccurate_newton_step_raises(manufactured, monkeypatch):
    import boundfem.solver as solver
    pr, U, V = manufactured
    prb = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                      u_min=0.2, u_max=0.8, gamma0=1e-4)
    factorize = solver._factorize

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-6)

    monkeypatch.setattr(solver, "_factorize",
                        lambda K, symmetric: Perturbed(factorize(K, symmetric)))
    with pytest.raises(SolverBreakdown, match="step solve inaccurate"):
        newton_solve(prb, U, V, PenaltyConfig(), initial=np.zeros(U.n_dofs))


def penalized_system(p, quadrature, bounds, signs, seed):
    """A NewtonSystem on a jittered mesh, and a random iterate maker whose
    iterates straddle the bounds. `signs` are the lower and upper terms'
    signs, which the penalty is checked to use."""
    pr = ProblemSpec(beta=(1.0, 0.4), K=1e-2, sigma=0.5, f=1.0, g=0.0,
                     u_min=bounds[0], u_max=bounds[1], gamma0=1e-3)
    mesh = jittered(build_structured_mesh(4, 4), 2)
    U = FunctionSpace(mesh, p, "continuous")
    V = FunctionSpace(mesh, p, "broken")
    cfg = PenaltyConfig(quadrature=quadrature)
    system = NewtonSystem(pr, build_operators(pr, U, V), cfg)
    assert ([sign for sign, _ in system.pen._terms(np.zeros(U.n_dofs))]
            == [sign for sign, bound in zip(signs, bounds) if bound is not None])
    rng = np.random.default_rng(seed)
    return system, lambda: np.concatenate([rng.standard_normal(V.n_dofs),
                                           rng.uniform(-0.2, 1.2, U.n_dofs)])


# the penalty's one sign convention: the lower term enters with +1, the upper with -1
RESTORING = pytest.mark.parametrize("signs", [(+1.0, -1.0)], ids=["restoring"])


@pytest.mark.parametrize("p,quadrature", [(1, "gauss"), (1, "nodal"), (2, "gauss")])
@pytest.mark.parametrize("bounds", [(0.2, None), (None, 0.8), (0.2, 0.8)])
@RESTORING
def test_matrix_free_residual_norm(p, quadrature, bounds, signs):
    system, iterate = penalized_system(p, quadrature, bounds, signs, 4)
    x = iterate()
    r, Bu = assembled_residual(system, x)
    assert abs(Bu - system.ops.B).max() > 0.0    # the penalty is active
    np.testing.assert_allclose(system.residual(x), r, rtol=0, atol=1e-13 * np.abs(r).max())
    ref = np.linalg.norm(r)
    assert abs(system.residual_norm(system.line(np.zeros_like(x), x), 1.0) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("p,quadrature", [(1, "gauss"), (1, "nodal"), (2, "gauss")])
@pytest.mark.parametrize("bounds", [(0.2, None), (None, 0.8), (0.2, 0.8)])
@RESTORING
def test_line_residual_norm_matches_full_residual(p, quadrature, bounds, signs):
    # a step between two random iterates, along which the active set changes
    system, iterate = penalized_system(p, quadrature, bounds, signs, 5)
    x = iterate()
    line = system.line(x, iterate() - x)
    actives = [system.pen.active_count(system.split(x + t * line.dx)[1])
               for t in (0.0, 0.5, 1.0)]
    assert len(set(actives)) == 3
    for t in (1.0, 0.5, 1e-3, 1e-8):
        ref = np.linalg.norm(system.residual(x + t * line.dx))
        assert abs(system.residual_norm(line, t) - ref) <= 1e-13 * ref, t
    for t in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError):
            system.residual_norm(line, t)


def count_calls(monkeypatch, calls):
    """Record "J" per penalty Jacobian, "LU" per factorization, "trial" per trial point."""
    import boundfem.solver as solver
    from boundfem.penalty import PenaltyOperator
    jacobian = PenaltyOperator.jacobian
    monkeypatch.setattr(PenaltyOperator, "jacobian",
                        lambda self, u: calls.append("J") or jacobian(self, u))
    factorize = solver._factorize
    monkeypatch.setattr(solver, "_factorize",
                        lambda K, symmetric: calls.append("LU") or factorize(K, symmetric))
    residual_norm = NewtonSystem.residual_norm
    monkeypatch.setattr(NewtonSystem, "residual_norm",
                        lambda self, line, t: calls.append("trial") or residual_norm(self, line, t))


def case1_level0():
    case = get_case("case1")
    mesh = case.make_mesh()
    return (case, case.problem(), FunctionSpace(mesh, 1, "continuous"),
            FunctionSpace(mesh, 1, "broken"))


def test_trial_points_assemble_no_jacobian(monkeypatch):
    case, pr, U, V = case1_level0()
    calls = []
    count_calls(monkeypatch, calls)
    res = newton_solve(pr, U, V, PenaltyConfig(), tol=case.tol)
    assert res.iterations >= 1
    assert calls.count("trial") >= res.iterations
    # one Jacobian per iteration whose iterate is active, right before its
    # factorization; none at trial points, at inactive iterates or at the
    # iterate that passes the increment test
    assert calls.count("J") == sum(rec.active > 0 for rec in res.log) == 0
    # the linear saddle matrix K and the Riesz solve's G, nothing else
    assert calls.count("LU") == 2


def test_newton_evaluates_the_bound_arguments_once_per_iterate(monkeypatch):
    # an iterate's residual, active count and line (and Jacobian, when
    # active) share one evaluation of u and A u at the penalty points; the
    # line also evaluates its step du once
    from boundfem.penalty import PenaltyOperator
    case = get_case("case3")
    mesh = case.make_mesh()
    U, V = FunctionSpace(mesh, 1, "continuous"), FunctionSpace(mesh, 1, "broken")
    seen = []
    values = PenaltyOperator._values
    monkeypatch.setattr(PenaltyOperator, "_values",
                        lambda self, u: seen.append(np.array(u)) or values(self, u))
    res = newton_solve(case.problem(), U, V, PenaltyConfig(), tol=case.tol)
    assert res.iterations >= 2 and res.reason == "increment below tolerance"
    # one u per step's starting iterate and one du per step; the last
    # iterate, which passes the increment test, is not evaluated
    assert len(seen) == 2 * res.iterations
    assert len({u.tobytes() for u in seen}) == len(seen)


def test_newton_evaluates_its_iterates_through_the_penalty_residual(monkeypatch):
    # P(u) and dP(u)'eps of every iterate come from PenaltyOperator.residual,
    # the one iterate entry point, with u on U_h and eps on V_h
    from boundfem.penalty import PenaltyOperator
    case = get_case("case1")
    mesh = case.make_mesh()
    U, V = FunctionSpace(mesh, 1, "continuous"), FunctionSpace(mesh, 1, "broken")
    shapes = []
    residual = PenaltyOperator.residual

    def counted(self, u, eps):
        shapes.append((len(u), len(eps)))
        return residual(self, u, eps)

    monkeypatch.setattr(PenaltyOperator, "residual", counted)
    res =newton_solve(case.problem(), U, V, PenaltyConfig(), tol=case.tol)
    assert res.iterations >= 1 and len(shapes) >= 1
    assert set(shapes) == {(U.n_dofs, V.n_dofs)}


def assert_status_of_last_iterate(pr, res, cfg):
    # |R|/|L| and the active count agree with a fresh evaluation at the last
    # iterate; the retries and the smallest step agree with the log
    fresh = NewtonSystem(pr, res.ops, cfg)
    R = fresh.residual(np.concatenate([res.eps, res.u]))
    assert res.rel_residual == pytest.approx(
        np.linalg.norm(R) / np.linalg.norm(res.ops.L), rel=1e-9, abs=0.0)
    assert res.active == fresh.pen.active_count(res.u)
    assert res.min_t == min(rec.t for rec in res.log)


@pytest.mark.parametrize("max_iter", [None, 1])
def test_newton_status_reads_the_loop_without_evaluating_the_last_iterate(max_iter, monkeypatch):
    # stopped by the increment test, the last iterate is never evaluated;
    # stopped by the iteration limit, the residual evaluated it once and its
    # active count reads that evaluation
    import boundfem.solver as solver
    from boundfem.penalty import PenaltyOperator
    case = get_case("case3")
    mesh = case.make_mesh()
    U, V = FunctionSpace(mesh, 1, "continuous"), FunctionSpace(mesh, 1, "broken")
    cfg = PenaltyConfig()
    if max_iter:
        monkeypatch.setattr(solver, "MAX_ITER", max_iter)
    seen = []
    values = PenaltyOperator._values
    monkeypatch.setattr(PenaltyOperator, "_values",
                        lambda self, u: seen.append(1) or values(self, u))
    res = newton_solve(case.problem(), U, V, cfg, tol=case.tol)
    assert res.reason == ("iteration limit reached" if max_iter else "increment below tolerance")
    assert len(seen) == 2 * res.iterations + bool(max_iter)
    monkeypatch.undo()
    assert_status_of_last_iterate(case.problem(), res, cfg)
    assert res.retries == sum(rec.retries for rec in res.log) >= 1
    assert res.start == "cold"
    warm = newton_solve(case.problem(), U, V, cfg, tol=case.tol, initial=res.u, ops=res.ops)
    assert warm.start == "warm"


def test_newton_status_of_a_capped_first_step(monkeypatch):
    # the capped step's rejected trials count, no step was taken, and the
    # status is the start's
    case, pr, U, V = case1_level0()
    monkeypatch.setattr(NewtonSystem, "residual_norm", lambda self, line, t: np.inf)
    res = newton_solve(pr, U, V, PenaltyConfig(), tol=case.tol)
    monkeypatch.undo()
    assert res.reason == "damping retry cap exceeded" and res.iterations == 0
    assert res.retries == MAX_RETRIES + 1 and res.min_t is None
    fresh = NewtonSystem(pr, res.ops, PenaltyConfig())
    R = fresh.residual(np.concatenate([res.eps, res.u]))
    assert res.rel_residual == np.linalg.norm(R) / np.linalg.norm(res.ops.L)
    assert res.active == fresh.pen.active_count(res.u)


def case1_default_start():
    """(problem, U_h, V_h, ops, x) with x newton_solve's default start on case1 L0.

    The linear solution x_lin is `ops.linear[0]`.
    """
    _, pr, U, V = case1_level0()
    ops = build_operators(pr, U, V)
    lin = solve_linear_resmin(pr, U, V, ops=ops)
    u = clip_inset(lin.u, pr.u_min, pr.u_max)
    return pr, U, V, ops, np.concatenate([ops.riesz(ops.L - ops.B @ u), u])


def inactive_inputs(tmp_path):
    """(name, problem, U_h, V_h, ops, x): an inactive iterate x off the linear solution.

    case1 L0 uses newton_solve's default start; the other inputs take a smooth
    problem with bounds far outside its range, on the P1 meshes and at p = 2
    with a lower bound only (the COLAMD saddle path), and perturb its linear
    solution.
    """
    yield ("case1",) + case1_default_start()
    sm = get_case("smooth").problem()
    rng = np.random.default_rng(3)

    def perturbed(name, prb, U, V):
        ops = build_operators(prb, U, V)
        lin = solve_linear_resmin(prb, U, V, ops=ops)
        x_lin = np.concatenate([lin.eps, lin.u])
        return name, prb, U, V, ops, x_lin + 0.1 * rng.standard_normal(len(x_lin))

    prb = ProblemSpec(beta=sm.beta, K=sm.K, sigma=sm.sigma, f=sm.f, g=sm.g,
                      u_min=-5.0, u_max=5.0, gamma0=1e-4)
    for name, mesh in p1_linear_inputs(tmp_path):
        yield perturbed(name, prb, FunctionSpace(mesh, 1, "continuous"),
                        FunctionSpace(mesh, 1, "broken"))
    one_sided = ProblemSpec(beta=sm.beta, K=sm.K, sigma=sm.sigma, f=sm.f, g=sm.g,
                            u_min=-5.0, gamma0=1e-4)
    mesh = jittered(build_structured_mesh(4, 4), 2)
    yield perturbed("p2_lower_only", one_sided, FunctionSpace(mesh, 2, "continuous"),
                    FunctionSpace(mesh, 2, "broken"))


def test_inactive_step_equals_factorized_step(tmp_path, monkeypatch):
    for name, pr, U, V, ops, x in inactive_inputs(tmp_path):
        system = NewtonSystem(pr, ops, PenaltyConfig())
        r = system.residual(x)
        u = system.split(x)[1]
        ref, _ = _solve_saddle(ops, ops.B + system.pen.jacobian(u), r)
        calls = []
        with monkeypatch.context() as m:
            count_calls(m, calls)
            line, active = _newton_step(system, x, r)
        assert active == 0 and calls == [], name
        assert np.linalg.norm(line.dx - ref) <= 1e-12 * np.linalg.norm(ref), name


def test_inactive_step_falls_back_when_check_fails(monkeypatch):
    # a wrong linear solution misses the residual check: the step solves with K
    pr, U, V, ops, x = case1_default_start()
    system = NewtonSystem(pr, ops, PenaltyConfig())
    r = system.residual(x)
    ref, _ = _solve_saddle(ops, ops.B + system.pen.jacobian(system.split(x)[1]), r)
    x_lin, res = ops.linear
    ops.linear = (2.0 * x_lin, res)
    calls = []
    count_calls(monkeypatch, calls)
    line, active = _newton_step(system, x, r)
    assert active == 0 and calls == ["LU"]       # K, with no all-zero dP(u)
    assert np.linalg.norm(line.dx - ref) <= 1e-12 * np.linalg.norm(ref)


def test_kink_and_active_iterates_factorize(monkeypatch):
    # pure reaction, A u - f = u: at a vertex where u = u_min = 0 the lower
    # argument (u - u_min) - gamma (A u - f) is exactly 0 under the nodal rule;
    # a corner vertex of one triangle makes it the only argument <= 0
    pr = ProblemSpec(beta=(0.0, 0.0), K=0.0, sigma=1.0, f=0.0, g=0.5,
                     u_min=0.0, u_max=10.0, gamma0=1e-3)
    mesh = build_structured_mesh(3, 3)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    ops = build_operators(pr, U, V)
    system = NewtonSystem(pr, ops, PenaltyConfig(quadrature="nodal"))
    corner = np.flatnonzero(np.bincount(U.dofmap.ravel()) == 1)[0]
    for value in (0.0, -0.1):
        u = np.full(U.n_dofs, 0.5)
        u[corner] = value
        x = np.concatenate([ops.riesz(ops.L - ops.B @ u), u])
        calls = []
        with monkeypatch.context() as m:
            count_calls(m, calls)
            _, active = _newton_step(system, x, system.residual(x))
        assert active == 1 and calls == ["J", "LU"]
    # just above the kink the argument is positive: inactive
    u[corner] = 1e-300
    assert system.pen.active_count(u) == 0


def test_case1_active_start_factorizes(monkeypatch):
    # the unclipped linear solution overshoots the bounds: an active start
    pr, U, V, ops, _ = case1_default_start()
    system = NewtonSystem(pr, ops, PenaltyConfig())
    x_lin = ops.linear[0]
    calls = []
    count_calls(monkeypatch, calls)
    _, active = _newton_step(system, x_lin, system.residual(x_lin))
    assert active > 0 and calls == ["J", "LU"]


def test_newton_start_is_formed_before_the_penalty_tables(monkeypatch):
    # a cold start solves with the linear K and then with G, a warm start
    # with G only, before the penalty builds its tables, so no factor
    # coexists with them; case1 L0's iterates are inactive, so the warm
    # solve's steps factorize only K, for the linear solution
    import boundfem.solver as solver
    case, pr, U, V = case1_level0()
    order = []
    factorize = solver._factorize
    monkeypatch.setattr(solver, "_factorize", lambda K, symmetric: order.append(
        "G" if K.shape[0] == V.n_dofs else "K") or factorize(K, symmetric))
    penalty = solver.PenaltyOperator
    monkeypatch.setattr(solver, "PenaltyOperator",
                        lambda *args: order.append("penalty") or penalty(*args))
    cold = newton_solve(pr, U, V, PenaltyConfig(), tol=case.tol)
    assert order == ["K", "G", "penalty"]
    order.clear()
    newton_solve(pr, U, V, PenaltyConfig(), tol=case.tol, initial=cold.u)
    assert order == ["G", "penalty", "K"]


def test_one_linear_solve_per_level(monkeypatch):
    # the linear solve, a cold and a warm Newton solve on one LinearOperators
    # factorize K once between them; the warm start is the cold one's (case1
    # L0 is inactive there), so no Newton step needs a factorization of its own.
    # Each Newton solve factorizes G once for the Riesz solve of its start.
    pr, U, V, _, x = case1_default_start()
    ops = build_operators(pr, U, V)         # fresh: no linear solution yet
    cfg = PenaltyConfig()
    tol = get_case("case1").tol
    calls = []
    count_calls(monkeypatch, calls)
    lin = solve_linear_resmin(pr, U, V, ops=ops)
    assert calls == ["LU"]
    cold = newton_solve(pr, U, V, cfg, tol=tol, ops=ops)
    warm = newton_solve(pr, U, V, cfg, tol=tol, ops=ops, initial=x[V.n_dofs:])
    assert np.array_equal(ops.linear[0], np.concatenate([lin.eps, lin.u]))
    for res in (cold, warm):
        assert res.iterations >= 1 and res.log[0].active == 0
    n_active = sum(rec.active > 0 for rec in cold.log + warm.log)
    assert calls.count("J") == n_active
    # K once, G once per start's Riesz solve, and J per active iterate
    assert calls.count("LU") == 3 + n_active


def test_warm_start_steps_equal_factorized_steps(monkeypatch):
    # case2 L0 refined once, warm-started from the prolonged, clipped L0
    # solution as adaptive_solve_loop does: the start factorizes G once for
    # its Riesz solve, every iterate is inactive, the first one solves K once
    # for the linear solution, and each step equals the factorized one
    # (J = K assembled with an all-zero dP(u)) to 1e-12
    import boundfem.solver as solver
    from boundfem.adapt import prolong
    case = get_case("case2")
    pr = case.problem()
    cfg = PenaltyConfig()
    mesh0 = case.make_mesh()
    U0 = FunctionSpace(mesh0, 1, "continuous")
    res0 = newton_solve(pr, U0, FunctionSpace(mesh0, 1, "broken"), cfg, tol=case.tol)
    mesh = refine_uniform_red(mesh0)
    U, V = FunctionSpace(mesh, 1, "continuous"), FunctionSpace(mesh, 1, "broken")
    ops = build_operators(pr, U, V)
    u0 = clip_inset(prolong(res0.u, U0, U), pr.u_min, pr.u_max)
    newton_step = solver._newton_step
    steps, calls = [], []

    def recorded(system, x, r):
        line, active = newton_step(system, x, r)
        steps.append((system, x, r, line.dx))
        return line, active

    with monkeypatch.context() as m:
        count_calls(m, calls)
        m.setattr(solver, "_newton_step", recorded)
        res = newton_solve(pr, U, V, cfg, tol=case.tol, ops=ops, initial=u0)
    n_active = sum(rec.active > 0 for rec in res.log)
    assert res.iterations >= 3 and n_active == 0 and len(steps) == res.iterations
    assert calls.count("LU") == 2 + n_active and calls.count("J") == n_active
    for system, x, r, dx in steps:
        ref, _ = _solve_saddle(ops, ops.B + system.pen.jacobian(system.split(x)[1]), r)
        assert np.linalg.norm(dx - ref) <= 1e-12 * np.linalg.norm(ref)
