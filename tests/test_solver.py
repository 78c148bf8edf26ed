import numpy as np
import pytest
import scipy.sparse.linalg as spla

from boundfem.fespace import build_space
from boundfem.forms import ProblemSpec, vh_norm
from boundfem.mesh import build_structured_mesh
from boundfem.penalty import PenaltyConfig
from boundfem.solver import (NewtonOptions, NewtonSystem, SolverBreakdown,
                             _saddle_matrix, build_operators, clip_inset, damped_update,
                             newton_solve, solve_linear_resmin,
                             write_iteration_log)


@pytest.fixture
def manufactured():
    # u* = x with sigma = 1, beta = (1, 0), K = 0: f = 1 + x, g = x
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                     f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0])
    mesh = build_structured_mesh(4, 4)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    return pr, U, V


def test_linear_resmin_reproduces_linear_exact(manufactured):
    pr, U, V = manufactured
    sol = solve_linear_resmin(pr, U, V)
    ustar = U.interpolate(lambda x: x[..., 0])
    assert np.abs(sol.u - ustar).max() <= 1e-12
    assert vh_norm(sol.eps, sol.ops.G) <= 1e-10
    assert sol.block_residual <= 1e-10


def test_linear_resmin_zero_data():
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0, f=0.0, g=0.0)
    mesh = build_structured_mesh(3, 3)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    sol = solve_linear_resmin(pr, U, V)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.eps).max() == 0.0


def test_galerkin_orthogonality_and_riesz_identity():
    pr = ProblemSpec(beta=(1.0, 0.5), K=1e-2, sigma=0.1, f=1.0, g=0.0)
    mesh = build_structured_mesh(4, 4)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
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
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
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
        damped_update(np.zeros(1), np.ones(1), 1.0, 0.0, stuck,
                      omega=0.5, max_retries=5)
    assert len(calls) == 6  # initial try plus five retries


def test_newton_trivial_bounds_single_full_step(manufactured):
    # bounds far outside the range: the penalty never activates and the
    # residual is affine, so one full Newton step from zero solves it
    pr, U, V = manufactured
    prb = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                      u_min=-100.0, u_max=100.0, gamma0=1e-5)
    cfg = PenaltyConfig.from_problem(prb)
    zeros = (np.zeros(V.n_dofs), np.zeros(U.n_dofs))
    res = newton_solve(prb, U, V, cfg, opts=NewtonOptions(tol=1e-8),
                       initial=zeros)
    assert res.converged
    assert res.iterations == 1
    assert res.log[0].t == 1.0
    ustar = U.interpolate(lambda x: x[..., 0])
    assert np.abs(res.u - ustar).max() <= 1e-9

    # from the default linear-solve start it is already converged
    res0 = newton_solve(prb, U, V, cfg, opts=NewtonOptions(tol=1e-8))
    assert res0.converged and res0.iterations <= 1
    assert np.abs(res0.u - ustar).max() <= 1e-9


def test_newton_residual_zero_at_solution_and_jacobian_symmetric(manufactured):
    pr, U, V = manufactured
    prb = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                      u_min=-0.5, u_max=1.5, gamma0=1e-4)
    cfg = PenaltyConfig.from_problem(prb)
    ops = build_operators(prb, U, V)
    res = newton_solve(prb, U, V, cfg, opts=NewtonOptions(tol=1e-10), ops=ops)
    system = NewtonSystem(prb, ops, cfg)
    r, Bu = system.residual(np.concatenate([res.eps, res.u]))
    scale = max(1.0, np.linalg.norm(ops.L))
    assert np.linalg.norm(r) <= 1e-9 * scale
    J = _saddle_matrix(ops.G, Bu)
    assert abs(J - J.T).max() <= 1e-12 * abs(J).max()


def test_newton_monotone_accepted_residuals_and_log(tmp_path):
    eps_l = 0.01
    exact = lambda x: 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3 - 0.25) / eps_l) + 1)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0,
                     f=0.0, g=exact, u_min=0.0, u_max=1.0, gamma0=1e-5)
    mesh = build_structured_mesh(6, 6)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    res = newton_solve(pr, U, V, PenaltyConfig.from_problem(pr),
                       opts=NewtonOptions(tol=1e-5))
    assert res.converged
    rs = [rec.residual_norm for rec in res.log]
    assert all(a > b for a, b in zip(rs, rs[1:]))
    path = tmp_path / "log.csv"
    write_iteration_log(path, res.log)
    header = path.read_text().splitlines()[0]
    assert header == "k,residual_norm,t,zeta,increment_norm"
    assert len(path.read_text().splitlines()) == len(res.log) + 1


def test_newton_deterministic():
    exact = lambda x: 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3 - 0.25) / 0.01) + 1)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0,
                     f=0.0, g=exact, u_min=0.0, u_max=1.0, gamma0=1e-5)
    mesh = build_structured_mesh(5, 5)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    logs = []
    for _ in range(2):
        res = newton_solve(pr, U, V, PenaltyConfig.from_problem(pr),
                           opts=NewtonOptions(tol=1e-5))
        logs.append([(r.k, r.residual_norm, r.t, r.zeta, r.increment_norm)
                     for r in res.log])
    assert logs[0] == logs[1]


def test_nonconvergence_reported_not_raised():
    exact = lambda x: 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3 - 0.25) / 0.01) + 1)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0,
                     f=0.0, g=exact, u_min=0.0, u_max=1.0, gamma0=1e-5)
    mesh = build_structured_mesh(5, 5)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    res = newton_solve(pr, U, V, PenaltyConfig.from_problem(pr),
                       opts=NewtonOptions(tol=1e-14, max_iter=2))
    assert not res.converged
    assert res.reason == "iteration limit reached"
    assert res.u.shape == (U.n_dofs,)


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
    r, Bu = NewtonSystem(prb, ops, PenaltyConfig.from_problem(prb)).residual(
        np.concatenate([eps, u]))
    J = _saddle_matrix(ops.G, Bu)
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
    assert ops.M_u is M_u and calls == [V]
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
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    res = newton_solve(pr, U, V, PenaltyConfig.from_problem(pr),
                       opts=NewtonOptions(tol=1e-5))
    assert res.converged
