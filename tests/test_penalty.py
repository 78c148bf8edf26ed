import numpy as np
import pytest

from boundfem.fespace import build_space
from boundfem.forms import ElementContext, ProblemSpec
from boundfem.mesh import build_structured_mesh
from boundfem.penalty import (PenaltyConfig, PenaltyOperator, StrongOperator,
                              compute_gammas, negative_part)
from boundfem.quadrature import QuadratureRule


@pytest.fixture
def square_spaces():
    mesh = build_structured_mesh(2, 2)
    return (build_space(mesh, 1, "continuous"),
            build_space(mesh, 1, "broken"))


def test_negative_part():
    assert negative_part(-2.0) == -2.0
    assert negative_part(3.0) == 0.0
    assert negative_part(0.0) == 0.0
    np.testing.assert_allclose(negative_part(np.array([-1.5, 0.0, 2.0])),
                               [-1.5, 0.0, 0.0])


def test_gamma_pure_advection_scales_with_h():
    mesh = build_structured_mesh(2, 2)
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    g = compute_gammas(pr, mesh, gamma0=1e-5)
    np.testing.assert_allclose(g, 1e-5 * mesh.h_elem, rtol=1e-14)
    # reference value of the formula at h = 0.126
    assert 1e-5 / (1.0 / 0.126) == pytest.approx(1.26e-6)


def test_gamma_with_diffusion():
    mesh = build_structured_mesh(2, 2)
    pr = ProblemSpec(beta=(1.0, 0.0), K=1e-3, sigma=0.0, f=0.0, g=0.0)
    g = compute_gammas(pr, mesh, gamma0=1e-4)
    h = mesh.h_elem
    np.testing.assert_allclose(g, 1e-4 / (1.0 / h + 1e-3 / h ** 2), rtol=1e-14)
    # hand value with h = 0.1: 1e-4 / (10 + 0.1)
    assert 1e-4 / (1.0 / 0.1 + 1e-3 / 0.01) == pytest.approx(9.90099e-6, rel=1e-5)


def test_gamma_requires_some_coefficient():
    mesh = build_structured_mesh(1, 1)
    pr = ProblemSpec(beta=(0.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    with pytest.raises(ValueError):
        compute_gammas(pr, mesh, gamma0=0.5)


def strong_residual_at(problem, space, coeffs, point):
    """A(u_h) - f at one reference point of every element, via StrongOperator."""
    rule = QuadratureRule("triangle", 0, [point], [0.5])
    strong = StrongOperator(problem, space, ElementContext(space, 0, rule=rule))
    return strong.residual(coeffs)[:, 0]


def test_strong_residual_examples(square_spaces):
    U, _ = square_spaces
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    ux = U.interpolate(lambda x: x[..., 0])
    np.testing.assert_allclose(strong_residual_at(pr, U, ux, (0.3, 0.3)), 1.0, atol=1e-13)
    const = U.interpolate(2.5)
    np.testing.assert_allclose(strong_residual_at(pr, U, const, (0.2, 0.1)), 0.0, atol=1e-13)
    # manufactured solution: A(u) - f = 0 everywhere
    pr2 = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                      f=lambda x: 1.0 + x[..., 0], g=0.0)
    np.testing.assert_allclose(strong_residual_at(pr2, U, ux, (0.25, 0.25)), 0.0, atol=1e-13)


def test_penalty_residual_zero_at_exact_solution(square_spaces):
    U, V = square_spaces
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                     f=lambda x: 1.0 + x[..., 0], g=lambda x: x[..., 0],
                     u_min=-1.0, u_max=2.0, gamma0=1e-5)
    op = PenaltyOperator(pr, U, V, PenaltyConfig.from_problem(pr))
    r = op.residual(U.interpolate(lambda x: x[..., 0]))
    assert np.abs(r).max() <= 1e-12


def test_penalty_residual_zero_when_strictly_feasible(square_spaces):
    U, V = square_spaces
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0,
                     u_min=0.0, gamma0=1e-5)
    op = PenaltyOperator(pr, U, V, PenaltyConfig(lower=0.0, gamma0=1e-5))
    assert np.abs(op.residual(U.interpolate(1.0))).max() == 0.0


def test_penalty_hand_integral(square_spaces):
    # u = -c with all operator terms off: residual against v = 1 equals
    # gamma^-1 * (-c) * |Omega|; gammas supplied explicitly since all
    # coefficients vanish
    U, V = square_spaces
    pr = ProblemSpec(beta=(0.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    cfg = PenaltyConfig(lower=0.0, gamma0=0.5)
    gammas = np.full(U.mesh.n_elements, 2.0)
    op = PenaltyOperator(pr, U, V, cfg, gammas=gammas)
    c = 0.75
    r = op.residual(U.interpolate(-c))
    total = np.ones(V.n_dofs) @ r
    assert total == pytest.approx((1.0 / 2.0) * (-c) * 1.0, rel=1e-13)


def test_penalty_jacobian_examples(square_spaces):
    U, V = square_spaces
    pr = ProblemSpec(beta=(0.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    cfg = PenaltyConfig(lower=0.0, gamma0=0.5)
    gammas = np.full(U.mesh.n_elements, 2.0)
    op = PenaltyOperator(pr, U, V, cfg, gammas=gammas)
    # strictly feasible, zero strong residual: indicator 0 everywhere
    assert abs(PenaltyOperator(pr, U, V, cfg, gammas=gammas)
               .jacobian(U.interpolate(5.0))).max() == 0.0
    # u = -1 activates everything: J = gamma^-1 * mass-type pairing of z vs v
    J = op.jacobian(U.interpolate(-1.0))
    total = np.ones(V.n_dofs) @ (J @ np.ones(U.n_dofs))
    assert total == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("quadrature", ["gauss", "nodal"])
def test_penalty_jacobian_matches_central_differences(quadrature):
    # acceptance-grade check: 20 random non-kink states, relative error 1e-6
    mesh = build_structured_mesh(2, 2)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    pr = ProblemSpec(beta=(1.0, 0.5), K=0.0, sigma=0.3, f=0.2, g=0.0,
                     u_min=0.0, u_max=1.0, gamma0=1e-2)
    op = PenaltyOperator(pr, U, V,
                         PenaltyConfig.from_problem(pr, quadrature=quadrature))
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        u0 = rng.uniform(-0.5, 1.5, U.n_dofs)
        margin = min(np.abs(arg).min() for _, arg, _ in op._terms(u0))
        if margin < 1e-4:
            continue
        d = rng.standard_normal(U.n_dofs)
        step = 1e-7 * max(1.0, np.abs(u0).max())
        fd = (op.residual(u0 + step * d) - op.residual(u0 - step * d)) / (2 * step)
        Jd = op.jacobian(u0) @ d
        err = np.linalg.norm(fd - Jd) / max(np.linalg.norm(Jd), 1e-30)
        assert err <= 1e-6
        checked += 1


def test_penalty_residual_continuous_through_kink(square_spaces):
    # sweep one coefficient through the kink: no jump beyond integration noise
    U, V = square_spaces
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0,
                     u_min=0.0, gamma0=1e-3)
    op = PenaltyOperator(pr, U, V, PenaltyConfig(lower=0.0, gamma0=1e-3))
    base = U.interpolate(0.5)
    values = []
    for t in np.linspace(-1e-6, 1e-6, 9):
        c = base.copy()
        c[4] = t
        values.append(op.residual(c))
    steps = [np.abs(a - b).max() for a, b in zip(values, values[1:])]
    scale = max(np.abs(values[0]).max(), np.abs(values[-1]).max(), 1e-30)
    assert max(steps) <= 0.5 * scale + 1e-9


def test_lower_bound_only_pushes_up(square_spaces):
    # nodal p=1 test functions are nonnegative, so active lower-bound
    # entries are nonpositive
    U, V = square_spaces
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0,
                     u_min=0.0, gamma0=1e-3)
    op = PenaltyOperator(pr, U, V, PenaltyConfig(lower=0.0, gamma0=1e-3))
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = rng.uniform(-1.0, 1.0, U.n_dofs)
        assert op.residual(u).max() <= 1e-14


def test_upper_sign_conventions(square_spaces):
    # an overshoot produces a downward force with the restoring convention
    # and an upward one with the verbatim variant
    U, V = square_spaces
    pr = ProblemSpec(beta=(0.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    gammas = np.full(U.mesh.n_elements, 1.0)
    over = U.interpolate(1.5)  # above the upper bound 1
    ones = np.ones(V.n_dofs)
    restoring = PenaltyOperator(pr, U, V,
                                PenaltyConfig(upper=1.0, gamma0=0.5),
                                gammas=gammas).residual(over)
    paper = PenaltyOperator(pr, U, V,
                            PenaltyConfig(upper=1.0, gamma0=0.5,
                                          upper_sign="paper"),
                            gammas=gammas).residual(over)
    assert ones @ restoring > 0.0        # moves the equation toward smaller u
    assert ones @ paper < 0.0
    np.testing.assert_allclose(restoring, -paper, rtol=1e-14)


def test_penalty_config_validation():
    with pytest.raises(ValueError):
        PenaltyConfig()
    with pytest.raises(ValueError):
        PenaltyConfig(lower=0.0, gamma0=1.5)
    with pytest.raises(ValueError):
        PenaltyConfig(lower=0.0, gamma0=1e-3, upper_sign="up")
    with pytest.raises(ValueError):
        PenaltyConfig(lower=0.0, gamma0=1e-3, quadrature="lobatto")


def test_nodal_quadrature_requires_p1():
    mesh = build_structured_mesh(2, 2)
    U = build_space(mesh, 2, "continuous")
    V = build_space(mesh, 2, "broken")
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0,
                     u_min=0.0, gamma0=1e-3)
    with pytest.raises(ValueError):
        PenaltyOperator(pr, U, V, PenaltyConfig(lower=0.0, gamma0=1e-3,
                                                quadrature="nodal"))


def test_second_order_term_for_p2():
    # with p = 2 and K > 0 the strong operator includes -div(K grad u);
    # verify against the quadratic u = x^2 with A(u) = -2K + 2x beta_x
    mesh = build_structured_mesh(2, 2)
    U = build_space(mesh, 2, "continuous")
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.5, sigma=0.0, f=0.0, g=0.0)
    got = strong_residual_at(pr, U, U.interpolate(lambda x: x[..., 0] ** 2), (0.25, 0.25))
    B, b0, _, _ = mesh.affine()
    x = b0[:, 0] + B[:, 0, :] @ np.array([0.25, 0.25])
    np.testing.assert_allclose(got, -2.0 * 0.5 + 2.0 * x, rtol=1e-12)
