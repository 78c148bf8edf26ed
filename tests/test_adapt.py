import numpy as np
import pytest

from boundfem.adapt import (AdaptOptions, ErrorIndicators, adaptive_solve_loop,
                            dorfler_mark, error_indicators, prolong,
                            write_records_csv)
from boundfem.fespace import DiscreteFunction, build_space
from boundfem.forms import (FormParams, ProblemSpec, _contexts, assemble_gram,
                            sipg_eta, vh_norm)
from boundfem.mesh import (Mesh, bisect_marked, build_structured_mesh,
                           read_mesh, write_mesh)
from boundfem.penalty import PenaltyConfig
from boundfem.solver import solve_linear_resmin


def smooth_problem():
    uex = lambda x: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
    gex = lambda x: np.pi * np.stack(
        [np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
         np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])], axis=-1)
    f = lambda x: (2 * np.pi ** 2 + 1) * uex(x) + gex(x)[..., 0] + gex(x)[..., 1]
    pr = ProblemSpec(beta=(1.0, 1.0), K=1.0, sigma=1.0, f=f, g=uex)
    return pr, uex, gex


def test_indicators_zero_for_zero_eps():
    pr, _, _ = smooth_problem()
    mesh = build_structured_mesh(2, 2)
    V = build_space(mesh, 1, "broken")
    ind = error_indicators(pr, V, np.zeros(V.n_dofs))
    assert np.all(ind.values == 0.0)
    assert ind.total == 0.0


def test_indicator_sum_identity():
    pr, _, _ = smooth_problem()
    mesh = build_structured_mesh(3, 3)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    sol = solve_linear_resmin(pr, U, V)
    ind = error_indicators(pr, V, sol.eps)
    total = vh_norm(sol.eps, sol.ops.G)
    assert abs(ind.squared.sum() - total ** 2) <= 1e-10 * total ** 2


def localization_inputs(name, tmp_path):
    """(problem, V_h) for the edge inputs of the localization identity."""
    pr, _, _ = smooth_problem()
    if name == "p2":
        return pr, build_space(build_structured_mesh(3, 3), 2, "broken")
    if name == "tensor_K":
        rot = ProblemSpec(beta=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
                          K=[[2e-2, 5e-3], [5e-3, 1e-2]], sigma=0.5, f=0.0, g=0.0)
        return rot, build_space(build_structured_mesh(3, 3), 1, "broken")
    if name == "read_mesh":
        mesh = bisect_marked(build_structured_mesh(3, 3), [0, 4, 7])
        write_mesh(mesh, tmp_path / "mesh.txt")
        return pr, build_space(read_mesh(tmp_path / "mesh.txt"), 1, "broken")
    one = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    assert len(one.iface_h) == 0
    return pr, build_space(one, 1, "broken")


def reference_indicators(problem, V, eps):
    """Squared indicators from the dG norm's terms evaluated on function values."""
    params = FormParams()
    mesh = V.mesh
    ec, fi, fb = _contexts(V, params)
    c = eps[V.dofmap]
    grads = np.einsum("el,eqlk->eqk", c, ec.grads)
    bg = np.einsum("eqd,eqd->eq", problem.beta_fn(ec.qp), grads)
    ind2 = np.einsum("eq,eq->e", ec.dA, np.einsum("el,ql->eq", c, ec.vals) ** 2)
    ind2 += mesh.h_elem * np.einsum("eq,eq->e", ec.dA, bg ** 2)
    ind2 += np.einsum("eq,dk,eqk,eqd->e", ec.dA, problem.K_mat, grads, grads)
    for ctx, normals, h, share in ((fi, mesh.iface_normals, mesh.iface_h, 0.5),
                                   (fb, mesh.bface_normals, mesh.bface_h, 1.0)):
        bn = np.einsum("fqd,fd->fq", problem.beta_fn(ctx.qp), normals)
        eta = sipg_eta(V.p, 2, problem.k_max, h, params.eta0)
        sides = [np.einsum("fl,fql->fq", eps[V.dofmap[e]], v) for e, v, _ in ctx.sides]
        jump = sides[0] - sides[1] if len(sides) == 2 else sides[0]
        t = np.einsum("fq,fq->f", ctx.w * (0.5 * np.abs(bn) + eta[:, None]), jump ** 2)
        for e, _, _ in ctx.sides:
            np.add.at(ind2, e, share * t)
    return ind2


@pytest.mark.parametrize("name", ["p2", "tensor_K", "read_mesh", "one_element"])
def test_indicator_sum_identity_edge_inputs(name, tmp_path):
    pr, V = localization_inputs(name, tmp_path)
    eps = np.random.default_rng(5).standard_normal(V.n_dofs)
    norm2 = eps @ (assemble_gram(pr, V) @ eps)
    ind = error_indicators(pr, V, eps)
    assert ind.values.shape == (V.mesh.n_elements,)
    assert abs(ind.squared.sum() - norm2) <= 1e-12 * norm2
    # the Gram blocks are the documented norm, term by term
    np.testing.assert_allclose(ind.squared, reference_indicators(pr, V, eps), rtol=1e-12)


def test_indicator_locality():
    pr, _, _ = smooth_problem()
    mesh = build_structured_mesh(3, 3)
    V = build_space(mesh, 1, "broken")
    eps = np.zeros(V.n_dofs)
    eps[V.dofmap[7]] = 1.0
    ind = error_indicators(pr, V, eps)
    neighbors = {7}
    for (em, ep) in mesh.iface_elements:
        if em == 7:
            neighbors.add(int(ep))
        if ep == 7:
            neighbors.add(int(em))
    nz = set(np.nonzero(ind.values > 1e-14)[0].tolist())
    assert nz <= neighbors


def test_dorfler_hand_cases():
    ind = ErrorIndicators(np.array([3.0, 2.0, 1.0]), np.sqrt(14.0))
    assert list(dorfler_mark(ind, 0.5)) == [0]
    assert sorted(dorfler_mark(ind, 1.0)) == [0, 1, 2]
    equal = ErrorIndicators(np.ones(16), 4.0)
    assert len(dorfler_mark(equal, 0.5)) == 4
    zero = ErrorIndicators(np.zeros(5), 0.0)
    assert len(dorfler_mark(zero, 0.5)) == 0
    with pytest.raises(ValueError):
        dorfler_mark(ind, 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(ind, 1.5)


def test_dorfler_minimality_and_fraction():
    rng = np.random.default_rng(17)
    vals = rng.random(40)
    ind = ErrorIndicators(vals, float(np.sqrt((vals ** 2).sum())))
    for theta in (0.3, 0.5, 0.8):
        marks = dorfler_mark(ind, theta)
        total = (vals ** 2).sum()
        marked = (vals[marks] ** 2).sum()
        assert marked >= theta ** 2 * total - 1e-12 * total
        # greedy minimality: dropping the smallest marked one breaks the bound
        if len(marks) > 1:
            smallest = marks[-1]
            assert marked - vals[smallest] ** 2 < theta ** 2 * total


def test_zero_data_loop_exits_converged():
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0, f=0.0, g=0.0)
    res = adaptive_solve_loop(pr, None, opts=AdaptOptions(max_levels=5),
                              initial_mesh=build_structured_mesh(2, 2))
    assert len(res.records) == 1
    assert res.stop_reason == "estimator vanished"
    assert res.records[0].estimator == 0.0


def test_smooth_adaptive_run_properties(tmp_path):
    pr, uex, gex = smooth_problem()
    res = adaptive_solve_loop(pr, None, opts=AdaptOptions(max_levels=8),
                              initial_mesh=build_structured_mesh(4, 4),
                              exact=uex, exact_grad=gex)
    assert len(res.records) == 8
    ests = [r.estimator for r in res.records]
    assert all(a >= b - 1e-12 for a, b in zip(ests, ests[1:]))
    dofs = [r.dofs_v for r in res.records]
    assert all(a < b for a, b in zip(dofs, dofs[1:]))
    errs = [r.err_l2 for r in res.records]
    assert errs[-1] < errs[0]
    path = tmp_path / "levels.csv"
    write_records_csv(path, res.records)
    lines = path.read_text().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("level,n_elements,dofs_u,dofs_v")


def test_marked_elements_are_refined():
    pr, _, _ = smooth_problem()
    mesh = build_structured_mesh(3, 3)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    sol = solve_linear_resmin(pr, U, V)
    ind = error_indicators(pr, V, sol.eps)
    marks = dorfler_mark(ind, 0.5)
    fine = bisect_marked(mesh, marks)
    counts = np.bincount(fine.parent_elements, minlength=mesh.n_elements)
    assert np.all(counts[marks] >= 2)


def test_prolong_is_exact_for_coarse_functions():
    mesh = build_structured_mesh(3, 3)
    U = build_space(mesh, 1, "continuous")
    rng = np.random.default_rng(23)
    c = rng.standard_normal(U.n_dofs)
    fine_mesh = bisect_marked(mesh, [0, 4, 7])
    U_fine = build_space(fine_mesh, 1, "continuous")
    cf = prolong(c, U, U_fine)
    f_coarse = DiscreteFunction(U, c)
    f_fine = DiscreteFunction(U_fine, cf)
    pts = rng.random((60, 2))
    np.testing.assert_allclose(f_fine(pts), f_coarse(pts), atol=1e-12)


def test_penalized_adaptive_smoke():
    # a tiny bounded run: records carry newton counts and violations
    exact = lambda x: 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3 - 0.25) / 0.05) + 1)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0,
                     f=0.0, g=exact, u_min=0.0, u_max=1.0, gamma0=1e-4)
    res = adaptive_solve_loop(pr, PenaltyConfig.from_problem(pr),
                              opts=AdaptOptions(max_levels=3),
                              initial_mesh=build_structured_mesh(3, 3))
    assert len(res.records) == 3
    assert all(r.newton_converged for r in res.records)
    assert all(r.undershoot >= 0 and r.overshoot >= 0 for r in res.records)


def count_context_builds(monkeypatch):
    """Record (kind, space, face set, degree) for every context built from now on."""
    import boundfem.forms as forms
    built = []
    for cls in (forms.ElementContext, forms.FaceContext):
        def counting(self, space, *args, _init=cls.__init__, _kind=cls.__name__, **kw):
            faces = id(args[0]) if _kind == "FaceContext" else None
            built.append((_kind, id(space), faces, args[-1]))
            _init(self, space, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_operators_and_indicators_share_contexts(monkeypatch):
    from boundfem.solver import build_operators
    pr, _, _ = smooth_problem()
    mesh = build_structured_mesh(3, 3)
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    built = count_context_builds(monkeypatch)
    ops = build_operators(pr, U, V)
    sol = solve_linear_resmin(pr, U, V, ops=ops)
    error_indicators(pr, V, sol.eps)
    assert sum(kind == "FaceContext" for kind, *_ in built) == 2
    # volume only: the trial mass matrix is built when Newton first reads it
    assert sum(kind == "ElementContext" for kind, *_ in built) == 1


def test_one_adaptive_level_builds_each_context_once(monkeypatch):
    pr, uex, gex = smooth_problem()
    built = count_context_builds(monkeypatch)
    adaptive_solve_loop(pr, None, opts=AdaptOptions(max_levels=1),
                        initial_mesh=build_structured_mesh(3, 3),
                        exact=uex, exact_grad=gex)
    assert len(built) == len(set(built))
    # interior and boundary faces of V_h, and error_norms' boundary faces of U_h
    assert sum(kind == "FaceContext" for kind, *_ in built) == 3
