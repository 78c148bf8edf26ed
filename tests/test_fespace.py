import numpy as np
import pytest

from boundfem.fespace import (BROKEN, CONTINUOUS, DiscreteFunction, FunctionSpace,
                              ReferenceBasis, trial_to_test_embedding)
from boundfem.forms import FaceContext, _contexts
from boundfem.mesh import build_structured_mesh
from boundfem.quadrature import edge_rule, triangle_rule
from einsum_reference import nodal_values


def random_reference_points(rng, n):
    pts = rng.random((n, 2))
    pts[:, 1] *= 1.0 - pts[:, 0]
    return pts


def test_dof_counts():
    two = build_structured_mesh(1, 1)
    assert FunctionSpace(two, 1, BROKEN).n_dofs == 6
    assert FunctionSpace(two, 1, CONTINUOUS).n_dofs == 4
    eight = build_structured_mesh(2, 2)
    assert FunctionSpace(eight, 2, BROKEN).n_dofs == 48  # 8 * dim(P2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_spaces_of_one_degree_share_frozen_reference_tables(p):
    # one tabulation per degree and rule, read by every space's contexts
    a = FunctionSpace(build_structured_mesh(2, 2), p, BROKEN)
    b = FunctionSpace(build_structured_mesh(3, 1), p, CONTINUOUS)
    assert a.basis is b.basis
    tri, edge = triangle_rule(2 * p + 2), edge_rule(2 * p + 3)
    fresh = ReferenceBasis(p)
    for rule, want in ((tri, fresh.eval(tri.points)), (edge, fresh.edge_traces(edge.points))):
        tables = a.basis.tabulate(rule)
        assert all(x is y for x, y in zip(tables, b.basis.tabulate(rule)))
        for table, values in zip(tables, want):
            assert np.array_equal(table, values)
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = table[(0,) * table.ndim]
    ec, fi, _ = _contexts(a)
    assert ec.vals is a.basis.tabulate(tri)[0] and ec.gref is a.basis.tabulate(tri)[1]
    assert fi.gref is a.basis.tabulate(edge)[1]
    assert FaceContext(b, "boundary", 2 * p + 3).gref is fi.gref


def test_invalid_degree_and_continuity():
    mesh = build_structured_mesh(1, 1)
    with pytest.raises(ValueError):
        FunctionSpace(mesh, 0, BROKEN)
    with pytest.raises(ValueError):
        FunctionSpace(mesh, 1, "mixed")


def test_p1_basis_barycenter_and_lagrange():
    mesh = build_structured_mesh(1, 1)
    basis = FunctionSpace(mesh, 1, BROKEN).basis
    vals, _ = basis.eval(np.array([[1 / 3, 1 / 3]]))
    np.testing.assert_allclose(vals[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
    vals, _ = basis.eval(basis.nodes)
    np.testing.assert_allclose(vals, np.eye(basis.n_local), atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_partition_of_unity_and_gradient_sum(p):
    mesh = build_structured_mesh(2, 2)
    basis = FunctionSpace(mesh, p, BROKEN).basis
    rng = np.random.default_rng(11)
    pts = random_reference_points(rng, 200)
    vals, grads = basis.eval(pts)
    np.testing.assert_allclose(vals.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(grads.sum(axis=-2), 0.0, atol=1e-11)


def test_continuous_space_single_valued_on_edges():
    mesh = build_structured_mesh(3, 3)
    for p in (1, 2):
        U = FunctionSpace(mesh, p, CONTINUOUS)
        V = FunctionSpace(mesh, p, BROKEN)
        E = trial_to_test_embedding(U, V)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(U.n_dofs)
        broken = E @ c
        # jumps across every interior face vanish at edge quadrature points
        from boundfem.quadrature import edge_rule
        rule = edge_rule(2 * p + 3)
        verts = mesh.vertices
        p0 = verts[mesh.iface_vertices[:, 0]]
        p1 = verts[mesh.iface_vertices[:, 1]]
        qp = p0[:, None, :] + rule.points[None, :, None] * (p1 - p0)[:, None, :]
        scale = np.abs(c).max()
        for side in (0, 1):
            elems = mesh.iface_elements[:, side]
            refs = mesh.to_reference(elems[:, None], qp)
            vals, _ = V.basis.eval(refs)
            tr = np.einsum("fl,fql->fq", broken[V.dofmap[elems]], vals)
            if side == 0:
                minus = tr
            else:
                assert np.abs(minus - tr).max() <= 1e-12 * scale


def test_embedding_is_pointwise_identity():
    mesh = build_structured_mesh(2, 2)
    rng = np.random.default_rng(0)
    for p in (1, 2):
        U = FunctionSpace(mesh, p, CONTINUOUS)
        V = FunctionSpace(mesh, p, BROKEN)
        E = trial_to_test_embedding(U, V)
        # constants embed to constants
        np.testing.assert_allclose(E @ np.ones(U.n_dofs), 1.0, atol=0.0)
        # random member evaluated at 50 random points
        c = rng.standard_normal(U.n_dofs)
        fc = DiscreteFunction(U, c)
        fb = DiscreteFunction(V, E @ c)
        pts = rng.random((50, 2))
        diff = np.abs(fc(pts) - fb(pts))
        assert np.nanmax(diff) <= 1e-13 * max(1.0, np.abs(c).max())
        # structure: exactly one unit entry per broken row
        assert (E.getnnz(axis=1) == 1).all()
        assert np.all(E.data == 1.0)


def test_embedding_rejects_mismatched_spaces():
    mesh = build_structured_mesh(2, 2)
    other = build_structured_mesh(2, 2)
    U = FunctionSpace(mesh, 1, CONTINUOUS)
    V = FunctionSpace(mesh, 1, BROKEN)
    with pytest.raises(ValueError):
        trial_to_test_embedding(FunctionSpace(other, 1, CONTINUOUS), V)
    with pytest.raises(ValueError):
        trial_to_test_embedding(U, FunctionSpace(mesh, 2, BROKEN))
    with pytest.raises(ValueError):
        trial_to_test_embedding(V, V)


def test_p2_function_reproduces_affine_nodal_data():
    mesh = build_structured_mesh(2, 3)
    U = FunctionSpace(mesh, 2, CONTINUOUS)
    f = lambda x: 2.0 * x[..., 0] - x[..., 1]
    c = nodal_values(U, f)
    # degree-2 space reproduces affine functions exactly
    rng = np.random.default_rng(2)
    pts = rng.random((40, 2)) * [1.0, 1.0]
    u = DiscreteFunction(U, c)
    np.testing.assert_allclose(u(pts), f(pts), atol=1e-13)


def dofmap_meshes():
    from boundfem.cases import get_case
    from boundfem.mesh import Mesh, bisect_marked
    for name in ("smooth", "case1", "case2", "case3"):
        yield name, get_case(name).make_mesh()
    base = get_case("case2").make_mesh()
    rng = np.random.default_rng(9)
    shift = 0.02 * (rng.random((base.n_vertices, 2)) - 0.5)
    shift[np.unique(base.bface_vertices)] = 0.0
    mesh = Mesh(base.vertices + shift, base.elements)
    yield "jittered", mesh
    for marks in ([0], [5, 2, 5], range(0, 30, 3)):
        mesh = bisect_marked(mesh, marks)
    yield "bisected", mesh


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name,mesh", list(dofmap_meshes()))
def test_continuous_dofmap_matches_loop_reference(name, mesh, p):
    import loop_reference
    space = FunctionSpace(mesh, p, CONTINUOUS)
    dofmap, n_dofs = loop_reference.continuous_dofmap(mesh, p)
    assert np.array_equal(space.dofmap, dofmap)
    assert space.n_dofs == n_dofs
