import numpy as np
import pytest
import scipy.sparse as sp

from boundfem.fespace import FunctionSpace, trial_to_test_embedding
from boundfem.fields import scalar_field, vector_field
from boundfem.forms import (THETA, ElementContext, FaceContext,
                            NumericalBreakdown, ProblemSpec, _beta_grad, _block_pattern,
                            _flux_traces, assemble_bh,
                            assemble_gram, assemble_load, assemble_mass,
                            sipg_eta, vh_norm)
from boundfem.mesh import (Mesh, bisect_marked, build_structured_mesh, read_mesh,
                           write_mesh)
from boundfem.quadrature import edge_rule, triangle_rule
from test_mesh import jittered
from einsum_reference import nodal_values


def ones_broken(V):
    E = trial_to_test_embedding(FunctionSpace(V.mesh, V.p, "continuous"), V)
    return E @ np.ones(E.shape[1])


def test_sipg_eta_values():
    assert sipg_eta(1, 1.0, 0.1) == pytest.approx(180.0)
    assert sipg_eta(1, 0.0, 0.37) == 0.0
    assert sipg_eta(2, 1e-3, 0.5) == pytest.approx(0.072)
    with pytest.raises(ValueError):
        sipg_eta(1, 1.0, 0.0)


@pytest.mark.parametrize("make,coef,expected", [
    (scalar_field, lambda x: 2.5, np.full((3, 4), 2.5)),        # a callable's value is broadcast
    (vector_field, lambda x: np.array([1.0, -2.0]), np.tile([1.0, -2.0], (3, 4, 1))),
    (scalar_field, 2.5, np.full((3, 4), 2.5)),
    (vector_field, (1.0, -2.0), np.tile([1.0, -2.0], (3, 4, 1))),
    (vector_field, (1.0, 2.0, 3.0), ValueError),
])
def test_field_normalization(make, coef, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            make(coef)
        return
    pts = np.random.default_rng(0).random((3, 4, 2))
    field = make(coef)
    values = field(pts)
    np.testing.assert_array_equal(values, expected)
    if not callable(coef):      # a constant returns a fresh, writable array
        values[...] = 0.0
        np.testing.assert_array_equal(field(pts), expected)


def test_bh_constant_advection_inflow_only():
    # b_h(1, 1) = -1: only the inflow boundary term survives
    mesh = build_structured_mesh(1, 1)
    V = FunctionSpace(mesh, 1, "broken")
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    B = assemble_bh(pr, V)
    ones = ones_broken(V)
    assert ones @ (B @ ones) == pytest.approx(-1.0, abs=1e-13)


def test_bh_constant_diffusion_boundary_penalty_only():
    # all four unit-square sides have h_F = 1, so b_h(1,1) = 4 eta
    mesh = build_structured_mesh(1, 1)
    V = FunctionSpace(mesh, 1, "broken")
    pr = ProblemSpec(beta=(0.0, 0.0), K=1.0, sigma=0.0, f=0.0, g=0.0)
    B = assemble_bh(pr, V)
    ones = ones_broken(V)
    eta = sipg_eta(1, 1.0, 1.0)
    assert ones @ (B @ ones) == pytest.approx(4.0 * eta, rel=1e-13)


def test_bh_mass_term():
    mesh = build_structured_mesh(1, 1)
    V = FunctionSpace(mesh, 1, "broken")
    pr = ProblemSpec(beta=(0.0, 0.0), K=0.0, sigma=1.0, f=0.0, g=0.0)
    B = assemble_bh(pr, V)
    ones = ones_broken(V)
    assert ones @ (B @ ones) == pytest.approx(1.0, rel=1e-13)


def test_gram_norm_of_one_and_homogeneity():
    mesh = build_structured_mesh(1, 1)
    V = FunctionSpace(mesh, 1, "broken")
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    G = assemble_gram(pr, V)
    ones = ones_broken(V)
    # L2 term plus |beta.n| = 1 on the two vertical sides
    assert ones @ (G @ ones) == pytest.approx(2.0, rel=1e-13)
    assert vh_norm(ones, G) == pytest.approx(np.sqrt(2.0), rel=1e-13)
    assert vh_norm(np.zeros(V.n_dofs), G) == 0.0
    rng = np.random.default_rng(1)
    c = rng.standard_normal(V.n_dofs)
    assert vh_norm(2 * c, G) == pytest.approx(2 * vh_norm(c, G), rel=1e-12)


def test_gram_dominates_mass_matrix():
    mesh = build_structured_mesh(3, 3)
    V = FunctionSpace(mesh, 1, "broken")
    pr = ProblemSpec(beta=(1.0, 0.5), K=1e-2, sigma=0.0, f=0.0, g=0.0)
    G = assemble_gram(pr, V)
    M = assemble_mass(V)
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.standard_normal(V.n_dofs)
        assert w @ (G @ w) >= w @ (M @ w) - 1e-12


def test_gram_symmetric_positive_definite():
    mesh = build_structured_mesh(3, 3)
    V = FunctionSpace(mesh, 1, "broken")
    pr = ProblemSpec(beta=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
                     K=1e-3, sigma=0.0, f=0.0, g=0.0)
    G = assemble_gram(pr, V)
    asym = sp.csr_matrix(G - G.T)
    assert abs(asym).max() <= 1e-12 * abs(G).max()
    np.linalg.cholesky(G.toarray())  # raises if not positive definite


def test_vh_norm_raises_on_indefinite_matrix():
    bad = sp.identity(3, format="csr") * -1.0
    with pytest.raises(NumericalBreakdown):
        vh_norm(np.ones(3), bad)


def test_load_examples():
    mesh = build_structured_mesh(1, 1)
    V = FunctionSpace(mesh, 1, "broken")
    ones = ones_broken(V)
    zero = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    assert np.abs(assemble_load(zero, V)).max() == 0.0
    source = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=1.0, g=0.0)
    assert ones @ assemble_load(source, V) == pytest.approx(1.0, rel=1e-13)
    inflow = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=1.0)
    assert ones @ assemble_load(inflow, V) == pytest.approx(-1.0, rel=1e-13)


def test_consistency_with_linear_exact_solution():
    # u* = x solves the problem with f = beta_x + sigma*x and g = x; the dG
    # form must satisfy b_h(u*, v) = l_h(v) for every basis function
    gx = lambda x: x[..., 0]
    pr = ProblemSpec(beta=(1.0, 0.0), K=1.0, sigma=1.0,
                     f=lambda x: 1.0 + x[..., 0], g=gx)
    mesh = build_structured_mesh(3, 3)
    V = FunctionSpace(mesh, 1, "broken")
    U = FunctionSpace(mesh, 1, "continuous")
    E = trial_to_test_embedding(U, V)
    res = assemble_bh(pr, V) @ (E @ nodal_values(U, gx)) - assemble_load(pr, V)
    assert np.abs(res).max() <= 1e-11


def test_continuous_arguments_reduce_to_volume_plus_boundary():
    # for embedded continuous w, v all jump terms vanish; compare the matrix
    # value against an independent quadrature of the jump-free form
    pr = ProblemSpec(beta=(1.0, 0.5), K=0.7, sigma=0.3, f=0.0, g=0.0)
    mesh = build_structured_mesh(2, 2)
    V = FunctionSpace(mesh, 1, "broken")
    U = FunctionSpace(mesh, 1, "continuous")
    E = trial_to_test_embedding(U, V)
    B = E.T @ assemble_bh(pr, V) @ E
    rng = np.random.default_rng(9)
    cu = rng.standard_normal(U.n_dofs)
    cv = rng.standard_normal(U.n_dofs)
    got = cv @ (B @ cu)  # b_h(u, v) with u trial, v test

    # reference: volume terms + boundary face terms, assembled independently
    K = pr.K_mat
    tri = triangle_rule(6)
    B_aff, b0, detB, Binv = mesh.affine()
    vals, gref = U.basis.eval(tri.points)
    ref = 0.0
    for e in range(mesh.n_elements):
        dofs = U.dofmap[e]
        qp = b0[e] + tri.points @ B_aff[e].T
        gphys = gref @ Binv[e]
        uq = vals @ cu[dofs]
        vq = vals @ cv[dofs]
        gu = np.einsum("qlr,l->qr", gphys, cu[dofs])
        gv = np.einsum("qlr,l->qr", gphys, cv[dofs])
        w = tri.weights * detB[e]
        ref += np.sum(w * (np.einsum("qr,qr->q", gu @ K, gv)
                           + (gu @ np.array([1.0, 0.5]) + 0.3 * uq) * vq))
    erule = edge_rule(7)
    for (a, b), e, n, h in zip(mesh.bface_vertices, mesh.bface_elements,
                               mesh.bface_normals, mesh.bface_h):
        qp = mesh.vertices[a] + erule.points[:, None] * (mesh.vertices[b] - mesh.vertices[a])
        refs = mesh.to_reference(np.full(len(qp), e)[:, None], qp[:, None, :])[:, 0, :]
        fv, fg = U.basis.eval(refs)
        gphys = np.einsum("qlr,rk->qlk", fg, Binv[e])
        dofs = U.dofmap[e]
        uq = fv @ cu[dofs]
        vq = fv @ cv[dofs]
        Kgu_n = np.einsum("qlk,l->qk", gphys, cu[dofs]) @ (K @ n)
        Kgv_n = np.einsum("qlk,l->qk", gphys, cv[dofs]) @ (K @ n)
        bn = np.array([1.0, 0.5]) @ n
        eta = sipg_eta(1, pr.k_max, h)
        w = erule.weights * h
        ref += np.sum(w * (THETA * uq * Kgv_n - Kgu_n * vq + eta * uq * vq))
        if bn < 0:
            ref += np.sum(w * bn * uq * vq)
    assert got == pytest.approx(ref, rel=1e-11)


def test_coercivity_smoke():
    # sigma - div(beta)/2 = 1 > 0 and eta0 = 3: the symmetric part of the dG
    # operator is positive on random nonzero functions
    pr = ProblemSpec(beta=(1.0, 1.0), K=1.0, sigma=1.0, f=0.0, g=0.0)
    mesh = build_structured_mesh(3, 3)
    V = FunctionSpace(mesh, 1, "broken")
    B = assemble_bh(pr, V)
    S = 0.5 * (B + B.T)
    rng = np.random.default_rng(123)
    for _ in range(100):
        w = rng.standard_normal(V.n_dofs)
        assert w @ (S @ w) > 0.0


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(beta=(1.0, 0.0), K=np.array([[1.0, 0.5], [0.0, 1.0]]),
                    sigma=0.0, f=0.0, g=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(beta=(1.0, 0.0), K=-1.0, sigma=0.0, f=0.0, g=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0,
                    u_min=1.0, u_max=0.0, gamma0=1e-3)
    with pytest.raises(ValueError):
        ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0,
                    u_min=0.0, gamma0=2.0)


def jittered_mesh(seed=3):
    """A 4x4 structured mesh with interior vertices moved by up to 0.1 h."""
    base = build_structured_mesh(4, 4)
    rng = np.random.default_rng(seed)
    shift = 0.2 * base.h * (rng.random(base.vertices.shape) - 0.5)
    shift[np.unique(base.bface_vertices)] = 0.0
    return Mesh(base.vertices + shift, base.elements)


@pytest.mark.parametrize("p", [1, 2])
def test_context_gradients_equal_einsum_form(p):
    # beta.grad phi and K grad phi.n, contracted with Binv on the reference
    # gradients, equal the einsum forms on physical gradients gref . Binv
    mesh = jittered_mesh()
    V = FunctionSpace(mesh, p, "broken")
    _, _, _, Binv = mesh.affine()
    K = np.array([[2e-2, 5e-3], [5e-3, 1e-2]])
    pr = ProblemSpec(beta=lambda x: np.stack([1.0 + x[..., 1], 0.5 - x[..., 0]], axis=-1),
                     K=K, sigma=0.0, f=0.0, g=0.0)
    ec = ElementContext(V, 2 * p + 2)
    _, gref = V.basis.eval(ec.rule.points)
    grads = np.einsum("qlr,erk->eqlk", gref, Binv)
    bg = np.einsum("eqd,eqld->eql", pr.beta_fn(ec.qp), grads)
    np.testing.assert_allclose(_beta_grad(pr, ec), bg, rtol=0, atol=1e-14 * np.abs(bg).max())
    fc = FaceContext(V, "interior", 2 * p + 3)
    _, gref = V.basis.edge_traces(edge_rule(2 * p + 3).points)
    Kn = mesh.iface_normals @ K
    for side, sides in enumerate(fc.sides):
        elems, _, code = sides
        assert np.array_equal(code, mesh.iface_local_edges[:, side] + 3 * side)
        grads = np.einsum("fqlr,frk->fqlk", gref[code], Binv[elems])
        flux = np.einsum("fqlk,fk->fql", grads, Kn)
        np.testing.assert_allclose(_flux_traces(fc, sides, Kn), flux, rtol=0,
                                   atol=1e-14 * np.abs(flux).max())


def trace_meshes(tmp_path):
    """A jittered structured mesh and an unstructured mesh read from a file."""
    write_mesh(bisect_marked(build_structured_mesh(3, 3), [0, 4, 7]), tmp_path / "mesh.txt")
    return [jittered(build_structured_mesh(4, 4), 2), read_mesh(tmp_path / "mesh.txt")]


def face_sides(V):
    """(face vertices (nf, 2, 2), physical nodes (nf, nl, 2), FaceContext, side)
    for every interior and boundary face side of V's mesh."""
    mesh = V.mesh
    B, b0, _, _ = mesh.affine()
    for faces, vertices in (("interior", mesh.iface_vertices), ("boundary", mesh.bface_vertices)):
        fc = FaceContext(V, faces, 2 * V.p + 3)
        for side in fc.sides:
            elems = side[0]
            nodes = b0[elems, None] + V.basis.nodes @ B[elems].swapaxes(1, 2)
            yield mesh.vertices[vertices], nodes, fc, side


@pytest.mark.parametrize("p", [1, 2, 3])
def test_face_traces_vanish_exactly_off_the_face(p, tmp_path):
    # a shape function whose node lies off a face has the trace 0.0 there,
    # not the round-off of evaluating it at points mapped back from the face
    for mesh in trace_meshes(tmp_path):
        V = FunctionSpace(mesh, p, "broken")
        for ends, nodes, _, (_, vals, _) in face_sides(V):
            tangent = ends[:, 1] - ends[:, 0]
            d = nodes - ends[:, None, 0]
            cross = d[..., 0] * tangent[:, None, 1] - d[..., 1] * tangent[:, None, 0]
            off = np.abs(cross) > 1e-9 * np.sum(tangent ** 2, axis=1)[:, None]
            assert np.all((~off).sum(axis=1) == p + 1)
            traces = vals.swapaxes(1, 2)
            assert np.all(traces[off] == 0.0)
            assert np.all(np.abs(traces[~off]).max(axis=-1) > 0.1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_face_traces_match_mapped_back_points(p, tmp_path):
    # the tabulated traces and reference gradients equal the basis at the
    # face points mapped back through the inverse affine map, up to round-off
    for mesh in trace_meshes(tmp_path):
        V = FunctionSpace(mesh, p, "broken")
        for _, _, fc, (elems, vals, code) in face_sides(V):
            mapped, gref = V.basis.eval(mesh.to_reference(elems[:, None], fc.qp))
            np.testing.assert_allclose(vals, mapped, rtol=0, atol=1e-14)
            np.testing.assert_allclose(fc.gref[code], gref, rtol=0,
                                       atol=1e-14 * np.abs(gref).max())


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("K", [0.0, 1e-2])
def test_operator_patterns_do_not_depend_on_the_jitter(p, K):
    # with exact zeros off each face, G and B = b_h E keep one CSR pattern
    # when the vertices move (the unjittered mesh can have genuine exact
    # zeros, so two jitters are compared); beta is parallel to no edge
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=K, sigma=0.5, f=1.0, g=0.0)
    patterns = []
    for seed in (2, 5):
        mesh = jittered(build_structured_mesh(4, 4), seed)
        V, U = FunctionSpace(mesh, p, "broken"), FunctionSpace(mesh, p, "continuous")
        B = assemble_bh(pr, V) @ trial_to_test_embedding(U, V)
        patterns.append([(M.indptr, M.indices) for M in
                         (assemble_gram(pr, V).sorted_indices(), B.sorted_indices())])
    for (indptr, indices), (indptr2, indices2) in zip(*patterns):
        assert np.array_equal(indptr, indptr2)
        assert np.array_equal(indices, indices2)


def test_block_matrices_own_exactly_their_entries():
    # without diffusion G drops exact zeros but keeps more than half of its
    # block pattern, where `eliminate_zeros` would leave views of the
    # zero-padded buffers (alive through the saddle LU)
    pr = ProblemSpec(beta=(3 / np.sqrt(10), 1 / np.sqrt(10)), K=0.0, sigma=0.0, f=1.0, g=0.0)
    V = FunctionSpace(build_structured_mesh(4, 4), 1, "broken")
    G, bh = assemble_gram(pr, V), assemble_bh(pr, V)
    pattern = len(_block_pattern(V)[1]) * V.n_local ** 2
    assert pattern / 2 < G.nnz < pattern
    for M in (G, bh):
        for a in (M.data, M.indices):
            assert a.base is None and a.size == M.nnz
