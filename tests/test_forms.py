import numpy as np
import pytest
import scipy.sparse as sp

from boundfem.fespace import build_space, trial_to_test_embedding
from boundfem.forms import (ElementContext, FaceContext, FormParams,
                            NumericalBreakdown, ProblemSpec, assemble_bh,
                            assemble_gram, assemble_load, assemble_mass,
                            sipg_eta, vh_norm)
from boundfem.mesh import Mesh, build_structured_mesh
from boundfem.quadrature import edge_rule, triangle_rule


def ones_broken(V):
    E = trial_to_test_embedding(build_space(V.mesh, V.p, "continuous"), V)
    return E @ np.ones(E.shape[1])


def test_sipg_eta_values():
    assert sipg_eta(1, 2, 1.0, 0.1) == pytest.approx(180.0)
    assert sipg_eta(1, 2, 0.0, 0.37) == 0.0
    assert sipg_eta(2, 2, 1e-3, 0.5) == pytest.approx(0.072)
    with pytest.raises(ValueError):
        sipg_eta(1, 2, 1.0, 0.0)


def test_bh_constant_advection_inflow_only():
    # b_h(1, 1) = -1: only the inflow boundary term survives
    mesh = build_structured_mesh(1, 1)
    V = build_space(mesh, 1, "broken")
    pr = ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=0.0, f=0.0, g=0.0)
    B = assemble_bh(pr, V)
    ones = ones_broken(V)
    assert ones @ (B @ ones) == pytest.approx(-1.0, abs=1e-13)


def test_bh_constant_diffusion_boundary_penalty_only():
    # all four unit-square sides have h_F = 1, so b_h(1,1) = 4 eta
    mesh = build_structured_mesh(1, 1)
    V = build_space(mesh, 1, "broken")
    pr = ProblemSpec(beta=(0.0, 0.0), K=1.0, sigma=0.0, f=0.0, g=0.0)
    B = assemble_bh(pr, V)
    ones = ones_broken(V)
    eta = sipg_eta(1, 2, 1.0, 1.0)
    assert ones @ (B @ ones) == pytest.approx(4.0 * eta, rel=1e-13)


def test_bh_mass_term():
    mesh = build_structured_mesh(1, 1)
    V = build_space(mesh, 1, "broken")
    pr = ProblemSpec(beta=(0.0, 0.0), K=0.0, sigma=1.0, f=0.0, g=0.0)
    B = assemble_bh(pr, V)
    ones = ones_broken(V)
    assert ones @ (B @ ones) == pytest.approx(1.0, rel=1e-13)


def test_gram_norm_of_one_and_homogeneity():
    mesh = build_structured_mesh(1, 1)
    V = build_space(mesh, 1, "broken")
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
    V = build_space(mesh, 1, "broken")
    pr = ProblemSpec(beta=(1.0, 0.5), K=1e-2, sigma=0.0, f=0.0, g=0.0)
    G = assemble_gram(pr, V)
    M = assemble_mass(V)
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.standard_normal(V.n_dofs)
        assert w @ (G @ w) >= w @ (M @ w) - 1e-12


def test_gram_symmetric_positive_definite():
    mesh = build_structured_mesh(3, 3)
    V = build_space(mesh, 1, "broken")
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
    V = build_space(mesh, 1, "broken")
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
    V = build_space(mesh, 1, "broken")
    U = build_space(mesh, 1, "continuous")
    E = trial_to_test_embedding(U, V)
    res = assemble_bh(pr, V) @ (E @ U.interpolate(gx)) - assemble_load(pr, V)
    assert np.abs(res).max() <= 1e-11


def test_continuous_arguments_reduce_to_volume_plus_boundary():
    # for embedded continuous w, v all jump terms vanish; compare the matrix
    # value against an independent quadrature of the jump-free form
    pr = ProblemSpec(beta=(1.0, 0.5), K=0.7, sigma=0.3, f=0.0, g=0.0)
    params = FormParams()
    mesh = build_structured_mesh(2, 2)
    V = build_space(mesh, 1, "broken")
    U = build_space(mesh, 1, "continuous")
    E = trial_to_test_embedding(U, V)
    B = E.T @ assemble_bh(pr, V, params) @ E
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
        eta = sipg_eta(1, 2, pr.k_max, h)
        w = erule.weights * h
        ref += np.sum(w * (params.theta * uq * Kgv_n - Kgu_n * vq + eta * uq * vq))
        if bn < 0:
            ref += np.sum(w * bn * uq * vq)
    assert got == pytest.approx(ref, rel=1e-11)


def test_coercivity_smoke():
    # sigma - div(beta)/2 = 1 > 0 and eta0 = 3: the symmetric part of the dG
    # operator is positive on random nonzero functions
    pr = ProblemSpec(beta=(1.0, 1.0), K=1.0, sigma=1.0, f=0.0, g=0.0)
    mesh = build_structured_mesh(3, 3)
    V = build_space(mesh, 1, "broken")
    B = assemble_bh(pr, V)
    S = 0.5 * (B + B.T)
    rng = np.random.default_rng(123)
    for _ in range(100):
        w = rng.standard_normal(V.n_dofs)
        assert w @ (S @ w) > 0.0


def test_quadrature_degree_guard():
    params = FormParams(volume_degree=1)
    with pytest.raises(ValueError):
        params.vol_degree(2)
    with pytest.raises(ValueError):
        FormParams(face_degree=1).fac_degree(1)


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
    # the broadcast product must reproduce gref . Binv bit for bit
    mesh = jittered_mesh()
    V = build_space(mesh, p, "broken")
    _, _, _, Binv = mesh.affine()
    ec = ElementContext(V, 2 * p + 2)
    _, gref = V.basis.eval(ec.rule.points)
    assert np.array_equal(ec.grads, np.einsum("qlr,erk->eqlk", gref, Binv))
    fc = FaceContext(V, mesh.iface_vertices,
                     [mesh.iface_elements[:, 0], mesh.iface_elements[:, 1]],
                     mesh.iface_h, 2 * p + 3)
    for elems, _, grads in fc.sides:
        _, gref = V.basis.eval(mesh.to_reference(elems[:, None], fc.qp))
        assert np.array_equal(grads, np.einsum("fqlr,frk->fqlk", gref, Binv[elems]))
