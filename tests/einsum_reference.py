"""Einsum versions of the level kernels in `boundfem`.

These are the plain `np.einsum` formulations that the batched-product
kernels in `forms`, `penalty`, `report`, `adapt`, `fespace` and `mesh` must
reproduce up to round-off; only the tests use them. Each function takes the
same inputs as the library function it mirrors and reads the library's
shared quadrature/geometry tables, so only the arithmetic differs. The
library forms no physical basis gradients; the references form them here
from the tables' reference gradients and inverse Jacobians
(`element_grads`, `face_grads`). Two test helpers close the module:
`nodal_values`, the nodal interpolant, and `penalty_P`, P(u) alone.
"""

import numpy as np

import scipy.sparse as sp

from boundfem.forms import (THETA, ElementContext, FaceContext, _contexts,
                            _norm_face_weight, gram_blocks, sipg_eta)
from boundfem.fields import scalar_field, vector_field
from boundfem.mesh import char_tolerance
from boundfem.penalty import nodal_rule
from boundfem.quadrature import triangle_rule


class _Accumulator:
    """COO triplet collector for a sparse matrix of fixed shape."""

    def __init__(self, shape):
        self.shape = shape
        self.rows = []
        self.cols = []
        self.data = []

    def add_blocks(self, row_dofs, col_dofs, blocks):
        """row_dofs (n, ni), col_dofs (n, nj), blocks (n, ni, nj)."""
        n, ni, nj = blocks.shape
        self.rows.append(np.broadcast_to(row_dofs[:, :, None], (n, ni, nj)).ravel())
        self.cols.append(np.broadcast_to(col_dofs[:, None, :], (n, ni, nj)).ravel())
        self.data.append(blocks.ravel())

    def tocsr(self):
        if not self.data:
            return sp.csr_matrix(self.shape)
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        data = np.concatenate(self.data)
        return sp.coo_matrix((data, (rows, cols)), shape=self.shape).tocsr()


def physical_points(mesh, ref_points):
    """ElementContext.qp: the affine images of shared reference points."""
    B, b0, _, _ = mesh.affine()
    return b0[:, None, :] + np.einsum("eij,qj->eqi", B, ref_points)


def element_grads(ec):
    """Physical basis gradients (ne, nq, nl, 2) at an ElementContext's points."""
    return np.einsum("qlr,erk->eqlk", ec.gref, ec.Binv)


def face_grads(fc, side):
    """Physical basis gradients (nf, nq, nl, 2) on one side of a FaceContext."""
    elems, _, code = side
    return np.einsum("fqlr,frk->fqlk", fc.gref[code], fc.Binv[elems])


def to_reference(mesh, elems, points):
    _, b0, _, Binv = mesh.affine()
    return np.einsum("...ij,...j->...i", Binv[elems], points - b0[elems])


def face_data(problem, ctx, normals):
    bvals = problem.beta_fn(ctx.qp)
    bn = np.einsum("fqd,fd->fq", bvals, normals)
    return bn, bn < -char_tolerance(bvals)


def assemble_bh(problem, V_h, nonzero=False):
    """b_h as einsum terms; with `nonzero`, every factor of every term is
    replaced by its nonzero indicator, which gives the structural pattern.

    An entry of that pattern is kept iff some term has no zero factor, so a
    zero trace (a shape function whose node lies off the face) or a zero
    K grad v.n removes it, while a sum over quadrature points that cancels
    analytically does not.
    """
    indicator = (lambda x: (np.asarray(x) != 0).astype(float)) if nonzero else np.asarray

    def term(subscripts, *factors):
        return np.einsum(subscripts, *map(indicator, factors))

    mesh = V_h.mesh
    ec, fi, fb = _contexts(V_h)
    acc = _Accumulator((V_h.n_dofs, V_h.n_dofs))
    K = problem.K_mat
    theta = THETA

    beta = problem.beta_fn(ec.qp)
    sigma = problem.sigma_fn(ec.qp)
    grads = element_grads(ec)
    bg = np.einsum("eqd,eqld->eql", beta, grads)
    Kg = np.einsum("dk,eqlk->eqld", K, grads)
    blocks = term("eq,eqjd,eqid->eij", ec.dA, Kg, grads)
    blocks += term("eq,eqj,qi->eij", ec.dA, bg + sigma[:, :, None] * ec.vals[None, :, :], ec.vals)
    acc.add_blocks(V_h.dofmap, V_h.dofmap, blocks)

    if len(mesh.iface_h):
        bn, _ = face_data(problem, fi, mesh.iface_normals)
        eta = sipg_eta(V_h.p, problem.k_max, mesh.iface_h)
        (em, vm, _), (ep, vp, _) = fi.sides
        Kn = [np.einsum("fqld,fd->fql", np.einsum("dk,fqlk->fqld", K, face_grads(fi, side)),
                        mesh.iface_normals) for side in fi.sides]
        vals = {0: vm, 1: vp}
        dofs = {0: V_h.dofmap[em], 1: V_h.dofmap[ep]}
        sign = {0: 1.0, 1: -1.0}
        absbn = np.abs(bn)
        for A in (0, 1):
            for Bs in (0, 1):
                sA, sB = sign[A], sign[Bs]
                blk = term("fq,fqj,fqi->fij", fi.w * theta * sB * 0.5, vals[Bs], Kn[A])
                blk += term("fq,fqj,fqi->fij", -fi.w * sA * 0.5, Kn[Bs], vals[A])
                blk += term("fq,fqj,fqi->fij", fi.w * (eta[:, None] * sA * sB),
                            vals[Bs], vals[A])
                blk += term("fq,fqj,fqi->fij", -fi.w * bn * sB * 0.5, vals[Bs], vals[A])
                blk += term("fq,fqj,fqi->fij", fi.w * absbn * 0.5 * sA * sB,
                            vals[Bs], vals[A])
                acc.add_blocks(dofs[A], dofs[Bs], blk)

    if len(mesh.bface_h):
        bn, inflow = face_data(problem, fb, mesh.bface_normals)
        eta = sipg_eta(V_h.p, problem.k_max, mesh.bface_h)
        (eb, vb, _), = fb.sides
        gb = face_grads(fb, fb.sides[0])
        Kn = np.einsum("fqld,fd->fql", np.einsum("dk,fqlk->fqld", K, gb), mesh.bface_normals)
        dofs = V_h.dofmap[eb]
        blk = term("fq,fqj,fqi->fij", fb.w * theta, vb, Kn)
        blk += term("fq,fqj,fqi->fij", -fb.w, Kn, vb)
        blk += term("fq,fqj,fqi->fij", fb.w * eta[:, None], vb, vb)
        blk += term("fq,fqj,fqi->fij", fb.w * np.where(inflow, bn, 0.0), vb, vb)
        acc.add_blocks(dofs, dofs, blk)
    return acc.tocsr()


def assemble_gram(problem, V_h):
    """forms.assemble_gram as COO triplets of `gram_blocks`, symmetrized as 0.5 (G + G')."""
    acc = _Accumulator((V_h.n_dofs, V_h.n_dofs))
    for elems, blocks in gram_blocks(problem, V_h):
        dofs = V_h.dofmap[elems].reshape(blocks.shape[:2])
        acc.add_blocks(dofs, dofs, blocks)
    G = acc.tocsr()
    return 0.5 * (G + G.T)


def assemble_load(problem, V_h):
    mesh = V_h.mesh
    ec, _, fb = _contexts(V_h)
    L = np.zeros(V_h.n_dofs)
    K = problem.K_mat

    local = np.einsum("eq,qi->ei", ec.dA * problem.f_fn(ec.qp), ec.vals)
    np.add.at(L, V_h.dofmap.ravel(), local.ravel())
    if len(mesh.bface_h):
        bn, inflow = face_data(problem, fb, mesh.bface_normals)
        eta = sipg_eta(V_h.p, problem.k_max, mesh.bface_h)
        g = problem.g_fn(fb.qp)
        (eb, vb, _), = fb.sides
        gb = face_grads(fb, fb.sides[0])
        Kn = np.einsum("fqld,fd->fql", np.einsum("dk,fqlk->fqld", K, gb), mesh.bface_normals)
        coef = fb.w * g * (eta[:, None] + np.where(inflow, bn, 0.0))
        local = np.einsum("fq,fqi->fi", coef, vb)
        local += np.einsum("fq,fqi->fi", fb.w * g * THETA, Kn)
        np.add.at(L, V_h.dofmap[eb].ravel(), local.ravel())
    return L


def assemble_mass(space):
    ec = ElementContext(space, 2 * space.p)
    acc = _Accumulator((space.n_dofs, space.n_dofs))
    acc.add_blocks(space.dofmap, space.dofmap,
                   np.einsum("eq,qj,qi->eij", ec.dA, ec.vals, ec.vals))
    return acc.tocsr()


def penalty_context(op, quadrature):
    """The quadrature table PenaltyOperator evaluates on (it keeps none of it)."""
    if quadrature == "nodal":
        return ElementContext(op.U_h, 1, rule=nodal_rule())
    return ElementContext(op.U_h, 2 * op.U_h.p + 6)


def strong_basis(problem, space, ec):
    """penalty._strong_tables' A_basis: A applied to every basis function at ec's points."""
    A = np.einsum("eqd,eqld->eql", problem.beta_fn(ec.qp), element_grads(ec))
    A += problem.sigma_fn(ec.qp)[:, :, None] * ec.vals[None, :, :]
    if space.p >= 2 and problem.k_max > 0.0:
        href = space.basis.eval_hessians(ec.rule.points)
        Hr = np.empty(href.shape[:-1] + (2, 2))
        Hr[..., 0, 0] = href[..., 0]
        Hr[..., 0, 1] = Hr[..., 1, 0] = href[..., 1]
        Hr[..., 1, 1] = href[..., 2]
        Hp = np.einsum("eri,qlrs,esj->eqlij", ec.Binv, Hr, ec.Binv)
        A -= np.einsum("ij,eqlij->eql", problem.K_mat, Hp)
    return A


def strong_residual(problem, space, ec, u_coeffs):
    c = u_coeffs[space.dofmap]
    return np.einsum("el,eql->eq", c, strong_basis(problem, space, ec)) - problem.f_fn(ec.qp)


def penalty_terms(problem, op, quadrature, u_coeffs, upper_sign=-1.0):
    """PenaltyOperator._terms plus each argument's slope in u: (sign, arg, u_coef) per bound.

    The operator's upper term enters with -1; `upper_sign=+1` gives it as the
    paper prints it.
    """
    ec = penalty_context(op, quadrature)
    uvals = np.einsum("el,ql->eq", u_coeffs[op.U_h.dofmap], ec.vals)
    s = strong_residual(problem, op.U_h, ec, u_coeffs)
    g = op.gammas[:, None]
    terms = []
    if problem.u_min is not None:
        terms.append((+1.0, (uvals - problem.u_min) - g * s, +1.0))
    if problem.u_max is not None:
        terms.append((upper_sign, (problem.u_max - uvals) - g * s, -1.0))
    return terms


def penalty_residual(problem, op, quadrature, u_coeffs, upper_sign=-1.0):
    out = np.zeros(op.V_h.n_dofs)
    for sign, arg, _ in penalty_terms(problem, op, quadrature, u_coeffs, upper_sign):
        xi = 0.5 * (arg - np.abs(arg))
        w = sign * op.dA * op.inv_gamma[:, None] * xi
        np.add.at(out, op.V_h.dofmap.ravel(), np.einsum("eq,qi->ei", w, op.test_vals).ravel())
    return out


def penalty_jacobian(problem, op, quadrature, u_coeffs, upper_sign=-1.0):
    acc = _Accumulator((op.V_h.n_dofs, op.U_h.n_dofs))
    A_basis = strong_basis(problem, op.U_h, penalty_context(op, quadrature))
    for sign, arg, u_coef in penalty_terms(problem, op, quadrature, u_coeffs, upper_sign):
        ind = 0.5 * (1.0 - np.sign(arg))
        dz = u_coef * np.broadcast_to(op.test_vals[None, :, :], A_basis.shape).copy()
        dz -= op.gammas[:, None, None] * A_basis
        w = sign * op.dA * op.inv_gamma[:, None] * ind
        acc.add_blocks(op.V_h.dofmap, op.U_h.dofmap,
                       np.einsum("eq,eqj,qi->eij", w, dz, op.test_vals))
    return acc.tocsr()


def penalty_adjoint(problem, op, quadrature, u_coeffs, eps, upper_sign=-1.0):
    """dP(u)' eps over U_h dofs, per bound and without assembling dP(u)."""
    A_basis = strong_basis(problem, op.U_h, penalty_context(op, quadrature))
    out = np.zeros(op.U_h.n_dofs)
    eps_q = np.einsum("el,ql->eq", eps[op.V_h.dofmap], op.test_vals)
    for sign, arg, u_coef in penalty_terms(problem, op, quadrature, u_coeffs, upper_sign):
        a = sign * op.dA * op.inv_gamma[:, None] * 0.5 * (1.0 - np.sign(arg)) * eps_q
        local = u_coef * np.einsum("eq,qj->ej", a, op.test_vals)
        local -= op.gammas[:, None] * np.einsum("eq,eqj->ej", a, A_basis)
        np.add.at(out, op.U_h.dofmap.ravel(), local.ravel())
    return out


def extrema(space, coeffs):
    ref_vals, _ = space.basis.eval(triangle_rule(2 * space.p + 2).points)
    vals = np.einsum("el,ql->eq", coeffs[space.dofmap], ref_vals)
    return float(min(vals.min(), coeffs.min())), float(max(vals.max(), coeffs.max()))


def error_norms(problem, U_h, u_coeffs, exact, exact_grad=None):
    mesh = U_h.mesh
    degree = 2 * U_h.p + 4
    exact = scalar_field(exact)
    ec = ElementContext(U_h, degree)
    c = u_coeffs[U_h.dofmap]
    diff = np.einsum("el,ql->eq", c, ec.vals) - exact(ec.qp)
    err_l2 = float(np.sqrt(np.einsum("eq,eq->", ec.dA, diff ** 2)))
    if exact_grad is None:
        return err_l2, None
    gdiff = np.einsum("el,eqlk->eqk", c, element_grads(ec)) - vector_field(exact_grad)(ec.qp)
    bg = np.einsum("eqd,eqd->eq", problem.beta_fn(ec.qp), gdiff)
    Kg = np.einsum("dk,eqk->eqd", problem.K_mat, gdiff)
    err2 = np.einsum("eq,eq->", ec.dA, diff ** 2)
    err2 += np.einsum("e,eq->", mesh.h_elem, ec.dA * bg ** 2)
    err2 += np.einsum("eq,eqd,eqd->", ec.dA, Kg, gdiff)
    fb = FaceContext(U_h, "boundary", degree)
    (eb, vb, _), = fb.sides
    bdiff = np.einsum("fl,fql->fq", u_coeffs[U_h.dofmap[eb]], vb) - exact(fb.qp)
    w = _norm_face_weight(problem, U_h, fb, mesh.bface_normals, mesh.bface_h)
    err2 += np.einsum("fq,fq->", w, bdiff ** 2)
    return err_l2, float(np.sqrt(max(err2, 0.0)))


def indicators_squared(problem, V_h, eps_coeffs):
    """error_indicators(...).squared."""
    ind2 = np.zeros(V_h.mesh.n_elements)
    for elems, blocks in gram_blocks(problem, V_h):
        c = eps_coeffs[V_h.dofmap[elems].reshape(blocks.shape[:2])]
        q = np.einsum("fi,fij,fj->f", c, blocks, c)
        for col in elems.T:
            np.add.at(ind2, col, q / elems.shape[1])
    return np.maximum(ind2, 0.0)


def prolong(u_coeffs, old_space, new_space):
    old_mesh, new_mesh = old_space.mesh, new_space.mesh
    nodes = physical_points(new_mesh, new_space.basis.nodes)
    parents = new_mesh.parent_elements
    vals, _ = old_space.basis.eval(to_reference(old_mesh, parents[:, None], nodes))
    local = np.einsum("el,eql->eq", u_coeffs[old_space.dofmap[parents]], vals)
    out = np.empty(new_space.n_dofs)
    out[new_space.dofmap.ravel()] = local.ravel()
    return out


def eval_cells(space, coeffs, elems, ref_points):
    """Values (ne, nq) of the field `coeffs` on elements `elems` at shared reference points."""
    vals, _ = space.basis.eval(ref_points)
    return np.einsum("el,ql->eq", coeffs[space.dofmap[elems]], vals)


def nodal_values(space, fn):
    """Nodal interpolant of the scalar field `fn` on `space`: its values at
    the physical Lagrange node of every dof."""
    coords = np.empty((space.n_dofs, 2))
    coords[space.dofmap.ravel()] = space.mesh.to_physical(space.basis.nodes).reshape(-1, 2)
    return scalar_field(fn)(coords)


def penalty_P(op, u):
    """P(u) over V_h dofs: `PenaltyOperator.residual` at eps = 0."""
    return op.residual(u, np.zeros(op.V_h.n_dofs))[0]
