"""Assembly of the upwind-SIPG dG bilinear form, its load, and the dG Gram matrix.

The bilinear form combines SIPG diffusion (symmetry switch theta, face
penalty eta) with upwinded advection-reaction; Dirichlet data enters weakly
through the load. The Gram matrix is the polarization of the dG norm

    |w|^2 = |w|^2_{L2} + 1/2 ||bn|^(1/2) w|^2_boundary
          + 1/2 sum_interior |b.n| [[w]]^2 + sum_T h_T |b.grad w|^2_T
          + |K^(1/2) grad w|^2 + sum_faces eta [[w]]^2

so it is symmetric positive definite on every mesh. Sign-dependent inflow
terms are evaluated pointwise at face quadrature nodes, consistent with the
pointwise boundary classification in the mesh module.

Matrices are scipy CSR; rows follow the broken element-major dof order,
loads are plain numpy arrays over the same dofs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fields import scalar_field, vector_field
from .mesh import _freeze, char_tolerance
from .quadrature import edge_rule, triangle_rule


class NumericalBreakdown(RuntimeError):
    """A quantity that must be nonnegative came out significantly negative."""


@dataclass
class ProblemSpec:
    """Coefficients, data, and optional solution bounds of one problem.

    beta, sigma, f are fields on the domain, g a field on the boundary
    (constants or callables on (..., 2) point arrays). K is a constant
    scalar or symmetric positive semi-definite 2x2 tensor. beta_div is the
    analytic divergence of beta (used only by diagnostics).
    """

    beta: object
    K: object
    sigma: object
    f: object
    g: object
    u_min: float | None = None
    u_max: float | None = None
    gamma0: float | None = None
    beta_div: object = 0.0

    def __post_init__(self):
        self.beta_fn = vector_field(self.beta)
        self.sigma_fn = scalar_field(self.sigma)
        self.f_fn = scalar_field(self.f)
        self.g_fn = scalar_field(self.g)
        self.beta_div_fn = scalar_field(self.beta_div)
        K = np.asarray(self.K, dtype=float)
        if K.ndim == 0:
            K = float(K) * np.eye(2)
        if K.shape != (2, 2):
            raise ValueError("K must be a scalar or a 2x2 tensor")
        if not np.allclose(K, K.T, atol=1e-14 * max(1.0, abs(K).max())):
            raise ValueError("K must be symmetric")
        eigs = np.linalg.eigvalsh(K)
        if eigs.min() < -1e-14 * max(1.0, eigs.max()):
            raise ValueError("K must be positive semi-definite")
        self.K_mat = K
        self.k_max = float(max(eigs.max(), 0.0))
        if self.u_min is not None and self.u_max is not None and not self.u_min < self.u_max:
            raise ValueError("u_min must be strictly below u_max")
        if self.has_bounds:
            if self.gamma0 is None or not 0.0 < self.gamma0 < 1.0:
                raise ValueError("gamma0 must lie in (0, 1) when bounds are set")

    @property
    def has_bounds(self):
        return self.u_min is not None or self.u_max is not None


@dataclass
class FormParams:
    """dG discretization parameters.

    theta = -1 is SIPG; eta0 scales the face penalty
    eta(F) = eta0 (p+1)(p+d) K / h_F with d = 2 and K the largest diffusion
    eigenvalue. Quadrature exactness defaults to 2p+2 on elements and 2p+3
    on faces; explicitly configured degrees below 2p are rejected.
    """

    theta: float = -1.0
    eta0: float = 3.0
    volume_degree: int | None = None
    face_degree: int | None = None

    def vol_degree(self, p):
        deg = 2 * p + 2 if self.volume_degree is None else self.volume_degree
        if deg < 2 * p:
            raise ValueError(f"volume quadrature degree {deg} insufficient for p={p}")
        return deg

    def fac_degree(self, p):
        deg = 2 * p + 3 if self.face_degree is None else self.face_degree
        if deg < 2 * p:
            raise ValueError(f"face quadrature degree {deg} insufficient for p={p}")
        return deg


def sipg_eta(p, d, K, h_F, eta0=3.0):
    """SIPG face penalty eta0 (p+1)(p+d) K / h_F."""
    if np.any(np.asarray(h_F) <= 0):
        raise ValueError("face diameter must be positive")
    return eta0 * (p + 1) * (p + d) * K / np.asarray(h_F, dtype=float)


# ----------------------------------------------------------------------
# Shared geometry/trace tables
# ----------------------------------------------------------------------

class ElementContext:
    """Per-element quadrature table: physical points, weights, basis traces.

    All arrays are read-only, because one context is shared by every caller
    on its space (see `element_context`).
    """

    def __init__(self, space, degree, rule=None):
        mesh = space.mesh
        rule = triangle_rule(degree) if rule is None else rule
        B, b0, detB, Binv = mesh.affine()
        self.rule = rule
        self.qp = b0[:, None, :] + np.einsum("eij,qj->eqi", B, rule.points)
        self.dA = rule.weights[None, :] * detB[:, None]
        vals, gref = space.basis.eval(rule.points)
        self.vals = vals                              # (nq, nl)
        self.grads = np.einsum("qlr,erk->eqlk", gref, Binv)  # (ne, nq, nl, 2)
        self.Binv = Binv
        _freeze(self.qp, self.dA, self.vals, self.grads)


class FaceContext:
    """Quadrature points and two-sided basis traces on a set of faces (read-only)."""

    def __init__(self, space, face_vertices, face_elems, face_h, degree):
        mesh = space.mesh
        rule = edge_rule(degree)
        p0 = mesh.vertices[face_vertices[:, 0]]
        p1 = mesh.vertices[face_vertices[:, 1]]
        self.qp = p0[:, None, :] + rule.points[None, :, None] * (p1 - p0)[:, None, :]
        self.w = rule.weights[None, :] * face_h[:, None]
        self.sides = []
        _, _, _, Binv = mesh.affine()
        for elems in face_elems:
            refs = mesh.to_reference(elems[:, None], self.qp)
            vals, gref = space.basis.eval(refs)
            grads = np.einsum("fqlr,frk->fqlk", gref, Binv[elems])
            self.sides.append((elems, *_freeze(vals, grads)))
        _freeze(self.qp, self.w)


def element_context(space, degree):
    """The ElementContext of `space` at `degree`, built once and kept on the space."""
    key = ("element", degree)
    if key not in space.contexts:
        space.contexts[key] = ElementContext(space, degree)
    return space.contexts[key]


def _contexts(space, params):
    """(element, interior-face, boundary-face) contexts of `space`, built once per degree."""
    p = space.p
    degree = params.fac_degree(p)
    key = ("faces", degree)
    if key not in space.contexts:
        mesh = space.mesh
        space.contexts[key] = (
            FaceContext(space, mesh.iface_vertices, [mesh.iface_elements[:, 0],
                                                     mesh.iface_elements[:, 1]],
                        mesh.iface_h, degree),
            FaceContext(space, mesh.bface_vertices, [mesh.bface_elements],
                        mesh.bface_h, degree))
    return (element_context(space, params.vol_degree(p)), *space.contexts[key])


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


def _face_data(problem, ctx, normals):
    """beta.n values and inflow masks at the face quadrature points."""
    bvals = problem.beta_fn(ctx.qp)
    bn = np.einsum("fqd,fd->fq", bvals, normals)
    tol = char_tolerance(bvals)
    return bn, bn < -tol


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

def assemble_bh(problem, V_h, params=None):
    """Assemble the dG form b_h = b_h^diff + b_h^adv on V_h x V_h."""
    params = params or FormParams()
    mesh = V_h.mesh
    ec, fi, fb = _contexts(V_h, params)
    acc = _Accumulator((V_h.n_dofs, V_h.n_dofs))
    K = problem.K_mat
    theta = params.theta

    # volume: (K grad w, grad v) + (beta.grad w + sigma w, v)
    beta = problem.beta_fn(ec.qp)
    sigma = problem.sigma_fn(ec.qp)
    bg = np.einsum("eqd,eqld->eql", beta, ec.grads)
    Kg = np.einsum("dk,eqlk->eqld", K, ec.grads)
    blocks = np.einsum("eq,eqjd,eqid->eij", ec.dA, Kg, ec.grads)
    blocks += np.einsum("eq,eqj,qi->eij", ec.dA,
                        bg + sigma[:, :, None] * ec.vals[None, :, :], ec.vals)
    acc.add_blocks(V_h.dofmap, V_h.dofmap, blocks)

    # interior faces
    if len(mesh.iface_h):
        bn, _ = _face_data(problem, fi, mesh.iface_normals)
        eta = sipg_eta(V_h.p, 2, problem.k_max, mesh.iface_h, params.eta0)
        (em, vm, gm), (ep, vp, gp) = fi.sides
        Kn = [np.einsum("fqld,fd->fql", np.einsum("dk,fqlk->fqld", K, g), mesh.iface_normals)
              for g in (gm, gp)]
        vals = {0: vm, 1: vp}
        dofs = {0: V_h.dofmap[em], 1: V_h.dofmap[ep]}
        sign = {0: 1.0, 1: -1.0}
        absbn = np.abs(bn)
        for A in (0, 1):
            for Bs in (0, 1):
                sA, sB = sign[A], sign[Bs]
                blk = np.einsum("fq,fqj,fqi->fij", fi.w * theta * sB * 0.5, vals[Bs], Kn[A])
                blk -= np.einsum("fq,fqj,fqi->fij", fi.w * sA * 0.5, Kn[Bs], vals[A])
                blk += np.einsum("fq,fqj,fqi->fij", fi.w * (eta[:, None] * sA * sB), vals[Bs], vals[A])
                blk -= np.einsum("fq,fqj,fqi->fij", fi.w * bn * sB * 0.5, vals[Bs], vals[A])
                blk += np.einsum("fq,fqj,fqi->fij", fi.w * absbn * 0.5 * sA * sB, vals[Bs], vals[A])
                acc.add_blocks(dofs[A], dofs[Bs], blk)

    # boundary faces
    if len(mesh.bface_h):
        bn, inflow = _face_data(problem, fb, mesh.bface_normals)
        eta = sipg_eta(V_h.p, 2, problem.k_max, mesh.bface_h, params.eta0)
        (eb, vb, gb), = fb.sides
        Kn = np.einsum("fqld,fd->fql", np.einsum("dk,fqlk->fqld", K, gb), mesh.bface_normals)
        dofs = V_h.dofmap[eb]
        blk = np.einsum("fq,fqj,fqi->fij", fb.w * theta, vb, Kn)
        blk -= np.einsum("fq,fqj,fqi->fij", fb.w, Kn, vb)
        blk += np.einsum("fq,fqj,fqi->fij", fb.w * eta[:, None], vb, vb)
        blk += np.einsum("fq,fqj,fqi->fij", fb.w * np.where(inflow, bn, 0.0), vb, vb)
        acc.add_blocks(dofs, dofs, blk)

    return acc.tocsr()


def assemble_gram(problem, V_h, params=None):
    """Assemble the Gram matrix of the dG inner product (polarized norm)."""
    params = params or FormParams()
    mesh = V_h.mesh
    ec, fi, fb = _contexts(V_h, params)
    acc = _Accumulator((V_h.n_dofs, V_h.n_dofs))
    K = problem.K_mat

    beta = problem.beta_fn(ec.qp)
    bg = np.einsum("eqd,eqld->eql", beta, ec.grads)
    Kg = np.einsum("dk,eqlk->eqld", K, ec.grads)
    blocks = np.einsum("eq,qj,qi->eij", ec.dA, ec.vals, ec.vals)
    blocks += np.einsum("eq,eqj,eqi->eij", ec.dA * mesh.h_elem[:, None], bg, bg)
    blocks += np.einsum("eq,eqjd,eqid->eij", ec.dA, Kg, ec.grads)
    acc.add_blocks(V_h.dofmap, V_h.dofmap, blocks)

    if len(mesh.iface_h):
        bn, _ = _face_data(problem, fi, mesh.iface_normals)
        eta = sipg_eta(V_h.p, 2, problem.k_max, mesh.iface_h, params.eta0)
        coef = fi.w * (0.5 * np.abs(bn) + eta[:, None])
        (em, vm, _), (ep, vp, _) = fi.sides
        vals = {0: vm, 1: vp}
        dofs = {0: V_h.dofmap[em], 1: V_h.dofmap[ep]}
        sign = {0: 1.0, 1: -1.0}
        for A in (0, 1):
            for Bs in (0, 1):
                blk = np.einsum("fq,fqj,fqi->fij", coef * sign[A] * sign[Bs], vals[Bs], vals[A])
                acc.add_blocks(dofs[A], dofs[Bs], blk)

    if len(mesh.bface_h):
        bn, _ = _face_data(problem, fb, mesh.bface_normals)
        eta = sipg_eta(V_h.p, 2, problem.k_max, mesh.bface_h, params.eta0)
        coef = fb.w * (0.5 * np.abs(bn) + eta[:, None])
        (eb, vb, _), = fb.sides
        blk = np.einsum("fq,fqj,fqi->fij", coef, vb, vb)
        acc.add_blocks(V_h.dofmap[eb], V_h.dofmap[eb], blk)

    G = acc.tocsr()
    return 0.5 * (G + G.T)  # strip floating-point asymmetry


def assemble_load(problem, V_h, params=None):
    """Assemble the load: source, weak Dirichlet, and inflow boundary data."""
    params = params or FormParams()
    mesh = V_h.mesh
    ec, _, fb = _contexts(V_h, params)
    L = np.zeros(V_h.n_dofs)
    K = problem.K_mat

    fvals = problem.f_fn(ec.qp)
    local = np.einsum("eq,qi->ei", ec.dA * fvals, ec.vals)
    np.add.at(L, V_h.dofmap.ravel(), local.ravel())

    if len(mesh.bface_h):
        bn, inflow = _face_data(problem, fb, mesh.bface_normals)
        eta = sipg_eta(V_h.p, 2, problem.k_max, mesh.bface_h, params.eta0)
        g = problem.g_fn(fb.qp)
        (eb, vb, gb), = fb.sides
        Kn = np.einsum("fqld,fd->fql", np.einsum("dk,fqlk->fqld", K, gb), mesh.bface_normals)
        coef = fb.w * g * (eta[:, None] + np.where(inflow, bn, 0.0))
        local = np.einsum("fq,fqi->fi", coef, vb)
        local += np.einsum("fq,fqi->fi", fb.w * g * params.theta, Kn)
        np.add.at(L, V_h.dofmap[eb].ravel(), local.ravel())
    return L


def assemble_mass(space, degree=None):
    """Element-wise L2 mass matrix of a space (broken or continuous)."""
    degree = 2 * space.p if degree is None else degree
    ec = element_context(space, degree)
    acc = _Accumulator((space.n_dofs, space.n_dofs))
    blocks = np.einsum("eq,qj,qi->eij", ec.dA, ec.vals, ec.vals)
    acc.add_blocks(space.dofmap, space.dofmap, blocks)
    return acc.tocsr()


def vh_norm(coeffs, G):
    """dG norm sqrt(c' G c); raises on significantly negative quadratic forms."""
    coeffs = np.asarray(coeffs, dtype=float)
    q = float(coeffs @ (G @ coeffs))
    scale = max(1.0, float(coeffs @ coeffs))
    if q < -1e-12 * scale:
        raise NumericalBreakdown(f"Gram quadratic form is negative: {q}")
    return float(np.sqrt(max(q, 0.0)))
