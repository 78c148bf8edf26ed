"""Assembly of the upwind-SIPG dG bilinear form, its load, and the dG Gram matrix.

The bilinear form combines SIPG diffusion with upwinded advection-reaction;
Dirichlet data enters weakly through the load. The discretization is fixed,
not configurable: symmetric interior penalty (THETA = -1), face penalty
eta(F) = ETA0 (p+1)(p+2) K / h_F with ETA0 = 3 and K the largest diffusion
eigenvalue, and quadrature exact to degree 2p+2 on elements and 2p+3 on
faces (`_contexts`). The Gram matrix is the polarization of the dG norm

    |w|^2 = |w|^2_{L2} + 1/2 ||bn|^(1/2) w|^2_boundary
          + 1/2 sum_interior |b.n| [[w]]^2 + sum_T h_T |b.grad w|^2_T
          + |K^(1/2) grad w|^2 + sum_faces eta [[w]]^2

so it is symmetric positive definite on every mesh. `gram_blocks` is the one
definition of that norm: the Gram matrix scatters its local blocks and the
error indicators take quadratic forms of them. Sign-dependent inflow terms
are evaluated pointwise at face quadrature nodes (`_face_data` is the one
inflow/outflow classification).

Matrices are scipy CSR; rows follow the broken element-major dof order,
loads are plain numpy arrays over the same dofs.

Kernel convention, shared by `penalty`, `report`, `adapt`, `fespace` and
`mesh`: sums over quadrature points are batched matrix products a^T (w b)
(a 2-D GEMM on a reshaped view where one factor is shared by all elements);
per-element 2x2 maps and dot products over a length-2 axis are two-term
broadcasts (`_matmul2`, `_dot2`); products with the constant K are one GEMM
on the (..., 2) rows; scatters into global vectors are `np.bincount`. No
kernel goes through einsum.
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
    scalar or symmetric positive semi-definite 2x2 tensor.
    """

    beta: object
    K: object
    sigma: object
    f: object
    g: object
    u_min: float | None = None
    u_max: float | None = None
    gamma0: float | None = None

    def __post_init__(self):
        self.beta_fn = vector_field(self.beta)
        self.sigma_fn = scalar_field(self.sigma)
        self.f_fn = scalar_field(self.f)
        self.g_fn = scalar_field(self.g)
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


THETA = -1.0    # symmetry switch of the diffusion face terms: SIPG
ETA0 = 3.0      # scale of the SIPG face penalty


def sipg_eta(p, d, K, h_F):
    """SIPG face penalty ETA0 (p+1)(p+d) K / h_F."""
    if np.any(np.asarray(h_F) <= 0):
        raise ValueError("face diameter must be positive")
    return ETA0 * (p + 1) * (p + d) * K / np.asarray(h_F, dtype=float)


# ----------------------------------------------------------------------
# Shared geometry/trace tables
# ----------------------------------------------------------------------

def _matmul2(a, b):
    """a @ b over a contracted axis of length 2, e.g. gradients times Jacobians.

    A two-term broadcast product: with a per-element 2x2 factor such as the
    inverse Jacobians it is several times faster than the equivalent einsum
    or batched matmul. A constant factor such as K is faster as one GEMM on
    the (..., 2) rows.
    """
    return a[..., 0, None] * b[..., 0, :] + a[..., 1, None] * b[..., 1, :]


def _dot2(a, b):
    """Broadcast dot product over a trailing axis of length 2, e.g. beta.grad v."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


class ElementContext:
    """Per-element quadrature table: physical points, weights, basis traces.

    All arrays are read-only, because the volume context is shared by every
    caller on its space (see `volume_context`).
    """

    def __init__(self, space, degree, rule=None):
        mesh = space.mesh
        rule = triangle_rule(degree) if rule is None else rule
        B, b0, detB, Binv = mesh.affine()
        self.rule = rule
        self.qp = b0[:, None, :] + rule.points @ B.swapaxes(1, 2)
        self.dA = rule.weights[None, :] * detB[:, None]
        vals, gref = space.basis.eval(rule.points)
        self.vals = vals                              # (nq, nl)
        self.grads = _matmul2(gref, Binv[:, None, None])  # (ne, nq, nl, 2)
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
            grads = _matmul2(gref, Binv[elems][:, None, None])
            self.sides.append((elems, *_freeze(vals, grads)))
        _freeze(self.qp, self.w)


def volume_context(space):
    """The degree-(2p+2) ElementContext of `space`, built once and kept on the space."""
    if "element" not in space.contexts:
        space.contexts["element"] = ElementContext(space, 2 * space.p + 2)
    return space.contexts["element"]


def _contexts(space):
    """(element, interior-face, boundary-face) contexts of `space`, built once.

    Faces use the degree-(2p+3) edge rule.
    """
    if "faces" not in space.contexts:
        mesh = space.mesh
        degree = 2 * space.p + 3
        space.contexts["faces"] = (
            FaceContext(space, mesh.iface_vertices, [mesh.iface_elements[:, 0],
                                                     mesh.iface_elements[:, 1]],
                        mesh.iface_h, degree),
            FaceContext(space, mesh.bface_vertices, [mesh.bface_elements],
                        mesh.bface_h, degree))
    return (volume_context(space), *space.contexts["faces"])


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
    bn = _dot2(bvals, normals[:, None])
    tol = char_tolerance(bvals)
    return bn, bn < -tol


def _diffusion_blocks(ec, K):
    """Element blocks (K grad phi_j, grad phi_i): one product over (q, d) rows."""
    ne, nq, nl, _ = ec.grads.shape
    g = ec.grads.swapaxes(2, 3).reshape(ne, 2 * nq, nl)
    Kg = (ec.grads.reshape(-1, 2) @ K.T).reshape(ec.grads.shape)
    Kg = Kg.swapaxes(2, 3).reshape(ne, 2 * nq, nl)
    return g.swapaxes(1, 2) @ (np.repeat(ec.dA[:, :, None], 2, axis=1) * Kg)


def _boundary_traces(problem, V_h, fb):
    """Boundary-face elements, traces v and K grad v.n, and the weak
    Dirichlet test function THETA K grad v.n + (eta + [beta.n]_inflow) v."""
    mesh = V_h.mesh
    bn, inflow = _face_data(problem, fb, mesh.bface_normals)
    eta = sipg_eta(V_h.p, 2, problem.k_max, mesh.bface_h)
    (eb, vb, gb), = fb.sides
    Kn = _dot2(gb, (mesh.bface_normals @ problem.K_mat)[:, None, None])
    test = THETA * Kn + (eta[:, None] + np.where(inflow, bn, 0.0))[:, :, None] * vb
    return eb, vb, Kn, test


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

def assemble_bh(problem, V_h):
    """Assemble the dG form b_h = b_h^diff + b_h^adv on V_h x V_h.

    Block rows are test dofs and columns trial dofs; interior faces form one
    block over the [minus, plus] dofs, as in `gram_blocks`.
    """
    mesh = V_h.mesh
    ec, fi, fb = _contexts(V_h)
    acc = _Accumulator((V_h.n_dofs, V_h.n_dofs))

    # volume: (K grad w, grad v) + (beta.grad w + sigma w, v)
    adv = _dot2(problem.beta_fn(ec.qp)[:, :, None], ec.grads)
    adv += problem.sigma_fn(ec.qp)[:, :, None] * ec.vals
    blocks = _diffusion_blocks(ec, problem.K_mat)
    blocks += ec.vals.T @ (ec.dA[:, :, None] * adv)
    acc.add_blocks(V_h.dofmap, V_h.dofmap, blocks)

    # interior faces: P^T (w jump) - jump^T (w avg flux) with
    # P = THETA avg flux + (eta + |b.n|/2) jump - (b.n) mean
    if len(mesh.iface_h):
        bn, _ = _face_data(problem, fi, mesh.iface_normals)
        eta = sipg_eta(V_h.p, 2, problem.k_max, mesh.iface_h)
        (em, vm, gm), (ep, vp, gp) = fi.sides
        Kn = (mesh.iface_normals @ problem.K_mat)[:, None, None]
        jump = np.concatenate([vm, -vp], axis=-1)
        avg = 0.5 * np.concatenate([_dot2(gm, Kn), _dot2(gp, Kn)], axis=-1)
        P = THETA * avg + (eta[:, None] + 0.5 * np.abs(bn))[:, :, None] * jump
        P -= 0.5 * bn[:, :, None] * np.concatenate([vm, vp], axis=-1)
        w = fi.w[:, :, None]
        dofs = np.hstack([V_h.dofmap[em], V_h.dofmap[ep]])
        blocks = P.swapaxes(1, 2) @ (w * jump)
        blocks -= jump.swapaxes(1, 2) @ (w * avg)
        acc.add_blocks(dofs, dofs, blocks)

    # boundary faces
    if len(mesh.bface_h):
        eb, vb, Kn, test = _boundary_traces(problem, V_h, fb)
        w = fb.w[:, :, None]
        dofs = V_h.dofmap[eb]
        acc.add_blocks(dofs, dofs, test.swapaxes(1, 2) @ (w * vb) - vb.swapaxes(1, 2) @ (w * Kn))

    return acc.tocsr()


def _norm_face_weight(problem, space, ctx, normals, face_h):
    """Weights w (|beta.n|/2 + eta) of the dG norm's face terms at ctx's points."""
    bn, _ = _face_data(problem, ctx, normals)
    eta = sipg_eta(space.p, 2, problem.k_max, face_h)
    return ctx.w * (0.5 * np.abs(bn) + eta[:, None])


def gram_blocks(problem, V_h):
    """Local blocks of the dG norm: a list of (dofs, blocks, owners) groups.

    dofs (n, m) are the V_h dofs of each block, blocks (n, m, m) the local
    Gram matrices, and owners a list of (elements, share) pairs that split
    each block's quadratic form among elements. The groups are the element
    blocks, the interior-face blocks over the [minus, plus] dofs (the norm of
    the jump [v-, -v+]; half to each neighbor), and the boundary-face blocks.
    """
    mesh = V_h.mesh
    ec, fi, fb = _contexts(V_h)
    dA = ec.dA[:, :, None]
    bg = _dot2(problem.beta_fn(ec.qp)[:, :, None], ec.grads)
    blocks = ec.vals.T @ (dA * ec.vals)
    blocks += bg.swapaxes(1, 2) @ (mesh.h_elem[:, None, None] * dA * bg)
    blocks += _diffusion_blocks(ec, problem.K_mat)
    groups = [(V_h.dofmap, blocks, [(np.arange(mesh.n_elements), 1.0)])]

    coef = _norm_face_weight(problem, V_h, fi, mesh.iface_normals, mesh.iface_h)
    (em, vm, _), (ep, vp, _) = fi.sides
    jump = np.concatenate([vm, -vp], axis=-1)
    groups.append((np.hstack([V_h.dofmap[em], V_h.dofmap[ep]]),
                   jump.swapaxes(1, 2) @ (coef[:, :, None] * jump),
                   [(em, 0.5), (ep, 0.5)]))

    coef = _norm_face_weight(problem, V_h, fb, mesh.bface_normals, mesh.bface_h)
    (eb, vb, _), = fb.sides
    groups.append((V_h.dofmap[eb], vb.swapaxes(1, 2) @ (coef[:, :, None] * vb),
                   [(eb, 1.0)]))
    return groups


def assemble_gram(problem, V_h):
    """Assemble the Gram matrix of the dG inner product (polarized norm)."""
    acc = _Accumulator((V_h.n_dofs, V_h.n_dofs))
    for dofs, blocks, _ in gram_blocks(problem, V_h):
        acc.add_blocks(dofs, dofs, blocks)
    G = acc.tocsr()
    return 0.5 * (G + G.T)  # strip floating-point asymmetry


def assemble_load(problem, V_h):
    """Assemble the load: source, weak Dirichlet, and inflow boundary data."""
    mesh = V_h.mesh
    ec, _, fb = _contexts(V_h)
    local = (ec.dA * problem.f_fn(ec.qp)) @ ec.vals
    L = np.bincount(V_h.dofmap.ravel(), local.ravel(), minlength=V_h.n_dofs)

    if len(mesh.bface_h):
        eb, _, _, test = _boundary_traces(problem, V_h, fb)
        local = ((fb.w * problem.g_fn(fb.qp))[:, None, :] @ test)[:, 0]
        L += np.bincount(V_h.dofmap[eb].ravel(), local.ravel(), minlength=V_h.n_dofs)
    return L


def assemble_mass(space):
    """Element-wise L2 mass matrix of a space (broken or continuous).

    Its degree-2p table is not kept on the space: nothing else reads it.
    """
    ec = ElementContext(space, 2 * space.p)
    acc = _Accumulator((space.n_dofs, space.n_dofs))
    acc.add_blocks(space.dofmap, space.dofmap, ec.vals.T @ (ec.dA[:, :, None] * ec.vals))
    return acc.tocsr()


def vh_norm(coeffs, G):
    """dG norm sqrt(c' G c); raises on significantly negative quadratic forms."""
    coeffs = np.asarray(coeffs, dtype=float)
    q = float(coeffs @ (G @ coeffs))
    scale = max(1.0, float(coeffs @ coeffs))
    if q < -1e-12 * scale:
        raise NumericalBreakdown(f"Gram quadratic form is negative: {q}")
    return float(np.sqrt(max(q, 0.0)))
