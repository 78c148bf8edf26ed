"""Assembly of the upwind-SIPG dG form, its load, the dG Gram matrix and the mass.

The bilinear form combines SIPG diffusion with upwinded advection-reaction;
Dirichlet data enters weakly through the load. The discretization is fixed,
because no caller ever chose another: symmetric interior penalty (THETA =
-1), face penalty eta(F) = ETA0 (p+1)(p+2) K / h_F with ETA0 = 3 and K the
largest diffusion eigenvalue, and quadrature exact to degree 2p+2 on
elements and 2p+3 on faces (`_contexts`). Face traces come from the
reference-edge tables (`ReferenceBasis.edge_traces`), where a shape function
whose node lies off the face is exactly 0.0, so face blocks keep no
round-off couplings. Inflow and outflow are classified pointwise at the face
quadrature nodes (`_face_data`).

The Gram matrix is the polarization of the dG norm

    |w|^2 = |w|^2_{L2} + 1/2 ||bn|^(1/2) w|^2_boundary
          + 1/2 sum_interior |b.n| [[w]]^2 + sum_T h_T |b.grad w|^2_T
          + |K^(1/2) grad w|^2 + sum_faces eta [[w]]^2

so it is symmetric positive definite on every mesh. `gram_blocks` is the one
definition of that norm: the Gram matrix scatters its local blocks and the
error indicators take quadratic forms of them.

Matrices are scipy CSR, with V_h rows in the broken element-major dof order;
loads are numpy arrays over the same dofs. Maps are affine and K is constant, so
blocks are det B times reference tensors of the rule (`ElementContext`) and
no kernel forms physical basis gradients. V_h x V_h operators are summed as
element-pair blocks straight into block-sparse data (`_block_pattern`,
`_block_matrix`) and converted to CSR once; block-diagonal operators (the
mass, the penalty Jacobian) gather their space through its one-hot dofmap
matrix (`fespace.gather_matrix`). No kernel goes through einsum.

Tables and their lifetimes. Spaces of one degree share one
`ReferenceBasis`, which tabulates its values and reference gradients, or its
reference-edge traces, once per quadrature rule and keeps them read-only for
the process (`ReferenceBasis.tabulate`); the element and face contexts and
`report.extrema` read those tables, while evaluation at other points
(prolongation, point values, VTK centroids) is not cached. Tables that
depend on the mesh (`_contexts`, `_block_pattern`) are built once per
broken space and kept in its `contexts`, so they die with the level's
space. `assemble_gram` leaves its local blocks there too, for its problem,
and the level's error indicators take them (`take_gram_blocks`), so an
adaptive level forms its Gram blocks once; a uniform level clears
`contexts`, blocks included, after its operators and before its LU.
"""

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import gather_matrix
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
    scalar or symmetric positive semi-definite 2x2 tensor. The penalty enforces
    u_min < u_max with the scale gamma0 in (0, 1), required once a bound is set.
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


def sipg_eta(p, K, h_F):
    """SIPG face penalty ETA0 (p+1)(p+2) K / h_F (in 2-D)."""
    if np.any(np.asarray(h_F) <= 0):
        raise ValueError("face diameter must be positive")
    return ETA0 * (p + 1) * (p + 2) * K / np.asarray(h_F, dtype=float)


# ----------------------------------------------------------------------
# Shared geometry/trace tables
# ----------------------------------------------------------------------

def _dot2(a, b):
    """Broadcast dot product over a trailing axis of length 2, e.g. beta.grad v."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


class ElementContext:
    """Per-element quadrature table of a space (read-only, shared by every
    caller on the space; see `_contexts`): points `qp` and weights `dA`
    (ne, nq), basis values `vals` (nq, nl) and reference gradients `gref`
    (nq, nl, 2) of the rule (`ReferenceBasis.tabulate`, shared by every space
    of the degree), the mesh's `detB` and `Binv`, and the reference `mass`
    (nl, nl) and `stiffness` (4, nl nl), R_ab at row 2a + b.
    """

    def __init__(self, space, degree, rule=None):
        mesh = space.mesh
        rule = triangle_rule(degree) if rule is None else rule
        _, _, self.detB, self.Binv = mesh.affine()
        self.rule = rule
        self.qp = mesh.to_physical(rule.points)
        self.dA = rule.weights[None, :] * self.detB[:, None]
        self.vals, self.gref = space.basis.tabulate(rule)   # (nq, nl), (nq, nl, 2)
        nl = self.vals.shape[1]
        g = self.gref.transpose(2, 1, 0).reshape(2 * nl, -1)   # rows (a, i)
        self.mass = self.vals.T @ (rule.weights[:, None] * self.vals)
        R = ((g * rule.weights) @ g.T).reshape(2, nl, 2, nl)
        self.stiffness = R.swapaxes(1, 2).reshape(4, nl * nl)
        _freeze(self.qp, self.dA, self.mass, self.stiffness)

    def restrict(self, elems):
        """This table on the elements `elems` (a slice) only, its
        per-element arrays views of this one's."""
        block = copy.copy(self)
        block.qp, block.dA = self.qp[elems], self.dA[elems]
        block.detB, block.Binv = self.detB[elems], self.Binv[elems]
        return block


class FaceContext:
    """Quadrature points and basis traces on the "interior" or the "boundary"
    faces of a space's mesh (read-only).

    `sides` holds (elements, values (nf, nq, nl), edge codes (nf,)) for
    [minus, plus], or for the boundary element. The code (local edge k, or
    k + 3 reversed) picks a side's rows of the reference-edge tables
    (`ReferenceBasis.tabulate`): values (see the module notes) and the
    gradients `gref` (6, nq, nl, 2).
    """

    def __init__(self, space, faces, degree):
        mesh = space.mesh
        if faces == "interior":
            vertices, h = mesh.iface_vertices, mesh.iface_h
            sides = zip(mesh.iface_elements.T, mesh.iface_local_edges.T)
        else:
            vertices, h = mesh.bface_vertices, mesh.bface_h
            sides = [(mesh.bface_elements, mesh.bface_local_edges)]
        rule = edge_rule(degree)
        p0, p1 = mesh.vertices[vertices.T]
        self.qp = p0[:, None, :] + rule.points[None, :, None] * (p1 - p0)[:, None, :]
        self.w = rule.weights[None, :] * h[:, None]
        vals, self.gref = space.basis.tabulate(rule)
        _, _, _, self.Binv = mesh.affine()
        codes = [(elems, edges + 3 * reverse) for reverse, (elems, edges) in enumerate(sides)]
        self.sides = [(elems, *_freeze(vals[code], code)) for elems, code in codes]
        _freeze(self.qp, self.w)


def _beta_grad(problem, ec):
    """beta.grad phi = (Binv beta).grad_ref phi at ec's points, (ne, nq, nl):
    one (ne, 2) x (2, nl) product per point."""
    bref = problem.beta_fn(ec.qp) @ ec.Binv.swapaxes(1, 2)
    out = np.empty(bref.shape[:2] + ec.vals.shape[1:])
    np.matmul(bref.swapaxes(0, 1), ec.gref.swapaxes(1, 2), out=out.swapaxes(0, 1))
    return out


def _advection_reaction(problem, ec):
    """(beta.grad + sigma) phi at ec's points, (ne, nq, nl): the advection and
    reaction part of the strong operator, shared by b_h and the penalty."""
    out = _beta_grad(problem, ec)
    out += problem.sigma_fn(ec.qp)[:, :, None] * ec.vals
    return out


def _flux_traces(fc, side, Kn):
    """K grad phi.n = grad_ref phi.(Binv K n) on one side of fc, (nf, nq, nl),
    from the faces' K n (nf, 2)."""
    elems, _, code = side
    return _dot2(fc.gref[code], _dot2(fc.Binv[elems], Kn[:, None])[:, None, None])


def _contexts(space):
    """(element, interior-face, boundary-face) contexts of `space`, built once
    and kept on it; elements use the degree-(2p+2) rule, faces degree 2p+3.
    """
    if "tables" not in space.contexts:
        q = 2 * space.p + 2
        space.contexts["tables"] = (ElementContext(space, q),
                                    FaceContext(space, "interior", q + 1),
                                    FaceContext(space, "boundary", q + 1))
    return space.contexts["tables"]


# ----------------------------------------------------------------------
# Element-pair block assembly
# ----------------------------------------------------------------------

def _block_pattern(space):
    """Block pattern of operators on the broken space `space`, built once.

    Broken dofs are element-major, so an operator coupling neighbours through
    faces has one n_l x n_l block per element (e, e) and the two blocks
    (e, f), (f, e) per interior face. Returns the BSR (indptr, indices)
    and the block slots: `diag` (ne,) of every (e, e), and `face` (nf, 2, 2)
    of the [minus, plus] x [minus, plus] blocks of every interior face.
    """
    if "pattern" not in space.contexts:
        mesh = space.mesh
        ne = mesh.n_elements
        em, ep = mesh.iface_elements.T
        nf = len(em)
        rows = np.concatenate([np.arange(ne), em, ep])
        cols = np.concatenate([np.arange(ne), ep, em])
        keys, slot = np.unique(rows * ne + cols, return_inverse=True)
        slot = slot.astype(np.int32)        # `_block_matrix`'s scatter indices stay int32
        diag = slot[:ne]
        face = np.stack([diag[em], slot[ne:ne + nf], slot[ne + nf:], diag[ep]],
                        axis=1).reshape(nf, 2, 2)
        indptr = np.searchsorted(keys, np.arange(ne + 1) * ne)
        space.contexts["pattern"] = _freeze(indptr, keys % ne, diag, face)
    return space.contexts["pattern"]


def _block_matrix(space, element, iface, bface, symmetrize=False):
    """CSR operator on the broken `space` from element, interior-face and
    boundary-face blocks (face groups may be None), summed on `_block_pattern`.

    Interior-face blocks (nf, 2 n_l, 2 n_l) run over the [minus, plus] dofs of
    the mesh's interior faces, boundary-face blocks over their element's dofs.
    Element blocks fill their distinct diagonal slots, then each face group is
    added with one `np.add.at` on int32 indices: unlike a `np.bincount`
    scatter it allocates no output array. `symmetrize` averages the operator
    with its transpose, which on the block data is a transpose of every
    block plus a swap of each face's two off-diagonal slots. Exact
    zeros are dropped, so the CSR pattern is that of the nonzero entries,
    and `data` and `indices` are copied to nnz entries: `eliminate_zeros`
    leaves views of the zero-padded buffers when it keeps more than half of
    them (G at case1 L3: 6.65 MB held for 3.89 MB of entries).
    """
    indptr, indices, diag, face = _block_pattern(space)
    nl = space.n_local
    local = np.arange(nl * nl, dtype=np.int32).reshape(nl, 1, nl)    # i nl + j at (i, -, j)
    data = np.zeros((len(indices), nl, nl))
    data[diag] = element
    for slots, blocks in ((face, iface), (diag[space.mesh.bface_elements][:, None, None], bface)):
        if blocks is not None:
            idx = slots[:, :, None, :, None] * (nl * nl) + local
            np.add.at(data.reshape(-1), idx.ravel(), blocks.ravel())
    if symmetrize:
        swap = np.arange(len(data))
        swap[face[:, 0, 1]], swap[face[:, 1, 0]] = face[:, 1, 0], face[:, 0, 1]
        sym = data.transpose(0, 2, 1)[swap]
        sym += data
        sym *= 0.5
        data = sym
    M = sp.bsr_matrix((data, indices, indptr), shape=(space.n_dofs,) * 2).tocsr()
    M.eliminate_zeros()
    M.data, M.indices = M.data.copy(), M.indices.copy()
    return M


def _block_diagonal(blocks):
    """CSR matrix with the element blocks (ne, m, m) on its diagonal."""
    ne, m, _ = blocks.shape
    return sp.bsr_matrix((blocks, np.arange(ne), np.arange(ne + 1)),
                         shape=(ne * m, ne * m)).tocsr()


def _face_data(problem, ctx, normals):
    """beta.n values and inflow masks at the face quadrature points."""
    bvals = problem.beta_fn(ctx.qp)
    bn = _dot2(bvals, normals[:, None])
    tol = char_tolerance(bvals)
    return bn, bn < -tol


def _reference_K(ec, K):
    """Binv K Binv^T per element of ec, (ne, 2, 2): K acting on reference gradients."""
    return ec.Binv @ K @ ec.Binv.swapaxes(1, 2)


def _diffusion_blocks(ec, K):
    """Element blocks (K grad phi_j, grad phi_i) = det B sum_ab (Binv K Binv^T)_ab R_ab,
    one GEMM with the reference tensors R (`ElementContext.stiffness`)."""
    nl = ec.vals.shape[1]
    coef = ec.detB[:, None] * _reference_K(ec, K).reshape(-1, 4)
    return (coef @ ec.stiffness).reshape(-1, nl, nl)


def _boundary_traces(problem, V_h, fb):
    """Boundary-face elements, traces v and K grad v.n (None if K = 0), and
    the weak Dirichlet test function THETA K grad v.n + (eta + [beta.n]_inflow) v."""
    mesh = V_h.mesh
    bn, inflow = _face_data(problem, fb, mesh.bface_normals)
    eta = sipg_eta(V_h.p, problem.k_max, mesh.bface_h)
    (eb, vb, _), = fb.sides
    test = (eta[:, None] + np.where(inflow, bn, 0.0))[:, :, None] * vb
    Kn = None
    if problem.K_mat.any():
        Kn = _flux_traces(fb, fb.sides[0], mesh.bface_normals @ problem.K_mat)
        test += THETA * Kn
    return eb, vb, Kn, test


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

def assemble_bh(problem, V_h):
    """Assemble the dG form b_h = b_h^diff + b_h^adv on V_h x V_h.

    Block rows are test dofs and columns trial dofs; interior faces form one
    block over the [minus, plus] dofs, as in `gram_blocks`. With K = 0 the
    diffusion terms, all exact zeros, are not formed.
    """
    mesh = V_h.mesh
    ec, fi, fb = _contexts(V_h)
    diffusion = problem.K_mat.any()

    # volume: (K grad w, grad v) + (beta.grad w + sigma w, v)
    element = ec.vals.T @ (ec.dA[:, :, None] * _advection_reaction(problem, ec))
    if diffusion:
        element += _diffusion_blocks(ec, problem.K_mat)

    # interior faces: P^T (w jump) - jump^T (w avg flux) with
    # P = THETA avg flux + (eta + |b.n|/2) jump - (b.n) mean
    iface = bface = None
    if len(mesh.iface_h):
        bn, _ = _face_data(problem, fi, mesh.iface_normals)
        eta = sipg_eta(V_h.p, problem.k_max, mesh.iface_h)
        (_, vm, _), (_, vp, _) = fi.sides
        jump = np.concatenate([vm, -vp], axis=-1)
        P = (eta[:, None] + 0.5 * np.abs(bn))[:, :, None] * jump
        if diffusion:
            Kn = mesh.iface_normals @ problem.K_mat
            avg = 0.5 * np.concatenate([_flux_traces(fi, side, Kn) for side in fi.sides], axis=-1)
            P += THETA * avg
        P -= 0.5 * bn[:, :, None] * np.concatenate([vm, vp], axis=-1)
        w = fi.w[:, :, None]
        iface = P.swapaxes(1, 2) @ (w * jump)
        if diffusion:
            iface -= jump.swapaxes(1, 2) @ (w * avg)

    # boundary faces
    if len(mesh.bface_h):
        _, vb, Kn, test = _boundary_traces(problem, V_h, fb)
        w = fb.w[:, :, None]
        bface = test.swapaxes(1, 2) @ (w * vb)
        if Kn is not None:
            bface -= vb.swapaxes(1, 2) @ (w * Kn)

    return _block_matrix(V_h, element, iface, bface)


def _norm_face_weight(problem, space, ctx, normals, face_h):
    """Weights w (|beta.n|/2 + eta) of the dG norm's face terms at ctx's points."""
    bn, _ = _face_data(problem, ctx, normals)
    eta = sipg_eta(space.p, problem.k_max, face_h)
    return ctx.w * (0.5 * np.abs(bn) + eta[:, None])


def gram_blocks(problem, V_h):
    """Local blocks of the dG norm: (elements, blocks) pairs for the element
    blocks, the interior-face blocks and the boundary-face blocks, in that order.

    elements (n, k) are the elements of each block and blocks (n, k n_l, k n_l)
    the local Gram matrices over their dofs: k = 1 for element and boundary
    faces, and k = 2 for interior faces, whose blocks run over the [minus,
    plus] dofs (the norm of the jump [v-, -v+]). Each block's quadratic form
    is shared equally among its k elements.
    """
    mesh = V_h.mesh
    ec, fi, fb = _contexts(V_h)
    bg = _beta_grad(problem, ec)
    blocks = ec.detB[:, None, None] * ec.mass
    blocks += bg.swapaxes(1, 2) @ (mesh.h_elem[:, None, None] * ec.dA[:, :, None] * bg)
    if problem.K_mat.any():
        blocks += _diffusion_blocks(ec, problem.K_mat)
    groups = [(np.arange(mesh.n_elements)[:, None], blocks)]

    coef = _norm_face_weight(problem, V_h, fi, mesh.iface_normals, mesh.iface_h)
    (_, vm, _), (_, vp, _) = fi.sides
    jump = np.concatenate([vm, -vp], axis=-1)
    groups.append((mesh.iface_elements, jump.swapaxes(1, 2) @ (coef[:, :, None] * jump)))

    coef = _norm_face_weight(problem, V_h, fb, mesh.bface_normals, mesh.bface_h)
    (eb, vb, _), = fb.sides
    groups.append((eb[:, None], vb.swapaxes(1, 2) @ (coef[:, :, None] * vb)))
    return groups


def assemble_gram(problem, V_h):
    """Assemble the Gram matrix of the dG inner product (polarized norm).

    The average with the transpose strips the floating-point asymmetry of
    the local blocks. The blocks stay in V_h.contexts, for `problem`, until
    the level's error indicators take them (`take_gram_blocks`).
    """
    groups = gram_blocks(problem, V_h)
    V_h.contexts["gram"] = (problem, groups)
    return _block_matrix(V_h, *(blocks for _, blocks in groups), symmetrize=True)


def take_gram_blocks(problem, V_h):
    """The `gram_blocks` that `assemble_gram` left on V_h if it formed them for
    this `problem` (by identity), else fresh ones; none stay on V_h after."""
    owner, groups = V_h.contexts.pop("gram", (None, None))
    return groups if owner is problem else gram_blocks(problem, V_h)


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
    """Element-wise L2 mass matrix S' M S of a space: M is the block-diagonal
    matrix of the element blocks over element-major local dofs and S the
    space's one-hot dofmap matrix, the identity for a broken space. Its
    degree-2p table is not kept on the space: nothing else reads it.
    """
    ec = ElementContext(space, 2 * space.p)
    M = _block_diagonal(ec.detB[:, None, None] * ec.mass)
    S = gather_matrix(space)
    return (S.T @ M @ S).tocsr()


def vh_norm(coeffs, G):
    """dG norm sqrt(c' G c); raises on significantly negative quadratic forms."""
    coeffs = np.asarray(coeffs, dtype=float)
    q = float(coeffs @ (G @ coeffs))
    scale = max(1.0, float(coeffs @ coeffs))
    if q < -1e-12 * scale:
        raise NumericalBreakdown(f"Gram quadratic form is negative: {q}")
    return float(np.sqrt(max(q, 0.0)))
