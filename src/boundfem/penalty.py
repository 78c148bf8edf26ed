"""Nonlinear consistent penalty for weak lower/upper bound enforcement.

The penalized form augments the dG form, against v in V_h, with the
elementwise terms  + gamma_T^-1 (xi_min(u), v)_T  -  gamma_T^-1 (xi_max(u), v)_T,

    xi_min(u) = [(u - u_min) - gamma (A u - f)]_-
    xi_max(u) = [(u_max - u) - gamma (A u - f)]_-

where [x]_- = (x - |x|)/2, A is the strong operator applied broken
elementwise, and gamma_T = gamma0 / (|beta|_{inf,T}/h_T + |K|/h_T^2 +
|sigma|_{inf,T}) is recomputed on every mesh. The bounds and gamma0 are the
ProblemSpec's; a PenaltyConfig holds only the quadrature variant.

Consistency: both arguments are >= 0 at the exact solution, so both terms
vanish there, whatever quadrature evaluates them. The "gauss" variant
(default) uses the interior rule of degree 2p + 6; "nodal" (p = 1) uses the
vertex rule, because a P1 function attains its extrema at vertices, so the
bound is enforced exactly where the discrete solution can violate it.

Signs: the lower term enters with +1 and the upper with -1, so each pushes
a violating solution back inside [u_min, u_max]. Each bound's argument has
slope +-1 in u, the sign of its term, so one sign per bound serves the
residual and its derivative.

Evaluation. An element whose arguments are all positive adds exact zeros to
P(u) and dP(u)' eps, so the one kernel (`_assemble`) runs on the other
elements only: at an iterate (`residual`) those active at u. Along a Newton
step u + t du every argument is affine in t, so an element positive at t = 0
and at t = 1 is positive on the whole segment; `line` tabulates the
arguments, their slopes and eps on the remaining elements once per step, and
a damping trial (`residual_and_adjoint_on_line`) is one axpy per bound
there. Both restrictions drop only exact zeros. An iterate's residual,
active count, line and Jacobian share one evaluation of its bound arguments.

Blocks. Every per-point pass, the table build included, runs over blocks of
BLOCK consecutive elements (of the mesh, or of the elements a call keeps),
so its temporaries span one block, not the mesh. Unblocked, a damping trial
at case1 L3 gathered A-basis rows (n, 25, 3) for all its n ~ 9,000 active
elements, and the trials set the run's peak RSS. Only what is kept spans the
mesh: the tables, the bound arguments, the line tables, and per-element
local vectors, which one `np.bincount` per result scatters in element order.
Blocking changes neither which elements are kept (the restrictions above
still drop only exact zeros) nor any bit of a result: BLOCK is a power of
two, so a BLAS product over a block tiles each row as the product over all
rows would (a block of 5 rows changed last bits).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule, triangle_rule
from .fespace import gather_matrix
from .forms import ElementContext, _advection_reaction, _block_diagonal, _reference_K

QUADRATURES = ("gauss", "nodal")
BLOCK = 2048        # elements per block of the per-point passes, a power of two ("Blocks")


def negative_part(x):
    """Negative part (x - |x|) / 2: equals x for x < 0, else 0."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (x - np.abs(x))
    return float(out) if out.ndim == 0 else out


@dataclass
class PenaltyConfig:
    """Method choice of the penalty: its quadrature variant. The bounds and
    gamma0 belong to the ProblemSpec."""

    quadrature: str = "gauss"

    def __post_init__(self):
        if self.quadrature not in QUADRATURES:
            raise ValueError(f"quadrature must be one of {QUADRATURES}")


def compute_gammas(problem, mesh):
    """Element-local penalty parameters gamma_T > 0 for the whole mesh,
    scaled by problem.gamma0.

    Coefficient sups are sampled at quadrature points and element vertices.
    """
    corners = mesh.vertices[mesh.elements]
    sample = np.concatenate([mesh.to_physical(triangle_rule(4).points), corners], axis=1)
    beta_sup = np.linalg.norm(problem.beta_fn(sample), axis=-1).max(axis=1)
    sigma_sup = np.abs(problem.sigma_fn(sample)).max(axis=1)
    h = mesh.h_elem
    denom = beta_sup / h + problem.k_max / h ** 2 + sigma_sup
    if not np.all(np.isfinite(denom) & (denom > 0.0)):
        raise ValueError("gamma undefined: beta, K and sigma vanish or are not finite somewhere")
    return problem.gamma0 / denom


@functools.cache
def nodal_rule():
    """Vertex (mass-lumped) rule on the reference triangle, exact for degree 1;
    built once, like the Gauss rules."""
    return QuadratureRule("triangle", 1,
                          np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.full(3, 1.0 / 6.0))


def _strong_tables(problem, space, ec):
    """(A_basis, fvals): A applied to every basis function of `space` at the
    quadrature points of the ElementContext `ec`, (ne, nq, nl), and f there,
    (ne, nq), so that A(u) - f = A_basis u_T - fvals.

    (beta.grad + sigma) phi comes from `forms._advection_reaction`. For p = 1
    the second-order term vanishes identically (K is constant per problem)
    and is skipped; for p >= 2 it uses elementwise basis Hessians.
    """
    A_basis = _advection_reaction(problem, ec)
    if space.p >= 2 and problem.k_max > 0.0:
        A_basis -= _div_K_grad_basis(problem, space, ec)
    return A_basis, problem.f_fn(ec.qp)


def _div_K_grad_basis(problem, space, ec):
    """div(K grad phi) of every basis function at ec's points; (ne, nq, nl)."""
    href = space.basis.eval_hessians(ec.rule.points)  # (nq, nl, 3)
    # K : (Binv^T Href Binv) = Href : M with M = Binv K Binv^T per element
    M = _reference_K(ec, problem.K_mat)
    m = np.stack([M[:, 0, 0], M[:, 0, 1] + M[:, 1, 0], M[:, 1, 1]], axis=1)
    return (m @ href.reshape(-1, 3).T).reshape(len(m), *href.shape[:-1])


class PenaltyOperator:
    """Penalty residual and Jacobian assembly for a fixed mesh and space pair.

    Trial coefficients live on U_h (continuous); test functions on V_h
    (broken). gamma_T is computed at construction, so a fresh operator must
    be built after every refinement. It keeps only the tables its residual,
    line and Jacobian read: A applied to every basis function at the points
    (`A_basis`, (ne, nq, nl)), f and the weights dA there, the reference
    basis values, gamma_T and the bounds; no physical-gradient table is built.
    Its residual, line, trials and Jacobian evaluate those tables block by
    block (module docstring, "Blocks").
    """

    def __init__(self, problem, U_h, V_h, config):
        if not problem.has_bounds:
            raise ValueError("penalty requires at least one bound")
        if U_h.mesh is not V_h.mesh:
            raise ValueError("trial and test spaces must share a mesh")
        self.U_h = U_h
        self.V_h = V_h
        self.lower, self.upper = problem.u_min, problem.u_max
        self.gammas = compute_gammas(problem, U_h.mesh)
        if config.quadrature == "nodal":
            if U_h.p != 1:
                raise ValueError("nodal penalty quadrature requires p = 1")
            ec = ElementContext(U_h, 1, rule=nodal_rule())
        else:
            ec = ElementContext(U_h, 2 * U_h.p + 6)   # not kept: nothing else reads it
        self.test_vals = ec.vals          # same reference basis for U_h and V_h
        self.dA = ec.dA
        self.A_basis = np.empty(ec.dA.shape + ec.vals.shape[1:])
        self.fvals = np.empty_like(ec.dA)
        for b in _blocks(len(ec.dA)):
            self.A_basis[b], self.fvals[b] = _strong_tables(problem, U_h, ec.restrict(b))
        self.inv_gamma = 1.0 / self.gammas
        self._last = None               # (u, terms) of the last `_terms` call

    def _values(self, u):
        """u and A u at the quadrature points, one (b, uvals, Au) per element
        block `b` (a slice), (len(b), nq) each, computed as it is read."""
        u = np.asarray(u, dtype=float)
        for b in _blocks(len(self.fvals)):
            c = u[self.U_h.dofmap[b]]
            yield b, c @ self.test_vals.T, (self.A_basis[b] @ c[:, :, None])[..., 0]

    def _terms(self, u):
        """Per-bound pairs (sign, arg) at the quadrature points, (ne, nq) each.

        The residual contributes sign * gamma^-1 * [arg]_- against v, and
        d(arg)[z] = sign * z - gamma * A z. The last u's terms are kept for
        the next call at the same u; callers only read them.
        """
        u = np.asarray(u, dtype=float)
        if self._last is not None and np.array_equal(self._last[0], u):
            return self._last[1]
        terms = [(sign, np.empty_like(self.fvals)) for sign, bound
                 in ((+1.0, self.lower), (-1.0, self.upper)) if bound is not None]
        for b, uvals, Au in self._values(u):
            gs = self.gammas[b, None] * (Au - self.fvals[b])        # gamma (A u - f)
            for sign, arg in terms:
                arg[b] = ((uvals - self.lower) if sign > 0 else (self.upper - uvals)) - gs
        self._last = (u.copy(), terms)
        return terms

    def active_count(self, u):
        """Number of (element, quadrature point, bound) triples with arg <= 0.

        Zero means that P(u) and dP(u) both vanish: [arg]_- is 0 and so is
        its kink indicator, which is 1/2 at arg = 0 itself.
        """
        return sum(int(np.count_nonzero(~(arg > 0.0))) for _, arg in self._terms(u))

    def _weights(self, terms, dA_g):
        """Sums over bounds of w = sign dA gamma^-1 ind and of sign * w,
        with dA_g = dA gamma^-1 on the terms' elements.

        ind = (1 - sgn(arg))/2 is the kink subgradient, 1/2 at the kink.
        """
        w_sum = np.zeros_like(dA_g)
        w_coef = np.zeros_like(dA_g)
        for sign, arg in terms:
            w = sign * dA_g * 0.5 * (1.0 - np.sign(arg))
            w_sum += w
            w_coef += sign * w
        return w_sum, w_coef

    def _assemble(self, elems, inputs):
        """P(u) over V_h dofs and dP(u)' eps over U_h dofs on the elements
        `elems`, in increasing order; every other element must be inactive,
        and adds exact zeros to both. `inputs(s)` gives the bound arguments
        and eps at the points of the block elems[s].

        Per element, P is sum_q xi(q) dA gamma^-1 phi, and dP(u)' eps is
        sum_q eps(q) (w_coef phi - w_sum gamma A phi) with `_weights`' sums,
        the transpose of `jacobian`'s blocks. Each block writes its local
        vectors into one array over `elems`, and one `np.bincount` each
        scatters them, so every dof sum runs in element order.
        """
        nl = self.test_vals.shape[1]
        P_loc, adj_loc = np.empty((len(elems), nl)), np.empty((len(elems), nl))
        for s in _blocks(len(elems)):
            e = elems[s]
            terms, eps_q = inputs(s)
            dA_g = self.dA[e] * self.inv_gamma[e, None]
            xi = sum(sign * negative_part(arg) for sign, arg in terms)
            P_loc[s] = (dA_g * xi) @ self.test_vals
            w_sum, w_coef = self._weights(terms, dA_g)
            adj_loc[s] = (w_coef * eps_q) @ self.test_vals
            adj_loc[s] -= self.gammas[e, None] * (
                (w_sum * eps_q)[:, None, :] @ self.A_basis[e])[:, 0]
        P = np.bincount(self.V_h.dofmap[elems].ravel(), P_loc.ravel(),
                        minlength=self.V_h.n_dofs)
        adjoint = np.bincount(self.U_h.dofmap[elems].ravel(), adj_loc.ravel(),
                              minlength=self.U_h.n_dofs)
        return P, adjoint

    def _at_points(self, v, elems):
        """The V_h function v at the quadrature points of `elems`."""
        out = np.empty((len(elems), len(self.test_vals)))
        for s in _blocks(len(elems)):
            out[s] = v[self.V_h.dofmap[elems[s]]] @ self.test_vals.T
        return out

    def residual(self, u, eps):
        """P(u) over V_h dofs and dP(u)' eps over U_h dofs, without assembling
        dP(u), evaluated on the active elements only."""
        terms = self._terms(u)
        elems = _active_elements(len(self.fvals), lambda s: [arg[s] for _, arg in terms])
        return self._assemble(elems, lambda s: ([(sign, arg[elems[s]]) for sign, arg in terms],
                                                self._at_points(eps, elems[s])))

    def line(self, u, du, eps, d_eps):
        """Tables of P and dP(.)' eps along (u + t du, eps + t d_eps), t in [0, 1].

        Every bound argument is affine in u, so on the segment it is
        arg + t darg with darg = sign du - gamma A du. An element whose
        arguments are all positive at t = 0 and at t = 1 is inactive on the
        whole segment; the tables keep only the other elements: their
        indices `elems`, per bound (sign, arg, darg), and eps and
        d_eps at their points.
        """
        terms = self._terms(u)
        elems, slopes = [], []
        for b, duvals, dAu in self._values(du):
            g = self.gammas[b, None]
            dargs = [sign * duvals - g * dAu for sign, _ in terms]
            args = [arg[b] for _, arg in terms]
            act = _active_rows(args + [arg + darg for arg, darg in zip(args, dargs)])
            elems.append(b.start + act)
            slopes.append([darg[act] for darg in dargs])
        elems = np.concatenate(elems)
        return (elems,
                [(sign, arg[elems], np.concatenate(darg))
                 for (sign, arg), darg in zip(terms, zip(*slopes))],
                self._at_points(eps, elems), self._at_points(d_eps, elems))

    def residual_and_adjoint_on_line(self, line, t):
        """`residual` at the point t in (0, 1] of a `line`,
        evaluated on the elements active at t."""
        elems, bounds, eps_q, deps_q = line
        act = _active_elements(len(elems), lambda s: [
            arg[s] + t * darg[s] for _, arg, darg in bounds])
        return self._assemble(elems[act], lambda s: (
            [(sign, arg[act[s]] + t * darg[act[s]]) for sign, arg, darg in bounds],
            eps_q[act[s]] + t * deps_q[act[s]]))

    def active_count_on_line(self, line, t):
        """`active_count` at the point t in (0, 1] of a `line`, from its tables."""
        return sum(int(np.count_nonzero(~(arg[s] + t * darg[s] > 0.0)))
                   for s in _blocks(len(line[0])) for _, arg, darg in line[1])

    def jacobian(self, u):
        """Assembled Gateaux derivative as a sparse V_h x U_h matrix: the
        block-diagonal V_h x V_h matrix of its element blocks times E.

        The kink subgradient uses sgn(0) = 0, i.e. indicator 1/2 exactly at
        the kink.
        """
        terms = self._terms(u)
        phi = self.test_vals
        nl = phi.shape[1]
        blocks = np.empty((len(self.fvals), nl, nl))
        for b in _blocks(len(self.fvals)):
            w_sum, w_coef = self._weights([(sign, arg[b]) for sign, arg in terms],
                                          self.dA[b] * self.inv_gamma[b, None])
            blocks[b] = phi.T @ (w_coef[:, :, None] * phi)
            blocks[b] -= self.gammas[b, None, None] * (
                phi.T @ (w_sum[:, :, None] * self.A_basis[b]))
        return _block_diagonal(blocks) @ gather_matrix(self.U_h)


def _blocks(n):
    """Slices of BLOCK consecutive positions from 0 that cover range(n), at
    least one; indexing clips the last to n."""
    return [slice(i, i + BLOCK) for i in range(0, max(n, 1), BLOCK)]


def _active_rows(args):
    """Indices of the rows with some argument <= 0 (or NaN) among the
    (n, nq) arrays `args`."""
    positive = np.logical_and.reduce([arg > 0.0 for arg in args])
    return np.flatnonzero(~positive.all(axis=1))


def _active_elements(n, args):
    """`_active_rows` among n elements, block by block: `args(s)` gives
    the arguments on the block slice s."""
    return np.concatenate([s.start + _active_rows(args(s)) for s in _blocks(n)])
