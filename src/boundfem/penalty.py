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
"""

import functools
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule, triangle_rule
from .fespace import gather_matrix
from .forms import ElementContext, _advection_reaction, _block_diagonal, _reference_K

QUADRATURES = ("gauss", "nodal")


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
        self.A_basis, self.fvals = _strong_tables(problem, U_h, ec)
        self.test_vals = ec.vals          # same reference basis for U_h and V_h
        self.dA = ec.dA
        self.inv_gamma = 1.0 / self.gammas
        self._last = None               # (u, terms) of the last `_terms` call

    def _values(self, u):
        """u and A u at the quadrature points, (ne, nq) each."""
        c = np.asarray(u, dtype=float)[self.U_h.dofmap]
        return c @ self.test_vals.T, (self.A_basis @ c[:, :, None])[..., 0]

    def _terms(self, u):
        """Per-bound pairs (sign, arg) at the quadrature points.

        The residual contributes sign * gamma^-1 * [arg]_- against v, and
        d(arg)[z] = sign * z - gamma * A z. The last u's terms are kept for
        the next call at the same u; callers only read them.
        """
        u = np.asarray(u, dtype=float)
        if self._last is not None and np.array_equal(self._last[0], u):
            return self._last[1]
        uvals, Au = self._values(u)
        s = Au - self.fvals                                          # A u - f
        g = self.gammas[:, None]
        terms = []
        if self.lower is not None:
            terms.append((+1.0, (uvals - self.lower) - g * s))
        if self.upper is not None:
            terms.append((-1.0, (self.upper - uvals) - g * s))
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

    def _assemble(self, elems, terms, eps_q):
        """P(u) over V_h dofs and dP(u)' eps over U_h dofs from the bound
        arguments `terms` and eps at the points `eps_q`, both given on the
        elements `elems` only; every other element must be inactive, and
        adds exact zeros to both.

        Per element, dP(u)' eps = sum_q eps(q) (w_coef phi - w_sum gamma A phi)
        with `_weights`' sums, the transpose of `jacobian`'s blocks.
        """
        dA_g = self.dA[elems] * self.inv_gamma[elems, None]
        xi = sum(sign * negative_part(arg) for sign, arg in terms)
        local = (dA_g * xi) @ self.test_vals
        P = np.bincount(self.V_h.dofmap[elems].ravel(), local.ravel(),
                        minlength=self.V_h.n_dofs)
        w_sum, w_coef = self._weights(terms, dA_g)
        local = (w_coef * eps_q) @ self.test_vals
        local -= self.gammas[elems, None] * (
            (w_sum * eps_q)[:, None, :] @ self.A_basis[elems])[:, 0]
        adjoint = np.bincount(self.U_h.dofmap[elems].ravel(), local.ravel(),
                              minlength=self.U_h.n_dofs)
        return P, adjoint

    def _at_points(self, v, elems):
        """The V_h function v at the quadrature points of `elems`."""
        return v[self.V_h.dofmap[elems]] @ self.test_vals.T

    def residual(self, u, eps):
        """P(u) over V_h dofs and dP(u)' eps over U_h dofs, without assembling
        dP(u), evaluated on the active elements only."""
        terms = self._terms(u)
        elems = _active_elements(arg for _, arg in terms)
        return self._assemble(elems, [(sign, arg[elems]) for sign, arg in terms],
                              self._at_points(eps, elems))

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
        duvals, dAu = self._values(du)
        g = self.gammas[:, None]
        slopes = [sign * duvals - g * dAu for sign, _ in terms]
        elems = _active_elements([arg for _, arg in terms]
                                 + [arg + darg for (_, arg), darg in zip(terms, slopes)])
        return (elems,
                [(sign, arg[elems], darg[elems]) for (sign, arg), darg in zip(terms, slopes)],
                self._at_points(eps, elems), self._at_points(d_eps, elems))

    def residual_and_adjoint_on_line(self, line, t):
        """`residual` at the point t in (0, 1] of a `line`,
        evaluated on the elements active at t."""
        elems, bounds, eps_q, deps_q = line
        args = [arg + t * darg for _, arg, darg in bounds]
        act = _active_elements(args)
        return self._assemble(elems[act],
                              [(sign, arg[act]) for (sign, _, _), arg in zip(bounds, args)],
                              eps_q[act] + t * deps_q[act])

    def active_count_on_line(self, line, t):
        """`active_count` at the point t in (0, 1] of a `line`, from its tables."""
        return sum(int(np.count_nonzero(~(arg + t * darg > 0.0))) for _, arg, darg in line[1])

    def jacobian(self, u):
        """Assembled Gateaux derivative as a sparse V_h x U_h matrix: the
        block-diagonal V_h x V_h matrix of its element blocks times E.

        The kink subgradient uses sgn(0) = 0, i.e. indicator 1/2 exactly at
        the kink.
        """
        w_sum, w_coef = self._weights(self._terms(u), self.dA * self.inv_gamma[:, None])
        phi = self.test_vals
        blocks = phi.T @ (w_coef[:, :, None] * phi)
        blocks -= self.gammas[:, None, None] * (phi.T @ (w_sum[:, :, None] * self.A_basis))
        return _block_diagonal(blocks) @ gather_matrix(self.U_h)


def _active_elements(args):
    """Indices of the elements with some argument <= 0 (or NaN) among the
    (ne, nq) arrays `args`."""
    positive = np.logical_and.reduce([arg > 0.0 for arg in args])
    return np.flatnonzero(~positive.all(axis=1))
