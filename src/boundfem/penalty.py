"""Nonlinear consistent penalty for weak lower/upper bound enforcement.

The penalized form augments the dG form with elementwise terms built from

    xi_min(u) = [(u - u_min) - gamma (A u - f)]_-
    xi_max(u) = [(u_max - u) - gamma (A u - f)]_-

where [x]_- = (x - |x|)/2 and A is the strong operator applied broken
elementwise. Both terms vanish at the exact solution, so consistency is
preserved whatever quadrature evaluates them. gamma is element-local,

    gamma_T = gamma0 / (|beta|_{inf,T}/h_T + |K|/h_T^2 + |sigma|_{inf,T}),

and must be recomputed whenever the mesh changes.

Two quadrature variants back the elementwise pairing:

* "gauss" (default): an interior Gauss rule. The enforcement acts through
  element integrals; violations at nodes typically end up well below the
  consistency slack gamma*|A u - f| because neighboring active regions
  push collectively.
* "nodal" (p = 1): the vertex rule (mass-lumped pairing). Affine functions
  attain extrema at vertices, so this enforces the bound exactly where the
  discrete solution can violate it and gives the Newton iteration a crisp,
  finite active set. Standard practice for obstacle-type terms.

Sign convention for the upper bound: the default "restoring" mode subtracts
the xi_max term so that overshoot produces a force pushing the solution back
below u_max; "paper" keeps the plain additive variant.
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule, triangle_rule
from .forms import ElementContext, _Accumulator

UPPER_SIGNS = ("restoring", "paper")
QUADRATURES = ("gauss", "nodal")


def negative_part(x):
    """Negative part (x - |x|) / 2: equals x for x < 0, else 0."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (x - np.abs(x))
    return float(out) if out.ndim == 0 else out


@dataclass
class PenaltyConfig:
    """Active bounds, penalty scale, sign convention, quadrature variant."""

    lower: float | None = None
    upper: float | None = None
    gamma0: float = 1e-5
    upper_sign: str = "restoring"
    quadrature: str = "gauss"

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            raise ValueError("penalty requires at least one bound")
        if not 0.0 < self.gamma0 < 1.0:
            raise ValueError("gamma0 must lie in (0, 1)")
        if self.upper_sign not in UPPER_SIGNS:
            raise ValueError(f"upper_sign must be one of {UPPER_SIGNS}")
        if self.quadrature not in QUADRATURES:
            raise ValueError(f"quadrature must be one of {QUADRATURES}")

    @classmethod
    def from_problem(cls, problem, upper_sign="restoring", quadrature="gauss"):
        return cls(lower=problem.u_min, upper=problem.u_max,
                   gamma0=problem.gamma0, upper_sign=upper_sign,
                   quadrature=quadrature)


def compute_gammas(problem, mesh, gamma0=None):
    """Element-local penalty parameters gamma_T > 0 for the whole mesh.

    Coefficient sups are sampled at quadrature points and element vertices.
    """
    gamma0 = problem.gamma0 if gamma0 is None else gamma0
    rule = triangle_rule(4)
    B, b0, _, _ = mesh.affine()
    pts = b0[:, None, :] + np.einsum("eij,qj->eqi", B, rule.points)
    corners = mesh.vertices[mesh.elements]
    sample = np.concatenate([pts, corners], axis=1)
    beta_sup = np.linalg.norm(problem.beta_fn(sample), axis=-1).max(axis=1)
    sigma_sup = np.abs(problem.sigma_fn(sample)).max(axis=1)
    h = mesh.h_elem
    denom = beta_sup / h + problem.k_max / h ** 2 + sigma_sup
    if np.any(denom <= 0.0):
        raise ValueError("gamma undefined: beta, K, and sigma all vanish on an element")
    return gamma0 / denom


def nodal_rule():
    """Vertex (mass-lumped) rule on the reference triangle, exact for degree 1."""
    return QuadratureRule("triangle", 1,
                          np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.full(3, 1.0 / 6.0))


class StrongOperator:
    """Evaluator of A(u) - f = -div(K grad u) + beta.grad u + sigma u - f.

    Evaluated at the quadrature points of the ElementContext `ec` on `space`.
    For p = 1 the second-order term vanishes identically (K is constant per
    problem) and is skipped; for p >= 2 it uses elementwise basis Hessians.
    """

    def __init__(self, problem, space, ec):
        self.problem = problem
        self.space = space
        self.ec = ec
        self.beta = problem.beta_fn(ec.qp)
        self.sigma = problem.sigma_fn(ec.qp)
        self.fvals = problem.f_fn(ec.qp)
        # A applied to every basis function at the quadrature points
        self.A_basis = np.einsum("eqd,eqld->eql", self.beta, ec.grads)
        self.A_basis += self.sigma[:, :, None] * ec.vals[None, :, :]
        if space.p >= 2 and problem.k_max > 0.0:
            self.A_basis -= self._div_K_grad_basis()

    def _div_K_grad_basis(self):
        K = self.problem.K_mat
        href = self.space.basis.eval_hessians(self.ec.rule.points)  # (nq, nl, 3)
        Binv = self.ec.Binv
        # physical Hessian H = Binv^T Href Binv per element (affine map)
        Hr = np.empty(href.shape[:-1] + (2, 2))
        Hr[..., 0, 0] = href[..., 0]
        Hr[..., 0, 1] = Hr[..., 1, 0] = href[..., 1]
        Hr[..., 1, 1] = href[..., 2]
        Hp = np.einsum("eri,qlrs,esj->eqlij", Binv, Hr, Binv)
        return np.einsum("ij,eqlij->eql", K, Hp)

    def residual(self, u_coeffs, dofmap=None):
        """A(u) - f at all quadrature points; shape (ne, nq)."""
        dofmap = self.space.dofmap if dofmap is None else dofmap
        c = np.asarray(u_coeffs, dtype=float)[dofmap]
        return np.einsum("el,eql->eq", c, self.A_basis) - self.fvals

    def values(self, u_coeffs, dofmap=None):
        dofmap = self.space.dofmap if dofmap is None else dofmap
        c = np.asarray(u_coeffs, dtype=float)[dofmap]
        return np.einsum("el,ql->eq", c, self.ec.vals)


class PenaltyOperator:
    """Penalty residual and Jacobian assembly for a fixed mesh and space pair.

    Trial coefficients live on U_h (continuous); test functions on V_h
    (broken). gamma_T is computed at construction, so a fresh operator must
    be built after every refinement.
    """

    def __init__(self, problem, U_h, V_h, config, gammas=None):
        if U_h.mesh is not V_h.mesh:
            raise ValueError("trial and test spaces must share a mesh")
        self.problem = problem
        self.U_h = U_h
        self.V_h = V_h
        self.config = config
        self.gammas = compute_gammas(problem, U_h.mesh, config.gamma0) \
            if gammas is None else np.asarray(gammas, dtype=float)
        if np.any(self.gammas <= 0.0):
            raise ValueError("gamma_T must be uniformly positive")
        if config.quadrature == "nodal":
            if U_h.p != 1:
                raise ValueError("nodal penalty quadrature requires p = 1")
            ec = ElementContext(U_h, 1, rule=nodal_rule())
        else:
            ec = ElementContext(U_h, 2 * U_h.p + 6)   # not kept: nothing else reads it
        self.strong = StrongOperator(problem, U_h, ec)
        self.test_vals = ec.vals          # same reference basis for U_h and V_h
        self.dA = ec.dA
        self.inv_gamma = 1.0 / self.gammas

    def _terms(self, u_coeffs):
        """Per-bound tuples (sign, arg, u_coef) at the quadrature points.

        The residual contributes sign * gamma^-1 * [arg]_- against v, and
        d(arg)[z] = u_coef * z - gamma * A z.
        """
        uvals = self.strong.values(u_coeffs)
        s = self.strong.residual(u_coeffs)       # A u - f
        g = self.gammas[:, None]
        cfg = self.config
        terms = []
        if cfg.lower is not None:
            terms.append((+1.0, (uvals - cfg.lower) - g * s, +1.0))
        if cfg.upper is not None:
            sign = -1.0 if cfg.upper_sign == "restoring" else +1.0
            terms.append((sign, (cfg.upper - uvals) - g * s, -1.0))
        return terms

    def residual(self, u_coeffs):
        """Assembled penalty residual over V_h dofs."""
        out = np.zeros(self.V_h.n_dofs)
        for sign, arg, _ in self._terms(u_coeffs):
            xi = negative_part(arg)
            w = sign * self.dA * self.inv_gamma[:, None] * xi
            local = np.einsum("eq,qi->ei", w, self.test_vals)
            np.add.at(out, self.V_h.dofmap.ravel(), local.ravel())
        return out

    def jacobian(self, u_coeffs):
        """Assembled Gateaux derivative as a sparse V_h x U_h matrix.

        The kink subgradient uses sgn(0) = 0, i.e. indicator 1/2 exactly at
        the kink.
        """
        acc = _Accumulator((self.V_h.n_dofs, self.U_h.n_dofs))
        for sign, arg, u_coef in self._terms(u_coeffs):
            ind = 0.5 * (1.0 - np.sign(arg))
            dz = u_coef * np.broadcast_to(self.test_vals[None, :, :],
                                          self.strong.A_basis.shape).copy()
            dz -= self.gammas[:, None, None] * self.strong.A_basis
            w = sign * self.dA * self.inv_gamma[:, None] * ind
            blocks = np.einsum("eq,eqj,qi->eij", w, dz, self.test_vals)
            acc.add_blocks(self.V_h.dofmap, self.U_h.dofmap, blocks)
        return acc.tocsr()

