"""Saddle-point residual minimization: linear solve and damped Newton loop.

The linear path solves

    [ G   B ] [eps]   [L]
    [ B'  0 ] [ u ] = [0]

for the residual representative eps in the broken space V_h and the solution
u in the continuous trial space U_h, with G the dG Gram matrix and B the dG
form composed with the trial-to-test embedding. The nonlinear path adds the
bound penalty to the first block and its Gateaux derivative to B, and drives
the block residual

    R(eps, u) = [L - G eps - B_lin u - P(u);  -(B_lin + dP(u))' eps]

to zero with a damped Newton iteration: step t = 1/(1 + zeta |R|), candidate
accepted when (1/t)(1 - |R_new|/|R_old|) >= omega, with zeta escalated
(0 -> 1 -> 10 zeta) on rejection and relaxed (zeta/10) on acceptance. The
iteration stops once the L2 norm of the trial-space update falls below the
tolerance. Residual norms are Euclidean norms of the assembled block vector.

Linear solves use a direct sparse LU factorization; saddle systems are
symmetric indefinite, and only the block-residual contract (<= 1e-10
relative) is part of the interface.
"""

import csv
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import trial_to_test_embedding
from .forms import FormParams, assemble_bh, assemble_gram, assemble_load, assemble_mass
from .penalty import PenaltyOperator

RESIDUAL_FLOOR = 1e-12


def clip_inset(u, lower, upper):
    """Clip into the bound box, insetting by a tiny margin.

    Landing exactly on a bound puts whole flat regions on the penalty kink
    (the sgn argument vanishes identically there), which makes the block
    residual discontinuous at the iterate and stalls the damping; a strict
    interior start avoids that.
    """
    lo = -np.inf if lower is None else lower
    hi = np.inf if upper is None else upper
    span = 1.0
    if np.isfinite(lo):
        span = max(span, abs(lo))
    if np.isfinite(hi):
        span = max(span, abs(hi))
    inset = 1e-9 * span
    return np.clip(u, lo + inset if np.isfinite(lo) else lo,
                   hi - inset if np.isfinite(hi) else hi)


class SolverBreakdown(RuntimeError):
    """Direct factorization of the saddle system failed."""


@dataclass
class LinearOperators:
    """Mesh-level assembled operators shared by all solves on one space pair."""

    U_h: object
    V_h: object
    G: sp.csr_matrix
    B: sp.csr_matrix            # b_h composed with the embedding, V_h x U_h
    E: sp.csr_matrix
    L: np.ndarray

    @functools.cached_property
    def M_u(self):
        """Trial-space mass matrix, the norm of Newton's increment test."""
        return (self.E.T @ assemble_mass(self.V_h) @ self.E).tocsr()


def build_operators(problem, U_h, V_h, params=None):
    params = params or FormParams()
    G = assemble_gram(problem, V_h, params)
    L = assemble_load(problem, V_h, params)
    E = trial_to_test_embedding(U_h, V_h)
    B = (assemble_bh(problem, V_h, params) @ E).tocsr()
    return LinearOperators(U_h, V_h, G, B, E, L)


def _saddle_matrix(G, B):
    return sp.bmat([[G, B], [B.T, None]], format="csc")


def _factorize(K, context):
    try:
        return spla.splu(K)
    except RuntimeError as exc:
        raise SolverBreakdown(
            f"{context}: sparse LU failed ({exc}); "
            f"matrix {K.shape[0]}x{K.shape[1]}, nnz={K.nnz}") from exc


@dataclass
class ResMinSolution:
    u: np.ndarray
    eps: np.ndarray
    block_residual: float
    ops: LinearOperators


def solve_linear_resmin(problem, U_h, V_h, params=None, ops=None):
    """Solve the linear residual-minimization saddle-point problem."""
    ops = ops or build_operators(problem, U_h, V_h, params)
    nv, nu = ops.V_h.n_dofs, ops.U_h.n_dofs
    K = _saddle_matrix(ops.G, ops.B)
    rhs = np.concatenate([ops.L, np.zeros(nu)])
    lu = _factorize(K, "linear residual minimization")
    x = lu.solve(rhs)
    eps, u = x[:nv], x[nv:]
    scale = max(np.linalg.norm(ops.L), 1e-300)
    res = np.linalg.norm(K @ x - rhs) / scale
    if not np.isfinite(res) or res > 1e-8:
        raise SolverBreakdown(
            f"saddle solve inaccurate (relative block residual {res:.3e}); "
            "the system is likely singular")
    return ResMinSolution(u, eps, res, ops)


# ----------------------------------------------------------------------
# Damped Newton
# ----------------------------------------------------------------------

@dataclass
class NewtonOptions:
    omega: float = 0.5
    tol: float = 1e-5
    max_iter: int = 100
    max_retries: int = 20


@dataclass
class IterationRecord:
    k: int
    residual_norm: float
    t: float
    zeta: float
    increment_norm: float
    retries: int = 0


@dataclass
class NewtonResult:
    u: np.ndarray
    eps: np.ndarray
    converged: bool
    reason: str
    log: list
    ops: LinearOperators

    @property
    def iterations(self):
        return len(self.log)


def damped_update(x, dx, rnorm, zeta, residual_norm_fn, omega=0.5, max_retries=20):
    """One damped Newton acceptance loop.

    Returns (x_new, rnorm_new, t, zeta_new, retries); raises RuntimeError
    when the retry cap is hit. zeta grows 0 -> 1 -> 10 zeta while the
    acceptance test (1/t)(1 - rnew/rold) >= omega fails, and relaxes to
    zeta/10 on acceptance.
    """
    retries = 0
    while True:
        t = 1.0 / (1.0 + zeta * rnorm)
        cand = x + t * dx
        rnew = residual_norm_fn(cand)
        if (1.0 / t) * (1.0 - rnew / rnorm) < omega:
            zeta = 1.0 if zeta == 0.0 else 10.0 * zeta
            retries += 1
            if retries > max_retries:
                raise RuntimeError(f"damping retry cap ({max_retries}) exceeded")
        else:
            return cand, rnew, t, zeta / 10.0, retries


class NewtonSystem:
    """Residual and Jacobian assembly for the penalized saddle problem."""

    def __init__(self, problem, ops, pen_config):
        self.ops = ops
        self.pen = PenaltyOperator(problem, ops.U_h, ops.V_h, pen_config)
        self.nv = ops.V_h.n_dofs
        self.nu = ops.U_h.n_dofs

    def split(self, x):
        return x[:self.nv], x[self.nv:]

    def residual(self, x):
        """Block residual [L - G eps - B u - P(u); -(B + dP(u))' eps]."""
        ops = self.ops
        eps, u = self.split(x)
        top = ops.L - ops.G @ eps - ops.B @ u - self.pen.residual(u)
        Bu = ops.B + self.pen.jacobian(u)
        bottom = -(Bu.T @ eps)
        return np.concatenate([top, bottom]), Bu

    def residual_norm(self, x):
        r, _ = self.residual(x)
        return np.linalg.norm(r)


def newton_solve(problem, U_h, V_h, pen_config, params=None, opts=None,
                 initial=None, ops=None):
    """Damped Newton solve of the penalized residual-minimization problem.

    `initial` is an optional (eps, u) pair; by default the linear
    (unpenalized) solution is used as the starting guess. Returns a
    NewtonResult; nonconvergence is reported, not raised, with the last
    iterate retained.
    """
    opts = opts or NewtonOptions()
    ops = ops or build_operators(problem, U_h, V_h, params)
    system = NewtonSystem(problem, ops, pen_config)

    if initial is None:
        lin = solve_linear_resmin(problem, U_h, V_h, params, ops=ops)
        # start inside the feasible box: starting outside puts Newton in a
        # poor basin on coarse meshes
        u = clip_inset(lin.u, pen_config.lower, pen_config.upper)
        eps = spla.spsolve(ops.G.tocsc(), ops.L - ops.B @ u)
    else:
        eps, u = (np.asarray(v, dtype=float).copy() for v in initial)
    x = np.concatenate([eps, u])

    floor = RESIDUAL_FLOOR * max(1.0, np.linalg.norm(ops.L))
    log = []
    zeta = 0.0
    r, Bu = system.residual(x)
    rnorm = np.linalg.norm(r)
    for k in range(opts.max_iter):
        if rnorm <= floor:
            eps, u = system.split(x)
            return NewtonResult(u, eps, True, "residual at solver floor", log, ops)
        J = _saddle_matrix(ops.G, Bu)
        lu = _factorize(J, f"Newton iteration {k}")
        dx = lu.solve(r)
        try:
            x_new, rnorm_new, t, zeta, retries = damped_update(
                x, dx, rnorm, zeta, system.residual_norm,
                omega=opts.omega, max_retries=opts.max_retries)
        except RuntimeError:
            eps, u = system.split(x)
            return NewtonResult(u, eps, False, "damping retry cap exceeded", log, ops)
        du = system.split(x_new)[1] - system.split(x)[1]
        inc = float(np.sqrt(max(du @ (ops.M_u @ du), 0.0)))
        log.append(IterationRecord(k, rnorm, t, zeta, inc, retries))
        x = x_new
        r, Bu = system.residual(x)
        rnorm = np.linalg.norm(r)
        if inc < opts.tol:
            eps, u = system.split(x)
            return NewtonResult(u, eps, True, "increment below tolerance", log, ops)
    eps, u = system.split(x)
    return NewtonResult(u, eps, False, "iteration limit reached", log, ops)


def write_iteration_log(path, log):
    """Iteration log as CSV with columns k, residual_norm, t, zeta, increment_norm."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "residual_norm", "t", "zeta", "increment_norm"])
        for rec in log:
            w.writerow([rec.k, repr(float(rec.residual_norm)), repr(float(rec.t)),
                        repr(float(rec.zeta)), repr(float(rec.increment_norm))])
