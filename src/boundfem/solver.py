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
accepted when (1/t)(1 - |R_new|/|R_old|) >= OMEGA, with zeta escalated
(0 -> 1 -> 10 zeta) on rejection, at most MAX_RETRIES times per step, and
relaxed (zeta/10) on acceptance. The iteration stops once the L2 norm of the
trial-space update falls below the tolerance. Residual norms are Euclidean
norms of the assembled block vector.

Solves. Every saddle system is solved by a sparse LU of its matrix
[[G, B], [B', 0]] (B the linear B or J = B + dP(u)). That matrix exists once:
it is built by `sp.bmat` in the precision of its factor (`_saddle_matrix`) and
dropped after the LU. Every product with it is formed blockwise from G and B
in double (`_saddle_apply`), and a relative residual above SOLVE_RTOL raises
SolverBreakdown. A `LinearOperators` solves its linear system once
(`LinearOperators.linear`), `riesz` factorizes G anew on each call, and no
factor is kept. `newton_solve` forms its start (cold: K, then G; warm: G only)
before it builds the penalty tables, so neither factor coexists with them.
Residuals take dP(u)'eps without assembling dP(u), and the Jacobian is
assembled at most once per step.

Step rule. An iterate is inactive when every bound argument is strictly
positive at every penalty quadrature point (`PenaltyOperator.active_count`
is 0; at arg = 0 the kink indicator is 1/2, so dP(u) != 0 there). There
P(u) = dP(u) = 0, and the Newton step is x_lin - x, x_lin the linear
solution, with no assembly of dP(u) and no LU. The step is still checked
blockwise against R to SOLVE_RTOL; if it misses, the step solves with K.

Damping trials. Each Newton step (x, dx) builds one `Line`: r0 = [L; 0] - K x,
K dx, and the penalty's tables along the segment (`PenaltyOperator.line`),
so that R(x + t dx) = r0 - t K dx - [P; dP'eps]. A trial
(`NewtonSystem.residual_norm(line, t)`) agrees with the residual at x + t dx
to round-off, and x + t dx is formed only once a trial is accepted.

Precision. The linear P1 K is built in float32 only, bitwise the cast of
its double values, and its solution refined in double (`_refined_solve`):
x += LU^-1 (rhs - K x), with rhs - K x formed blockwise from the double G
and B, while the residual norm at least halves, keeping the better of the
last two iterates (LAPACK dsgesv's stop quit one step early on a case2 K,
error 1.1e-11). Refinement needs the residual in double, not a double copy
of K (Carson and Higham, SIAM J. Sci. Comput. 40(2), 2018). Each step
multiplies the error by about kappa(K) 2^-24, so once kappa(K) 2^-24 >~ 1
the residual stops halving and the SOLVE_RTOL check raises; there is no
double fallback. G stays double, although its float32 LU was faster at
case1 L3 (39-42 against 51-55 ms, medians of 9, same fill, 2,276 subnormal
entries); J and the p >= 2 K stay double, float32 unmeasured there.

Orderings (`_factorize`), picked from the matrix by `_solve_saddle`:
* the P1 linear K and G (any p) take the symmetric path in their own dof order
  (`SYMMETRIC_LU`): case1 L3 K 0.39 s and 5.1 M fill, COLAMD 1.61 s, 13.7 M;
* J = B + dP(u) with dP != 0, and the p >= 2 K, take COLAMD (plain `splu`):
  symmetric, J at case1 L2 filled 24.8 M in 11.4 s, COLAMD 2.71 M in 0.22 s.

Workspace. SuperLU's panel work arrays grow with rows x panel size, so the
symmetric path takes panel_size = relax = 1 (case1 L3 K: +56.1 MB of RSS
over its input, +71.9 MB at scipy's default panel 20). Cautions: in the dof
order relax = 1 is essential (scipy's default relax took 38 s and +651 MB on
case1 L3 K), and panel_size = 32 corrupted the heap (a crash at interpreter
exit) in every standalone run, so do not sweep panel sizes above 20
in-process. COLAMD keeps scipy's defaults.

Heap release. Before each LU `_factorize` hands the C heap's free pages back
to the OS (glibc's malloc_trim(0), `_release_heap`; a no-op without it):
freed temporaries below glibc's mmap threshold stay resident under live
arrays, and the factor would stack on them (31.7 MB released before the
case1 L3 K LU). Reused pages fault in again: ~6 % wall time on the case2 run.

CHANGES.md holds the measurements, in its entries on these four choices.
"""

import ctypes
import functools
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import trial_to_test_embedding
from .forms import assemble_bh, assemble_gram, assemble_load, assemble_mass
from .penalty import PenaltyOperator
from .report import write_csv

RESIDUAL_FLOOR = 1e-12
SOLVE_RTOL = 1e-8       # a direct solve with a larger relative residual is a breakdown
OMEGA = 0.5             # damping acceptance threshold, see the module docstring
MAX_RETRIES = 20        # rejected damping trials allowed per Newton step
MAX_ITER = 100          # Newton steps allowed per solve

# The symmetric ordering's splu arguments; the measurements behind them are
# in the module docstring.
SYMMETRIC_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1,
                "relax": 1, "panel_size": 1, "options": {"SymmetricMode": True}}


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
    """A direct solve failed: its LU factorization broke down, or its
    solution missed the system by more than SOLVE_RTOL relative."""


@dataclass
class LinearOperators:
    """Mesh-level assembled operators shared by all solves on one space pair."""

    U_h: object
    V_h: object
    G: sp.csr_matrix
    B: sp.csr_matrix            # b_h composed with the embedding, V_h x U_h
    L: np.ndarray

    @functools.cached_property
    def linear(self):
        """(x, relative residual) of the linear saddle solve K x = [L; 0].

        Solved on first use and kept without its factor: the linear solution,
        the cold Newton start and every inactive Newton step read it.
        """
        return _solve_saddle(self, self.B, np.concatenate([self.L, np.zeros(self.U_h.n_dofs)]))

    @functools.cached_property
    def M_u(self):
        """Trial-space mass matrix, the norm of Newton's increment test."""
        return assemble_mass(self.U_h)

    def riesz(self, r):
        """G^-1 r, the residual representative of r; G is factorized anew."""
        return _factorize(self.G, True).solve(r)


def build_operators(problem, U_h, V_h):
    L = assemble_load(problem, V_h)
    B = (assemble_bh(problem, V_h) @ trial_to_test_embedding(U_h, V_h)).tocsr()
    G = assemble_gram(problem, V_h)     # last: its blocks stay on V_h for the indicators
    return LinearOperators(U_h, V_h, G, B, L)


def _saddle_matrix(G, B, dtype):
    """K = [[G, B], [B', 0]] as a CSC matrix with values in `dtype`."""
    return sp.bmat([[G, B], [B.T, None]], format="csc", dtype=dtype)


def _saddle_apply(G, B, x):
    """K x formed blockwise, [G e + B u; B' e] for x = [e; u], one column or several."""
    e, u = x[:G.shape[0]], x[G.shape[0]:]
    return np.concatenate([G @ e + B @ u, B.T @ e])


try:    # glibc's malloc_trim(0), resolved once; a no-op where the C library has none
    _release_heap = functools.partial(ctypes.CDLL(None).malloc_trim, ctypes.c_size_t(0))
except (AttributeError, OSError, TypeError):
    def _release_heap():
        return 0


def _factorize(K, symmetric):
    """Sparse LU of the symmetric matrix K: the symmetric ordering, or COLAMD.

    The C heap's free pages go back to the OS first, so the factor does not
    stack on freed temporaries (module docstring, "Heap release").
    """
    _release_heap()
    try:
        return spla.splu(K.tocsc(), **SYMMETRIC_LU) if symmetric else spla.splu(K)
    except RuntimeError as exc:
        ordering = "symmetric" if symmetric else "COLAMD"
        raise SolverBreakdown(
            f"sparse LU ({ordering} ordering) failed ({exc}); "
            f"matrix {K.shape[0]}x{K.shape[1]}, nnz={K.nnz}") from exc


@dataclass
class ResMinSolution:
    u: np.ndarray
    eps: np.ndarray
    block_residual: float
    ops: LinearOperators


def _refined_solve(G, B, lu, rhs):
    """x with K x = rhs from the single-precision factor `lu` of
    K = [[G, B], [B', 0]], and |K x - rhs|: x += lu^-1 (rhs - K x), the
    residual formed blockwise in double and scaled to unit norm for the
    float32 solve, while its norm at least halves; the iterate with the
    smaller residual is kept."""
    x, r, rnorm = np.zeros_like(rhs), rhs, np.linalg.norm(rhs)
    while rnorm > 0.0:
        x_new = x + rnorm * lu.solve((r / rnorm).astype(np.float32))
        r_new = rhs - _saddle_apply(G, B, x_new)
        new_norm = np.linalg.norm(r_new)
        if not new_norm < 0.5 * rnorm:
            return (x_new, new_norm) if new_norm < rnorm else (x, rnorm)
        x, r, rnorm = x_new, r_new, new_norm
    return x, rnorm


def _solve_saddle(ops, B, rhs):
    """Solve [[G, B], [B', 0]] x = rhs; returns x and |K x - rhs| / |rhs|.

    Only the linear K (B is `ops.B`) with a P1 trial space takes the
    symmetric ordering (module docstring, "Orderings"), and it is factorized
    in single precision and refined in double ("Precision").
    """
    if B is ops.B and ops.U_h.p == 1:
        lu = _factorize(_saddle_matrix(ops.G, B, np.float32), True)
        x, rnorm = _refined_solve(ops.G, B, lu, rhs)
    else:
        x = _factorize(_saddle_matrix(ops.G, B, np.float64), False).solve(rhs)
        rnorm = np.linalg.norm(_saddle_apply(ops.G, B, x) - rhs)
    res = rnorm / max(np.linalg.norm(rhs), 1e-300)
    if not res <= SOLVE_RTOL:
        raise SolverBreakdown(
            f"saddle step solve inaccurate (relative residual {res:.3e}); "
            "the system is likely singular")
    return x, res


def solve_linear_resmin(problem, U_h, V_h, ops=None):
    """Solve the linear residual-minimization saddle-point problem."""
    ops = ops or build_operators(problem, U_h, V_h)
    x, res = ops.linear
    nv = ops.V_h.n_dofs
    return ResMinSolution(x[nv:], x[:nv], res, ops)


# ----------------------------------------------------------------------
# Damped Newton
# ----------------------------------------------------------------------

@dataclass
class IterationRecord:
    k: int
    residual_norm: float
    t: float
    zeta: float
    increment_norm: float
    retries: int = 0
    active: int = 0         # arg <= 0 triples at the iterate the step starts from


@dataclass
class NewtonResult:
    """A Newton solve's last iterate and how the solve ended."""

    u: np.ndarray
    eps: np.ndarray
    converged: bool
    reason: str
    log: list
    ops: LinearOperators
    rel_residual: float     # |R|/|L| at the last iterate
    retries: int            # rejected damping trials, a capped step's included
    active: int             # `PenaltyOperator.active_count` at the last iterate
    start: str              # "cold" (clipped linear solution) or "warm" (given)

    @property
    def iterations(self):
        return len(self.log)

    @property
    def min_t(self):
        """The smallest accepted step, None if no step was taken."""
        return min((rec.t for rec in self.log), default=None)


class _RetryCapExceeded(RuntimeError):
    """The damping loop rejected MAX_RETRIES trials in a row and one more."""


def damped_update(x, dx, rnorm, zeta, residual_norm_fn):
    """One damped Newton acceptance loop.

    `residual_norm_fn(t)` is |R(x + t dx)|; the candidate x + t dx is formed
    only once a trial is accepted. Returns (x_new, rnorm_new, t, zeta_new,
    retries); raises RuntimeError when the retry cap is hit. zeta grows
    0 -> 1 -> 10 zeta while the acceptance test (1/t)(1 - rnew/rold) >= OMEGA
    fails, and relaxes to zeta/10 on acceptance.
    """
    retries = 0
    while True:
        t = 1.0 / (1.0 + zeta * rnorm)
        rnew = residual_norm_fn(t)
        if (1.0 / t) * (1.0 - rnew / rnorm) < OMEGA:
            zeta = 1.0 if zeta == 0.0 else 10.0 * zeta
            retries += 1
            if retries > MAX_RETRIES:
                raise _RetryCapExceeded(f"damping retry cap ({MAX_RETRIES}) exceeded")
        else:
            return x + t * dx, rnew, t, zeta / 10.0, retries


@dataclass
class Line:
    """The Newton step (x, dx) and the tables that give R(x + t dx) as
    r0 - t K dx - [P; dP' eps] there: r0 = [L; 0] - K x, K dx, and the
    penalty's tables (`PenaltyOperator.line`)."""

    x: np.ndarray
    dx: np.ndarray
    r0: np.ndarray
    Kdx: np.ndarray
    pen: tuple


class NewtonSystem:
    """Block residual of the penalized saddle problem, without assembling dP(u)."""

    def __init__(self, problem, ops, pen_config):
        self.ops = ops
        self.pen = PenaltyOperator(problem, ops.U_h, ops.V_h, pen_config)
        self.nv = ops.V_h.n_dofs

    def split(self, x):
        return x[:self.nv], x[self.nv:]

    def residual(self, x):
        """Block residual [L - P(u); -dP(u)'eps] - K x."""
        eps, u = self.split(x)
        P, dPt_eps = self.pen.residual(u, eps)
        Kx = _saddle_apply(self.ops.G, self.ops.B, x)
        return np.concatenate([self.ops.L - P, -dPt_eps]) - Kx

    def line(self, x, dx):
        """The `Line` of the step (x, dx); K x and K dx are one 2-column product."""
        (eps, u), (d_eps, du) = self.split(x), self.split(dx)
        KX = _saddle_apply(self.ops.G, self.ops.B, np.column_stack([x, dx]))
        r0 = np.concatenate([self.ops.L, np.zeros(len(du))]) - KX[:, 0]
        return Line(x, dx, r0, KX[:, 1].copy(), self.pen.line(u, du, eps, d_eps))

    def residual_norm(self, line, t):
        """|R(x + t dx)| for t in (0, 1] on the `Line` (x, dx), the measure of
        the damping loop's trial points, from the line's tables."""
        if not 0.0 < t <= 1.0:
            raise ValueError(f"trial step t must lie in (0, 1], got {t!r}")
        P, dPt_eps = self.pen.residual_and_adjoint_on_line(line.pen, t)
        r = line.r0 - t * line.Kdx
        r[:self.nv] -= P
        r[self.nv:] -= dPt_eps
        return np.linalg.norm(r)


def _newton_step(system, x, r):
    """The Newton step's `Line` at x, and the iterate's active count.

    At an inactive iterate J = K (module docstring): dx is x_lin - x for the
    level's linear solution x_lin if K dx meets r to SOLVE_RTOL; otherwise dx
    solves with K. At an active iterate J is assembled and factorized.
    """
    ops = system.ops
    u = system.split(x)[1]
    active = system.pen.active_count(u)
    if active == 0:
        line = system.line(x, ops.linear[0] - x)
        if np.linalg.norm(line.Kdx - r) / max(np.linalg.norm(r), 1e-300) <= SOLVE_RTOL:
            return line, active
    J = ops.B + system.pen.jacobian(u) if active else ops.B
    return system.line(x, _solve_saddle(ops, J, r)[0]), active


def newton_solve(problem, U_h, V_h, pen_config, tol=1e-5, initial=None, ops=None):
    """Damped Newton solve of the penalized residual-minimization problem.

    The start is (G^-1 (L - B u0), u0) for the trial vector u0 = `initial`,
    by default the linear (unpenalized) solution clipped into the bounds.
    Inactive iterates step to the linear solution without a factorization
    (module docstring). The iteration stops once the increment's L2 norm
    falls below `tol` > 0. Returns a NewtonResult; nonconvergence is
    reported, not raised, with the last iterate retained. Its status reads
    what the loop computed: the active count at an accepted iterate comes
    from its step's line tables, and the last |R| is the accepted trial's or
    the last residual's, so the last iterate costs no penalty evaluation.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    ops = ops or build_operators(problem, U_h, V_h)
    start = "cold" if initial is None else "warm"
    if initial is None:
        # start inside the feasible box: starting outside puts Newton in a
        # poor basin on coarse meshes
        initial = clip_inset(ops.linear[0][ops.V_h.n_dofs:], problem.u_min, problem.u_max)
    u = np.asarray(initial, dtype=float)
    x = np.concatenate([ops.riesz(ops.L - ops.B @ u), u])
    system = NewtonSystem(problem, ops, pen_config)     # after the start's LUs

    L_norm = np.linalg.norm(ops.L)
    floor = RESIDUAL_FLOOR * max(1.0, L_norm)
    log = []
    zeta = 0.0
    rejected = 0
    r = system.residual(x)
    rnorm = np.linalg.norm(r)
    active = system.pen.active_count(u)     # reads the residual's bound arguments
    converged, reason = False, "iteration limit reached"
    for k in range(MAX_ITER):
        if rnorm <= floor:
            converged, reason = True, "residual at solver floor"
            break
        line, active = _newton_step(system, x, r)
        try:
            x_new, rnew, t, zeta, retries = damped_update(
                x, line.dx, rnorm, zeta, functools.partial(system.residual_norm, line))
        except _RetryCapExceeded:
            reason = "damping retry cap exceeded"
            rejected += MAX_RETRIES + 1
            break
        active_new = system.pen.active_count_on_line(line.pen, t)
        del line        # its tables would outlive the next step's factorization
        du = system.split(x_new)[1] - system.split(x)[1]
        inc = float(np.sqrt(max(du @ (ops.M_u @ du), 0.0)))
        log.append(IterationRecord(k, rnorm, t, zeta, inc, retries, active))
        rejected += retries
        x, rnorm, active = x_new, rnew, active_new
        if inc < tol:
            converged, reason = True, "increment below tolerance"
            break
        r = system.residual(x)
        rnorm = np.linalg.norm(r)
    eps, u = system.split(x)
    return NewtonResult(u, eps, converged, reason, log, ops,
                        rnorm / max(L_norm, 1e-300), rejected, active, start)


def write_iteration_log(path, log, levels):
    """Iteration log as CSV with columns level (`levels` holds each record's
    refinement level), k, residual_norm, t, zeta, increment_norm, retries
    (rejected damping trials before the step was accepted) and active
    (`PenaltyOperator.active_count` at the iterate the step started from; at
    0, the step goes to the linear solution without a factorization).
    """
    cols = [f.name for f in fields(IterationRecord)]
    rows = [[level] + [getattr(rec, c) for c in cols]
            for level, rec in zip(levels, log, strict=True)]
    write_csv(path, ["level"] + cols, rows)
