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

Linear solves use a direct sparse LU factorization; saddle systems are
symmetric indefinite, and only the block-residual contract (<= 1e-10
relative) is part of the interface; `_solve_saddle` solves the linear
system once per `LinearOperators` (`LinearOperators.linear`) and every
Newton step from an active iterate, and no saddle factor outlives its
solve. Every residual takes its bottom block B'eps + dP(u)'eps without
assembling dP(u), and evaluates the penalty on the elements with some bound
argument <= 0 only (`PenaltyOperator.residual_and_adjoint`); the Jacobian
is assembled at most once per iteration, right before the Newton matrix is
factorized.
`LinearOperators.riesz` factorizes G on each call and keeps no factor: the
uniform studies solve with G once per level, and a kept factor would stay
alive through every Newton factorization of that level. `newton_solve`
forms its start (cold: K, then G; warm: G only) before it builds the penalty
tables (15.5 MB at case1 L3), so neither factor coexists with them.

Step rule. An iterate is inactive when every bound argument is strictly
positive at every penalty quadrature point (`PenaltyOperator.active_count`
is 0; at arg = 0 the kink indicator is 1/2, so dP(u) != 0 there). At an
inactive iterate P(u) = 0 and dP(u) = 0 exactly, so the Newton matrix is the
linear saddle matrix K and R(x) = [L; 0] - K x; the Newton step is then
x_lin - x, with x_lin the linear solution. Every inactive iterate, in cold
and warm solves alike, takes that step without assembling dP(u) or
factorizing; all solves on one `LinearOperators` share its one linear
solve. The step is still checked blockwise (G d_eps + B d_u and B' d_eps
against R) to SOLVE_RTOL; if it misses, the iteration falls back to a solve
with K. Every level of the case1 study starts inactive, so its Newton solves
factorize only the linear K and G. At L3 (one process, 2-core VM) RSS reads
145.6 MB right after the saddle LU and 114.9 MB right after the Riesz LU;
the Newton phase after them reaches ~147 MB in its damping trials (the
first, at t = 1, adds 12 MB over the line tables) and sets the level's
high-water ("Workspace").

Damping trials. Each Newton step (x, dx) builds one `Line`: r0 = [L; 0] - K x,
K dx, and the penalty's tables along the segment (`PenaltyOperator.line`),
so that R(x + t dx) = r0 - t K dx - [P; dP'eps] there. Every bound argument
is affine in u, hence arg + t darg on the segment, and an element whose
arguments are all positive at t = 0 and t = 1 is inactive for every t in
between; the tables keep only the other elements. A trial
(`NewtonSystem.residual_norm(line, t)`) costs one axpy per bound on those
elements and the penalty assembly on the elements active at t, through the
same kernel as the iterate residual; it agrees with the residual at
x + t dx to round-off, and x + t dx is formed only once a trial is
accepted.

Orderings (`_factorize`), fixed and picked from the matrix by `_solve_saddle`
(one-off runs, 2-core VM, scipy 1.17; tier-1 tests bound the case1 fills):

* The linear K with a P1 trial space, and G at every degree, are factorized
  symmetrically (`SYMMETRIC_LU`) in their own dof order: SuperLU with
  minimum degree on A'+A and threshold pivoting that prefers the diagonal.
  On case1 L3 (54,385 rows) this takes 0.39 s instead of COLAMD's 1.61 s,
  with 5.1 M fill instead of 13.7 M; G 0.16 s and 2.5 M instead of 0.40 s
  and 5.0 M. A reverse Cuthill-McKee pre-order gave more fill (K 5.11 M,
  G 2.88 M) and a permuted copy of the matrix. A zero threshold lost all
  accuracy at p = 2.
* Newton matrices with J = B + dP(u), dP != 0, take COLAMD (plain `splu`);
  on case1, J at the level's linear solution, symmetric -> COLAMD:

    level  rows    L+U fill                time
    L0        870  220,861 -> 61,479       0.016 -> 0.006 s
    L1      3,433  1,722,000 -> 417,481    0.230 -> 0.034 s
    L2     13,641  24.8 M -> 2.71 M        11.4 -> 0.22 s
* So does the linear K with p >= 2. Without diffusion the symmetric path
  breaks down: on case1's 11x11 mesh L+U fill is 1.29 M at p = 2 and 1.47 M
  at p = 3 against COLAMD's 229,049 and 613,395, and on case1 L1 at p = 2
  27.4 s and 27.9 M against 0.13 s and 1.65 M. With diffusion it would be
  faster (smooth L3, p = 2: 0.15 s and 2.6 M against 0.61 s and 6.3 M).

Workspace. SuperLU's panel work arrays grow with rows x panel size, so the
symmetric path takes one-column panels (`SYMMETRIC_LU`: panel_size = relax
= 1; scipy's default panel is 20). The factor is the same; on case1 L3 K
(fill 5,081,374) the RSS peak over a standalone LU with relax = 1 grows
with the panel:

    panel size    1      4      8      12     20     32
    peak (MB)    +56.1  +58.6  +62.0  +65.3  +71.9  +81.9

Median LU time, panel 20 -> 1: case1 L3 K 0.52 -> 0.49 s, G 0.24 ->
0.18 s (G +43.5 -> +30.1 MB). In the dof order relax = 1 is essential:
scipy's default relax took 38 s and +651 MB on case1 L3 K (relax = 4,
panel 1: 0.79 s, +78 MB). COLAMD keeps scipy's defaults: one-column panels
slowed it on smooth L3 at p = 2 (0.438 -> 0.475 s). Caution: panel_size =
32 corrupted the heap (a crash at interpreter exit) in every standalone
run, with relax = 1 too; do not sweep panel sizes above 20 in-process.

Before each LU (K, G and J alike) `_factorize` hands the C heap's free pages
back to the OS: glibc's malloc_trim(0), resolved once through ctypes
(`_release_heap`; a no-op where the C library has no such symbol). Once an
array has been freed, glibc's dynamic mmap threshold keeps arrays below
32 MB in the heap, and the heap is not trimmed while live arrays sit above
the holes left by freed assembly temporaries and V_h tables; those pages
stay resident, and SuperLU takes fresh ones for its factor. Before the
case1 L3 K LU, RSS reads 118.3 MB: 21.5 MB of live numpy data (tracemalloc)
over a 61 MB import baseline, the rest freed heap. The trim lowers it to
86.6 MB; RSS after the K LU falls 167.9 -> 145.6 MB, after the G LU
142.8 -> 114.9 MB. Benchmark peak RSS, medians of 10 fresh runs:
case1-penalized 172.0 -> 147.7 MB, smooth-uniform 130.3 -> 118.2 MB,
case2-adaptive-linear 84.2 -> 80.6 MB. No arithmetic changes. A trim takes
0.05-3 ms (8 on the case1 study, 32 on the case2 run), but the heap faults
the released pages in again when it reuses them (case2 run: 10.3 k ->
21.3 k minor faults): its wall time rose ~6 % in traced runs, and min-of-3
in-process repeats slowed 0.507 -> 0.565 s (case2) and 0.374 -> 0.392 s
(smooth).
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
    G = assemble_gram(problem, V_h)
    L = assemble_load(problem, V_h)
    B = (assemble_bh(problem, V_h) @ trial_to_test_embedding(U_h, V_h)).tocsr()
    return LinearOperators(U_h, V_h, G, B, L)


def _saddle_matrix(G, B):
    return sp.bmat([[G, B], [B.T, None]], format="csc")


try:    # glibc's malloc_trim(0), resolved once; a no-op where the C library has none
    _release_heap = functools.partial(ctypes.CDLL(None).malloc_trim, ctypes.c_size_t(0))
except (AttributeError, OSError, TypeError):
    def _release_heap():
        return 0


def _factorize(K, symmetric):
    """Sparse LU of the symmetric matrix K: the symmetric ordering, or COLAMD.

    The C heap's free pages go back to the OS first, so the factor does not
    stack on freed temporaries (module docstring, "Workspace").
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


def _solve_saddle(ops, B, rhs):
    """Solve [[G, B], [B', 0]] x = rhs; returns x and |K x - rhs| / |rhs|.

    Only the linear K (B is `ops.B`) with a P1 trial space takes the
    symmetric ordering (module docstring, "Orderings").
    """
    K = _saddle_matrix(ops.G, B)
    x = _factorize(K, B is ops.B and ops.U_h.p == 1).solve(rhs)
    res = np.linalg.norm(K @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
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
    u: np.ndarray
    eps: np.ndarray
    converged: bool
    reason: str
    log: list
    ops: LinearOperators

    @property
    def iterations(self):
        return len(self.log)


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
        """Block residual [L - G eps - B u - P(u); -(B'eps + dP(u)'eps)]."""
        eps, u = self.split(x)
        P, dPt_eps = self.pen.residual_and_adjoint(u, eps)
        top = self.ops.L - self.ops.G @ eps - self.ops.B @ u - P
        return np.concatenate([top, -(self.ops.B.T @ eps + dPt_eps)])

    def line(self, x, dx):
        """The `Line` of the step (x, dx); G, B and B' take one 2-column product each."""
        (eps, u), (d_eps, du) = self.split(x), self.split(dx)
        E, U = np.column_stack([eps, d_eps]), np.column_stack([u, du])
        GE, BU, BtE = self.ops.G @ E, self.ops.B @ U, self.ops.B.T @ E
        r0 = np.concatenate([self.ops.L - GE[:, 0] - BU[:, 0], -BtE[:, 0]])
        Kdx = np.concatenate([GE[:, 1] + BU[:, 1], BtE[:, 1]])
        return Line(x, dx, r0, Kdx, self.pen.line(u, du, eps, d_eps))

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
    reported, not raised, with the last iterate retained.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    ops = ops or build_operators(problem, U_h, V_h)
    if initial is None:
        # start inside the feasible box: starting outside puts Newton in a
        # poor basin on coarse meshes
        initial = clip_inset(ops.linear[0][ops.V_h.n_dofs:], problem.u_min, problem.u_max)
    u = np.asarray(initial, dtype=float)
    x = np.concatenate([ops.riesz(ops.L - ops.B @ u), u])
    system = NewtonSystem(problem, ops, pen_config)     # after the start's LUs

    floor = RESIDUAL_FLOOR * max(1.0, np.linalg.norm(ops.L))
    log = []
    zeta = 0.0
    r = system.residual(x)
    rnorm = np.linalg.norm(r)
    converged, reason = False, "iteration limit reached"
    for k in range(MAX_ITER):
        if rnorm <= floor:
            converged, reason = True, "residual at solver floor"
            break
        line, active = _newton_step(system, x, r)
        try:
            x_new, _, t, zeta, retries = damped_update(
                x, line.dx, rnorm, zeta, functools.partial(system.residual_norm, line))
        except _RetryCapExceeded:
            reason = "damping retry cap exceeded"
            break
        del line        # its tables would outlive the next step's factorization
        du = system.split(x_new)[1] - system.split(x)[1]
        inc = float(np.sqrt(max(du @ (ops.M_u @ du), 0.0)))
        log.append(IterationRecord(k, rnorm, t, zeta, inc, retries, active))
        x = x_new
        if inc < tol:
            converged, reason = True, "increment below tolerance"
            break
        r = system.residual(x)
        rnorm = np.linalg.norm(r)
    eps, u = system.split(x)
    return NewtonResult(u, eps, converged, reason, log, ops)


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
