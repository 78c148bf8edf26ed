"""A posteriori error indication and the solve-estimate-mark-refine loop.

The residual representative eps_h doubles as the error estimate: its dG norm
is localized to elements through the Gram matrix's own local blocks (the
element block, half of each adjacent interior-face block, the owned
boundary-face blocks), so the indicator squares sum to |eps_h|^2 by
construction. Marking is bulk-chasing (Dorfler): the smallest
indicator-sorted prefix carrying theta_mark^2 of the total squared estimate.

Across levels the trial solution is prolonged by nodal interpolation (via
refinement parent elements) to warm start Newton; with nodal penalty
quadrature, or if the warm solve does not converge, a cold solve from the
linear solution runs too and the level keeps the better of the two.
Every level builds its spaces, operators and penalty parameters afresh, and
releases the previous level's before it builds them, so no earlier level's
operators, tables or solution outlive it into the next level's LUs; only a
penalized run keeps the previous (U_h, u), for the warm start.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .fespace import build_space
from .forms import gram_blocks
from .mesh import bisect_marked
from .report import error_norms, extrema, violations, write_csv
from .solver import build_operators, clip_inset, newton_solve, solve_linear_resmin


@dataclass
class ErrorIndicators:
    """Per-element localization of the estimator norm."""

    values: np.ndarray          # indicator_T >= 0
    total: float                # |eps_h|_{V_h}

    @property
    def squared(self):
        return self.values ** 2


def error_indicators(problem, V_h, eps_coeffs):
    """Localize |eps_h|^2_{V_h} to elements; see the module docstring."""
    eps_coeffs = np.asarray(eps_coeffs, dtype=float)
    ind2 = np.zeros(V_h.mesh.n_elements)
    for elems, blocks in gram_blocks(problem, V_h):
        c = eps_coeffs[V_h.dofmap[elems].reshape(blocks.shape[:2])]
        q = (c[:, None, :] @ blocks @ c[:, :, None])[:, 0, 0]
        for col in elems.T:
            ind2 += np.bincount(col, q / elems.shape[1], minlength=len(ind2))
    total = float(np.sqrt(max(ind2.sum(), 0.0)))
    return ErrorIndicators(np.sqrt(np.maximum(ind2, 0.0)), total)


def dorfler_mark(indicators, theta_mark):
    """Minimal greedy element set carrying theta_mark^2 of the squared estimate.

    Returns element ids sorted by descending indicator; empty only when all
    indicators vanish (converged).
    """
    if not 0.0 < theta_mark <= 1.0:
        raise ValueError("theta_mark must lie in (0, 1]")
    ind2 = indicators.squared
    total = ind2.sum()
    if total <= 0.0:
        return np.array([], dtype=np.int64)
    order = np.argsort(ind2, kind="stable")[::-1]
    csum = np.cumsum(ind2[order])
    n = int(np.searchsorted(csum, theta_mark ** 2 * total - 1e-14 * total) + 1)
    n = min(n, int((ind2[order] > 0.0).sum()))
    return order[:max(n, 1)]


@dataclass
class AdaptRecord:
    level: int
    n_elements: int
    dofs_u: int
    dofs_v: int
    h_max: float
    estimator: float
    err_l2: float | None
    err_vh: float | None
    u_min: float
    u_max: float
    undershoot: float
    overshoot: float
    newton_iterations: int
    newton_converged: bool
    h_min: float
    efficiency: float | None    # estimator / err_vh; None if err_vh is None or 0
    newton_log: list = field(default_factory=list)   # of the solve whose u is recorded


@dataclass
class AdaptResult:
    records: list
    mesh: object
    U_h: object
    V_h: object
    u: np.ndarray
    eps: np.ndarray
    stop_reason: str


def prolong(u_coeffs, old_space, new_space):
    """Nodal interpolation of a continuous function onto a refined mesh.

    Uses refinement provenance (parent elements), so it is exact for
    functions of the old space.
    """
    old_mesh = old_space.mesh
    new_mesh = new_space.mesh
    if new_mesh.parent_mesh is not old_mesh or new_mesh.parent_elements is None:
        raise ValueError("new mesh does not descend from the old space's mesh")
    B, b0, _, _ = new_mesh.affine()
    nodes = b0[:, None, :] + new_space.basis.nodes @ B.swapaxes(1, 2)
    parents = new_mesh.parent_elements
    refs = old_mesh.to_reference(parents[:, None], nodes)
    vals, _ = old_space.basis.eval(refs)
    local = (vals @ u_coeffs[old_space.dofmap[parents]][:, :, None])[..., 0]
    out = np.empty(new_space.n_dofs)
    out[new_space.dofmap.ravel()] = local.ravel()
    return out


def adaptive_solve_loop(problem, pen_config, mesh, theta_mark=0.5, max_levels=20,
                        max_dofs=None, p=1, tol=1e-5, exact=None, exact_grad=None):
    """Run solve -> estimate -> mark -> refine from `mesh` until a stopping rule fires.

    pen_config None runs the linear (unpenalized) solver at every level.
    `max_dofs` caps the V_h dofs (the level that reaches it still solves);
    `tol` is the Newton increment tolerance of every level's solve.
    Returns partial records when Newton fails to converge at some level.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be at least 1")
    if not 0.0 < theta_mark <= 1.0:
        raise ValueError("theta_mark must lie in (0, 1]")

    records = []
    prev = None  # (U_h, u) of the previous level
    stop_reason = "max_levels reached"
    for level in range(max_levels):
        U_h = build_space(mesh, p, "continuous")
        V_h = build_space(mesh, p, "broken")
        ops = build_operators(problem, U_h, V_h)

        newton_iters = 0
        newton_log = []
        converged = True
        if pen_config is None:
            sol = solve_linear_resmin(problem, U_h, V_h, ops=ops)
            u, eps = sol.u, sol.eps
        else:
            initial = None
            if prev is not None:
                initial = clip_inset(prolong(prev[1], prev[0], U_h),
                                     problem.u_min, problem.u_max)
            res = newton_solve(problem, U_h, V_h, pen_config,
                               tol=tol, initial=initial, ops=ops)
            newton_iters = res.iterations
            if initial is not None and (pen_config.quadrature == "nodal"
                                        or not res.converged):
                # Nodal enforcement pins the solution extrema, so every
                # stationary point is feasible up to the consistency slack;
                # keep the converged candidate that violates least (case3
                # level 8: 7.06e-3 warm, 0.0 cold). A failed warm solve gets
                # the same second chance.
                cold = newton_solve(problem, U_h, V_h, pen_config, tol=tol, ops=ops)
                newton_iters += cold.iterations
                res = min((res, cold), key=lambda r: (not r.converged, sum(violations(
                    *extrema(U_h, r.u), problem.u_min, problem.u_max))))
            converged = res.converged
            u, eps, newton_log = res.u, res.eps, res.log

        ind = error_indicators(problem, V_h, eps)
        lo, hi = extrema(U_h, u)
        # violations are reported against the problem bounds also for
        # unpenalized comparison runs
        under, over = violations(lo, hi, problem.u_min, problem.u_max)
        err_l2 = err_vh = None
        if exact is not None:
            err_l2, err_vh = error_norms(problem, U_h, u, exact, exact_grad)
        records.append(AdaptRecord(
            level, mesh.n_elements, U_h.n_dofs, V_h.n_dofs, mesh.h, ind.total,
            err_l2, err_vh, lo, hi, under, over, newton_iters, converged,
            h_min=float(mesh.h_elem.min()),
            efficiency=ind.total / err_vh if err_vh else None,
            newton_log=newton_log))

        if not converged:
            stop_reason = f"newton failed at level {level}"
            break
        if max_dofs is not None and V_h.n_dofs >= max_dofs:
            stop_reason = "max_dofs reached"
            break
        if level == max_levels - 1:
            break
        marks = dorfler_mark(ind, theta_mark)
        if len(marks) == 0:
            stop_reason = "estimator vanished"
            break
        # hold one level at a time (module docstring)
        prev = (U_h, u) if pen_config is not None else None
        U_h = V_h = ops = sol = res = cold = ind = u = eps = None
        mesh = bisect_marked(mesh, marks)

    return AdaptResult(records, mesh, U_h, V_h, u, eps, stop_reason)


def write_records_csv(path, records):
    """Per-level records as CSV, one column per field but the Newton log;
    `efficiency` (estimator / err_vh) is empty when there is no exact solution."""
    cols = [f.name for f in fields(AdaptRecord) if f.name != "newton_log"]
    write_csv(path, cols, ([getattr(r, c) for c in cols] for r in records))
