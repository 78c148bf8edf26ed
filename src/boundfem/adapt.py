"""A posteriori error indication and the solve-estimate-mark-refine loop.

The residual representative eps_h doubles as the error estimate: its dG norm
is localized to elements through the Gram matrix's own local blocks (the
element block, half of each adjacent interior-face block, the owned
boundary-face blocks), so the indicator squares sum to |eps_h|^2 by
construction. Marking is bulk-chasing (Dorfler): the smallest
indicator-sorted prefix carrying theta_mark^2 of the total squared estimate.

Across levels the trial solution is prolonged by nodal interpolation (via
refinement parent elements) to warm start Newton; if the warm-started solve
stalls, the level falls back to the default linear-solve initial guess.
Every level builds its spaces, operators and penalty parameters afresh.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .fespace import build_space
from .forms import FormParams, gram_blocks
from .mesh import bisect_marked
from .report import error_norms, extrema, violations
from .solver import (NewtonOptions, build_operators, clip_inset,
                     newton_solve, solve_linear_resmin)


@dataclass
class ErrorIndicators:
    """Per-element localization of the estimator norm."""

    values: np.ndarray          # indicator_T >= 0
    total: float                # |eps_h|_{V_h}

    @property
    def squared(self):
        return self.values ** 2


def error_indicators(problem, V_h, eps_coeffs, params=None):
    """Localize |eps_h|^2_{V_h} to elements; see the module docstring."""
    eps_coeffs = np.asarray(eps_coeffs, dtype=float)
    ind2 = np.zeros(V_h.mesh.n_elements)
    for dofs, blocks, owners in gram_blocks(problem, V_h, params or FormParams()):
        c = eps_coeffs[dofs]
        q = np.einsum("fi,fij,fj->f", c, blocks, c)
        for elems, share in owners:
            np.add.at(ind2, elems, share * q)
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
    estimator: float
    err_l2: float | None
    err_vh: float | None
    u_min: float
    u_max: float
    undershoot: float
    overshoot: float
    newton_iterations: int
    newton_converged: bool
    h_max: float


@dataclass
class AdaptOptions:
    theta_mark: float = 0.5
    max_levels: int = 20
    max_dofs: int | None = None          # cap on V_h dofs; level hitting it still solves
    p: int = 1
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    warm_start: bool = True


@dataclass
class AdaptResult:
    records: list
    mesh: object
    U_h: object
    V_h: object
    u: np.ndarray
    eps: np.ndarray
    indicators: ErrorIndicators
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
    nodes = b0[:, None, :] + np.einsum("eij,qj->eqi", B, new_space.basis.nodes)
    parents = new_mesh.parent_elements
    refs = old_mesh.to_reference(parents[:, None], nodes)
    vals, _ = old_space.basis.eval(refs)
    local = np.einsum("el,eql->eq", u_coeffs[old_space.dofmap[parents]], vals)
    out = np.empty(new_space.n_dofs)
    out[new_space.dofmap.ravel()] = local.ravel()
    return out


def adaptive_solve_loop(problem, pen_config, params=None, opts=None,
                        initial_mesh=None, exact=None, exact_grad=None):
    """Run solve -> estimate -> mark -> refine until a stopping rule fires.

    pen_config None runs the linear (unpenalized) solver at every level.
    Returns partial records when Newton fails to converge at some level.
    """
    params = params or FormParams()
    opts = opts or AdaptOptions()
    if initial_mesh is None:
        raise ValueError("an initial mesh is required")

    mesh = initial_mesh
    records = []
    prev = None  # (U_h, u) of the previous level
    result = None
    stop_reason = "max_levels reached"
    for level in range(opts.max_levels):
        U_h = build_space(mesh, opts.p, "continuous")
        V_h = build_space(mesh, opts.p, "broken")
        ops = build_operators(problem, U_h, V_h, params)

        newton_iters = 0
        converged = True
        if pen_config is None:
            sol = solve_linear_resmin(problem, U_h, V_h, params, ops=ops)
            u, eps = sol.u, sol.eps
        else:
            import scipy.sparse.linalg as spla

            def riesz(u0):
                return spla.spsolve(ops.G.tocsc(), ops.L - ops.B @ u0)

            def violation_of(u_c):
                lo, hi = extrema(U_h, u_c, params.vol_degree(opts.p))
                return sum(violations(lo, hi, pen_config.lower, pen_config.upper))

            initial = None
            if opts.warm_start and prev is not None:
                u0 = clip_inset(prolong(prev[1], prev[0], U_h),
                                pen_config.lower, pen_config.upper)
                initial = (riesz(u0), u0)
            res = newton_solve(problem, U_h, V_h, pen_config, params,
                               opts=opts.newton, initial=initial, ops=ops)
            newton_iters = res.iterations
            if pen_config.quadrature == "nodal" and initial is not None:
                # Nodal enforcement pins the solution extrema, so every
                # stationary point is feasible up to the consistency slack
                # and candidates are interchangeable in quality; take the
                # one that violates least.
                alt = newton_solve(problem, U_h, V_h, pen_config, params,
                                   opts=opts.newton, ops=ops)
                newton_iters += alt.iterations
                key = lambda r: (not r.converged, violation_of(r.u))
                res = min((res, alt), key=key)
            elif not res.converged and initial is not None:
                res = newton_solve(problem, U_h, V_h, pen_config, params,
                                   opts=opts.newton, ops=ops)
                newton_iters += res.iterations
            converged = res.converged
            # Polish within the basin: the kinked system strands Newton at
            # near-stationary points whose bound violation varies; clipping
            # the iterate onto the bounds and re-solving keeps the solution
            # structure while shrinking the violation.
            if converged:
                viol = violation_of(res.u)
                for _ in range(3):
                    if viol <= 0.0:
                        break
                    u0 = clip_inset(res.u, pen_config.lower, pen_config.upper)
                    retry = newton_solve(problem, U_h, V_h, pen_config, params,
                                         opts=opts.newton, initial=(riesz(u0), u0),
                                         ops=ops)
                    if not retry.converged:
                        break
                    viol_retry = violation_of(retry.u)
                    newton_iters += retry.iterations
                    if viol_retry >= 0.75 * viol:
                        if viol_retry < viol:
                            res = retry
                        break
                    res, viol = retry, viol_retry
            u, eps = res.u, res.eps

        ind = error_indicators(problem, V_h, eps, params)
        lo, hi = extrema(U_h, u, params.vol_degree(opts.p))
        # violations are reported against the problem bounds also for
        # unpenalized comparison runs
        under, over = violations(lo, hi, problem.u_min, problem.u_max)
        err_l2 = err_vh = None
        if exact is not None:
            err_l2, err_vh = error_norms(problem, U_h, u, exact, exact_grad, params)
        records.append(AdaptRecord(
            level, mesh.n_elements, U_h.n_dofs, V_h.n_dofs, ind.total,
            err_l2, err_vh, lo, hi, under, over, newton_iters, converged,
            h_max=mesh.h))
        result = AdaptResult(records, mesh, U_h, V_h, u, eps, ind, stop_reason)

        if not converged:
            stop_reason = f"newton failed at level {level}"
            break
        if opts.max_dofs is not None and V_h.n_dofs >= opts.max_dofs:
            stop_reason = "max_dofs reached"
            break
        if level == opts.max_levels - 1:
            break
        marks = dorfler_mark(ind, opts.theta_mark)
        if len(marks) == 0:
            stop_reason = "estimator vanished"
            break
        prev = (U_h, u)
        # the shared quadrature/geometry tables die with their level
        U_h.contexts.clear()
        V_h.contexts.clear()
        mesh = bisect_marked(mesh, marks)

    result.stop_reason = stop_reason
    return result


def write_records_csv(path, records):
    cols = ["level", "n_elements", "dofs_u", "dofs_v", "h_max", "estimator",
            "err_l2", "err_vh", "u_min", "u_max", "undershoot", "overshoot",
            "newton_iterations", "newton_converged"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in records:
            w.writerow([r.level, r.n_elements, r.dofs_u, r.dofs_v,
                        repr(float(r.h_max)), repr(float(r.estimator)),
                        "" if r.err_l2 is None else repr(float(r.err_l2)),
                        "" if r.err_vh is None else repr(float(r.err_vh)),
                        repr(float(r.u_min)), repr(float(r.u_max)),
                        repr(float(r.undershoot)),
                        repr(float(r.overshoot)), r.newton_iterations,
                        int(r.newton_converged)])
