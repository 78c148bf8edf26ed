"""A posteriori error indication, Dorfler marking, the per-level record and
the warm start of the adaptive levels.

The residual representative eps_h doubles as the error estimate: its dG norm
is localized to elements through the Gram matrix's own local blocks (the
element block, half of each adjacent interior-face block, the owned
boundary-face blocks), so the indicator squares sum to |eps_h|^2 by
construction. The indicators read the blocks that the level's
`assemble_gram` formed for the same problem and take them off the space
(`forms.take_gram_blocks`), so an adaptive level forms them once. Marking
is bulk-chasing (Dorfler): the smallest indicator-sorted prefix carrying
theta_mark^2 of the total squared estimate.

Across adaptive levels the trial solution is prolonged by nodal
interpolation (via refinement parent elements) to warm start Newton; with
nodal penalty quadrature, or if the warm solve does not converge, a cold
solve from the linear solution runs too and the level keeps the better of
the two. The level loop itself, shared with uniform refinement, is
`app.level_loop`; `adaptive_solve_loop` runs it with the Dorfler rule.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .forms import take_gram_blocks
from .report import extrema, violations, write_csv
from .solver import clip_inset, newton_solve


@dataclass
class ErrorIndicators:
    """Per-element localization of the estimator norm."""

    values: np.ndarray          # indicator_T >= 0

    @property
    def squared(self):
        return self.values ** 2


def error_indicators(problem, V_h, eps_coeffs):
    """Localize |eps_h|^2_{V_h} to elements; see the module docstring."""
    eps_coeffs = np.asarray(eps_coeffs, dtype=float)
    ind2 = np.zeros(V_h.mesh.n_elements)
    for elems, blocks in take_gram_blocks(problem, V_h):
        c = eps_coeffs[V_h.dofmap[elems].reshape(blocks.shape[:2])]
        q = (c[:, None, :] @ blocks @ c[:, :, None])[:, 0, 0]
        for col in elems.T:
            ind2 += np.bincount(col, q / elems.shape[1], minlength=len(ind2))
    return ErrorIndicators(np.sqrt(np.maximum(ind2, 0.0)))


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
    """One level of a uniform or adaptive run; `estimator` is |eps_h|_{V_h}."""

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
    # the kept solve's `NewtonResult` status, None on a linear level
    newton_reason: str | None
    newton_rel_residual: float | None
    newton_min_t: float | None
    newton_retries: int | None
    newton_active: int | None
    newton_start: str | None
    h_min: float
    efficiency: float | None    # estimator / err_vh; None if err_vh is None or 0
    newton_log: list = field(default_factory=list)   # of the solve whose u is recorded

    @property
    def h(self):
        """`h_max`, under the name study readers use."""
        return self.h_max


@dataclass
class AdaptResult:
    records: list
    mesh: object
    U_h: object
    V_h: object
    u: np.ndarray
    eps: np.ndarray
    stop_reason: str


def prolong(coeffs, old_space, new_space):
    """Nodal interpolation of a continuous function onto a refined mesh.

    Uses refinement provenance (parent elements), so it is exact for
    functions of the old space.
    """
    old_mesh = old_space.mesh
    new_mesh = new_space.mesh
    if new_mesh.parent_mesh is not old_mesh or new_mesh.parent_elements is None:
        raise ValueError("new mesh does not descend from the old space's mesh")
    parents = new_mesh.parent_elements
    refs = old_mesh.to_reference(parents[:, None], new_mesh.to_physical(new_space.basis.nodes))
    vals, _ = old_space.basis.eval(refs)
    local = (vals @ coeffs[old_space.dofmap[parents]][:, :, None])[..., 0]
    out = np.empty(new_space.n_dofs)
    out[new_space.dofmap.ravel()] = local.ravel()
    return out


def warm_solve(problem, U_h, V_h, pen_config, prev, tol, ops):
    """Newton from the previous level's (U_h, u), prolonged and clipped inside
    the bounds; returns the kept solve and the steps of every candidate."""
    initial = clip_inset(prolong(prev[1], prev[0], U_h), problem.u_min, problem.u_max)
    res = newton_solve(problem, U_h, V_h, pen_config, tol=tol, initial=initial, ops=ops)
    if pen_config.quadrature != "nodal" and res.converged:
        return res, res.iterations
    # Nodal enforcement pins the solution extrema, so every stationary point
    # is feasible up to the consistency slack; keep the converged candidate
    # that violates least (case3 level 8: 7.06e-3 warm, 0.0 cold). A failed
    # warm solve gets the same second chance.
    cold = newton_solve(problem, U_h, V_h, pen_config, tol=tol, ops=ops)
    best = min((res, cold), key=lambda r: (not r.converged, sum(violations(
        *extrema(U_h, r.u), problem.u_min, problem.u_max))))
    return best, res.iterations + cold.iterations


def adaptive_solve_loop(problem, pen_config, mesh, theta_mark=0.5, max_levels=20,
                        max_dofs=None, p=1, tol=1e-5, exact=None, exact_grad=None):
    """Run solve -> estimate -> mark -> refine from `mesh` until a stopping rule fires.

    pen_config None runs the linear (unpenalized) solver at every level.
    `max_dofs` caps the V_h dofs (the level that reaches it still solves);
    `tol` is the Newton increment tolerance of every level's solve.
    Returns partial records when Newton fails to converge at some level.
    This is `app.level_loop` with the Dorfler rule.
    """
    from .app import level_loop     # app imports this module
    return level_loop(problem, pen_config, mesh, "adaptive", theta_mark, max_levels,
                      max_dofs, p, tol, exact, exact_grad)


def record_table(records):
    """(columns, rows) of per-level records: one column per field but the Newton log."""
    cols = [f.name for f in fields(AdaptRecord) if f.name != "newton_log"]
    return cols, [[getattr(r, c) for c in cols] for r in records]


def write_records_csv(path, records):
    """Per-level records as CSV, one column per field but the Newton log;
    `efficiency` (estimator / err_vh) is empty when there is no exact solution."""
    write_csv(path, *record_table(records))
