"""Case pipelines: the level loop, single runs, convergence studies, artifacts.

Every run and study goes through one level loop (`level_loop`): spaces,
operators, solve, measure, one `AdaptRecord`, stop rules, refine. The case's
`mode` picks the refinement: "uniform" red-refines every element,
"adaptive" bisects the Dorfler-marked ones. A uniform `run_case` is one
level of that loop. Every run writes its artifacts into a per-case output
directory:

    run_info.txt         all effective settings (for reproducibility) and
                         the loop's stop_reason
    solution.vtk         final solution u and residual representative eps
    levels.csv           per-level records; a penalized level adds how its
                         kept Newton solve ended: the stop reason, the
                         final |R|/|L|, the smallest step t, the rejected
                         damping trials, the final active-set size and the
                         start (cold or warm)
    iterations.csv       Newton log of a penalized run, one row per accepted
                         step of each level's kept solve, with its level,
                         damping retries and the active-set size of the
                         iterate it started from
    violation.txt        bound-violation report (when bounds are set)
    cross_section.csv    sampled line values (cases that define one)

A study writes study.csv: the levels.csv columns, then least-squares slopes.
"""

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .adapt import (AdaptRecord, AdaptResult, adaptive_solve_loop, dorfler_mark,
                    error_indicators, record_table, warm_solve, write_records_csv)
from .cases import get_case
from .fespace import DiscreteFunction, FunctionSpace
from .forms import vh_norm
from .mesh import bisect_marked, refine_uniform_red
from .penalty import PenaltyConfig
from .report import (bound_violation_report, cross_section, error_norms, extrema,
                     violations, write_cross_section_csv, write_csv)
from .solver import build_operators, newton_solve, solve_linear_resmin, \
    write_iteration_log
from .vtkio import export_vtk


def _setup(name, with_penalty, overrides):
    """The case with its overrides, its problem, and its penalty (None if unpenalized)."""
    case = get_case(name).with_overrides(**overrides)
    if case.mode not in ("uniform", "adaptive"):
        raise ValueError(f"mode must be 'uniform' or 'adaptive', got {case.mode!r}")
    if not case.tol > 0.0:      # linear runs never reach newton_solve's check
        raise ValueError(f"tol must be positive, got {case.tol!r}")
    problem = case.problem()
    pen = PenaltyConfig(case.penalty_quadrature)     # checked when unused too
    return case, problem, pen if with_penalty and problem.has_bounds else None


def level_loop(problem, pen_config, mesh, mode, theta_mark, max_levels, max_dofs,
               p, tol, exact, exact_grad):
    """Solve, measure and refine from `mesh` until a stopping rule fires.

    `mode` "uniform" red-refines every element; "adaptive" forms the
    indicators on every level and bisects the Dorfler-marked elements
    (`theta_mark`). pen_config None solves linearly; otherwise each level
    runs Newton with increment tolerance `tol`, cold on the first level and
    on red levels, warm from the previous level on adaptive ones
    (`adapt.warm_solve`). `max_dofs` caps the V_h dofs (the level that
    reaches it still solves). A level whose Newton solve does not converge
    is recorded with its status; an adaptive run stops there, since marking
    would read that level's estimator, while a uniform study goes on to the
    next level, whose cold start reads nothing of it. Every level builds
    its spaces and operators afresh and releases the previous level's
    first, so no earlier level's operators, tables or solution outlive it
    into the next level's LUs; only adaptive Newton keeps the previous
    (U_h, u), for the warm start.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be at least 1")
    adaptive = mode == "adaptive"
    if adaptive and not 0.0 < theta_mark <= 1.0:
        raise ValueError("theta_mark must lie in (0, 1]")

    records = []
    prev = None  # (U_h, u) of the previous level
    stop_reason = "max_levels reached"
    for level in range(max_levels):
        U_h = FunctionSpace(mesh, p, "continuous")
        V_h = FunctionSpace(mesh, p, "broken")
        ops = build_operators(problem, U_h, V_h)
        if not adaptive:    # tables and Gram blocks, unread from here on; freed before the LU peak
            V_h.contexts.clear()
        if pen_config is None:
            sol, iterations = solve_linear_resmin(problem, U_h, V_h, ops=ops), 0
        elif prev is None:
            sol = newton_solve(problem, U_h, V_h, pen_config, tol=tol, ops=ops)
            iterations = sol.iterations
        else:
            sol, iterations = warm_solve(problem, U_h, V_h, pen_config, prev, tol, ops)
        converged = pen_config is None or sol.converged

        ind = error_indicators(problem, V_h, sol.eps) if adaptive else None
        lo, hi = extrema(U_h, sol.u)
        # violations are reported against the problem bounds also for
        # unpenalized comparison runs
        under, over = violations(lo, hi, problem.u_min, problem.u_max)
        err_l2 = err_vh = None
        if exact is not None:
            err_l2, err_vh = error_norms(problem, U_h, sol.u, exact, exact_grad)
        estimator = vh_norm(sol.eps, ops.G)
        status = [None] * 6 if pen_config is None else [
            sol.reason, sol.rel_residual, sol.min_t, sol.retries, sol.active, sol.start]
        records.append(AdaptRecord(
            level, mesh.n_elements, U_h.n_dofs, V_h.n_dofs, mesh.h, estimator,
            err_l2, err_vh, lo, hi, under, over, iterations, converged, *status,
            h_min=float(mesh.h_elem.min()),
            efficiency=estimator / err_vh if err_vh else None,
            newton_log=[] if pen_config is None else sol.log))

        if adaptive and not converged:
            stop_reason = f"newton failed at level {level}"
            break
        if max_dofs is not None and V_h.n_dofs >= max_dofs:
            stop_reason = "max_dofs reached"
            break
        if level == max_levels - 1:
            break
        if adaptive:
            marks = dorfler_mark(ind, theta_mark)
            if len(marks) == 0:
                stop_reason = "estimator vanished"
                break
        # hold one level at a time (docstring)
        prev = (U_h, sol.u) if adaptive and pen_config is not None else None
        U_h = V_h = ops = sol = ind = None
        mesh = bisect_marked(mesh, marks) if adaptive else refine_uniform_red(mesh)

    return AdaptResult(records, mesh, U_h, V_h, sol.u, sol.eps, stop_reason)


def _levels(case, problem, pen):
    """The case's level loop from its initial mesh, at most `case.levels`
    levels; adaptive runs enter through `adaptive_solve_loop`."""
    args = (problem, pen, case.make_mesh())
    kw = dict(theta_mark=case.theta_mark, max_levels=case.levels, max_dofs=case.max_dofs,
              p=case.p, tol=case.tol, exact=case.exact, exact_grad=case.exact_grad)
    if case.mode == "adaptive":
        return adaptive_solve_loop(*args, **kw)
    return level_loop(*args, "uniform", **kw)


def _write_run_info(path, case, problem, extra):
    with open(path, "w") as fh:
        fh.write(f"boundfem {__version__}\n")
        fh.write(f"case = {case.name} ({case.title})\n")
        for key in ("mode", "p", "gamma0", "tol", "levels", "max_dofs",
                    "theta_mark", "penalty_quadrature"):
            fh.write(f"{key} = {getattr(case, key)}\n")
        fh.write(f"bounds = {(case.lower, case.upper)}\n")
        fh.write(f"K = {problem.K_mat.tolist()}\n")
        for k, v in extra.items():
            fh.write(f"{k} = {v}\n")


@dataclass
class RunResult:
    case: object
    u: DiscreteFunction
    eps: DiscreteFunction
    violation: object            # ViolationReport or None
    records: list                # one AdaptRecord per level (one for a uniform run)
    out_dir: str | None


def run_case(name, out_dir=None, with_penalty=True, seed=None, **overrides):
    """Execute a case's designated pipeline and write its artifacts.

    Overrides accept the CaseDefinition field names (gamma0, lower, upper,
    tol, p, levels, theta_mark, penalty_quadrature, ...); a bound left unset
    keeps the case's value. The run is penalized when `with_penalty` is set
    and the problem has a bound, and run_info.txt records whether it was.
    Uniform cases solve one level, on the initial mesh; any other `levels`
    raises ValueError before a solve (`convergence_study` runs more). `seed`
    is recorded for reproducibility; the solver itself is deterministic. The
    artifacts are written only after the solve.
    """
    case, problem, pen = _setup(name, with_penalty, overrides)
    if case.mode == "uniform":
        levels = overrides.get("levels", 1)
        if levels > 1:
            raise ValueError(f"a uniform run solves one level, got levels={levels}; "
                             "a study runs more")
        case = case.with_overrides(levels=levels)
    result = _levels(case, problem, pen)
    records = result.records
    if out_dir:     # a setting the solve rejects leaves no directory behind
        os.makedirs(out_dir, exist_ok=True)
        _write_run_info(os.path.join(out_dir, "run_info.txt"), case, problem,
                        {"with_penalty": pen is not None, "seed": seed,
                         "stop_reason": result.stop_reason})
        write_records_csv(os.path.join(out_dir, "levels.csv"), records)
        if pen is not None:
            write_iteration_log(os.path.join(out_dir, "iterations.csv"),
                                [rec for r in records for rec in r.newton_log],
                                levels=[r.level for r in records for _ in r.newton_log])

    uh = DiscreteFunction(result.U_h, result.u)
    eh = DiscreteFunction(result.V_h, result.eps)
    report = None
    if problem.has_bounds:
        report = bound_violation_report(uh, (problem.u_min, problem.u_max))
        if out_dir:
            with open(os.path.join(out_dir, "violation.txt"), "w") as fh:
                fh.writelines(f"{k} = {v!r}\n" for k, v in asdict(report).items()
                              if v is not None)
    if out_dir:
        export_vtk(result.mesh, {"u": uh, "eps": eh},
                   os.path.join(out_dir, "solution.vtk"), title=case.name)
        if case.cross_section is not None:
            p0, p1 = case.cross_section
            s, pts, vals = cross_section(uh, p0, p1)
            write_cross_section_csv(os.path.join(out_dir, "cross_section.csv"),
                                    s, pts, vals)
    return RunResult(case, uh, eh, report, records, out_dir)


@dataclass
class StudyResult:
    rows: list                   # one AdaptRecord per level
    slope_l2: float | None       # least-squares slope vs sqrt(dofs_u)
    slope_vh: float | None


def convergence_study(name, mode=None, with_penalty=False, out_dir=None, **overrides):
    """Uniform or adaptive error study of a case; returns rows and slopes.

    Both modes run at most `levels` levels and stop after the first whose V_h
    dofs reach `max_dofs`; that level still solves.

    Error columns need the case's exact solution; otherwise only the
    estimator column is filled. Slopes are least-squares fits of log(error)
    against log(sqrt(dofs_u)); with uniform refinement sqrt(dofs) scales
    like 1/h, so -2 corresponds to second order in h.
    """
    case, problem, pen = _setup(name, with_penalty, dict(overrides, mode=mode))
    rows = _levels(case, problem, pen).records
    slope_l2 = _slope([r.dofs_u for r in rows], [r.err_l2 for r in rows])
    slope_vh = _slope([r.dofs_u for r in rows], [r.err_vh for r in rows])
    result = StudyResult(rows, slope_l2, slope_vh)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_study_csv(os.path.join(out_dir, "study.csv"), result)
    return result


def _slope(dofs, errs):
    pairs = [(d, e) for d, e in zip(dofs, errs) if e is not None and e > 0.0]
    if len(pairs) < 2:
        return None
    x = np.log([np.sqrt(d) for d, _ in pairs])
    y = np.log([e for _, e in pairs])
    return float(np.polyfit(x, y, 1)[0])


def write_study_csv(path, study):
    """The levels.csv columns of the study's records, then the two slopes."""
    cols, rows = record_table(study.rows)
    rows += [[], ["slope_l2_vs_sqrt_dofs", study.slope_l2],
             ["slope_vh_vs_sqrt_dofs", study.slope_vh]]
    write_csv(path, cols, rows)
