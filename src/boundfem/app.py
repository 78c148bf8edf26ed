"""Case pipelines: single runs, convergence studies, artifact writing.

Every run writes its artifacts into a per-case output directory:

    run_info.txt         all effective settings (for reproducibility)
    solution.vtk         final solution u and residual representative eps
    iterations.csv       Newton log of a penalized run, one row per accepted
                         step with its damping retries and the active-set
                         size of the iterate it started from; adaptive runs
                         add a leading level column
    violation.txt        bound-violation report (when bounds are set)
    cross_section.csv    sampled line values (cases that define one)
    levels.csv           per-level records (adaptive runs)
    study.csv            error table with least-squares slopes (studies)
"""

import os
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .adapt import adaptive_solve_loop, write_records_csv
from .cases import get_case
from .fespace import DiscreteFunction, build_space
from .forms import vh_norm
from .mesh import refine_uniform_red
from .penalty import PenaltyConfig
from .report import (bound_violation_report, cross_section, error_norms,
                     write_cross_section_csv, write_csv)
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
    pen = None
    if with_penalty and problem.has_bounds:
        pen = PenaltyConfig(case.upper_sign, case.penalty_quadrature)
    return case, problem, pen


def _adaptive(case, problem, pen):
    return adaptive_solve_loop(
        problem, pen, case.make_mesh(), theta_mark=case.theta_mark,
        max_levels=case.levels, max_dofs=case.max_dofs, p=case.p, tol=case.tol,
        exact=case.exact, exact_grad=case.exact_grad)


def _solve_uniform(case, problem, pen, mesh):
    """Linear or Newton solve on `mesh`; returns (U_h, V_h, solution, Newton log)."""
    U_h = build_space(mesh, case.p, "continuous")
    V_h = build_space(mesh, case.p, "broken")
    ops = build_operators(problem, U_h, V_h)
    V_h.contexts.clear()    # unread from here on; 10 MB at case1 L3, freed before the LU peak
    if pen is None:
        return U_h, V_h, solve_linear_resmin(problem, U_h, V_h, ops=ops), []
    res = newton_solve(problem, U_h, V_h, pen, tol=case.tol, ops=ops)
    return U_h, V_h, res, res.log


def _write_run_info(path, case, problem, extra):
    with open(path, "w") as fh:
        fh.write(f"boundfem {__version__}\n")
        fh.write(f"case = {case.name} ({case.title})\n")
        for key in ("mode", "p", "gamma0", "tol", "levels", "max_dofs",
                    "theta_mark", "penalty_quadrature", "upper_sign"):
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
    records: list                # adaptive records (empty for uniform runs)
    newton_log: list
    out_dir: str | None


def run_case(name, out_dir=None, with_penalty=True, seed=None, **overrides):
    """Execute a case's designated pipeline and write its artifacts.

    Overrides accept the CaseDefinition field names (gamma0, lower, upper,
    tol, p, levels, theta_mark, upper_sign, ...); a bound left unset keeps
    the case's value. Uniform cases solve once, on the initial mesh;
    `levels` applies to adaptive runs (and to `convergence_study`). `seed` is
    recorded for reproducibility; the solver itself is deterministic. The
    artifacts are written only after the solve.
    """
    case, problem, pen = _setup(name, with_penalty, overrides)
    newton_log = []
    records = []
    info = {"with_penalty": with_penalty, "seed": seed}
    if case.mode == "adaptive":
        result = _adaptive(case, problem, pen)
        records = result.records
        info["stop_reason"] = result.stop_reason
        mesh, U_h, V_h = result.mesh, result.U_h, result.V_h
        u, eps = result.u, result.eps
    else:
        mesh = case.make_mesh()
        U_h, V_h, sol, newton_log = _solve_uniform(case, problem, pen, mesh)
        u, eps = sol.u, sol.eps

    if out_dir:     # a setting the solve rejects leaves no directory behind
        os.makedirs(out_dir, exist_ok=True)
        _write_run_info(os.path.join(out_dir, "run_info.txt"), case, problem, info)
        if case.mode == "adaptive":
            write_records_csv(os.path.join(out_dir, "levels.csv"), records)
            if pen is not None:
                write_iteration_log(os.path.join(out_dir, "iterations.csv"),
                                    [rec for r in records for rec in r.newton_log],
                                    levels=[r.level for r in records for _ in r.newton_log])
        elif pen is not None:
            write_iteration_log(os.path.join(out_dir, "iterations.csv"), newton_log)

    uh = DiscreteFunction(U_h, u)
    eh = DiscreteFunction(V_h, eps)
    report = None
    if problem.has_bounds:
        report = bound_violation_report(uh, (problem.u_min, problem.u_max))
        if out_dir:
            with open(os.path.join(out_dir, "violation.txt"), "w") as fh:
                fh.write(f"u_min = {report.u_min!r}\nu_max = {report.u_max!r}\n")
                fh.write(f"undershoot = {report.undershoot!r}\n")
                fh.write(f"overshoot = {report.overshoot!r}\n")
                if report.undershoot_pct is not None:
                    fh.write(f"undershoot_pct = {report.undershoot_pct!r}\n")
                    fh.write(f"overshoot_pct = {report.overshoot_pct!r}\n")
    if out_dir:
        export_vtk(mesh, {"u": uh, "eps": eh},
                   os.path.join(out_dir, "solution.vtk"), title=case.name)
        if case.cross_section is not None:
            p0, p1 = case.cross_section
            s, pts, vals = cross_section(uh, p0, p1)
            write_cross_section_csv(os.path.join(out_dir, "cross_section.csv"),
                                    s, pts, ("u", vals))
    return RunResult(case, uh, eh, report, records, newton_log, out_dir)


@dataclass
class StudyRow:
    level: int
    h: float
    dofs_u: int
    dofs_v: int
    err_l2: float | None
    err_vh: float | None
    estimator: float
    undershoot: float
    overshoot: float


@dataclass
class StudyResult:
    rows: list
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
    rows = []
    if case.mode == "adaptive":
        for r in _adaptive(case, problem, pen).records:
            rows.append(StudyRow(r.level, r.h_max, r.dofs_u, r.dofs_v,
                                 r.err_l2, r.err_vh, r.estimator,
                                 r.undershoot, r.overshoot))
    else:
        if case.levels < 1:
            raise ValueError("levels must be at least 1")
        mesh = case.make_mesh()
        for level in range(case.levels):
            rows.append(_study_row(case, problem, pen, mesh, level))
            if level == case.levels - 1 or (case.max_dofs is not None
                                            and rows[-1].dofs_v >= case.max_dofs):
                break
            mesh = refine_uniform_red(mesh)

    slope_l2 = _slope([r.dofs_u for r in rows], [r.err_l2 for r in rows])
    slope_vh = _slope([r.dofs_u for r in rows], [r.err_vh for r in rows])
    result = StudyResult(rows, slope_l2, slope_vh)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_study_csv(os.path.join(out_dir, "study.csv"), result)
    return result


def _study_row(case, problem, pen, mesh, level):
    """One uniform level's `StudyRow`; its spaces and operators die on return."""
    U_h, V_h, sol, _ = _solve_uniform(case, problem, pen, mesh)
    err_l2 = err_vh = None
    if case.exact is not None:
        err_l2, err_vh = error_norms(problem, U_h, sol.u, case.exact, case.exact_grad)
    under = over = 0.0
    if problem.has_bounds:
        rep = bound_violation_report(DiscreteFunction(U_h, sol.u),
                                     (problem.u_min, problem.u_max))
        under, over = rep.undershoot, rep.overshoot
    return StudyRow(level, mesh.h, U_h.n_dofs, V_h.n_dofs, err_l2, err_vh,
                    vh_norm(sol.eps, sol.ops.G), under, over)


def _slope(dofs, errs):
    pairs = [(d, e) for d, e in zip(dofs, errs) if e is not None and e > 0.0]
    if len(pairs) < 2:
        return None
    x = np.log([np.sqrt(d) for d, _ in pairs])
    y = np.log([e for _, e in pairs])
    return float(np.polyfit(x, y, 1)[0])


def write_study_csv(path, study):
    cols = [f.name for f in fields(StudyRow)]
    rows = [[getattr(r, c) for c in cols] for r in study.rows]
    rows += [[], ["slope_l2_vs_sqrt_dofs", study.slope_l2],
             ["slope_vh_vs_sqrt_dofs", study.slope_vh]]
    write_csv(path, cols, rows)
