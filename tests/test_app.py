import csv
import os

import numpy as np
import pytest

from boundfem.app import convergence_study, run_case
from boundfem.cases import CASES, get_case
from boundfem.cli import main, read_config
from boundfem.fespace import DiscreteFunction, FunctionSpace
from boundfem.mesh import build_structured_mesh
from boundfem.report import bound_violation_report, cross_section, write_csv
from boundfem.vtkio import export_vtk
from einsum_reference import nodal_values


DATA = os.path.join(os.path.dirname(__file__), "data")


def read_vtk_points(path):
    """The POINTS block of a legacy VTK file as an (n, 2) array."""
    lines = open(path).read().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("POINTS"))
    n = int(lines[k].split()[1])
    return np.array([[float(t) for t in ln.split()[:2]] for ln in lines[k + 1:k + 1 + n]])


def test_builtin_case_parameters_match_reference_values():
    c1 = get_case("case1")
    pr1 = c1.problem()
    np.testing.assert_allclose(pr1.beta_fn(np.zeros((1, 2)))[0],
                               [3 / np.sqrt(10), 1 / np.sqrt(10)], rtol=1e-15)
    assert pr1.k_max == 0.0 and pr1.gamma0 == 1e-5
    assert (pr1.u_min, pr1.u_max) == (0.0, 1.0)
    assert c1.tol == 1e-5
    mesh1 = c1.make_mesh()
    assert mesh1.h == pytest.approx(0.126, rel=0.05)   # quasi-uniform h = 0.126
    # exact solution: the tanh layer with eps = 0.01
    x = np.array([[0.3, 0.6]])
    expected = 0.5 * (np.tanh((0.6 - 0.1 - 0.25) / 0.01) + 1.0)
    assert c1.exact(x)[0] == pytest.approx(expected, rel=1e-14)

    c2 = get_case("case2")
    pr2 = c2.problem()
    pts = np.array([[0.3, -0.4]])
    np.testing.assert_allclose(pr2.beta_fn(pts)[0], [0.4, 0.3], rtol=1e-15)
    assert pr2.k_max == 0.0
    m2 = c2.make_mesh()
    assert m2.vertices[:, 0].min() == 0.0 and m2.vertices[:, 0].max() == 1.0
    assert m2.vertices[:, 1].min() == -1.0 and m2.vertices[:, 1].max() == 1.0

    c3 = get_case("case3")
    pr3 = c3.problem()
    assert pr3.k_max == pytest.approx(1e-3)
    assert pr3.gamma0 == 1e-4
    assert c3.make_mesh().n_elements == 32        # 4x4 structured cells


def test_case2_inlet_profile_and_exact_solution():
    c2 = get_case("case2")
    pr2 = c2.problem()
    # the inlet bump on the lower-left edge: ~1 between 0.35 and 0.65, ~0 outside
    edge = lambda s: np.column_stack([np.zeros_like(s), -s])
    s = np.array([0.1, 0.5, 0.9])
    g = pr2.g_fn(edge(s))
    np.testing.assert_allclose(g, [0.0, 1.0, 0.0], atol=1e-6)
    # zero on the bottom inflow edge
    assert pr2.g_fn(np.array([[0.5, -1.0]]))[0] == 0.0
    # exact solution transports the profile along circles
    uex = c2.exact
    mid = uex(np.array([[0.5 / np.sqrt(2), 0.5 / np.sqrt(2)]]))[0]
    assert mid == pytest.approx(1.0, abs=1e-6)
    assert uex(np.array([[0.9, 0.9]]))[0] == 0.0   # radius > 1


def test_violation_report_arithmetic():
    mesh = build_structured_mesh(2, 2)
    U = FunctionSpace(mesh, 1, "continuous")
    inside = DiscreteFunction(U, nodal_values(U, 0.5))
    rep = bound_violation_report(inside, (0.0, 1.0))
    assert rep.undershoot == 0.0 and rep.overshoot == 0.0
    assert rep.total == 0.0

    coeffs = nodal_values(U, 0.5)
    coeffs[0] = -0.05
    dipped = DiscreteFunction(U, coeffs)
    rep = bound_violation_report(dipped, (0.0, 1.0))
    assert rep.undershoot == pytest.approx(0.05)
    assert rep.undershoot_pct == pytest.approx(5.0)
    assert rep.overshoot == 0.0

    with pytest.raises(ValueError):
        bound_violation_report(inside, (None, None))


def test_vtk_export_two_triangles(tmp_path):
    mesh = build_structured_mesh(1, 1)
    U = FunctionSpace(mesh, 1, "continuous")
    V = FunctionSpace(mesh, 1, "broken")
    u = DiscreteFunction(U, np.ones(U.n_dofs))
    e = DiscreteFunction(V, np.random.default_rng(5).standard_normal(V.n_dofs))
    path = tmp_path / "two.vtk"
    export_vtk(mesh, {"u": u, "eps": e}, path)
    text = path.read_text()
    assert "POINTS 4 double" in text
    assert "CELLS 2 8" in text
    assert "CELL_TYPES 2" in text
    assert "SCALARS u double 1" in text
    assert "SCALARS eps double 1" in text
    # round-trip: point coordinates equal mesh vertices bit-exactly
    pts = read_vtk_points(path)
    assert np.array_equal(pts, mesh.vertices)
    # point data for u is identically one
    lines = text.splitlines()
    k = lines.index("SCALARS u double 1")
    vals = [float(v) for v in lines[k + 2:k + 6]]
    assert vals == [1.0, 1.0, 1.0, 1.0]
    # cell data for P1 eps is its centroid value, the mean of the element's
    # three local coefficients
    k = lines.index("SCALARS eps double 1")
    cells = np.array([float(v) for v in lines[k + 2:k + 4]])
    np.testing.assert_allclose(cells, e.coeffs[V.dofmap].mean(axis=1), rtol=1e-14, atol=1e-15)


def test_cross_section_sampling():
    mesh = build_structured_mesh(4, 4)
    U = FunctionSpace(mesh, 1, "continuous")
    u = DiscreteFunction(U, nodal_values(U, lambda x: x[..., 0] + x[..., 1]))
    s, pts, vals = cross_section(u, (0.0, 0.0), (1.0, 1.0), n=101)
    assert len(s) == 101
    np.testing.assert_allclose(vals, pts[:, 0] + pts[:, 1], atol=1e-12)


def test_run_case_smooth_artifacts(tmp_path):
    out = tmp_path / "smooth"
    result = run_case("smooth", out_dir=str(out), levels=1)
    assert result.violation is None
    files = set(os.listdir(out))
    assert {"run_info.txt", "solution.vtk"} <= files
    info = (out / "run_info.txt").read_text()
    assert "case = smooth" in info


@pytest.mark.parametrize("levels,match", [(3, "a uniform run solves one level"),
                                          (0, "max_levels must be at least 1")])
def test_uniform_run_rejects_other_level_counts_before_any_solve(levels, match, tmp_path,
                                                                 monkeypatch):
    # a uniform run solves one level (a study runs more); the override is
    # rejected, not dropped, and nothing is solved or written
    import boundfem.app as app
    monkeypatch.setattr(app, "build_operators", lambda *args: pytest.fail("solved"))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        run_case("smooth", out_dir=str(out), levels=levels)
    assert not out.exists()


def test_cli_uniform_run_with_levels_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "smooth", "--levels", "3", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "a uniform run solves one level, got levels=3" in err and "study" in err
    assert not out.exists()


def test_run_case_unknown_name():
    with pytest.raises(KeyError):
        run_case("case9")


def test_convergence_study_zero_data_errors_vanish():
    # zero-data variant of the smooth case: all error columns are zero
    from boundfem.cases import CaseDefinition
    import boundfem.cases as cases_mod
    from boundfem.forms import ProblemSpec

    zero = CaseDefinition(
        name="zerocase", title="zero data",
        make_problem=lambda: ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
                                         f=0.0, g=0.0),
        mode="uniform",
        make_mesh=lambda: build_structured_mesh(2, 2),
        exact=lambda x: np.zeros(x.shape[:-1]),
        exact_grad=lambda x: np.zeros(x.shape),
        levels=3)
    cases_mod.CASES["zerocase"] = zero
    try:
        study = convergence_study("zerocase")
        for row in study.rows:
            assert row.err_l2 == pytest.approx(0.0, abs=1e-14)
            assert row.estimator == pytest.approx(0.0, abs=1e-14)
    finally:
        del cases_mod.CASES["zerocase"]


def test_cli_list_and_run(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in CASES:
        assert name in out

    rc = main(["run", "smooth", "--levels", "1",
               "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "solution.vtk").exists()

    assert main(["run", "bogus"]) == 2

    rc = main(["study", "smooth", "--levels", "3",
               "--out-dir", str(tmp_path / "study")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "L2 slope" in out
    assert (tmp_path / "study" / "study.csv").exists()


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("# comment\npenalty.gamma0 = 1e-4\ntol = 1e-6\n")
    parsed = read_config(cfg)
    assert parsed == {"gamma0": 1e-4, "tol": 1e-6}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 3\n")
    with pytest.raises(ValueError):
        read_config(bad)


def test_cli_overrides_reach_solver(tmp_path):
    out = tmp_path / "c1"
    rc = main(["run", "case1", "--no-penalty", "--out-dir", str(out)])
    assert rc == 0
    # unpenalized case1 violates visibly; the report file says so
    text = (out / "violation.txt").read_text()
    under = float(text.splitlines()[2].split("=")[1])
    over = float(text.splitlines()[3].split("=")[1])
    assert under + over >= 1e-2
    # --no-penalty (with_penalty=False) solves linearly: no Newton log
    assert not (out / "iterations.csv").exists()


def test_case3_export_contains_both_fields(tmp_path):
    out = tmp_path / "case3"
    result = run_case("case3", out_dir=str(out), levels=3)
    text = (out / "solution.vtk").read_text()
    assert "SCALARS u double 1" in text
    assert "SCALARS eps double 1" in text
    assert (out / "levels.csv").exists()
    assert (out / "cross_section.csv").exists()
    assert len(result.records) == 3


def test_adaptive_run_with_zero_levels_raises():
    with pytest.raises(ValueError, match="max_levels must be at least 1"):
        run_case("case3", levels=0)


def test_run_case_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'uniform' or 'adaptive'"):
        run_case("case2", mode="adaptiv")


def test_convergence_study_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'uniform' or 'adaptive'"):
        convergence_study("case2", mode="adaptiv", levels=2)


def test_adaptive_run_info_records_the_stop_reason(tmp_path):
    run_case("case3", out_dir=str(tmp_path / "adaptive"), with_penalty=False, levels=2)
    run_case("smooth", out_dir=str(tmp_path / "uniform"))
    info = (tmp_path / "adaptive" / "run_info.txt").read_text().splitlines()
    assert info[-1] == "stop_reason = max_levels reached"
    # a uniform run is the same loop with one level, and records that level
    info = (tmp_path / "uniform" / "run_info.txt").read_text().splitlines()
    assert "levels = 1" in info
    assert info[-1] == "stop_reason = max_levels reached"


def test_penalized_uniform_run_writes_iteration_log(tmp_path):
    out = tmp_path / "pen"
    result = run_case("case1", out_dir=str(out))
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0] == "level,k,residual_norm,t,zeta,increment_norm,retries,active"
    assert len(lines) - 1 == len(result.records[0].newton_log) > 0


def test_penalized_adaptive_run_writes_iteration_log(tmp_path):
    out = tmp_path / "case3"
    result = run_case("case3", out_dir=str(out))
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0] == "level,k,residual_norm,t,zeta,increment_norm,retries,active"
    rows = [line.split(",") for line in lines[1:]]
    expected = [(r.level, rec.k, rec.retries, rec.active)
                for r in result.records for rec in r.newton_log]
    assert [(int(row[0]), int(row[1]), int(row[6]), int(row[7])) for row in rows] == expected
    assert len(rows) > 0
    # every level records the log of the solve whose u it keeps
    assert all(0 < len(r.newton_log) <= r.newton_iterations for r in result.records)


def test_unpenalized_adaptive_run_writes_no_iteration_log(tmp_path):
    out = tmp_path / "case3"
    run_case("case3", out_dir=str(out), with_penalty=False, levels=2)
    assert (out / "levels.csv").exists()
    assert not (out / "iterations.csv").exists()


def test_uniform_study_with_zero_levels_raises(tmp_path):
    with pytest.raises(ValueError, match="levels must be at least 1"):
        convergence_study("smooth", levels=0, out_dir=str(tmp_path))
    assert not (tmp_path / "study.csv").exists()


def test_uniform_study_stops_at_max_dofs():
    # as in the adaptive loop, the level whose V_h dofs reach max_dofs still
    # solves and is the last one
    study = convergence_study("case2", mode="uniform", max_dofs=800, levels=5)
    assert [r.dofs_v for r in study.rows] == [192, 768, 3072]


def test_cli_study_with_zero_levels_fails(tmp_path, capsys):
    # used to exit 0 with a header-only study.csv
    assert main(["study", "smooth", "--levels", "0", "--out-dir", str(tmp_path)]) == 2
    assert "levels must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "study.csv").exists()


@pytest.mark.parametrize("flag", [["--tol", "-1"], ["--levels", "0"],
                                  ["--theta-mark", "2"], ["--p", "0"],
                                  ["--levels", "1", "--theta-mark", "2"]])
def test_cli_run_rejected_during_solve_leaves_no_out_dir(flag, tmp_path):
    # the setup or the solve checks these settings (--theta-mark before
    # level 0, so also in a one-level run), so run_info.txt must wait for it
    out = tmp_path / "out"
    assert main(["run", "case3", "--out-dir", str(out)] + flag) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [["study", "case1", "--no-penalty"],
                                  ["run", "case1", "--with-penalty"]])
def test_cli_penalty_flag_of_the_other_command_exits_2(argv, capsys):
    # studies are unpenalized unless --with-penalty is given, runs penalized
    # unless --no-penalty is; each flag belongs to one command only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_study_rejects_seed(tmp_path, capsys):
    # a study writes no run_info.txt, so it has nowhere to record a seed;
    # the flag belongs to `run` only, which echoes it into run_info.txt
    with pytest.raises(SystemExit) as exc:
        main(["study", "smooth", "--levels", "1", "--seed", "7", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "study.csv").exists()
    assert main(["run", "case1", "--seed", "7", "--out-dir", str(tmp_path / "run")]) == 0
    assert "seed = 7" in (tmp_path / "run" / "run_info.txt").read_text()


@pytest.mark.parametrize("argv", [["run", "case1", "--upper", "paper"],
                                  ["run", "case1", "--theta", "0.3"],
                                  ["study", "smooth", "--with", "--levels", "1"]])
def test_cli_flag_prefixes_exit_2(argv, tmp_path, capsys):
    # a prefix of a flag is not that flag (`--theta`, `--with`); `--upper`
    # once set the removed --upper-sign silently and exited 0
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_gamma0_exits_2(tmp_path, capsys):
    assert main(["run", "case1", "--gamma0", "2", "--out-dir", str(tmp_path / "run")]) == 2
    assert "gamma0 must lie in (0, 1)" in capsys.readouterr().err


def test_smooth_run_applies_its_bound_settings(tmp_path):
    # smooth used to record bounds and gamma0 in run_info.txt but solve unbounded
    result = run_case("smooth", out_dir=str(tmp_path / "ok"), lower=0.0, upper=0.5, gamma0=1e-3)
    assert result.violation is not None and result.records[0].newton_log
    assert (tmp_path / "ok" / "violation.txt").exists()
    out = tmp_path / "bad"
    with pytest.raises(ValueError, match="gamma0 must lie in"):
        run_case("smooth", out_dir=str(out), lower=0.0, upper=0.5, gamma0=7)
    assert not out.exists()


@pytest.mark.parametrize("setting", ["penalty.quadrature = bogus"], ids=["quadrature"])
@pytest.mark.parametrize("argv", [["run", "case1", "--no-penalty"], ["run", "smooth"]],
                         ids=["case1-no-penalty", "smooth"])
def test_cli_unused_penalty_settings_exit_2(argv, setting, tmp_path, capsys):
    # an unpenalized run used to record a bogus method setting and exit 0
    cfg = tmp_path / "pen.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_cli_removed_upper_sign_exits_2(tmp_path, capsys):
    # the penalty has one sign convention; the flag and the key that chose
    # another are gone
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "case1", "--upper-sign", "paper", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --upper-sign paper" in capsys.readouterr().err
    cfg = tmp_path / "sign.cfg"
    cfg.write_text("penalty.upper_sign = paper\n")
    assert main(["run", "case1", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "unknown config key 'penalty.upper_sign'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,penalized", [(["smooth"], False), (["case1"], True),
                                            (["case1", "--no-penalty"], False)],
                         ids=["smooth", "case1", "case1-no-penalty"])
def test_run_info_records_whether_a_penalty_ran(argv, penalized, tmp_path):
    # smooth has no bounds, so it solves linearly; it used to record
    # with_penalty = True all the same
    out = tmp_path / "out"
    assert main(["run", *argv, "--out-dir", str(out)]) == 0
    assert f"with_penalty = {penalized}" in (out / "run_info.txt").read_text().splitlines()
    assert (out / "iterations.csv").exists() == penalized


def test_cli_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key = 3\n")
    assert main(["run", "case1", "--config", str(cfg)]) == 2
    assert "unknown config key 'nonsense.key'" in capsys.readouterr().err


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ValueError, match="missing.cfg"):
        read_config(missing)
    assert main(["run", "case1", "--config", str(missing)]) == 2
    assert f"cannot read config file {str(missing)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_cli_nonpositive_tol_exits_2(tol, tmp_path, capsys):
    # linear runs and studies never reach newton_solve's own check
    for argv in (["run", "case1"], ["run", "smooth"], ["run", "case1", "--no-penalty"],
                 ["study", "smooth", "--levels", "1"]):
        out = tmp_path / "out"
        assert main(argv + ["--tol", tol, "--out-dir", str(out)]) == 2
        assert "tol must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_write_csv_cell_rules(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c"],
              [[None, True, False], [0.1 + 0.2, np.float64(1 / 3), np.int64(7)], []])
    lines = path.read_text().splitlines()
    # None is empty, bools are 0/1, floats keep every digit, ints stay ints,
    # and an empty row (the study CSV's separator) is an empty line
    assert lines == ["a,b,c", ",1,0", "0.30000000000000004,0.3333333333333333,7", ""]
    assert float(lines[2].split(",")[0]) == 0.1 + 0.2


def test_study_csv_deterministic(tmp_path):
    from boundfem.app import write_study_csv
    paths = []
    for k in range(2):
        study = convergence_study("smooth", levels=2)
        p = tmp_path / f"study{k}.csv"
        write_study_csv(p, study)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_cli_partial_bounds_override_merges_with_case(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("bounds.lower = -0.5\n")
    out = tmp_path / "o"
    rc = main(["run", "case1", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    info = (out / "run_info.txt").read_text()
    assert "bounds = (-0.5, 1.0)" in info


def test_run_case_partial_bounds_keep_the_case_bound(tmp_path):
    run_case("case1", lower=-0.5, out_dir=str(tmp_path))
    assert "bounds = (-0.5, 1.0)" in (tmp_path / "run_info.txt").read_text()


def test_case1_penalty_energy_error_ordering():
    # enforcing the bounds costs accuracy in the dG norm at the finest
    # common level; the L2 column is recorded but deliberately not asserted
    pen = convergence_study("case1", levels=2, with_penalty=True)
    unp = convergence_study("case1", levels=2, with_penalty=False)
    assert pen.rows[-1].err_vh >= unp.rows[-1].err_vh - 1e-12
    assert all(r.err_l2 is not None for r in pen.rows)


def test_case1_penalized_study_matches_reference(monkeypatch):
    # seed-0 rows of the penalized case1 study and each level's Newton
    # iterations, rejected damping trials and stop reason, as committed
    import boundfem.app as app
    solves = []
    newton_solve = app.newton_solve

    def recorded(*args, **kwargs):
        solves.append(newton_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(app, "newton_solve", recorded)
    study = convergence_study("case1", with_penalty=True)
    with open(os.path.join(DATA, "case1_penalized_reference.csv")) as fh:
        ref = list(csv.DictReader(fh))
    assert len(study.rows) == len(solves) == len(ref)
    for row, res, want in zip(study.rows, solves, ref):
        for key in ("level", "dofs_u", "dofs_v"):
            assert getattr(row, key) == int(want[key])
        for key in ("h", "err_l2", "err_vh", "estimator", "undershoot", "overshoot"):
            assert getattr(row, key) == pytest.approx(float(want[key]), rel=1e-9, abs=0.0)
        assert res.iterations == int(want["newton_iterations"])
        assert sum(rec.retries for rec in res.log) == int(want["damping_retries"])
        assert res.reason == want["newton_reason"]


def test_study_rows_are_the_level_records(tmp_path):
    # studies and runs share one level loop and one record: study.csv has the
    # levels.csv columns, and a penalized study row carries its Newton status
    convergence_study("smooth", levels=2, out_dir=str(tmp_path / "study"))
    run_case("smooth", out_dir=str(tmp_path / "run"))
    study = (tmp_path / "study" / "study.csv").read_text().splitlines()
    levels = (tmp_path / "run" / "levels.csv").read_text().splitlines()
    assert study[0] == levels[0]
    pen = convergence_study("case1", levels=2, with_penalty=True)
    with open(os.path.join(DATA, "case1_penalized_reference.csv")) as fh:
        ref = list(csv.DictReader(fh))[:2]
    got = [(r.newton_converged, r.newton_iterations) for r in pen.rows]
    assert got == [(True, int(want["newton_iterations"])) for want in ref] == [(True, 1)] * 2


def test_linear_levels_leave_the_newton_status_empty(tmp_path):
    # the kept solve's status sits between newton_converged and h_min; a
    # linear level has no Newton solve, so its cells are empty
    run_case("smooth", out_dir=str(tmp_path))
    with open(tmp_path / "levels.csv") as fh:
        rows = list(csv.DictReader(fh))
    status = ["newton_reason", "newton_rel_residual", "newton_min_t", "newton_retries",
              "newton_active", "newton_start"]
    cols = list(rows[0])
    assert cols[cols.index("newton_converged") + 1:cols.index("h_min")] == status
    assert [rows[0][c] for c in status] == [""] * 6


def test_penalized_study_holds_one_level_at_each_factorization(monkeypatch):
    # each uniform level's spaces, operators and solution are released
    # before the next level is built, so no level's G, B and M_u outlive it
    # into the next level's LUs
    import weakref
    import boundfem.app as app
    import boundfem.solver as solver
    levels, alive = [], []
    build_operators = app.build_operators

    def built(*args):
        ops = build_operators(*args)
        levels.append(weakref.ref(ops))
        return ops

    factorize = solver._factorize

    def counted(K, symmetric):
        alive.append(sum(ref() is not None for ref in levels))
        return factorize(K, symmetric)

    monkeypatch.setattr(app, "build_operators", built)
    monkeypatch.setattr(solver, "_factorize", counted)
    study = convergence_study("case1", with_penalty=True)
    # one saddle LU and one Riesz LU of G per level
    assert len(levels) == len(study.rows) == 4 and alive == [1] * 8


@pytest.fixture(scope="module")
def case2_penalized_run(tmp_path_factory):
    """levels.csv and iterations.csv rows of the penalized case2 run to 2,500 dG dofs."""
    out = tmp_path_factory.mktemp("case2")
    run_case("case2", out_dir=str(out), max_dofs=2500)
    with open(out / "levels.csv") as fh, open(out / "iterations.csv") as fi:
        return list(csv.DictReader(fh)), list(csv.DictReader(fi))


def test_case2_penalized_run_matches_reference(case2_penalized_run):
    # seed-0 levels.csv rows, floats to 1e-9 relative, counts exactly
    levels, _ = case2_penalized_run
    with open(os.path.join(DATA, "case2_penalized_reference.csv")) as fh:
        ref = list(csv.DictReader(fh))
    assert len(levels) == len(ref)
    exact = ("level", "n_elements", "dofs_u", "dofs_v", "newton_iterations",
             "newton_converged", "newton_reason", "newton_retries", "newton_active",
             "newton_start")
    for row, want in zip(levels, ref):
        assert row.keys() == want.keys()
        for key in want:
            if key in exact or want[key] == "":
                assert row[key] == want[key], key
            else:
                assert float(row[key]) == pytest.approx(float(want[key]), rel=1e-9, abs=0.0)


def test_case2_penalized_iterations_count_the_kept_solve(case2_penalized_run):
    # case2 uses the Gauss penalty and every warm solve converges, so no
    # level runs a cold candidate: newton_iterations counts exactly the
    # steps of the kept solve, which iterations.csv logs
    levels, iterations = case2_penalized_run
    per_level = [sum(r["level"] == row["level"] for r in iterations) for row in levels]
    assert [int(row["newton_iterations"]) for row in levels] == per_level


def test_uniform_study_records_a_failed_newton_level_and_goes_on(monkeypatch, tmp_path):
    # every damping trial fails, so no Newton solve converges: a uniform
    # study still writes every level with its status, while an adaptive run,
    # whose marking reads the failed level, stops there
    from boundfem.solver import NewtonSystem
    monkeypatch.setattr(NewtonSystem, "residual_norm", lambda self, line, t: np.inf)
    study = convergence_study("case1", with_penalty=True, levels=2, out_dir=str(tmp_path))
    with open(tmp_path / "study.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["level"].isdigit()]
    assert [r["level"] for r in rows] == ["0", "1"]
    assert [(r["newton_converged"], r["newton_reason"]) for r in rows] == \
        [("0", "damping retry cap exceeded")] * 2
    assert [r.newton_converged for r in study.rows] == [False, False]
    result = run_case("case3", levels=3, out_dir=str(tmp_path / "case3"))
    assert len(result.records) == 1 and not result.records[0].newton_converged
    info = (tmp_path / "case3" / "run_info.txt").read_text().splitlines()
    assert info[-1] == "stop_reason = newton failed at level 0"


def test_uniform_levels_drop_tables_and_gram_blocks_before_the_lu(monkeypatch):
    # assemble_gram leaves its blocks on V_h for the indicators; a uniform
    # level, which forms none, clears them with its tables before its LU
    import weakref
    import boundfem.app as app
    import boundfem.solver as solver
    spaces, seen = [], []
    function_space, factorize = app.FunctionSpace, solver._factorize

    def built(mesh, p, kind):
        space = function_space(mesh, p, kind)
        spaces.append(weakref.ref(space))
        return space

    def counted(K, symmetric):
        seen.append([sorted(ref().contexts) for ref in spaces if ref() is not None])
        return factorize(K, symmetric)

    monkeypatch.setattr(app, "FunctionSpace", built)
    monkeypatch.setattr(solver, "_factorize", counted)
    convergence_study("smooth", levels=2)
    assert seen == [[[], []]] * 2
