import os

import numpy as np
import pytest

from boundfem.app import convergence_study, run_case
from boundfem.cases import CASES, case_exact, get_case
from boundfem.cli import main, read_config
from boundfem.fespace import DiscreteFunction, build_space
from boundfem.mesh import build_structured_mesh
from boundfem.report import bound_violation_report, cross_section
from boundfem.vtkio import export_vtk


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
    uex, _ = case_exact(c2)
    mid = uex(np.array([[0.5 / np.sqrt(2), 0.5 / np.sqrt(2)]]))[0]
    assert mid == pytest.approx(1.0, abs=1e-6)
    assert uex(np.array([[0.9, 0.9]]))[0] == 0.0   # radius > 1
    # the shallow (verbatim) scaling stays near one half on the inlet
    shallow = c2.with_overrides(layer_scaling="shallow").problem()
    gs = shallow.g_fn(edge(s))
    assert np.all(np.abs(gs - 0.5) < 0.01)


def test_violation_report_arithmetic():
    mesh = build_structured_mesh(2, 2)
    U = build_space(mesh, 1, "continuous")
    inside = DiscreteFunction(U, U.interpolate(0.5))
    rep = bound_violation_report(inside, (0.0, 1.0))
    assert rep.undershoot == 0.0 and rep.overshoot == 0.0
    assert rep.total == 0.0

    coeffs = U.interpolate(0.5)
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
    U = build_space(mesh, 1, "continuous")
    V = build_space(mesh, 1, "broken")
    u = DiscreteFunction(U, np.ones(U.n_dofs))
    e = DiscreteFunction(V, np.zeros(V.n_dofs))
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


def test_cross_section_sampling():
    mesh = build_structured_mesh(4, 4)
    U = build_space(mesh, 1, "continuous")
    u = DiscreteFunction(U, U.interpolate(lambda x: x[..., 0] + x[..., 1]))
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
        make_problem=lambda c: ProblemSpec(beta=(1.0, 0.0), K=0.0, sigma=1.0,
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


def test_case3_export_contains_both_fields(tmp_path):
    out = tmp_path / "case3"
    result = run_case("case3", out_dir=str(out), levels=3)
    text = (out / "solution.vtk").read_text()
    assert "SCALARS u double 1" in text
    assert "SCALARS eps double 1" in text
    assert (out / "levels.csv").exists()
    assert (out / "cross_section.csv").exists()
    assert len(result.records) == 3


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


def test_case1_penalty_energy_error_ordering():
    # enforcing the bounds costs accuracy in the dG norm at the finest
    # common level; the L2 column is recorded but deliberately not asserted
    pen = convergence_study("case1", levels=2, with_penalty=True)
    unp = convergence_study("case1", levels=2, with_penalty=False)
    assert pen.rows[-1].err_vh >= unp.rows[-1].err_vh - 1e-12
    assert all(r.err_l2 is not None for r in pen.rows)
