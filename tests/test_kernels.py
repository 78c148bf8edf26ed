"""The batched-product level kernels against their einsum forms.

`einsum_reference` keeps the einsum expressions the kernels replaced, and
the COO-triplet assembly the element-pair block assembly replaced. Every
comparison allows round-off only: rtol 1e-13, with an absolute floor of
1e-13 times the largest reference entry for entries that cancel.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import einsum_reference as ref
from boundfem.adapt import error_indicators, prolong
from boundfem.cases import get_case
from boundfem.fespace import DiscreteFunction, FunctionSpace, trial_to_test_embedding
from boundfem.forms import (ElementContext, FaceContext, ProblemSpec, _contexts, assemble_bh,
                            assemble_gram, assemble_load, assemble_mass)
from boundfem.mesh import (Mesh, bisect_marked, build_structured_mesh, read_mesh,
                           refine_uniform_red, write_mesh)
from boundfem.penalty import PenaltyConfig, PenaltyOperator, _strong_tables
from boundfem.quadrature import triangle_rule
from boundfem.report import error_norms, extrema
from test_mesh import jittered

MESHES = ["jittered", "read_mesh", "one_element"]


def make_mesh(name, tmp_path):
    if name == "jittered":
        return jittered(build_structured_mesh(4, 4), 2)
    if name == "read_mesh":
        write_mesh(bisect_marked(build_structured_mesh(3, 3), [0, 4, 7]), tmp_path / "mesh.txt")
        return read_mesh(tmp_path / "mesh.txt")
    return Mesh([[0.0, 0.2], [1.0, 0.0], [0.3, 1.0]], [[0, 1, 2]])


def problem(K=1e-2, **bounds):
    return ProblemSpec(beta=lambda x: np.stack([1.0 + x[..., 1], 0.5 - x[..., 0]], axis=-1),
                       K=K, sigma=lambda x: 0.5 + x[..., 0] * x[..., 1],
                       f=lambda x: np.sin(3 * x[..., 0]) + x[..., 1],
                       g=lambda x: np.cos(2 * x[..., 1]) - x[..., 0], **bounds)


TENSOR_K = [[2e-2, 5e-3], [5e-3, 1e-2]]
EXACT = (lambda x: np.sin(x[..., 0]) * (1 + x[..., 1]),
         lambda x: np.stack([np.cos(x[..., 0]) * (1 + x[..., 1]), np.sin(x[..., 0])], axis=-1))


def assert_close(actual, desired):
    actual, desired = (np.asarray(a.toarray() if hasattr(a, "toarray") else a)
                       for a in (actual, desired))
    np.testing.assert_allclose(actual, desired, rtol=1e-13,
                               atol=1e-13 * max(np.abs(desired).max(), 1e-300))


def assert_same_pattern(actual, desired):
    actual, desired = actual.sorted_indices(), desired.sorted_indices()
    assert np.array_equal(actual.indptr, desired.indptr)
    assert np.array_equal(actual.indices, desired.indices)


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("K", [1e-2, TENSOR_K])
def test_forms_match_einsum(mesh_name, p, K, tmp_path):
    mesh = make_mesh(mesh_name, tmp_path)
    pr = problem(K)
    V = FunctionSpace(mesh, p, "broken")
    bh, bh_ref = assemble_bh(pr, V), ref.assemble_bh(pr, V)
    assert_close(bh, bh_ref)
    assert_close(assemble_load(pr, V), ref.assemble_load(pr, V))
    U = FunctionSpace(mesh, p, "continuous")
    assert_close(assemble_mass(U), ref.assemble_mass(U))
    # G summed as element-pair blocks has the values and the CSR pattern of
    # the COO assembly (exact zeros dropped as before). B = b_h E has the
    # structural pattern of the einsum terms: at p = 2 some face couplings
    # cancel analytically over the quadrature points, and whether such a sum
    # rounds to 0.0 depends on the order of the products, so the two
    # assemblies' values cannot settle the pattern
    G, G_ref = assemble_gram(pr, V), ref.assemble_gram(pr, V)
    assert_close(G, G_ref)
    assert np.array_equal(G.indptr, G_ref.indptr)
    assert np.array_equal(G.indices, G_ref.indices)
    assert (G != G.T).nnz == 0
    E = trial_to_test_embedding(U, V)
    assert_same_pattern(bh @ E, ref.assemble_bh(pr, V, nonzero=True) @ E)


def test_assembly_transient_memory():
    # on the case1 mesh refined twice (3,872 elements) the COO triplets made
    # assemble_gram peak at 13.7x G's bytes and assemble_bh at 16.7x; the
    # block scatter stays below 10x for both
    case = get_case("case1")
    pr = case.problem()
    V = FunctionSpace(refine_uniform_red(refine_uniform_red(case.make_mesh())), 1, "broken")
    peaks = {}
    for assemble in (assemble_gram, assemble_bh):
        tracemalloc.start()
        try:
            assemble(pr, V)
            peaks[assemble.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    G = assemble_gram(pr, V)
    g_bytes = G.data.nbytes + G.indices.nbytes + G.indptr.nbytes
    assert peaks["assemble_gram"] < 10 * g_bytes, peaks
    assert peaks["assemble_bh"] < 10 * g_bytes, peaks


def arrays_in(obj):
    """Every numpy array among an object's attributes, in lists and tuples too."""
    stack, found = list(vars(obj).values()), []
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
    return found


@pytest.mark.parametrize("p", [1, 2])
def test_penalty_keeps_no_gradient_table(p):
    # neither the shared element and face tables nor the penalty operator
    # keep a table of ne*nq*nl*2 or nf*nq*nl*2 entries: every gradient is
    # contracted on the reference side, and the operator keeps no context
    mesh = jittered(build_structured_mesh(4, 4), 2)
    pr = problem(TENSOR_K, u_min=0.2, u_max=0.8, gamma0=1e-2)
    U = FunctionSpace(mesh, p, "continuous")
    V = FunctionSpace(mesh, p, "broken")
    assemble_gram(pr, V), assemble_bh(pr, V), assemble_load(pr, V)   # would form lazy tables
    ec, fi, fb = _contexts(V)
    op = PenaltyOperator(pr, U, V, PenaltyConfig())
    op.jacobian(ref.nodal_values(U, lambda x: x[..., 0]))      # fills its one-iterate cache
    kept = list(vars(op).values())
    assert not any(isinstance(v, (ElementContext, FaceContext)) for v in kept)
    nq_penalty = len(triangle_rule(2 * p + 6).weights)
    assert op.A_basis.shape == (mesh.n_elements, nq_penalty, U.n_local)
    for obj, n, nq in ((ec, mesh.n_elements, len(ec.rule)),
                       (op, mesh.n_elements, nq_penalty),
                       (fi, len(mesh.iface_h), fi.w.shape[1]),
                       (fb, len(mesh.bface_h), fb.w.shape[1])):
        sizes = [a.size for a in arrays_in(obj)]
        assert n * nq * V.n_local * 2 not in sizes, type(obj).__name__


@pytest.mark.parametrize("mesh_name", MESHES)
def test_geometry_kernels_match_einsum(mesh_name, tmp_path):
    mesh = make_mesh(mesh_name, tmp_path)
    V = FunctionSpace(mesh, 2, "broken")
    ec = ElementContext(V, 6)
    assert_close(ec.qp, ref.physical_points(mesh, ec.rule.points))
    elems = np.arange(mesh.n_elements)
    assert_close(mesh.to_reference(elems[:, None], ec.qp),
                 ref.to_reference(mesh, elems[:, None], ec.qp))
    assert_close(mesh.to_reference(elems, ec.qp[:, 0]), ref.to_reference(mesh, elems, ec.qp[:, 0]))
    c = np.random.default_rng(1).standard_normal(V.n_dofs)
    u = DiscreteFunction(V, c)
    assert_close(u(ec.qp.reshape(-1, 2)), ref.eval_cells(V, c, elems, ec.rule.points).ravel())


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("p", [2, 3])
def test_strong_operator_matches_einsum(mesh_name, p, tmp_path):
    mesh = make_mesh(mesh_name, tmp_path)
    pr = problem(TENSOR_K)
    U = FunctionSpace(mesh, p, "continuous")
    ec = ElementContext(U, 2 * p + 6)
    A_basis, fvals = _strong_tables(pr, U, ec)
    c = np.random.default_rng(2).standard_normal(U.n_dofs)
    assert_close(A_basis, ref.strong_basis(pr, U, ec))
    residual = (A_basis @ c[U.dofmap][:, :, None])[..., 0] - fvals
    assert_close(residual, ref.strong_residual(pr, U, ec, c))


def printed_with_upper_negated(fn, pr, *args):
    """fn's value for the penalty as the paper prints it, both terms +1, with
    the upper term negated: the one place the operator departs from the print."""
    parts = [sign * fn(replace(pr, u_min=u_min, u_max=u_max), *args, upper_sign=+1.0)
             for u_min, u_max, sign in ((pr.u_min, None, +1.0), (None, pr.u_max, -1.0))
             if (u_min, u_max) != (None, None)]
    return sum(parts[1:], parts[0])


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("p,quadrature", [(1, "gauss"), (1, "nodal"), (2, "gauss")])
@pytest.mark.parametrize("bounds", [(0.2, None), (None, 0.8), (0.2, 0.8)])
@pytest.mark.parametrize("form", ["restoring", "paper"])
def test_penalty_matches_einsum(mesh_name, p, quadrature, bounds, form, tmp_path):
    mesh = make_mesh(mesh_name, tmp_path)
    pr = problem(TENSOR_K, u_min=bounds[0], u_max=bounds[1], gamma0=1e-2)
    U = FunctionSpace(mesh, p, "continuous")
    V = FunctionSpace(mesh, p, "broken")
    op = PenaltyOperator(pr, U, V, PenaltyConfig(quadrature=quadrature))
    rng = np.random.default_rng(3)
    u = rng.uniform(-0.2, 1.2, U.n_dofs)
    eps = rng.standard_normal(V.n_dofs)

    def expected(fn, *args):
        if form == "restoring":
            return fn(pr, op, quadrature, *args)
        return printed_with_upper_negated(fn, pr, op, quadrature, *args)

    J = op.jacobian(u)
    assert abs(J).max() > 0.0                    # the penalty is active
    assert_close(J, expected(ref.penalty_jacobian, u))
    P_ref = expected(ref.penalty_residual, u)
    assert_close(ref.penalty_P(op, u), P_ref)
    P, adjoint = op.residual(u, eps)
    assert_close(P, P_ref)
    assert_close(adjoint, expected(ref.penalty_adjoint, u, eps))


@pytest.mark.parametrize("mesh_name", MESHES)
@pytest.mark.parametrize("p", [1, 2])
def test_report_and_adapt_kernels_match_einsum(mesh_name, p, tmp_path):
    mesh = make_mesh(mesh_name, tmp_path)
    pr = problem(TENSOR_K)
    U = FunctionSpace(mesh, p, "continuous")
    V = FunctionSpace(mesh, p, "broken")
    rng = np.random.default_rng(4)
    u = ref.nodal_values(U, EXACT[0]) + 1e-2 * rng.standard_normal(U.n_dofs)
    for grad in (None, EXACT[1]):
        new, old = error_norms(pr, U, u, EXACT[0], grad), ref.error_norms(pr, U, u, EXACT[0], grad)
        assert_close(new[0], old[0])
        assert (new[1] is None) == (old[1] is None)
        if grad is not None:
            assert_close(new[1], old[1])
    assert extrema(U, u) == pytest.approx(ref.extrema(U, u), rel=1e-13, abs=0)
    eps = rng.standard_normal(V.n_dofs)
    assert_close(error_indicators(pr, V, eps).squared, ref.indicators_squared(pr, V, eps))
    fine = FunctionSpace(bisect_marked(mesh, [0]), p, "continuous")
    assert_close(prolong(u, U, fine), ref.prolong(u, U, fine))
