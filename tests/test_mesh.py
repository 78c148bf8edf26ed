import numpy as np
import pytest

import loop_reference
from boundfem.fespace import build_space
from boundfem.forms import FaceContext, ProblemSpec, _face_data
from boundfem.mesh import (Mesh, _edge_normals, bisect_marked,
                           build_structured_mesh, read_mesh,
                           refine_uniform_red, write_mesh)


def edge_set(mesh):
    pairs = set()
    for a, b, c in mesh.elements:
        for u, v in ((a, b), (b, c), (c, a)):
            pairs.add((min(u, v), max(u, v)))
    return pairs


def check_invariants(mesh, area):
    # areas sum to the domain area
    assert abs(mesh.element_area.sum() - area) <= 1e-12 * area
    # all faces unit-normal; interior normal consistent with the plus side
    for normals in (mesh.iface_normals, mesh.bface_normals):
        if len(normals):
            np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0,
                                       atol=1e-13)
    v = mesh.vertices
    for (a, b), (em, ep), n in zip(mesh.iface_vertices, mesh.iface_elements,
                                   mesh.iface_normals):
        tri = mesh.elements[ep]
        for k in range(3):
            u, w = tri[k], tri[(k + 1) % 3]
            if {u, w} == {a, b}:
                t = v[w] - v[u]
                outward_plus = np.array([t[1], -t[0]]) / np.linalg.norm(t)
                np.testing.assert_allclose(outward_plus, -n, atol=1e-12)
    # conformity: every element edge appears as a face, each exactly once
    faces = [tuple(sorted(p)) for p in mesh.iface_vertices] + \
            [tuple(sorted(p)) for p in mesh.bface_vertices]
    assert len(faces) == len(set(faces))
    assert set(faces) == edge_set(mesh)
    # vertices are exactly the element corners
    assert set(np.unique(mesh.elements)) == set(range(mesh.n_vertices))


def test_structured_counts_4x4_rectangle():
    mesh = build_structured_mesh(4, 4, (0.0, 1.0, -1.0, 1.0))
    assert mesh.n_elements == 32
    assert mesh.n_vertices == 25
    check_invariants(mesh, 2.0)


def test_structured_smallest_case():
    mesh = build_structured_mesh(1, 1)
    assert mesh.n_elements == 2
    assert mesh.n_vertices == 4
    assert len(mesh.iface_vertices) == 1
    check_invariants(mesh, 1.0)


def test_structured_2x2_faces():
    mesh = build_structured_mesh(2, 2)
    assert mesh.n_elements == 8
    # 16 total unique edges on a 2x2 criss-cross grid: 8 boundary, 8 interior
    assert len(mesh.bface_vertices) == 8
    assert len(mesh.iface_vertices) == 8
    check_invariants(mesh, 1.0)


def test_structured_rejects_bad_input():
    with pytest.raises(ValueError):
        build_structured_mesh(0, 3)
    with pytest.raises(ValueError):
        build_structured_mesh(2, 2, (0.0, 0.0, 0.0, 1.0))


def classify_boundary(mesh, beta):
    """(beta.n, inflow mask) at the boundary face quadrature points, as the forms use them."""
    V = build_space(mesh, 1, "broken")
    ctx = FaceContext(V, mesh.bface_vertices, [mesh.bface_elements], mesh.bface_h, 3)
    problem = ProblemSpec(beta=beta, K=0.0, sigma=0.0, f=0.0, g=0.0)
    return _face_data(problem, ctx, mesh.bface_normals)


def boundary_midpoints(mesh):
    return 0.5 * (mesh.vertices[mesh.bface_vertices[:, 0]]
                  + mesh.vertices[mesh.bface_vertices[:, 1]])


def test_classify_unit_square_diagonal_velocity():
    mesh = build_structured_mesh(3, 3)
    bn, inflow = classify_boundary(mesh, (3.0 / np.sqrt(10.0), 1.0 / np.sqrt(10.0)))
    for mid, bn_f, inflow_f in zip(boundary_midpoints(mesh), bn, inflow):
        if np.isclose(mid[0], 0.0) or np.isclose(mid[1], 0.0):
            assert np.all(inflow_f)
        else:
            assert np.all(bn_f > 0.0) and not np.any(inflow_f)
    assert np.array_equal(inflow, bn < 0.0)


def test_classify_zero_velocity_is_characteristic():
    mesh = build_structured_mesh(2, 2)
    bn, inflow = classify_boundary(mesh, (0.0, 0.0))
    assert np.all(bn == 0.0)
    assert not np.any(inflow)


def test_classify_rotating_flow_left_edge_split():
    mesh = build_structured_mesh(2, 4, (0.0, 1.0, -1.0, 1.0))
    bn, inflow = classify_boundary(mesh, lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1))
    mids = boundary_midpoints(mesh)
    on_left = np.isclose(mids[:, 0], 0.0)
    assert np.all(inflow[on_left & (mids[:, 1] < 0)])
    assert np.all(bn[on_left & (mids[:, 1] > 0)] > 0.0)
    assert not np.any(inflow[on_left & (mids[:, 1] > 0)])


def test_red_refinement_counts_and_h():
    mesh = build_structured_mesh(1, 1)
    fine = refine_uniform_red(mesh)
    assert fine.n_elements == 8
    assert fine.h == pytest.approx(0.5 * mesh.h, abs=0.0)
    assert np.max(fine.h_elem) == pytest.approx(0.5 * np.max(mesh.h_elem))
    check_invariants(fine, 1.0)

    m32 = build_structured_mesh(4, 4, (0.0, 1.0, -1.0, 1.0))
    m128 = refine_uniform_red(m32)
    assert m128.n_elements == 128
    check_invariants(m128, 2.0)


def test_bisect_all_elements():
    mesh = build_structured_mesh(2, 2)
    fine = bisect_marked(mesh, range(mesh.n_elements))
    assert fine.n_elements >= 2 * mesh.n_elements
    assert np.all(np.bincount(fine.parent_elements,
                              minlength=mesh.n_elements) >= 2)
    check_invariants(fine, 1.0)


def test_bisect_single_element_closure():
    mesh = build_structured_mesh(2, 2)
    fine = bisect_marked(mesh, [0])
    # the marked element is split; closure splits only what conformity needs
    assert np.sum(fine.parent_elements == 0) >= 2
    assert fine.n_elements > mesh.n_elements
    assert fine.n_elements < 4 * mesh.n_elements
    check_invariants(fine, 1.0)
    # untouched elements keep their diameter
    untouched = [e for e in range(mesh.n_elements)
                 if np.sum(fine.parent_elements == e) == 1]
    for e in untouched:
        child = int(np.nonzero(fine.parent_elements == e)[0][0])
        assert fine.h_elem[child] == pytest.approx(mesh.h_elem[e], abs=0.0)


def test_bisect_empty_marks_returns_mesh():
    mesh = build_structured_mesh(2, 2)
    assert bisect_marked(mesh, []) is mesh


def test_bisect_rejects_bad_marks():
    mesh = build_structured_mesh(2, 2)
    with pytest.raises(ValueError):
        bisect_marked(mesh, [99])


def test_repeated_bisection_shape_regularity():
    # bisection of right isosceles triangles cycles between two similarity
    # classes, so angles stay in {45, 90} degrees
    mesh = build_structured_mesh(2, 2)
    angles = set()
    for _ in range(20):
        mesh = bisect_marked(mesh, [0])
        tri = mesh.vertices[mesh.elements]
        for corner in range(3):
            a = tri[:, corner] - tri[:, (corner + 1) % 3]
            b = tri[:, (corner + 2) % 3] - tri[:, (corner + 1) % 3]
            cosang = np.einsum("ed,ed->e", a, b) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            angles.update(np.round(np.degrees(np.arccos(cosang)), 6))
    assert angles <= {45.0, 90.0}
    assert min(angles) >= 45.0 - 1e-6
    check_invariants(mesh, 1.0)


def test_area_preserved_over_refinement_sequences():
    mesh = build_structured_mesh(3, 2, (0.0, 2.0, 0.0, 1.0))
    rng = np.random.default_rng(7)
    for _ in range(4):
        marks = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 5),
                           replace=False)
        mesh = bisect_marked(mesh, marks)
        assert abs(mesh.element_area.sum() - 2.0) <= 2e-12
    mesh = refine_uniform_red(mesh)
    assert abs(mesh.element_area.sum() - 2.0) <= 2e-12
    check_invariants(mesh, 2.0)


def test_text_roundtrip(tmp_path):
    mesh = build_structured_mesh(3, 2, (0.0, 1.0, -1.0, 1.0))
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.elements, mesh.elements)


def test_locate_points():
    mesh = build_structured_mesh(4, 4)
    rng = np.random.default_rng(3)
    pts = rng.random((50, 2))
    elems, refs = mesh.locate(pts)
    assert np.all(elems >= 0)
    B, b0, _, _ = mesh.affine()
    back = b0[elems] + np.einsum("pij,pj->pi", B[elems], refs)
    np.testing.assert_allclose(back, pts, atol=1e-12)
    outside, _ = mesh.locate(np.array([[2.0, 2.0]]))
    assert outside[0] == -1


# ----------------------------------------------------------------------
# Edge-table topology against the per-element loop reference
# ----------------------------------------------------------------------

CASE_MESHES = ("smooth", "case1", "case2", "case3")


def case_mesh(name):
    from boundfem.cases import get_case
    return get_case(name).make_mesh()


def jittered(mesh, seed):
    """Move interior vertices by < 0.1 h_min; boundary vertices stay put."""
    rng = np.random.default_rng(seed)
    h_min = min(mesh.iface_h.min(), mesh.bface_h.min())
    shift = 0.2 * h_min * (rng.random((mesh.n_vertices, 2)) - 0.5)
    shift[np.unique(mesh.bface_vertices)] = 0.0
    return Mesh(mesh.vertices + shift, mesh.elements)


def scrambled_elements(mesh, seed):
    """The mesh's elements with random cyclic shifts and orientation flips."""
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 3, mesh.n_elements)
    cols = (np.arange(3) + shift[:, None]) % 3
    elements = np.take_along_axis(mesh.elements, cols, axis=1)
    flip = rng.random(mesh.n_elements) < 0.5
    elements[flip] = elements[flip][:, ::-1]
    return elements


def assert_matches_reference(mesh, vertices, elements, refinement_edges="longest"):
    want = loop_reference.mesh_arrays(vertices, elements, refinement_edges)
    for name, arr in want.items():
        assert np.array_equal(getattr(mesh, name), arr), name
    for side in ("iface", "bface"):
        normals, h = _edge_normals(mesh.vertices, want[f"{side}_vertices"])
        assert np.array_equal(getattr(mesh, f"{side}_normals"), normals)
        assert np.array_equal(getattr(mesh, f"{side}_h"), h)


def reference_inputs():
    yield from ((name, case_mesh(name)) for name in CASE_MESHES)
    yield "jittered", jittered(refine_uniform_red(case_mesh("case2")), 5)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (11, 11)])
def test_structured_elements_match_loop(nx, ny):
    assert np.array_equal(build_structured_mesh(nx, ny).elements,
                          loop_reference.rotate_longest_edge_first(
                              build_structured_mesh(nx, ny).vertices,
                              loop_reference.structured_elements(nx, ny)))


@pytest.mark.parametrize("name,mesh", list(reference_inputs()))
def test_construction_matches_loop_reference(name, mesh):
    assert_matches_reference(mesh, mesh.vertices, mesh.elements)
    elements = scrambled_elements(mesh, 3)
    assert_matches_reference(Mesh(mesh.vertices, elements), mesh.vertices, elements)


@pytest.mark.parametrize("name,mesh", list(reference_inputs()))
def test_red_refinement_matches_loop_reference(name, mesh):
    fine = refine_uniform_red(mesh)
    vertices, children, parents = loop_reference.refine_uniform_red(mesh)
    assert_matches_reference(fine, vertices, children)
    assert np.array_equal(fine.parent_elements, parents)


@pytest.mark.parametrize("name", ["case2", "jittered"])
def test_bisection_sequence_matches_loop_reference(name):
    mesh = dict(reference_inputs())[name]
    rng = np.random.default_rng(11)
    # a single element, a repeated unsorted list, a fifth, everything, a range
    for step in range(5):
        ne = mesh.n_elements
        marks = [[ne - 1], [3, 0, 3, 1], rng.choice(ne, ne // 5, replace=False),
                 np.arange(ne), range(0, ne, 7)][step]
        fine = bisect_marked(mesh, marks)
        vertices, children, parents = loop_reference.bisect_marked(mesh, marks)
        assert_matches_reference(fine, vertices, children, "keep")
        assert np.array_equal(fine.parent_elements, parents)
        mesh = fine


def test_roundtrip_matches_loop_reference(tmp_path):
    mesh = bisect_marked(jittered(case_mesh("case3"), 2), [0, 5, 9])
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert_matches_reference(back, mesh.vertices, mesh.elements)


def test_edge_table_is_consistent():
    mesh = bisect_marked(case_mesh("case2"), [0, 7, 20])
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    keys = mesh.edges[:, 0] * mesh.n_vertices + mesh.edges[:, 1]
    assert np.all(np.diff(keys) > 0)
    ends = np.roll(mesh.elements, -1, axis=1)
    assert np.array_equal(mesh.edges[mesh.elem2edge, 0], np.minimum(mesh.elements, ends))
    assert np.array_equal(mesh.edges[mesh.elem2edge, 1], np.maximum(mesh.elements, ends))
    for edge, (em, ep) in enumerate(mesh.edge2elem):
        assert edge in mesh.elem2edge[em]
        assert ep == -1 or (em < ep and edge in mesh.elem2edge[ep])


def test_edge_shared_by_three_elements_raises():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [2.0, 1.0]])
    elements = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="more than two"):
        Mesh(vertices, elements)


@pytest.mark.parametrize("name,mesh", list(reference_inputs()))
def test_locate_matches_loop_reference(name, mesh):
    mesh = bisect_marked(mesh, range(0, mesh.n_elements, 3))
    rng = np.random.default_rng(4)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pts = lo + (rng.random((300, 2)) * 1.2 - 0.1) * (hi - lo)
    pts = np.vstack([pts, mesh.vertices[:20]])       # points on several elements
    got = mesh.locate(pts)
    want = loop_reference.locate(mesh, pts)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
