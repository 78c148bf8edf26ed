"""Tests of the benchmark's own logic: self times, patch restoration, jitter."""

import sys

import numpy as np
import pytest

from tracing import TARGETS, Span, Tracer, _resolve, covered_length, self_times
from worker import JITTER, jittered_mesh_maker

import boundfem
from boundfem import build_structured_mesh, convergence_study, run_case


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(5, 6), (0, 2), (1, 3), (3, 4)]) == pytest.approx(5.0)


def test_self_times_on_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 2.0, 3.0, 1, "r"),     # grandchild: charged to a, not root
        Span(3, "c", 5.0, 9.0, 0, "r"),
        Span(4, "d", 6.0, 7.0, 3, "r"),
        Span(5, "e", 6.5, 8.0, 3, "r"),     # overlaps d: the union counts once
        Span(6, "f", 9.5, 11.0, 0, "r"),    # ends after its parent: clipped
    ]
    got = self_times(spans)
    want = {0: 10.0 - (3.0 + 4.0 + 0.5), 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5, 6: 1.5}
    assert got == pytest.approx(want)


def _bindings():
    """Every attribute a Tracer may patch, with the owner's own entry for it."""
    modules = [m for n, m in sys.modules.items() if n.startswith("boundfem")]
    found = {}
    for module_name, path, _, _ in TARGETS:
        owner, attr = _resolve(module_name, path)
        found[(id(owner), attr)] = (owner, attr, vars(owner).get(attr))
        original = getattr(owner, attr)
        for mod in modules:
            for key, value in vars(mod).items():
                if value is original:
                    found[(id(mod), key)] = (mod, key, value)
    return found


def _assert_restored(before):
    for owner, attr, value in before.values():
        assert vars(owner).get(attr) is value, f"{owner!r}.{attr} not restored"


def test_traced_run_restores_every_binding_and_adds_up(tmp_path):
    before = _bindings()
    assert len(before) > len(TARGETS)    # app and adapt import by name

    tracer = Tracer("test")
    with tracer:
        assert boundfem.adapt.newton_solve is not before[
            (id(boundfem.solver), "newton_solve")][2]
        tracer.call("workload", run_case, "case3", out_dir=str(tmp_path))
    _assert_restored(before)

    m = tracer.layer_metrics()
    self_sum = sum(v for k, v in m.items() if k.endswith("_s") and k != "trace.wall_s")
    assert self_sum == pytest.approx(m["trace.wall_s"], abs=1e-9)
    assert m["penalty.jacobian_calls"] > 0 and m["solver.newton_solves"] > 0
    assert m["adapt.levels"] == 16 and m["solver.factorizations"] > 0

    linear = Tracer("linear")
    with linear:
        linear.call("workload", convergence_study, "smooth", levels=2)
    _assert_restored(before)
    m = linear.layer_metrics()
    assert m["penalty.residual_calls"] == m["penalty.jacobian_calls"] == 0
    assert m["solver.newton_solves"] == 0 and m["mesh.red_s"] > 0


def test_restore_after_failing_call():
    before = _bindings()
    tracer = Tracer("fail")
    with pytest.raises(KeyError):
        with tracer:
            tracer.call("workload", run_case, "no-such-case")
    _assert_restored(before)


def test_jitter_moves_interior_vertices_only():
    base = build_structured_mesh(4, 8, (0.0, 1.0, -1.0, 1.0))
    mesh = jittered_mesh_maker(base, 7)()
    shift = np.linalg.norm(mesh.vertices - base.vertices, axis=1)
    boundary = np.unique(base.bface_vertices)
    interior = np.setdiff1d(np.arange(base.n_vertices), boundary)
    assert np.all(shift[boundary] == 0.0)
    assert np.all(shift[interior] > 0.0) and shift.max() < JITTER * 0.25
    again = jittered_mesh_maker(base, 7)()
    assert np.array_equal(mesh.vertices, again.vertices)
