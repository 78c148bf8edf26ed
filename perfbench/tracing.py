"""Outside-in spans around boundfem's public functions.

`Tracer.install` replaces every binding of a traced function with a wrapper
that records a span (name, start, end, parent span, run id) and feeds the
layer counters. Module functions are replaced at every boundfem module
attribute that binds them, because `app` and `adapt` import by name; methods
are replaced on their class; the scipy entry points the solver calls are
replaced on the scipy module or class boundfem reaches them through, so
their spans nest under the calling span. Spans stay in memory until
`write`. `restore` puts every original object back.

Each span's self time (duration minus the part of it covered by child
spans) is charged to one per-layer metric, and the root span's self time is
`trace.unattributed_s`, so the per-layer self times plus
`trace.unattributed_s` add up to the traced wall time.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# (module, attribute path, span name, self-time metric without "_s")
TARGETS = (
    ("boundfem.mesh", "Mesh.__init__", "mesh.Mesh", "mesh.build"),
    ("boundfem.mesh", "build_structured_mesh", "mesh.build_structured_mesh", "mesh.build"),
    ("boundfem.mesh", "refine_uniform_red", "mesh.refine_uniform_red", "mesh.red"),
    ("boundfem.mesh", "bisect_marked", "mesh.bisect_marked", "mesh.bisect"),
    ("boundfem.fespace", "FunctionSpace.__init__", "fespace.FunctionSpace", "fespace.space"),
    ("boundfem.fespace", "trial_to_test_embedding", "fespace.trial_to_test_embedding",
     "fespace.embedding"),
    ("boundfem.forms", "ElementContext.__init__", "forms.ElementContext", "forms.context"),
    ("boundfem.forms", "FaceContext.__init__", "forms.FaceContext", "forms.context"),
    ("boundfem.forms", "assemble_gram", "forms.assemble_gram", "forms.assemble"),
    ("boundfem.forms", "assemble_bh", "forms.assemble_bh", "forms.assemble"),
    ("boundfem.forms", "assemble_load", "forms.assemble_load", "forms.assemble"),
    ("boundfem.forms", "assemble_mass", "forms.assemble_mass", "forms.assemble"),
    ("scipy.sparse", "coo_matrix.tocsr", "scipy.coo_tocsr", "forms.csr_convert"),
    ("boundfem.penalty", "PenaltyOperator.__init__", "penalty.PenaltyOperator", "penalty.setup"),
    ("boundfem.penalty", "PenaltyOperator.residual", "penalty.residual", "penalty.residual"),
    ("boundfem.penalty", "PenaltyOperator.jacobian", "penalty.jacobian", "penalty.jacobian"),
    ("boundfem.solver", "build_operators", "solver.build_operators", "solver.self"),
    ("boundfem.solver", "solve_linear_resmin", "solver.solve_linear_resmin", "solver.self"),
    ("boundfem.solver", "newton_solve", "solver.newton_solve", "solver.self"),
    ("boundfem.solver", "NewtonSystem.residual_norm", "solver.trial_step", "solver.self"),
    ("scipy.sparse.linalg", "splu", "scipy.splu", "solver.factorize"),
    ("scipy.sparse.linalg", "spsolve", "scipy.spsolve", "solver.riesz"),
    ("scipy.sparse", "bmat", "scipy.bmat", "solver.bmat"),
    ("boundfem.adapt", "adaptive_solve_loop", "adapt.adaptive_solve_loop", "adapt.self"),
    ("boundfem.adapt", "error_indicators", "adapt.error_indicators", "adapt.indicators"),
    ("boundfem.adapt", "dorfler_mark", "adapt.dorfler_mark", "adapt.mark"),
    ("boundfem.adapt", "prolong", "adapt.prolong", "adapt.prolong"),
    ("boundfem.adapt", "write_records_csv", "adapt.write_records_csv", "app.write"),
    ("boundfem.solver", "write_iteration_log", "solver.write_iteration_log", "app.write"),
    ("boundfem.app", "write_study_csv", "app.write_study_csv", "app.write"),
    ("boundfem.report", "write_cross_section_csv", "report.write_cross_section_csv", "app.write"),
    ("boundfem.report", "error_norms", "report.error_norms", "report.error_norms"),
    ("boundfem.report", "bound_violation_report", "report.bound_violation_report",
     "report.violation"),
    ("boundfem.report", "cross_section", "report.cross_section", "report.cross_section"),
    ("boundfem.vtkio", "export_vtk", "vtkio.export_vtk", "vtkio.export"),
)

ROOT_METRIC = "trace.unattributed"
SELF_METRICS = sorted({t[3] for t in TARGETS} | {ROOT_METRIC})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval first.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        covered = covered_length([(a, b) for a, b in clipped if b > a])
        out[s.id] = (s.end - s.start) - covered
    return out


def _resolve(module_name, path):
    """(owner, attribute name) for 'func' or 'Class.method' in a module."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder and layer counters for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []          # (owner, name, had own entry, old entry)
        self.counts = defaultdict(int)
        self.mesh_elements = 0
        self.lu_fill_max = 0
        self.saddle_rows_max = 0
        self.newton_iters = 0
        self.newton_not_converged = 0
        self.min_step_t = None

    # -- span recording --------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))
            self.counts[name] += 1

    def _wrap(self, name, fn):
        observe = self._observers().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self):
        return {
            "mesh.Mesh": self._see_mesh,
            "scipy.splu": self._see_lu,
            "solver.newton_solve": self._see_newton,
        }

    def _see_mesh(self, args, _result):
        self.mesh_elements += args[0].n_elements

    def _see_lu(self, args, lu):
        self.saddle_rows_max = max(self.saddle_rows_max, args[0].shape[0])
        self.lu_fill_max = max(self.lu_fill_max, lu.L.nnz + lu.U.nnz)

    def _see_newton(self, _args, res):
        self.newton_iters += len(res.log)
        self.newton_not_converged += int(not res.converged)
        for rec in res.log:
            t = float(rec.t)
            self.min_step_t = t if self.min_step_t is None else min(self.min_step_t, t)

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, name, value):
        had = name in vars(owner)
        self._patches.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def install(self):
        """Wrap every target at every binding; boundfem must be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "boundfem" or n.startswith("boundfem.")]
        try:
            for module_name, path, span, _ in TARGETS:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                wrapper = self._wrap(span, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in [owner] + [m for m in modules if m is not owner]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        """Put back every original binding, newest patch first."""
        while self._patches:
            owner, name, had, old = self._patches.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------------
    def layer_metrics(self):
        """Per-layer metric values from the spans of a finished run.

        The single root span (parentless) is the traced workload call; its
        self time is `trace.unattributed_s`.
        """
        roots = [s for s in self.spans if s.parent is None]
        if len(roots) != 1:
            raise ValueError(f"expected one root span, found {len(roots)}")
        metric_of = {t[2]: t[3] for t in TARGETS}
        metric_of[roots[0].name] = ROOT_METRIC
        self_s = dict.fromkeys(SELF_METRICS, 0.0)
        by_id = {s.id: s for s in self.spans}
        for sid, value in self_times(self.spans).items():
            self_s[metric_of[by_id[sid].name]] += value
        c = self.counts
        trials = c["solver.trial_step"]
        m = {f"{k}_s": v for k, v in self_s.items()}
        m.update({
            "trace.wall_s": roots[0].end - roots[0].start,
            "mesh.elements": self.mesh_elements,
            "fespace.spaces_built": c["fespace.FunctionSpace"],
            "forms.element_contexts": c["forms.ElementContext"],
            "forms.face_contexts": c["forms.FaceContext"],
            "forms.assemblies": sum(c[f"forms.assemble_{k}"]
                                    for k in ("gram", "bh", "load", "mass")),
            "forms.csr_conversions": c["scipy.coo_tocsr"],
            "penalty.residual_calls": c["penalty.residual"],
            "penalty.jacobian_calls": c["penalty.jacobian"],
            "penalty.jacobian_per_iter": (c["penalty.jacobian"] / self.newton_iters
                                          if self.newton_iters else 0.0),
            "solver.factorizations": c["scipy.splu"],
            "solver.lu_fill_nnz": self.lu_fill_max,
            "solver.saddle_rows_max": self.saddle_rows_max,
            "solver.riesz_solves": c["scipy.spsolve"],
            "solver.newton_solves": c["solver.newton_solve"],
            "solver.newton_iters": self.newton_iters,
            "solver.damping_retries": trials - self.newton_iters,
            "solver.step_accept_ratio": self.newton_iters / trials if trials else 0.0,
            "solver.min_step_t": self.min_step_t or 0.0,
            "solver.newton_not_converged": self.newton_not_converged,
            "adapt.levels": c["adapt.error_indicators"],
        })
        return m

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
