"""One measured process of the boundfem benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --input J --work-dir DIR
                                [--setup-only] [--trace]

Imports boundfem, builds the workload's case, problem and initial mesh of
input J of seed N (`setup_s`), then unless --setup-only runs the workload
call once through the public API (`wall_s`), records peak RSS and checks
the outputs. With
--trace the call runs under a `tracing.Tracer` and the per-layer metrics are
added; the spans are written to DIR. The result is one JSON object on the
last line of stdout. run.py starts a fresh worker for every sample, with
BLAS pinned to one thread and the checkout's src/ on the path.
"""

import argparse
import csv
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_CSV = os.path.join(os.path.dirname(HERE), "tests", "data",
                             "smooth_uniform_reference.csv")
JITTER = 0.2            # interior vertex displacement, as a share of the shortest edge
INDICATOR_RTOL = 1e-10
REFERENCE_RTOL = 1e-6

# Why each workload exists, and why "inputs" differ, is in README.md. A run
# of seed N solves `inputs` meshes, input J jittered by rng([N, J]).
WORKLOADS = {
    "smooth-uniform": {"case": "smooth", "study": True, "penalty": False,
                       "levels": 5, "inputs": 4, "overrides": {}},
    "case1-penalized": {"case": "case1", "study": True, "penalty": True,
                        "levels": 4, "inputs": 2, "overrides": {}},
    "case2-adaptive-linear": {"case": "case2", "study": False, "penalty": False,
                              "levels": None, "inputs": 4,
                              "overrides": {"max_dofs": 10000}},
}


def jittered_mesh_maker(base, seed):
    """Mesh factory moving each interior vertex of `base` by < JITTER * h_min.

    `seed` is anything numpy's default_rng accepts, e.g. [seed, input].
    Boundary vertices stay put: case2's inlet data tests |x| < 1e-12.
    """
    import numpy as np
    from boundfem import Mesh

    rng = np.random.default_rng(seed)
    h_min = min(base.iface_h.min(), base.bface_h.min())
    n = base.n_vertices
    radius = JITTER * h_min * np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    shift = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    shift[np.unique(base.bface_vertices)] = 0.0
    vertices = base.vertices + shift
    elements = base.elements.copy()
    return lambda: Mesh(vertices, elements)


def setup(workload, seed, index):
    """Import boundfem and build the case, its problem and its initial mesh.

    Seed 0 keeps the built-in mesh; any other seed jitters it. Returns the
    case and the `make_mesh` override for the workload call (None for seed 0).
    """
    from boundfem import get_case

    case = get_case(WORKLOADS[workload]["case"])
    case.problem()
    mesh = case.make_mesh()
    make_mesh = None
    if seed != 0:
        make_mesh = jittered_mesh_maker(mesh, [seed, index])
        make_mesh()
    return case, make_mesh


class LevelCapture:
    """Records each level's solution of a convergence study.

    A StudyResult carries only error rows, so the checks take u and eps from
    the solve calls `boundfem.app` makes; keeps only the last level's spaces.
    """

    NAMES = ("solve_linear_resmin", "newton_solve")

    def __init__(self):
        self.finite = True
        self.last = None
        self._saved = {}

    def _wrap(self, fn):
        import numpy as np

        def wrapper(problem, U_h, V_h, *args, **kwargs):
            res = fn(problem, U_h, V_h, *args, **kwargs)
            self.finite &= bool(np.isfinite(res.u).all() and np.isfinite(res.eps).all())
            self.last = (problem, V_h, res.eps)
            return res

        return wrapper

    def __enter__(self):
        from boundfem import app
        for name in self.NAMES:
            self._saved[name] = getattr(app, name)
            setattr(app, name, self._wrap(self._saved[name]))
        return self

    def __exit__(self, *exc):
        from boundfem import app
        for name, fn in self._saved.items():
            setattr(app, name, fn)
        return False


def indicator_mismatch(problem, V_h, eps):
    """Relative gap between the indicators' square sum and |eps|_G^2."""
    from boundfem import assemble_gram, error_indicators

    G = assemble_gram(problem, V_h)
    norm2 = float(eps @ (G @ eps))
    ind2 = float(error_indicators(problem, V_h, eps).squared.sum())
    return abs(ind2 - norm2) / norm2


def reference_mismatch(rows):
    """Largest relative deviation of study rows from the committed reference."""
    with open(REFERENCE_CSV) as fh:
        ref = [r for r in csv.DictReader(fh) if r.get("err_l2")]
    if len(ref) != len(rows):
        return float("inf")
    worst = 0.0
    for got, want in zip(rows, ref):
        for key in ("h", "dofs_u", "dofs_v", "err_l2", "err_vh", "estimator",
                    "undershoot", "overshoot"):
            a, b = float(getattr(got, key)), float(want[key])
            if a != b:
                worst = max(worst, abs(a - b) / abs(b) if b else float("inf"))
    return worst


def run_workload(workload, seed, case, make_mesh, out_dir, tracer):
    """Time the workload call, then check its outputs; returns a result dict."""
    import numpy as np
    from boundfem import convergence_study, run_case

    spec = WORKLOADS[workload]
    overrides = dict(spec["overrides"])
    if make_mesh is not None:
        overrides["make_mesh"] = make_mesh
    capture = LevelCapture()
    if spec["study"]:
        def call():
            with capture:
                return convergence_study(case.name, with_penalty=spec["penalty"],
                                         out_dir=out_dir, **overrides)
    else:
        def call():
            return run_case(case.name, out_dir=out_dir, with_penalty=spec["penalty"],
                            **overrides)

    t0 = time.perf_counter()
    if tracer is None:
        result = call()
    else:
        with tracer:
            result = tracer.call("workload", call)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = {}
    if spec["study"]:
        rows = result.rows
        last = rows[-1]
        err_l2 = last.err_l2
        violation = last.undershoot + last.overshoot
        problem, V_h, eps = capture.last
        checks["u_eps_finite"] = capture.finite
        checks["levels"] = len(rows) == spec["levels"]
        if workload == "smooth-uniform" and seed == 0:
            checks["reference_rows"] = reference_mismatch(rows) <= REFERENCE_RTOL
    else:
        records = result.records
        err_l2 = records[-1].err_l2
        violation = result.violation.total
        problem, V_h, eps = result.case.problem(), result.eps.space, result.eps.coeffs
        checks["u_eps_finite"] = bool(np.isfinite(result.u.coeffs).all()
                                      and np.isfinite(eps).all())
        max_dofs = result.case.max_dofs
        checks["levels"] = (all(r.dofs_v < max_dofs for r in records[:-1])
                            and records[-1].dofs_v >= max_dofs
                            and len(records) < result.case.levels)
    checks["err_l2_finite"] = err_l2 is not None and bool(np.isfinite(err_l2)) and err_l2 > 0
    checks["indicators_sum"] = indicator_mismatch(problem, V_h, eps) <= INDICATOR_RTOL

    artifact_bytes = sum(os.path.getsize(os.path.join(d, f))
                         for d, _, files in os.walk(out_dir) for f in files)
    out = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "err_l2": float(err_l2),
           "bound_violation": float(violation), "artifact_bytes": artifact_bytes,
           "checks": checks}
    if tracer is not None:
        layers = tracer.layer_metrics()
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith("_s") and k != "trace.wall_s")
        checks["self_times_add_up"] = abs(self_sum - layers["trace.wall_s"]) <= 1e-6
        out["layers"] = layers
    return out


def blas_threads():
    """Thread count reported by every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].endswith(".so")})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def library_versions():
    import numpy
    import scipy

    def blas_version(mod):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas_version(numpy),
            "scipy_blas": blas_version(scipy), "blas_threads": blas_threads()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--input", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    case, make_mesh = setup(args.workload, args.seed, args.input)
    out = {"setup_s": time.perf_counter() - t0}
    if not args.setup_only:
        import boundfem
        out_dir = tempfile.mkdtemp(prefix="artifacts-", dir=args.work_dir)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-input{args.input}")
        try:
            out.update(run_workload(args.workload, args.seed, case, make_mesh,
                                    out_dir, tracer))
        except Exception:
            out["error"] = traceback.format_exc()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            path = os.path.join(args.work_dir, f"spans-{tracer.run_id}.json")
            tracer.write(path)
            out["spans_file"] = path
        out["boundfem_file"] = boundfem.__file__
    out["env"] = library_versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
