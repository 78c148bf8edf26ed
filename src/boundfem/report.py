"""Solution quality reporting: bound violations, error norms, cross-sections."""

import csv
from dataclasses import dataclass

import numpy as np

from .fields import scalar_field, vector_field
from .forms import ElementContext, FaceContext, _dot2, _norm_face_weight
from .quadrature import triangle_rule


@dataclass
class ViolationReport:
    """Overshoot/undershoot of a discrete field against prescribed bounds.

    Extrema are located over all element quadrature points and Lagrange
    nodes. Percentages refer to the bound range and are None when only one
    bound is set.
    """

    u_min: float
    u_max: float
    undershoot: float
    overshoot: float
    undershoot_pct: float | None
    overshoot_pct: float | None

    @property
    def total(self):
        return self.undershoot + self.overshoot


def extrema(space, coeffs):
    """Min/max of a discrete field over element quadrature points and Lagrange nodes."""
    vals, _ = space.basis.tabulate(triangle_rule(2 * space.p + 2))
    vals = coeffs[space.dofmap] @ vals.T
    return float(min(vals.min(), coeffs.min())), float(max(vals.max(), coeffs.max()))


def violations(lo, hi, lower, upper):
    """(undershoot, overshoot) of the range [lo, hi] against optional bounds."""
    return (max(0.0, lower - lo) if lower is not None else 0.0,
            max(0.0, hi - upper) if upper is not None else 0.0)


def bound_violation_report(u, bounds):
    """Violation report for a DiscreteFunction against (lower, upper) bounds."""
    lower, upper = bounds
    if lower is None and upper is None:
        raise ValueError("at least one bound is required")
    lo, hi = extrema(u.space, u.coeffs)
    under, over = violations(lo, hi, lower, upper)
    if lower is not None and upper is not None:
        span = upper - lower
        upct, opct = 100.0 * under / span, 100.0 * over / span
    else:
        upct = opct = None
    return ViolationReport(lo, hi, under, over, upct, opct)


def error_norms(problem, U_h, coeffs, exact, exact_grad=None):
    """L2 and dG-norm errors of a continuous discrete solution vs an exact one.

    The dG norm needs the exact gradient; without it only the L2 error is
    returned (err_vh None). The trial solution is continuous, so interior
    jump terms vanish and only volume and boundary terms contribute. The
    degree-(2p+4) tables are built here and not kept on the space; grad u_h
    is Binv^T (c.grad_ref phi), so no basis-gradient table is formed.
    """
    mesh = U_h.mesh
    degree = 2 * U_h.p + 4
    exact = scalar_field(exact)
    ec = ElementContext(U_h, degree)
    c = coeffs[U_h.dofmap]
    diff = c @ ec.vals.T - exact(ec.qp)
    l2 = np.vdot(ec.dA, diff ** 2)
    err_l2 = float(np.sqrt(l2))
    if exact_grad is None:
        return err_l2, None

    exact_grad = vector_field(exact_grad)
    gref_u = (c @ ec.gref.swapaxes(0, 1).reshape(c.shape[1], -1)).reshape(len(c), -1, 2)
    gdiff = gref_u @ ec.Binv - exact_grad(ec.qp)
    bg = _dot2(problem.beta_fn(ec.qp), gdiff)
    Kg = (gdiff.reshape(-1, 2) @ problem.K_mat.T).reshape(gdiff.shape)
    err2 = l2 + np.vdot(mesh.h_elem[:, None] * ec.dA, bg ** 2) + np.vdot(ec.dA, _dot2(Kg, gdiff))

    # boundary faces: the dG norm's face term of u_h - u* = u_h - g
    fb = FaceContext(U_h, "boundary", degree)
    (eb, vb, _), = fb.sides
    bdiff = (vb @ coeffs[U_h.dofmap[eb]][:, :, None])[..., 0] - exact(fb.qp)
    w = _norm_face_weight(problem, U_h, fb, mesh.bface_normals, mesh.bface_h)
    err2 += np.vdot(w, bdiff ** 2)
    return err_l2, float(np.sqrt(max(err2, 0.0)))


def cross_section(u, p_start, p_end, n=1001):
    """Sample a DiscreteFunction on n equispaced points of a segment.

    Returns (s, points, values) where s in [0, 1] parameterizes the segment;
    points falling outside the mesh yield NaN. Endpoints are nudged inward
    by a relative 1e-9 so segments along the domain boundary stay inside.
    """
    p_start = np.asarray(p_start, dtype=float)
    p_end = np.asarray(p_end, dtype=float)
    s = np.linspace(0.0, 1.0, n)
    s_eval = np.clip(s, 1e-9, 1.0 - 1e-9)
    pts = p_start[None, :] + s_eval[:, None] * (p_end - p_start)[None, :]
    return s, pts, u(pts)


def write_cross_section_csv(path, s, pts, vals):
    """CSV with columns s, x, y, u: `cross_section`'s samples."""
    write_csv(path, ["s", "x", "y", "u"], zip(s, pts[:, 0], pts[:, 1], vals))


def write_csv(path, header, rows):
    """The one artifact CSV format: None is an empty cell, a bool is 0 or 1, a
    float is its round-tripping repr, and any other value is written as is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v
