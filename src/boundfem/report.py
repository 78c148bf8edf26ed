"""Solution quality reporting: bound violations, error norms, cross-sections."""

import csv
from dataclasses import dataclass

import numpy as np

from .fields import scalar_field, vector_field
from .forms import (ElementContext, FaceContext, FormParams, _norm_face_weight,
                    element_context)


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


def extrema(space, coeffs, degree):
    """Min/max of a discrete field over element quadrature points and Lagrange nodes."""
    ec = element_context(space, degree)
    vals = np.einsum("el,ql->eq", coeffs[space.dofmap], ec.vals)
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
    lo, hi = extrema(u.space, u.coeffs, 2 * u.space.p + 2)
    under, over = violations(lo, hi, lower, upper)
    if lower is not None and upper is not None:
        span = upper - lower
        upct, opct = 100.0 * under / span, 100.0 * over / span
    else:
        upct = opct = None
    return ViolationReport(lo, hi, under, over, upct, opct)


def error_norms(problem, U_h, u_coeffs, exact, exact_grad=None, params=None):
    """L2 and dG-norm errors of a continuous discrete solution vs an exact one.

    The dG norm needs the exact gradient; without it only the L2 error is
    returned (err_vh None). The trial solution is continuous, so interior
    jump terms vanish and only volume and boundary terms contribute. The
    degree-(2p+4) tables are built here and not kept on the space.
    """
    params = params or FormParams()
    mesh = U_h.mesh
    degree = 2 * U_h.p + 4
    exact = scalar_field(exact)
    ec = ElementContext(U_h, degree)
    c = u_coeffs[U_h.dofmap]
    vals = np.einsum("el,ql->eq", c, ec.vals)
    diff = vals - exact(ec.qp)
    err_l2 = float(np.sqrt(np.einsum("eq,eq->", ec.dA, diff ** 2)))
    if exact_grad is None:
        return err_l2, None

    exact_grad = vector_field(exact_grad)
    grads = np.einsum("el,eqlk->eqk", c, ec.grads)
    gdiff = grads - exact_grad(ec.qp)
    beta = problem.beta_fn(ec.qp)
    bg = np.einsum("eqd,eqd->eq", beta, gdiff)
    Kg = np.einsum("dk,eqk->eqd", problem.K_mat, gdiff)
    err2 = np.einsum("eq,eq->", ec.dA, diff ** 2)
    err2 += np.einsum("e,eq->", mesh.h_elem, ec.dA * bg ** 2)
    err2 += np.einsum("eq,eqd,eqd->", ec.dA, Kg, gdiff)

    # boundary faces: the dG norm's face term of u_h - u* = u_h - g
    fb = FaceContext(U_h, mesh.bface_vertices, [mesh.bface_elements], mesh.bface_h, degree)
    (eb, vb, _), = fb.sides
    bdiff = np.einsum("fl,fql->fq", u_coeffs[U_h.dofmap[eb]], vb) - exact(fb.qp)
    w = _norm_face_weight(problem, U_h, fb, mesh.bface_normals, mesh.bface_h, params)
    err2 += np.einsum("fq,fq->", w, bdiff ** 2)
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


def write_cross_section_csv(path, s, pts, *named_values):
    """CSV with columns s, x, y and one column per (name, values) pair."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "y"] + [name for name, _ in named_values])
        for i in range(len(s)):
            w.writerow([repr(float(s[i])), repr(float(pts[i, 0])), repr(float(pts[i, 1]))]
                       + [repr(float(v[i])) for _, v in named_values])
