"""Solution quality reporting: bound violations, error norms, cross-sections."""

import csv
from dataclasses import dataclass

import numpy as np

from .forms import ElementContext, FormParams, element_context, sipg_eta
from .quadrature import edge_rule


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


def bound_violation_report(u, bounds, quad_degree=None):
    """Violation report for a DiscreteFunction against (lower, upper) bounds."""
    lower, upper = bounds
    if lower is None and upper is None:
        raise ValueError("at least one bound is required")
    space = u.space
    degree = 2 * space.p + 2 if quad_degree is None else quad_degree
    ec = element_context(space, degree)
    vals = np.einsum("el,ql->eq", u.coeffs[space.dofmap], ec.vals)
    lo = float(min(vals.min(), u.coeffs.min()))
    hi = float(max(vals.max(), u.coeffs.max()))
    under = max(0.0, lower - lo) if lower is not None else 0.0
    over = max(0.0, hi - upper) if upper is not None else 0.0
    if lower is not None and upper is not None:
        span = upper - lower
        upct, opct = 100.0 * under / span, 100.0 * over / span
    else:
        upct = opct = None
    return ViolationReport(lo, hi, under, over, upct, opct)


def error_norms(problem, U_h, u_coeffs, exact, exact_grad=None, params=None,
                quad_degree=None):
    """L2 and dG-norm errors of a continuous discrete solution vs an exact one.

    The dG norm needs the exact gradient; without it only the L2 error is
    returned (err_vh None). The trial solution is continuous, so interior
    jump terms vanish and only volume and boundary terms contribute.
    """
    from .fields import scalar_field, vector_field

    params = params or FormParams()
    mesh = U_h.mesh
    degree = 2 * U_h.p + 4 if quad_degree is None else quad_degree
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

    # boundary faces: 1/2 |beta.n| (u - g)^2 + eta (u - g)^2 with u - g = u_h - u*
    rule = edge_rule(degree)
    p0 = mesh.vertices[mesh.bface_vertices[:, 0]]
    p1 = mesh.vertices[mesh.bface_vertices[:, 1]]
    qp = p0[:, None, :] + rule.points[None, :, None] * (p1 - p0)[:, None, :]
    w = rule.weights[None, :] * mesh.bface_h[:, None]
    refs = mesh.to_reference(mesh.bface_elements[:, None], qp)
    bvals, _ = U_h.basis.eval(refs)
    tr = np.einsum("fl,fql->fq", u_coeffs[U_h.dofmap[mesh.bface_elements]], bvals)
    bdiff = tr - exact(qp)
    bn = np.einsum("fqd,fd->fq", problem.beta_fn(qp), mesh.bface_normals)
    eta = sipg_eta(U_h.p, 2, problem.k_max, mesh.bface_h, params.eta0)
    err2 += np.einsum("fq,fq->", w * (0.5 * np.abs(bn) + eta[:, None]), bdiff ** 2)
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
