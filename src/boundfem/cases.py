"""Built-in problem definitions: three benchmark flows and a smooth reference.

* smooth  - manufactured sin*sin solution with unit diffusion; used for
            convergence-rate checks, no bounds.
* case1   - pure advection of a sharp tanh layer across the unit square on a
            quasi-uniform mesh (h ~ 0.126 realized as 11x11), bounds [0, 1].
* case2   - rotating flow on (0,1)x(-1,1): an inlet profile with two tanh
            ramps on the lower-left edge sweeps a half turn; adaptive runs
            with bounds [0, 1].
* case3   - case2 plus diffusion K = 1e-3, which adds a boundary layer at
            x = 0; adaptive runs from the 4x4 mesh with gamma0 = 1e-4 and
            the nodal penalty quadrature.

The inlet ramps of case2/case3 use tanh((s - 0.35)/eps) by default (an inner
layer of width eps between 0.35 and 0.65 along the inflow segment);
layer_scaling="shallow" keeps the nearly flat tanh(eps (s - 0.35)) variant.
The segment coordinate s runs from the rotation center down the inflow edge.
"""

from dataclasses import dataclass, replace

import numpy as np

from .forms import ProblemSpec
from .mesh import build_structured_mesh

LAYER_EPS = 0.01


@dataclass
class CaseDefinition:
    name: str
    title: str
    make_problem: object                     # (CaseDefinition) -> ProblemSpec
    mode: str                                # "uniform" or "adaptive"
    make_mesh: object                        # () -> Mesh
    exact: object = None
    exact_grad: object = None
    p: int = 1
    gamma0: float | None = None
    tol: float = 1e-5
    levels: int = 1
    max_dofs: int | None = None
    theta_mark: float = 0.5
    penalty_quadrature: str = "gauss"
    upper_sign: str = "restoring"
    layer_scaling: str = "sharp"             # "sharp" or "shallow" (verbatim formula)
    cross_section: tuple | None = None
    bounds: tuple = (None, None)

    def problem(self):
        return self.make_problem(self)

    def with_overrides(self, **kw):
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw)


# ----------------------------------------------------------------------
# smooth manufactured case
# ----------------------------------------------------------------------

def _smooth_exact(x):
    return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])


def _smooth_grad(x):
    return np.pi * np.stack([
        np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
        np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]),
    ], axis=-1)


def _smooth_problem(case):
    def f(x):
        g = _smooth_grad(x)
        return (2.0 * np.pi ** 2 + 1.0) * _smooth_exact(x) + g[..., 0] + g[..., 1]

    return ProblemSpec(beta=(1.0, 1.0), K=1.0, sigma=1.0, f=f, g=_smooth_exact)


# ----------------------------------------------------------------------
# case1: advected tanh layer
# ----------------------------------------------------------------------

_SQ10 = np.sqrt(10.0)


def _case1_exact(x):
    return 0.5 * (np.tanh((x[..., 1] - x[..., 0] / 3.0 - 0.25) / LAYER_EPS) + 1.0)


def _case1_grad(x):
    s = (x[..., 1] - x[..., 0] / 3.0 - 0.25) / LAYER_EPS
    d = 0.5 / (np.cosh(s) ** 2 * LAYER_EPS)
    return np.stack([-d / 3.0, d], axis=-1)


def _case1_problem(case):
    lo, hi = case.bounds
    return ProblemSpec(beta=(3.0 / _SQ10, 1.0 / _SQ10), K=0.0, sigma=0.0, f=0.0,
                       g=_case1_exact, u_min=lo, u_max=hi, gamma0=case.gamma0)


# ----------------------------------------------------------------------
# case2 / case3: rotating flow
# ----------------------------------------------------------------------

def _rot_beta(x):
    return np.stack([-x[..., 1], x[..., 0]], axis=-1)


def _inlet_profile(s, scaling):
    if scaling == "shallow":
        up = 0.5 * (1.0 + np.tanh(LAYER_EPS * (s - 0.35)))
        down = 0.5 * (1.0 + np.tanh(LAYER_EPS * (0.65 - s)))
    else:
        up = 0.5 * (1.0 + np.tanh((s - 0.35) / LAYER_EPS))
        down = 0.5 * (1.0 + np.tanh((0.65 - s) / LAYER_EPS))
    return np.where(s < 0.5, up, down)


def _rot_g(scaling):
    def g(x):
        s = -x[..., 1]          # along-edge coordinate on the lower-left inflow edge
        prof = _inlet_profile(s, scaling)
        on_inlet = (np.abs(x[..., 0]) < 1e-12) & (x[..., 1] < 0.0)
        return np.where(on_inlet, prof, 0.0)

    return g


def _rot_exact(scaling):
    # pure advection transports the inlet profile along circles around the
    # rotation center; radii above 1 are fed by homogeneous inflow data
    def u(x):
        r = np.hypot(x[..., 0], x[..., 1])
        return np.where(r < 1.0, _inlet_profile(r, scaling), 0.0)

    return u


def _rot_exact_grad(scaling):
    def du(x):
        r = np.hypot(x[..., 0], x[..., 1])
        rs = np.maximum(r, 1e-30)
        if scaling == "shallow":
            d_up = 0.5 * LAYER_EPS / np.cosh(LAYER_EPS * (r - 0.35)) ** 2
            d_down = -0.5 * LAYER_EPS / np.cosh(LAYER_EPS * (0.65 - r)) ** 2
        else:
            d_up = 0.5 / (np.cosh((r - 0.35) / LAYER_EPS) ** 2 * LAYER_EPS)
            d_down = -0.5 / (np.cosh((0.65 - r) / LAYER_EPS) ** 2 * LAYER_EPS)
        dr = np.where(r < 0.5, d_up, d_down)
        dr = np.where(r < 1.0, dr, 0.0)
        return dr[..., None] * np.stack([x[..., 0] / rs, x[..., 1] / rs], axis=-1)

    return du


def _case2_problem(case, K=0.0):
    lo, hi = case.bounds
    return ProblemSpec(beta=_rot_beta, K=K, sigma=0.0, f=0.0,
                       g=_rot_g(case.layer_scaling), u_min=lo, u_max=hi,
                       gamma0=case.gamma0)


CASES = {
    "smooth": CaseDefinition(
        name="smooth",
        title="manufactured smooth solution (convergence reference)",
        make_problem=_smooth_problem,
        mode="uniform",
        make_mesh=lambda: build_structured_mesh(4, 4),
        exact=_smooth_exact,
        exact_grad=_smooth_grad,
        levels=5,
    ),
    "case1": CaseDefinition(
        name="case1",
        title="advected tanh layer on a quasi-uniform mesh",
        make_problem=_case1_problem,
        mode="uniform",
        make_mesh=lambda: build_structured_mesh(11, 11),
        exact=_case1_exact,
        exact_grad=_case1_grad,
        gamma0=1e-5,
        tol=1e-5,
        levels=4,
        bounds=(0.0, 1.0),
        # cross-section normal to the advection direction through the center
        cross_section=((0.5 + 0.45 / _SQ10, 0.5 - 3 * 0.45 / _SQ10),
                       (0.5 - 0.45 / _SQ10, 0.5 + 3 * 0.45 / _SQ10)),
    ),
    "case2": CaseDefinition(
        name="case2",
        title="rotating flow with an inlet bump (adaptive)",
        make_problem=lambda case: _case2_problem(case, K=0.0),
        mode="adaptive",
        make_mesh=lambda: build_structured_mesh(4, 8, (0.0, 1.0, -1.0, 1.0)),
        exact=None,      # set in problem(); depends on layer_scaling
        gamma0=1e-5,
        tol=1e-5,
        levels=60,
        max_dofs=20000,
        bounds=(0.0, 1.0),
        cross_section=((0.0, 0.0), (1.0, 1.0)),
    ),
    "case3": CaseDefinition(
        name="case3",
        title="advection-dominated diffusion with a boundary layer at x=0 (adaptive)",
        make_problem=lambda case: _case2_problem(case, K=1e-3),
        mode="adaptive",
        make_mesh=lambda: build_structured_mesh(4, 4, (0.0, 1.0, -1.0, 1.0)),
        gamma0=1e-4,
        tol=1e-5,
        levels=16,
        penalty_quadrature="nodal",
        bounds=(0.0, 1.0),
        cross_section=((0.0, 0.0), (1.0, 1.0)),
    ),
}


def get_case(name):
    try:
        return CASES[name]
    except KeyError:
        known = ", ".join(sorted(CASES))
        raise KeyError(f"unknown case {name!r}; available cases: {known}") from None


def case_exact(case):
    """Exact solution and gradient for a case, honoring its layer scaling.

    case2 has an exact pure-advection solution; case3 (with diffusion) does
    not, and returns (None, None).
    """
    if case.name == "case2":
        return _rot_exact(case.layer_scaling), _rot_exact_grad(case.layer_scaling)
    return case.exact, case.exact_grad
