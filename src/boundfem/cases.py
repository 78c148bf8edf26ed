"""Built-in problem definitions: three benchmark flows and a smooth reference.

* smooth  - manufactured sin*sin solution with unit diffusion; used for
            convergence-rate checks, no bounds unless a run sets them.
* case1   - pure advection of a sharp tanh layer across the unit square on a
            quasi-uniform mesh (h ~ 0.126 realized as 11x11), bounds [0, 1].
* case2   - rotating flow on (0,1)x(-1,1): an inlet profile with two tanh
            ramps on the lower-left edge sweeps a half turn; adaptive runs
            with bounds [0, 1].
* case3   - case2 plus diffusion K = 1e-3, which adds a boundary layer at
            x = 0; adaptive runs from the 4x4 mesh with gamma0 = 1e-4 and
            the nodal penalty quadrature.

The inlet profile of case2/case3 rises as 0.5 (1 + tanh((s - 0.35)/eps)) and
falls as 0.5 (1 + tanh((0.65 - s)/eps)), switching at s = 0.5: a plateau near
one between two inner layers of width eps = 0.01. The segment coordinate s
runs from the rotation center down the inflow edge.
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
    make_problem: object                     # () -> ProblemSpec, unbounded
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
    cross_section: tuple | None = None
    lower: float | None = None
    upper: float | None = None

    def problem(self):
        """The case's problem, with the case's bounds and gamma0 (every case)."""
        return replace(self.make_problem(), u_min=self.lower, u_max=self.upper,
                       gamma0=self.gamma0)

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


def _smooth_problem():
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


def _case1_problem():
    return ProblemSpec(beta=(3.0 / _SQ10, 1.0 / _SQ10), K=0.0, sigma=0.0, f=0.0,
                       g=_case1_exact)


# ----------------------------------------------------------------------
# case2 / case3: rotating flow
# ----------------------------------------------------------------------

def _rot_beta(x):
    return np.stack([-x[..., 1], x[..., 0]], axis=-1)


def _inlet_profile(s):
    up = 0.5 * (1.0 + np.tanh((s - 0.35) / LAYER_EPS))
    down = 0.5 * (1.0 + np.tanh((0.65 - s) / LAYER_EPS))
    return np.where(s < 0.5, up, down)


def _rot_g(x):
    s = -x[..., 1]          # along-edge coordinate on the lower-left inflow edge
    on_inlet = (np.abs(x[..., 0]) < 1e-12) & (x[..., 1] < 0.0)
    return np.where(on_inlet, _inlet_profile(s), 0.0)


def _rot_exact(x):
    # pure advection transports the inlet profile along circles around the
    # rotation center; radii above 1 are fed by homogeneous inflow data
    r = np.hypot(x[..., 0], x[..., 1])
    return np.where(r < 1.0, _inlet_profile(r), 0.0)


def _rot_exact_grad(x):
    r = np.hypot(x[..., 0], x[..., 1])
    rs = np.maximum(r, 1e-30)
    d_up = 0.5 / (np.cosh((r - 0.35) / LAYER_EPS) ** 2 * LAYER_EPS)
    d_down = -0.5 / (np.cosh((0.65 - r) / LAYER_EPS) ** 2 * LAYER_EPS)
    dr = np.where(r < 0.5, d_up, d_down)
    dr = np.where(r < 1.0, dr, 0.0)
    return dr[..., None] * np.stack([x[..., 0] / rs, x[..., 1] / rs], axis=-1)


def _rot_problem(K):
    return ProblemSpec(beta=_rot_beta, K=K, sigma=0.0, f=0.0, g=_rot_g)


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
        lower=0.0, upper=1.0,
        # cross-section normal to the advection direction through the center
        cross_section=((0.5 + 0.45 / _SQ10, 0.5 - 3 * 0.45 / _SQ10),
                       (0.5 - 0.45 / _SQ10, 0.5 + 3 * 0.45 / _SQ10)),
    ),
    "case2": CaseDefinition(
        name="case2",
        title="rotating flow with an inlet bump (adaptive)",
        make_problem=lambda: _rot_problem(0.0),
        mode="adaptive",
        make_mesh=lambda: build_structured_mesh(4, 8, (0.0, 1.0, -1.0, 1.0)),
        exact=_rot_exact,
        exact_grad=_rot_exact_grad,
        gamma0=1e-5,
        tol=1e-5,
        levels=60,
        max_dofs=20000,
        lower=0.0, upper=1.0,
        cross_section=((0.0, 0.0), (1.0, 1.0)),
    ),
    "case3": CaseDefinition(
        name="case3",
        title="advection-dominated diffusion with a boundary layer at x=0 (adaptive)",
        make_problem=lambda: _rot_problem(1e-3),
        mode="adaptive",
        make_mesh=lambda: build_structured_mesh(4, 4, (0.0, 1.0, -1.0, 1.0)),
        gamma0=1e-4,
        tol=1e-5,
        levels=16,
        penalty_quadrature="nodal",
        lower=0.0, upper=1.0,
        cross_section=((0.0, 0.0), (1.0, 1.0)),
    ),
}


def get_case(name):
    try:
        return CASES[name]
    except KeyError:
        known = ", ".join(sorted(CASES))
        raise KeyError(f"unknown case {name!r}; available cases: {known}") from None

