"""boundfem: weak bound enforcement for advection-dominated diffusion.

A discontinuous-Galerkin-based residual minimization solver whose discrete
solutions respect prescribed lower/upper bounds through a nonlinear
consistent penalty, with on-the-fly error estimation and adaptive mesh
refinement.
"""

__version__ = "0.1.0"

from .mesh import (Mesh, build_structured_mesh, refine_uniform_red,
                   bisect_marked, read_mesh, write_mesh)
from .fespace import (FunctionSpace, DiscreteFunction, trial_to_test_embedding,
                      BROKEN, CONTINUOUS)
from .quadrature import triangle_rule, edge_rule
from .forms import (ProblemSpec, sipg_eta, assemble_bh,
                    assemble_gram, assemble_load, vh_norm, NumericalBreakdown)
from .penalty import (PenaltyConfig, PenaltyOperator, negative_part,
                      compute_gammas)
from .solver import (NewtonResult, build_operators, solve_linear_resmin,
                     newton_solve, SolverBreakdown)
from .adapt import (AdaptRecord, error_indicators, dorfler_mark,
                    adaptive_solve_loop, prolong)
from .report import bound_violation_report, error_norms, cross_section
from .cases import CASES, get_case
from .app import run_case, convergence_study
from .vtkio import export_vtk
