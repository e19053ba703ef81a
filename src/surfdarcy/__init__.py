"""Stabilized cut finite element solver for the Darcy problem on implicitly
defined closed surfaces, with the torus convergence benchmark built in."""

from .assembly import (
    AssembledSystem,
    Stabilization,
    SystemLayout,
    assemble,
    assemble_stabilization,
    stabilize,
)
from .cut_surface import (
    DiscreteSurface,
    build_surface,
    surface_mean,
    with_quadrature,
)
from .fe_space import FESpace, build_space
from .geometry import ImplicitSurface, Torus
from .mesh import (
    ActiveMesh,
    BackgroundMesh,
    build_background,
    extract_active,
    refine_uniform,
)
from .solver import Factorization, Solution, estimate_condition, solve
from .verification import (
    CASE_TABLE,
    CaseConfig,
    ConvergenceReport,
    ErrorTriple,
    ManufacturedSolution,
    case_config,
    compute_eoc,
    compute_errors,
    report_to_csv,
    report_to_markdown,
    run_case,
    solution_values,
    tangency_defect,
)

__version__ = "0.1.0"
