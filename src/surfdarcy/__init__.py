"""Stabilized cut finite element solver for the Darcy problem on implicitly
defined closed surfaces, with the torus convergence benchmark built in."""

from .assembly import (
    AssembledSystem,
    AssemblyParams,
    Stabilization,
    SystemLayout,
    assemble,
    assemble_stabilization,
)
from .cut_surface import (
    DiscreteSurface,
    SurfaceCell,
    TetInterpolant,
    build_surface,
    lift_point,
    marching_tet,
    surface_mean,
    with_quadrature,
)
from .fe_space import FESpace, build_space, eval_basis, interpolate
from .geometry import ImplicitSurface, SurfaceFrame, Torus, Translated
from .mesh import (
    ActiveMesh,
    BackgroundMesh,
    build_background,
    extract_active,
    refine_uniform,
)
from .solver import Factorization, Solution, estimate_condition, factorize, solve
from .verification import (
    CASE_TABLE,
    CaseConfig,
    ConvergenceReport,
    ErrorTriple,
    ManufacturedSolution,
    case_config,
    compute_eoc,
    compute_errors,
    energy_norm,
    report_to_csv,
    report_to_markdown,
    run_case,
    tangency_defect,
)

__version__ = "0.1.0"
