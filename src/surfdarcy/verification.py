"""Manufactured torus solution, discrete error norms, EOC computation, and
the convergence-study driver for the six mixed-order/stabilization cases."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import fe_space
from .assembly import (
    AssemblyParams,
    Stabilization,
    assemble,
    assemble_stabilization,
)
from .cut_surface import DiscreteSurface, build_surface, surface_mean, with_quadrature
from .geometry import ImplicitSurface, Torus, Translated
from .mesh import (
    DEFAULT_BOX,
    DEFAULT_N_CELLS,
    build_background,
    extract_active,
    refine_uniform,
)
from .solver import Solution, solve

__all__ = [
    "ManufacturedSolution",
    "ErrorTriple",
    "LevelResult",
    "ConvergenceReport",
    "CaseConfig",
    "CASE_TABLE",
    "case_config",
    "compute_errors",
    "energy_norm",
    "compute_eoc",
    "tangency_defect",
    "run_case",
    "run_level",
    "report_to_csv",
    "report_to_markdown",
]

log = logging.getLogger(__name__)


class ManufacturedSolution:
    """Closed-form torus solution: divergence-free tangential velocity,
    linear pressure p = z, zero source, and the matching tangential forcing.

    All evaluators use extension semantics: a query point in the tubular
    neighborhood is first projected to its closest surface point.
    """

    def __init__(self, R: float = 1.0, r: float = 0.5, offset=(0.0, 0.0, 0.0)):
        self.R = float(R)
        self.r = float(r)
        self.offset = np.asarray(offset, dtype=float)
        torus = Torus(R=self.R, r=self.r)
        if np.any(self.offset != 0.0):
            self.surface: ImplicitSurface = Translated(torus, tuple(self.offset))
        else:
            self.surface = torus

    def _on_torus(self, x):
        """Project to the surface and undo the translation."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        return self.surface.closest_point(pts) - self.offset, pts.ndim

    def velocity(self, x):
        y, _ = self._on_torus(x)
        s = np.hypot(y[:, 0], y[:, 1])
        u = np.stack(
            [
                2.0 * y[:, 0] * y[:, 2],
                -2.0 * y[:, 1] * y[:, 2],
                2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2) * (self.R - s) / s,
            ],
            axis=1,
        )
        return u if np.asarray(x).ndim > 1 else u[0]

    def pressure(self, x):
        y, _ = self._on_torus(x)
        p = y[:, 2]
        return p if np.asarray(x).ndim > 1 else float(p[0])

    def f_field(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(len(pts))
        return out if np.asarray(x).ndim > 1 else 0.0

    def g_field(self, x):
        y, _ = self._on_torus(x)
        s = np.hypot(y[:, 0], y[:, 1])
        a = (s - self.R) ** 2 + y[:, 2] ** 2  # equals r^2 on the surface
        rad = (1.0 - self.R / s) / a
        g = np.stack(
            [
                y[:, 0] * y[:, 2] * (2.0 - rad),
                y[:, 1] * y[:, 2] * (-2.0 - rad),
                1.0
                - 2.0 * (y[:, 0] ** 2 - y[:, 1] ** 2) * (s - self.R) / s
                - y[:, 2] ** 2 / a,
            ],
            axis=1,
        )
        return g if np.asarray(x).ndim > 1 else g[0]

    def pressure_surface_gradient(self, x):
        """Tangential gradient of p = z at the closest point: P (0, 0, 1)."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        n = np.atleast_2d(self.surface.surface_normal(pts))
        grad = -n[:, 2][:, None] * n
        grad[:, 2] += 1.0
        return grad if np.asarray(x).ndim > 1 else grad[0]

    def random_surface_points(self, n: int, rng) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        ring = self.R + self.r * np.cos(theta)
        pts = np.stack(
            [ring * np.cos(phi), ring * np.sin(phi), self.r * np.sin(theta)], axis=1
        )
        return pts + self.offset


@dataclass(frozen=True)
class ErrorTriple:
    u_l2: float
    p_h1: float
    p_l2: float

    def as_tuple(self):
        return (self.u_l2, self.p_h1, self.p_l2)


@dataclass(frozen=True)
class LevelResult:
    level: int
    h: float
    dofs_u: int  # all three velocity components
    dofs_p: int
    errors: ErrorTriple
    tangency: float


@dataclass(frozen=True)
class CaseConfig:
    k_u: int = 1
    k_p: int = 1
    k_g: int = 1
    stab: Stabilization = Stabilization.FULL_GRADIENT
    tau: float = 0.1
    alpha: float = 2.0
    n_cells0: int = DEFAULT_N_CELLS
    box: tuple = DEFAULT_BOX
    offset: tuple = (0.0, 0.0, 0.0)
    quad_degree: int = 4
    quad_degree_err: int = 6


# (k_u, k_p, k_g, stabilization) of the six study cases
CASE_TABLE = {
    1: (1, 1, 1, Stabilization.FULL_GRADIENT),
    2: (1, 1, 1, Stabilization.NORMAL_GRADIENT),
    3: (1, 2, 1, Stabilization.FULL_GRADIENT),
    4: (1, 2, 1, Stabilization.NORMAL_GRADIENT),
    5: (1, 2, 2, Stabilization.FULL_GRADIENT),
    6: (1, 2, 2, Stabilization.NORMAL_GRADIENT),
}


def case_config(case: int, **overrides) -> CaseConfig:
    if case not in CASE_TABLE:
        raise ValueError(f"case must be one of {sorted(CASE_TABLE)}")
    k_u, k_p, k_g, stab = CASE_TABLE[case]
    return CaseConfig(k_u=k_u, k_p=k_p, k_g=k_g, stab=stab, **overrides)


@dataclass(frozen=True)
class ConvergenceReport:
    case: int | None
    config: CaseConfig
    levels: list
    eoc_u_l2: list = field(default_factory=list)
    eoc_p_h1: list = field(default_factory=list)
    eoc_p_l2: list = field(default_factory=list)
    # run_level output of the finest level, kept for exporting it
    finest: dict | None = field(default=None, repr=False, compare=False)


def _velocity_values(vspace, coeffs3, cells, points):
    values, _, dofs = fe_space.tabulate(vspace, cells, points)
    gathered = np.asarray(coeffs3)[:, dofs]  # (3, n, nb)
    return np.einsum("nb,knb->nk", values, gathered)


def compute_errors(solution: Solution, spaces, ds: DiscreteSurface, exact) -> ErrorTriple:
    """Quadrature error norms on the discrete surface.

    Velocity: all three components of the discrete field against the extended
    exact tangential field.  Pressure compares against the exact pressure with
    its surface mean removed (the discrete pressure has zero discrete mean by
    construction); the H1 seminorm uses the discrete tangential gradient
    against the exact surface gradient at the closest points.
    """
    vspace, pspace = spaces
    pts = ds.points
    w = ds.weights
    cells = ds.point_active

    u_h = _velocity_values(vspace, solution.u_coeffs, cells, pts)
    u_e = exact.velocity(pts)
    e_u_sq = float(w @ np.sum((u_h - u_e) ** 2, axis=1))

    pvals, pgrads, pdofs = fe_space.tabulate(pspace, cells, pts)
    p_coeffs = solution.p_coeffs
    p_h = np.einsum("nb,nb->n", pvals, p_coeffs[pdofs])
    grad_p_h = np.einsum("nbx,nb->nx", pgrads, p_coeffs[pdofs])

    p_e = exact.pressure(pts)
    shift = surface_mean(ds, p_e)
    e_p = p_h - (p_e - shift)
    e_p_sq = float(w @ e_p**2)

    normals = ds.normals
    tangential = grad_p_h - np.einsum("nx,nx->n", normals, grad_p_h)[:, None] * normals
    grad_exact = exact.pressure_surface_gradient(pts)
    e_g_sq = float(w @ np.sum((tangential - grad_exact) ** 2, axis=1))

    return ErrorTriple(
        u_l2=np.sqrt(e_u_sq),
        p_h1=np.sqrt(e_p_sq + e_g_sq),
        p_l2=np.sqrt(e_p_sq),
    )


def energy_norm(u_coeffs, p_coeffs, spaces, ds: DiscreteSurface, stab_u, stab_p) -> float:
    """Natural discrete energy norm: surface L2 of the velocity, surface L2 of
    the full pressure gradient, plus the stabilization seminorm."""
    vspace, pspace = spaces
    pts = ds.points
    w = ds.weights
    cells = ds.point_active
    u_h = _velocity_values(vspace, u_coeffs, cells, pts)
    grad_p = fe_space.evaluate_gradient(pspace, p_coeffs, cells, pts)
    total = float(w @ np.sum(u_h**2, axis=1)) + float(w @ np.sum(grad_p**2, axis=1))
    for c in range(3):
        total += float(np.asarray(u_coeffs)[c] @ (stab_u @ np.asarray(u_coeffs)[c]))
    total += float(np.asarray(p_coeffs) @ (stab_p @ np.asarray(p_coeffs)))
    return float(np.sqrt(total))


def tangency_defect(solution: Solution, ds: DiscreteSurface, vspace) -> float:
    """Surface L2 norm of u_h . n_exact, the weak-tangency residual."""
    pts = ds.points
    u_h = _velocity_values(vspace, solution.u_coeffs, ds.point_active, pts)
    n_exact = ds.surface.surface_normal(pts)
    defect = np.einsum("nx,nx->n", u_h, n_exact)
    return float(np.sqrt(ds.weights @ defect**2))


def compute_eoc(errors) -> list:
    """EOC(k) = log2(E_{k-1} / E_k); None at level 0 and at zero errors."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("at least two levels are required")
    eoc = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev <= 0.0 or cur <= 0.0:
            eoc.append(None)
        else:
            eoc.append(float(np.log(prev / cur) / np.log(2.0)))
    return eoc


def run_level(config: CaseConfig, mesh, exact: ManufacturedSolution):
    """Solve one refinement level; returns (LevelResult pieces, objects)."""
    surface = exact.surface
    phi = surface.signed_distance(mesh.vertices)
    active = extract_active(mesh, phi)
    ds = build_surface(active, surface, config.k_g, config.quad_degree)
    ds_err = with_quadrature(ds, config.quad_degree_err)
    vspace = fe_space.build_space(active, config.k_u)
    pspace = fe_space.build_space(active, config.k_p)
    params = AssemblyParams(stab=config.stab, tau=config.tau, alpha=config.alpha)
    system = assemble(
        (vspace, pspace),
        ds,
        active,
        surface,
        (exact.f_field, exact.g_field),
        params,
    )
    solution = solve(system)
    errors = compute_errors(solution, (vspace, pspace), ds_err, exact)
    defect = tangency_defect(solution, ds_err, vspace)
    return {
        "active": active,
        "ds": ds,
        "ds_err": ds_err,
        "spaces": (vspace, pspace),
        "system": system,
        "solution": solution,
        "errors": errors,
        "tangency": defect,
    }


def run_case(config: CaseConfig, levels: int, case: int | None = None) -> ConvergenceReport:
    """Run the convergence study on refinement levels 0..levels."""
    if levels < 1:
        raise ValueError("need at least two levels (levels >= 1)")
    exact = ManufacturedSolution(offset=config.offset)
    mesh = build_background(config.box, config.n_cells0)
    results = []
    for level in range(levels + 1):
        if level > 0:
            mesh = refine_uniform(mesh)
        log.info("level %d: h = %.5g", level, mesh.h)
        out = run_level(config, mesh, exact)
        vspace, pspace = out["spaces"]
        results.append(
            LevelResult(
                level=level,
                h=mesh.h,
                dofs_u=3 * vspace.global_dofs,
                dofs_p=pspace.global_dofs,
                errors=out["errors"],
                tangency=out["tangency"],
            )
        )
        log.info(
            "level %d: e_u = %.3e, e_p_H1 = %.3e, e_p_L2 = %.3e",
            level,
            out["errors"].u_l2,
            out["errors"].p_h1,
            out["errors"].p_l2,
        )
    return ConvergenceReport(
        case=case,
        config=config,
        levels=results,
        eoc_u_l2=compute_eoc([r.errors.u_l2 for r in results]),
        eoc_p_h1=compute_eoc([r.errors.p_h1 for r in results]),
        eoc_p_l2=compute_eoc([r.errors.p_l2 for r in results]),
        finest=out,
    )


def _fmt_eoc(value):
    return "" if value is None else f"{value:.4f}"


def report_to_csv(report: ConvergenceReport) -> str:
    lines = ["level,h,dofs_u,dofs_p,err_u_L2,err_p_H1,err_p_L2,eoc_u_L2,eoc_p_H1,eoc_p_L2"]
    for k, row in enumerate(report.levels):
        lines.append(
            f"{row.level},{row.h:.8g},{row.dofs_u},{row.dofs_p},"
            f"{row.errors.u_l2:.6e},{row.errors.p_h1:.6e},{row.errors.p_l2:.6e},"
            f"{_fmt_eoc(report.eoc_u_l2[k])},{_fmt_eoc(report.eoc_p_h1[k])},"
            f"{_fmt_eoc(report.eoc_p_l2[k])}"
        )
    return "\n".join(lines) + "\n"


def report_to_markdown(report: ConvergenceReport) -> str:
    cfg = report.config
    head = [
        f"# Convergence report (case {report.case if report.case else 'custom'})",
        "",
        f"- orders: velocity {cfg.k_u}, pressure {cfg.k_p}, geometry {cfg.k_g}",
        f"- stabilization: {cfg.stab.value}, tau = {cfg.tau}, alpha = {cfg.alpha}",
        f"- initial grid: {cfg.n_cells0} cells/dim on box {cfg.box}",
        f"- surface offset: {tuple(cfg.offset)}",
        f"- pressure H1 error uses the tangential discrete gradient",
        "",
        "| k | h | ||e_u|| | EOC | ||e_p||_1 | EOC | ||e_p|| | EOC |",
        "|---|---|---------|-----|-----------|-----|---------|-----|",
    ]
    body = []
    for k, row in enumerate(report.levels):
        body.append(
            f"| {row.level} | {row.h:.4g} | {row.errors.u_l2:.3e} | "
            f"{_fmt_eoc(report.eoc_u_l2[k]) or '--'} | {row.errors.p_h1:.3e} | "
            f"{_fmt_eoc(report.eoc_p_h1[k]) or '--'} | {row.errors.p_l2:.3e} | "
            f"{_fmt_eoc(report.eoc_p_l2[k]) or '--'} |"
        )
    return "\n".join(head + body) + "\n"
