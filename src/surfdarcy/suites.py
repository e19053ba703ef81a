"""Property-check suites: manufactured-solution residuals, measured geometric
approximation rates, stability-lemma ratio boundedness, and robustness of the
solve with respect to how the surface cuts the background mesh.

Each suite returns a SuiteResult with per-check messages; the CLI `check`
command is a thin shell over these functions and the acceptance tests reuse
them directly.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import fe_space
from .assembly import (
    AssemblyParams,
    Stabilization,
    assemble,
    assemble_bulk_mass,
    assemble_stabilization,
    assemble_surface_mass,
    assemble_surface_stiffness,
    stabilize,
    surface_load_vector,
)
from .cut_surface import build_surface
from .geometry import fd_gradient
from .mesh import build_background, extract_active, refine_uniform
from .solver import Factorization, estimate_condition, solve
from .verification import CaseConfig, ManufacturedSolution

__all__ = [
    "SuiteResult",
    "SystemRecord",
    "manufactured_residual_suite",
    "geometric_rate_suite",
    "lemma_ratio_suite",
    "positioning_suite",
]


@dataclass(frozen=True)
class SystemRecord:
    """One solved system of the positioning suite."""

    translation: tuple  # the torus offset (x, y, z)
    kind: Stabilization
    unknowns: int  # rows of the bordered system
    factor_nnz: int  # L+U nonzeros of the factor of its grounded block
    relative_residual: float
    condition: float  # 2-norm condition estimate


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)
    records: list = field(default_factory=list)  # SystemRecord per solved system

    def check(self, ok: bool, message: str):
        self.passed = self.passed and bool(ok)
        self.lines.append(f"{'PASS' if ok else 'FAIL'}: {message}")


def manufactured_residual_suite(offset=(0.0, 0.0, 0.0), seed: int = 0) -> SuiteResult:
    """Mesh-free consistency checks of the closed-form solution."""
    result = SuiteResult("manufactured-solution residuals")
    exact = ManufacturedSolution(offset=offset)
    rng = np.random.default_rng(seed)
    pts = exact.random_surface_points(100, rng)
    surface = exact.surface

    normals = surface.surface_normal(pts)
    u = exact.velocity(pts)
    un = np.abs(np.einsum("nx,nx->n", u, normals)).max()
    result.check(un <= 1e-10, f"velocity tangential: max |u.n| = {un:.3e} <= 1e-10")

    g = exact.g_field(pts)
    gn = np.abs(np.einsum("nx,nx->n", g, normals)).max()
    result.check(gn <= 1e-10, f"forcing tangential: max |g.n| = {gn:.3e} <= 1e-10")

    # momentum residual with a finite-difference extension gradient of p
    grad_pe = fd_gradient(lambda q: surface.extend_vector(exact.pressure, q), pts)
    proj = grad_pe - np.einsum("nx,nx->n", grad_pe, normals)[:, None] * normals
    res = np.linalg.norm(u + proj - g, axis=1).max()
    result.check(res <= 1e-8, f"momentum residual: max |u + grad_S p - g| = {res:.3e} <= 1e-8")

    div_pts = exact.random_surface_points(20, rng)
    divs = surface.surface_divergence_fd(exact.velocity, div_pts)
    dmax = np.abs(divs).max()
    result.check(dmax <= 1e-5, f"velocity divergence-free: max |div_S u| = {dmax:.3e} <= 1e-5")
    return result


def geometric_rate_suite(
    offset=(0.0, 0.0, 0.0),
    levels=(1, 2, 3),
    orders=(1, 2),
    n_cells0: int = 14,
    box=None,
) -> SuiteResult:
    """Observed orders of the surface distance and normal errors."""
    from .mesh import DEFAULT_BOX

    result = SuiteResult("geometric approximation rates")
    box = DEFAULT_BOX if box is None else box
    exact = ManufacturedSolution(offset=offset)
    surface = exact.surface
    meshes = {}
    mesh = build_background(box, n_cells0)
    meshes[0] = mesh
    for k in range(1, max(levels) + 1):
        mesh = refine_uniform(mesh)
        meshes[k] = mesh

    for k_g in orders:
        hs, dist, nerr = [], [], []
        for level in levels:
            mesh = meshes[level]
            active = extract_active(mesh, surface.signed_distance(mesh.vertices))
            ds = build_surface(active, surface, k_g=k_g, quad_degree=4)
            hs.append(mesh.h)
            dist.append(ds.max_distance())
            nerr.append(ds.max_normal_error())
        order_dist = np.polyfit(np.log(hs), np.log(dist), 1)[0]
        order_normal = np.polyfit(np.log(hs), np.log(nerr), 1)[0]
        result.check(
            abs(order_dist - (k_g + 1)) <= 0.3,
            f"k_g={k_g}: distance order {order_dist:.2f} within {k_g + 1} +- 0.3",
        )
        result.check(
            abs(order_normal - k_g) <= 0.3,
            f"k_g={k_g}: normal order {order_normal:.2f} within {k_g} +- 0.3",
        )
    return result


def _lemma_ratios(active, surface, stab_kind, tau, alpha, n_samples, rng):
    """Max measured ratios over random P1 coefficient vectors."""
    h = active.h
    space = fe_space.build_space(active, 1)
    mass_bulk = assemble_bulk_mass(space, active)
    ds = build_surface(active, surface, k_g=1, quad_degree=4)
    mass_surf = assemble_surface_mass(space, ds)
    stiff_tan = assemble_surface_stiffness(space, ds, tangential=True)
    stab = assemble_stabilization(space, ds, stab_kind, tau, alpha)
    load = surface_load_vector(space, ds)
    area = ds.total_area

    scaled_l2 = 0.0
    poincare = 0.0
    n = space.global_dofs
    for _ in range(n_samples):
        v = rng.standard_normal(n)
        bulk = v @ (mass_bulk @ v)
        surf = v @ (mass_surf @ v)
        s = v @ (stab @ v)
        scaled_l2 = max(scaled_l2, (bulk / h) / (surf + s))
        mean = (load @ v) / area
        centered = surf - 2.0 * mean * (load @ v) + mean**2 * area
        tan = v @ (stiff_tan @ v)
        if tan > 1e-14 * surf:
            poincare = max(poincare, np.sqrt(max(centered, 0.0) / tan))
    return scaled_l2, poincare


def lemma_ratio_suite(
    offset=(0.0, 0.0, 0.0),
    levels=(1, 2, 3),
    n_samples: int = 30,
    tau: float = 0.1,
    alpha: float = 2.0,
    seed: int = 0,
    growth: float = 1.5,
) -> SuiteResult:
    """Scaled bulk-L2 control and surface Poincare ratios across levels."""
    from .mesh import DEFAULT_BOX, DEFAULT_N_CELLS

    result = SuiteResult("stability-lemma ratios")
    exact = ManufacturedSolution(offset=offset)
    surface = exact.surface
    mesh = build_background(DEFAULT_BOX, DEFAULT_N_CELLS)
    meshes = {0: mesh}
    for k in range(1, max(levels) + 1):
        mesh = refine_uniform(mesh)
        meshes[k] = mesh

    for kind in (Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT):
        rng = np.random.default_rng(seed)
        scaled = {}
        poin = {}
        for level in levels:
            mesh = meshes[level]
            active = extract_active(mesh, surface.signed_distance(mesh.vertices))
            scaled[level], poin[level] = _lemma_ratios(
                active, surface, kind, tau, alpha, n_samples, rng
            )
        first, last = levels[0], levels[-1]
        result.check(
            scaled[last] <= growth * scaled[first],
            f"{kind.value}: scaled-L2 ratio {scaled[first]:.3g} -> {scaled[last]:.3g} "
            f"(growth <= {growth})",
        )
        result.check(
            poin[last] <= growth * poin[first],
            f"{kind.value}: Poincare ratio {poin[first]:.3g} -> {poin[last]:.3g} "
            f"(growth <= {growth})",
        )
    return result


_KINDS = (Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT)


def _solve_translation(mesh, tau, alpha, seed, delta) -> list:
    """Both stabilizations of the torus translated by `delta` on `mesh`: one
    surface and one surface form, then per kind one factorization that serves
    the solve and the condition estimate.  Returns one SystemRecord per
    kind, in the order of _KINDS."""
    offset = tuple(delta)
    exact = ManufacturedSolution(offset=offset)
    surface = exact.surface
    active = extract_active(mesh, surface.signed_distance(mesh.vertices))
    ds = build_surface(active, surface, k_g=1, quad_degree=4)
    spaces = (fe_space.build_space(active, 1),) * 2
    surface_form = assemble(spaces, ds, (exact.f_field, exact.g_field))
    records = []
    for kind in _KINDS:
        params = AssemblyParams(stab=kind, tau=tau, alpha=alpha)
        system = stabilize(surface_form, spaces, ds, params)
        lu = Factorization(system)
        solution = solve(lu)
        records.append(
            SystemRecord(
                translation=offset,
                kind=kind,
                unknowns=system.layout.total,
                factor_nnz=lu.nnz,
                relative_residual=solution.residual_norm / np.linalg.norm(system.rhs),
                condition=estimate_condition(lu, seed=seed),
            )
        )
        # one live factor per process: the next kind's factor is made only
        # after this one is freed, so with two workers two factors are live
        # at once, one in each
        del lu
    return records


# the per-translation function of a pool worker, set by _init_worker in each
# worker process and never in the process that owns the pool
_worker_task = None


def _init_worker(task):
    global _worker_task
    _worker_task = task


def _run_worker_task(delta):
    return _worker_task(delta)


def _map_translations(task, offsets) -> list:
    """`task` over `offsets`, results in their order: in forked worker
    processes, one per usable core up to one per translation, or in this
    process when that count is 1.

    Fork, not spawn: a spawned worker imports NumPy and SciPy again, about
    0.6 s, which is the whole gain on a small mesh.  The task and the mesh it
    holds reach each worker through the fork as the initializer's argument,
    which fork does not pickle; each task sends only its translation.  The
    pool forks all its workers before it starts its own threads, and
    OpenBLAS stops its thread pool around a fork and restarts it in the
    child, so no worker inherits a lock held by a thread it lacks."""
    workers = min(len(os.sched_getaffinity(0)), len(offsets))
    if workers == 1:
        return list(map(task, offsets))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(task,),
    ) as pool:
        return list(pool.map(_run_worker_task, offsets))


def positioning_suite(
    level: int = 2,
    n_translations: int = 20,
    tau: float = 0.1,
    alpha: float = 2.0,
    seed: int = 0,
    spread_limit: float = 100.0,
) -> SuiteResult:
    """Random sub-cell surface translations: solvability and conditioning.
    The translations are independent and run in parallel (_map_translations);
    the result carries one SystemRecord per system, in translation order and
    then in the order of _KINDS."""
    from .mesh import DEFAULT_BOX, DEFAULT_N_CELLS

    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if n_translations < 1:
        raise ValueError(f"n_translations must be >= 1, got {n_translations}")
    result = SuiteResult("surface-positioning robustness")
    mesh = build_background(DEFAULT_BOX, DEFAULT_N_CELLS)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, mesh.h, size=(n_translations, 3))

    task = partial(_solve_translation, mesh, tau, alpha, seed)
    for records in _map_translations(task, offsets):
        result.records.extend(records)
    for kind in _KINDS:
        records = [r for r in result.records if r.kind is kind]
        max_rel_residual = max(r.relative_residual for r in records)
        conditions = [r.condition for r in records]
        spread = max(conditions) / min(conditions)
        result.check(
            max_rel_residual < 1e-9,
            f"{kind.value}: all {n_translations} solves, max relative residual "
            f"{max_rel_residual:.3e} < 1e-9",
        )
        result.check(
            spread < spread_limit,
            f"{kind.value}: condition spread {spread:.3g} < {spread_limit}",
        )
    return result
