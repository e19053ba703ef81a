"""Property-check suites: manufactured-solution residuals, measured geometric
approximation rates, stability-lemma ratio boundedness, and robustness of the
solve with respect to how the surface cuts the background mesh.

Each suite returns a SuiteResult with per-check messages; the CLI `check`
command is a thin shell over these functions and the acceptance tests reuse
them directly.  The rates and the lemma ratios are measured on the same
refinement levels, so `level_suites` walks those levels once and returns
both results.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .assembly import (
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
from .mesh import (
    DEFAULT_BOX,
    DEFAULT_N_CELLS,
    build_background,
    extract_active,
    refine_uniform,
)
from .solver import Factorization, estimate_condition, solve
from .verification import CaseConfig, ManufacturedSolution

__all__ = [
    "SuiteResult",
    "SystemRecord",
    "manufactured_residual_suite",
    "level_suites",
    "positioning_suite",
]

_KINDS = (Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT)
# the geometry orders whose rates level_suites measures
GEOMETRY_ORDERS = (1, 2)
# the largest growth of a stability-lemma ratio from the coarsest level to
# the finest that level_suites passes
LEMMA_GROWTH = 1.5
# the random P1 coefficient vectors per level and stabilization that
# level_suites takes the largest ratios over
LEMMA_SAMPLES = 30
# the largest spread max/min of the positioning suite's condition estimates
SPREAD_LIMIT = 100.0


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


def _lemma_level(ds, tau, alpha, rngs) -> dict:
    """One level's largest lemma ratios on the first-order surface `ds`, as
    {kind: (scaled-L2, Poincare)}: the forms that do not depend on the
    stabilization are assembled once, then each kind's stabilization, whose
    samples are drawn from that kind's stream in `rngs`."""
    space = ds.phi_space
    forms = (
        ds.active.h,
        assemble_bulk_mass(space, ds.active),
        assemble_surface_mass(space, ds),
        assemble_surface_stiffness(space, ds),
        surface_load_vector(space, ds),
        ds.total_area,
    )
    return {
        kind: _lemma_ratios(forms, assemble_stabilization(space, ds, kind, tau, alpha), rngs[kind])
        for kind in _KINDS
    }


def _lemma_ratios(forms, stab, rng):
    """Max measured ratios over LEMMA_SAMPLES random P1 coefficient vectors,
    given one level's forms that do not depend on the stabilization and one
    stabilization matrix."""
    h, mass_bulk, mass_surf, stiff_tan, load, area = forms
    scaled_l2 = 0.0
    poincare = 0.0
    n = len(load)
    for _ in range(LEMMA_SAMPLES):
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


def level_suites(
    offset=(0.0, 0.0, 0.0),
    finest: int = 3,
    tau: float = 0.1,
    alpha: float = 2.0,
    seed: int = 0,
) -> tuple:
    """The geometric-rate and stability-lemma results, in that order, from
    one walk over levels 1..finest of the default grid.  Each level gets one
    active mesh and one surface per geometry order in GEOMETRY_ORDERS; the
    first-order surface also carries the lemma forms and both
    stabilizations.

    Rates: the observed orders of the surface distance and normal errors,
    fitted over the levels.  Lemma: the scaled bulk-L2 control and surface
    Poincare ratios, each of which passes if it grows by at most
    LEMMA_GROWTH from the first level to the last."""
    if finest < 2:
        # the rates are fitted over at least two levels
        raise ValueError(f"finest must be >= 2, got {finest}")
    rates = SuiteResult("geometric approximation rates")
    lemma = SuiteResult("stability-lemma ratios")
    surface = ManufacturedSolution(offset=offset).surface
    # one random stream per stabilization, drawn level after level
    rngs = {kind: np.random.default_rng(seed) for kind in _KINDS}
    hs = []
    dist = {k_g: [] for k_g in GEOMETRY_ORDERS}
    nerr = {k_g: [] for k_g in GEOMETRY_ORDERS}
    lemma_levels = []  # {kind: (scaled-L2, Poincare)} per level
    mesh = build_background(DEFAULT_BOX, DEFAULT_N_CELLS)
    for _ in range(finest):
        mesh = refine_uniform(mesh)
        active = extract_active(mesh, surface.signed_distance(mesh.vertices))
        hs.append(mesh.h)
        for k_g in GEOMETRY_ORDERS:
            ds = build_surface(active, surface, k_g=k_g)
            dist[k_g].append(ds.max_distance())
            nerr[k_g].append(ds.max_normal_error())
            if k_g == 1:
                lemma_levels.append(_lemma_level(ds, tau, alpha, rngs))

    for k_g in GEOMETRY_ORDERS:
        order_dist = np.polyfit(np.log(hs), np.log(dist[k_g]), 1)[0]
        order_normal = np.polyfit(np.log(hs), np.log(nerr[k_g]), 1)[0]
        rates.check(
            abs(order_dist - (k_g + 1)) <= 0.3,
            f"k_g={k_g}: distance order {order_dist:.2f} within {k_g + 1} +- 0.3",
        )
        rates.check(
            abs(order_normal - k_g) <= 0.3,
            f"k_g={k_g}: normal order {order_normal:.2f} within {k_g} +- 0.3",
        )
    for kind in _KINDS:
        (first, p_first), (last, p_last) = lemma_levels[0][kind], lemma_levels[-1][kind]
        lemma.check(
            last <= LEMMA_GROWTH * first,
            f"{kind.value}: scaled-L2 ratio {first:.3g} -> {last:.3g} "
            f"(growth <= {LEMMA_GROWTH})",
        )
        lemma.check(
            p_last <= LEMMA_GROWTH * p_first,
            f"{kind.value}: Poincare ratio {p_first:.3g} -> {p_last:.3g} "
            f"(growth <= {LEMMA_GROWTH})",
        )
    return rates, lemma


def _solve_translation(mesh, tau, alpha, seed, delta) -> list:
    """Both stabilizations of the torus translated by `delta` on `mesh`: one
    surface and one surface form, then per kind one factorization that serves
    the solve and the condition estimate.  Returns one SystemRecord per
    kind, in the order of _KINDS."""
    offset = tuple(delta)
    exact = ManufacturedSolution(offset=offset)
    surface = exact.surface
    active = extract_active(mesh, surface.signed_distance(mesh.vertices))
    ds = build_surface(active, surface, k_g=1)
    spaces = (ds.phi_space,) * 2
    surface_form = assemble(spaces, ds, (exact.f_field, exact.g_field))
    records = []
    for kind in _KINDS:
        system = stabilize(surface_form, spaces, ds, kind, tau, alpha)
        lu = Factorization(system)
        solution = solve(lu)
        records.append(
            SystemRecord(
                translation=offset,
                kind=kind,
                unknowns=system.total,
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
) -> SuiteResult:
    """Random sub-cell surface translations: solvability and conditioning.
    The translations are independent and run in parallel (_map_translations);
    the result carries one SystemRecord per system, in translation order and
    then in the order of _KINDS."""
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
            spread < SPREAD_LIMIT,
            f"{kind.value}: condition spread {spread:.3g} < {SPREAD_LIMIT}",
        )
    return result
