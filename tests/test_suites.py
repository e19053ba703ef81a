"""The check suites at reduced size; the acceptance module runs them at the
full sizes stated in the study configuration."""

import multiprocessing
import os

import numpy as np
import pytest

import surfdarcy.solver as solver_mod
import surfdarcy.suites as suites_mod
from surfdarcy.assembly import Stabilization
from surfdarcy.mesh import DEFAULT_BOX, DEFAULT_N_CELLS, build_background
from surfdarcy.solver import SingularSystemError
from surfdarcy.suites import level_suites, manufactured_residual_suite, positioning_suite


def test_manufactured_residual_suite_passes():
    result = manufactured_residual_suite(seed=0)
    assert result.passed, "\n".join(result.lines)
    assert len(result.lines) == 4


def test_manufactured_residual_suite_with_offset():
    result = manufactured_residual_suite(offset=(0.1, 0.07, 0.03), seed=1)
    assert result.passed, "\n".join(result.lines)


@pytest.fixture
def extract_calls(monkeypatch):
    """The active-mesh extractions level_suites makes, one entry each."""
    calls = []
    extract_active = suites_mod.extract_active
    monkeypatch.setattr(
        suites_mod, "extract_active", lambda *a: calls.append(1) or extract_active(*a)
    )
    return calls


def test_level_suites_small():
    rates, lemma = level_suites(finest=2, seed=0)
    assert rates.passed, "\n".join(rates.lines)
    assert lemma.passed, "\n".join(lemma.lines)


def test_geometric_rate_suite_small(extract_calls):
    rates, _ = level_suites(finest=2)
    assert rates.passed, "\n".join(rates.lines)
    assert len(extract_calls) == 2, "one active mesh per level, for both geometry orders"


def test_lemma_ratio_suite_small(extract_calls):
    _, lemma = level_suites(finest=2, seed=0)
    assert lemma.passed, "\n".join(lemma.lines)
    assert len(extract_calls) == 2, "one active mesh per level, for both stabilizations"


def test_level_suites_walk_the_levels_once(monkeypatch):
    """One active mesh per level, and one surface per geometry order on it:
    the first-order surface serves both the rates and the lemma forms."""
    extracted, orders = [], []
    extract_active, build_surface = suites_mod.extract_active, suites_mod.build_surface
    monkeypatch.setattr(
        suites_mod, "extract_active", lambda *a: extracted.append(1) or extract_active(*a)
    )
    monkeypatch.setattr(
        suites_mod,
        "build_surface",
        lambda *a, k_g: orders.append(k_g) or build_surface(*a, k_g=k_g),
    )
    level_suites(finest=2, seed=0)
    assert len(extracted) == 2
    assert orders == [1, 2, 1, 2]


# the report lines of level_suites(offset=PROBE, finest=2, seed=0)
PROBE = (0.031, -0.052, 0.017)
LEVEL_SUITES_LINES = (
    [
        "PASS: k_g=1: distance order 1.93 within 2 +- 0.3",
        "PASS: k_g=1: normal order 0.93 within 1 +- 0.3",
        "PASS: k_g=2: distance order 3.05 within 3 +- 0.3",
        "PASS: k_g=2: normal order 2.15 within 2 +- 0.3",
    ],
    [
        "PASS: full: scaled-L2 ratio 0.428 -> 0.425 (growth <= 1.5)",
        "PASS: full: Poincare ratio 0.0383 -> 0.019 (growth <= 1.5)",
        "PASS: normal: scaled-L2 ratio 0.762 -> 0.753 (growth <= 1.5)",
        "PASS: normal: Poincare ratio 0.0383 -> 0.019 (growth <= 1.5)",
    ],
)


def test_level_suites_report_lines_are_pinned():
    results = level_suites(offset=PROBE, finest=2, seed=0)
    assert tuple(r.lines for r in results) == LEVEL_SUITES_LINES
    assert [r.name for r in results] == [
        "geometric approximation rates",
        "stability-lemma ratios",
    ]


@pytest.mark.parametrize("result", [0, 1], ids=["geometric_rate_suite", "lemma_ratio_suite"])
def test_level_suites_reject_levels_out_of_order(result, extract_calls):
    """The walk is levels 1..finest; the rates are fitted and the lemma
    ratios compared over at least two increasing levels, so a walk with fewer
    is rejected before any result is formed or any level is extracted."""
    for finest in (1, 0, -1):
        with pytest.raises(ValueError, match="finest must be >= 2"):
            level_suites(finest=finest)[result]
    assert not extract_calls


def test_level_suites_reject_finest_below_two_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(suites_mod, "build_background", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="finest"):
        level_suites(finest=1)
    assert not built


def test_positioning_suite_small():
    result = positioning_suite(level=1, n_translations=3, seed=0)
    assert result.passed, "\n".join(result.lines)


def test_positioning_suite_factorizes_each_system_once(splu_calls):
    result = positioning_suite(level=0, n_translations=1, seed=0)
    assert len(splu_calls) == 2, "one system per stabilization, one factorization each"
    assert len(result.lines) == 4


def test_positioning_suite_builds_each_translation_once(monkeypatch):
    calls = {"build_surface": 0, "assemble": 0, "splu": 0}
    owners = {"build_surface": suites_mod, "assemble": suites_mod, "splu": solver_mod.spla}
    for name, owner in owners.items():
        original = getattr(owner, name)

        def counted(*a, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*a, **kw)

        monkeypatch.setattr(owner, name, counted)
    mesh = build_background(DEFAULT_BOX, DEFAULT_N_CELLS)
    offsets = np.random.default_rng(0).uniform(0.0, mesh.h, size=(2, 3))
    direct = []
    for n, delta in enumerate(offsets, 1):
        direct += suites_mod._solve_translation(mesh, 0.1, 2.0, 0, delta)
        # one surface and one surface form per translation, each shared by
        # both stabilizations, and one factorization per system
        assert calls == {"build_surface": n, "assemble": n, "splu": 2 * n}
    # counters incremented in pool workers do not reach this process, so the
    # suite's dispatch is pinned through its records: each translation once,
    # in the drawn order, with both stabilizations, as the function gives them
    result = positioning_suite(level=0, n_translations=2, seed=0)
    kinds = [Stabilization.FULL_GRADIENT, Stabilization.NORMAL_GRADIENT]
    assert [r.translation for r in result.records] == [tuple(d) for d in offsets for _ in kinds]
    assert [r.kind for r in result.records] == kinds * 2
    assert result.records == direct
    # the report keeps its order: both checks of one stabilization, then the other
    parts = [line.split(": ", 2) for line in result.lines]
    assert [kind for _, kind, _ in parts] == ["full", "full", "normal", "normal"]
    assert [text.split()[0] for _, _, text in parts] == ["all", "condition"] * 2


def test_positioning_suite_records_each_system():
    result = positioning_suite(level=0, n_translations=6, seed=1)
    assert len(result.records) == 12
    # the L+U nonzeros SuperLU reports for the 12 factors of this round
    assert sum(r.factor_nnz for r in result.records) == 11_198_948
    assert all(r.unknowns > 0 and r.condition > 1.0 for r in result.records)
    full = [r for r in result.records if r.kind is Stabilization.FULL_GRADIENT]
    assert f"max relative residual {max(r.relative_residual for r in full):.3e}" in result.lines[0]


@pytest.mark.parametrize(
    "kwargs, name", [({"level": -1}, "level"), ({"n_translations": 0}, "n_translations")]
)
def test_positioning_suite_rejects_bad_arguments_before_any_work(kwargs, name, monkeypatch):
    built = []
    monkeypatch.setattr(suites_mod, "build_background", lambda *a: built.append(a))
    with pytest.raises(ValueError, match=name):
        positioning_suite(**kwargs)
    assert not built


@pytest.fixture
def cores(monkeypatch):
    """Set the number of cores the suite sees, and record the worker count of
    every pool it makes."""
    pools = []
    executor = suites_mod.ProcessPoolExecutor

    def spy(workers, **kw):
        pools.append(workers)
        return executor(workers, **kw)

    monkeypatch.setattr(suites_mod, "ProcessPoolExecutor", spy)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return pools

    return use


def test_positioning_suite_pool_matches_in_process_map(cores):
    pools = cores(1)
    in_process = positioning_suite(level=0, n_translations=3, seed=0)
    assert pools == [], "one core: the builtin map, in this process"
    cores(8)
    pooled = positioning_suite(level=0, n_translations=3, seed=0)
    assert pools == [3], "one worker per core, at most one per translation"
    assert not multiprocessing.active_children()
    assert pooled.lines == in_process.lines
    assert len(pooled.records) == 6
    # exact float equality: the residuals and estimates are bit-identical
    assert pooled.records == in_process.records


def test_positioning_suite_worker_failure_reaches_the_caller(cores, monkeypatch):
    def singular(system):
        raise SingularSystemError("singular system: injected")

    # the forked workers inherit the patch
    monkeypatch.setattr(suites_mod, "Factorization", singular)
    pools = cores(2)
    with pytest.raises(SingularSystemError, match="injected"):
        positioning_suite(level=0, n_translations=3, seed=0)
    assert pools == [2]
    assert not multiprocessing.active_children()
