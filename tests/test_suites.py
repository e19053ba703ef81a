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
from surfdarcy.suites import (
    geometric_rate_suite,
    lemma_ratio_suite,
    manufactured_residual_suite,
    positioning_suite,
)


def test_manufactured_residual_suite_passes():
    result = manufactured_residual_suite(seed=0)
    assert result.passed, "\n".join(result.lines)
    assert len(result.lines) == 4


def test_manufactured_residual_suite_with_offset():
    result = manufactured_residual_suite(offset=(0.1, 0.07, 0.03), seed=1)
    assert result.passed, "\n".join(result.lines)


@pytest.fixture
def extract_calls(monkeypatch):
    """The active-mesh extractions the suites make, one entry each."""
    calls = []
    extract_active = suites_mod.extract_active
    monkeypatch.setattr(
        suites_mod, "extract_active", lambda *a: calls.append(1) or extract_active(*a)
    )
    return calls


def test_geometric_rate_suite_small(extract_calls):
    result = geometric_rate_suite(levels=(1, 2))
    assert result.passed, "\n".join(result.lines)
    assert len(extract_calls) == 2, "one active mesh per level, for both geometry orders"


def test_lemma_ratio_suite_small(extract_calls):
    result = lemma_ratio_suite(levels=(1, 2), seed=0)
    assert result.passed, "\n".join(result.lines)
    assert len(extract_calls) == 2, "one active mesh per level, for both stabilizations"


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


@pytest.mark.parametrize("suite", [geometric_rate_suite, lemma_ratio_suite])
def test_level_suites_reject_levels_out_of_order(suite, extract_calls):
    with pytest.raises(ValueError, match="levels must increase"):
        suite(levels=(2, 1))
    assert not extract_calls
