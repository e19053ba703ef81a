"""The check suites at reduced size; the acceptance module runs them at the
full sizes stated in the study configuration."""

import pytest

import surfdarcy.solver as solver_mod
import surfdarcy.suites as suites_mod
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


def test_geometric_rate_suite_small():
    result = geometric_rate_suite(levels=(1, 2))
    assert result.passed, "\n".join(result.lines)


def test_lemma_ratio_suite_small():
    result = lemma_ratio_suite(levels=(1, 2), n_samples=10, seed=0)
    assert result.passed, "\n".join(result.lines)


def test_positioning_suite_small():
    result = positioning_suite(level=1, n_translations=3, seed=0)
    assert result.passed, "\n".join(result.lines)


def test_positioning_suite_factorizes_each_system_once(monkeypatch):
    calls = []
    splu = solver_mod.spla.splu
    monkeypatch.setattr(
        solver_mod.spla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw)
    )
    result = positioning_suite(level=0, n_translations=1, seed=0)
    assert len(calls) == 2, "one system per stabilization, one factorization each"
    assert len(result.lines) == 4


def test_positioning_suite_builds_each_translation_once(monkeypatch):
    calls = {"build_surface": 0, "assemble": 0}
    for name in calls:
        original = getattr(suites_mod, name)

        def counted(*a, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*a, **kw)

        monkeypatch.setattr(suites_mod, name, counted)
    result = positioning_suite(level=0, n_translations=2, seed=0)
    # one surface and one surface form per translation, each shared by both
    # stabilizations
    assert calls == {"build_surface": 2, "assemble": 2}
    # the report keeps its order: both checks of one stabilization, then the other
    parts = [line.split(": ", 2) for line in result.lines]
    assert [kind for _, kind, _ in parts] == ["full", "full", "normal", "normal"]
    assert [text.split()[0] for _, _, text in parts] == ["all", "condition"] * 2
