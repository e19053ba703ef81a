"""The benchmark's workloads count the program's problems through its own
mesh and space functions; a change to what the program solves must fail
here, not only in a benchmark run."""

from pathlib import Path

SURFBENCH = Path(__file__).resolve().parent.parent / "surfbench"


def test_positioning_unknowns_match_the_suite(monkeypatch):
    monkeypatch.syspath_prepend(str(SURFBENCH))
    from workloads import Positioning

    from surfdarcy import suites

    counted = Positioning(level=0, n_translations=2).unknowns({"seed": 0})
    result = suites.positioning_suite(level=0, n_translations=2, seed=0)
    assert counted == sum(r.unknowns for r in result.records) == 13724
