"""The benchmark's tracer wraps program names by attribute; a rename or a
removal of one of them must fail here, not only in a traced benchmark run."""

from pathlib import Path

SURFBENCH = Path(__file__).resolve().parent.parent / "surfbench"


def test_tracer_installs_and_removes_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(SURFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._restore)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.remove()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr


def test_traced_rounds_count_and_attribute_their_time(monkeypatch):
    """A traced positioning round and a traced case-6 level: the counters see
    tabulations, projections and assemblies (the tabulation counter reads the
    points positionally and raises on a keyword call), and the program's
    spans cover the round."""
    monkeypatch.syspath_prepend(str(SURFBENCH))
    from tracing import Tracer

    from surfdarcy import suites, verification
    from surfdarcy.mesh import DEFAULT_BOX, build_background

    config = verification.case_config(6)
    mesh = build_background(DEFAULT_BOX, config.n_cells0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_round(
            "suites.positioning_suite", suites.positioning_suite, level=0, n_translations=1
        )
        tracer.run_round(
            "verification.run_level",
            verification.run_level,
            config,
            mesh,
            verification.ManufacturedSolution(),
        )
    finally:
        tracer.remove()
    rounds = tracer.round_metrics()
    assert len(rounds) == 2
    for metrics in rounds:
        for key in ("fe_space.tabulated_points", "geometry.projected_points", "assembly.matrix_nnz"):
            assert metrics[key] > 0, key
        assert metrics["trace.unattributed_s"] < 1e-3
