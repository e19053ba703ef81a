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
