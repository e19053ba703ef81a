import multiprocessing

import pytest

import surfdarcy.solver as solver_mod


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a child process running, such as a pool
    worker that was never shut down."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=5)
    if left:
        pytest.fail(f"child processes left running: {left}")


@pytest.fixture
def splu_calls(monkeypatch):
    """The SuperLU factorizations the solver makes, in order, each as the
    factored matrix's shape and the keyword arguments of the call."""
    calls = []
    splu = solver_mod.spla.splu

    def recorded(matrix, **kwargs):
        calls.append((matrix.shape, kwargs))
        return splu(matrix, **kwargs)

    monkeypatch.setattr(solver_mod.spla, "splu", recorded)
    return calls
