import multiprocessing

import pytest


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
