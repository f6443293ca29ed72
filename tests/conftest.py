import pytest

from framestop import _kernels


def pytest_report_header(config):
    return f"framestop kernels: {_kernels.status()}"


@pytest.fixture
def compiled():
    """The compiled kernels' module; skips only where no C compiler or no
    ``Python.h`` exists, and a build or load that fails fails the test."""
    if _kernels.unbuildable():
        pytest.skip(f"compiled kernels unavailable: {_kernels.unbuildable()}")
    assert _kernels.status() == "compiled", _kernels.status()
    return _kernels.get()


@pytest.fixture
def fresh_load(monkeypatch):
    """A function that forgets the loaded kernels, so the next
    ``_kernels.get()`` builds and loads them afresh; the module and
    its reason are restored after the test."""

    def forget():
        monkeypatch.setattr(_kernels, "lib", _kernels._UNSET)
        monkeypatch.setattr(_kernels, "reason", _kernels.reason)

    return forget
