import pytest

from framestop import _kernels


def pytest_report_header(config):
    return f"framestop kernels: {_kernels.status()}"


@pytest.fixture
def compiled():
    """The compiled kernels; skips only where no C compiler exists, and a
    compiler that fails to build or load them fails the test."""
    if _kernels.compiler() is None:
        pytest.skip(f"compiled kernels unavailable: {_kernels.status()}")
    lib = _kernels.get()
    assert lib is not None, _kernels.status()
    return lib
