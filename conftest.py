"""Fixtures for every test under this directory, the benchmark's tests included."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def cache_home(tmp_path_factory):
    """A temporary ``XDG_CACHE_HOME``, so no test or CLI child it starts writes to the real one."""
    with pytest.MonkeyPatch.context() as patch:
        path = tmp_path_factory.mktemp("cache-home")
        patch.setenv("XDG_CACHE_HOME", str(path))
        yield path
