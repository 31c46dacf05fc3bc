import pytest
from hypothesis import HealthCheck, settings

from tensorstat import AlgebraSpec, build_root_system

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _isolated_decomposition_cache(tmp_path_factory, monkeypatch):
    """Point the CLI cache at a fresh directory, never the user's home cache."""
    monkeypatch.setenv("TENSORSTAT_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))


@pytest.fixture(scope="session")
def a1():
    return build_root_system(AlgebraSpec.parse("A1"))


@pytest.fixture(scope="session")
def a2():
    return build_root_system(AlgebraSpec.parse("A2"))


@pytest.fixture(scope="session")
def b2():
    return build_root_system(AlgebraSpec.parse("B2"))


@pytest.fixture(scope="session")
def g2():
    return build_root_system(AlgebraSpec.parse("G2"))
