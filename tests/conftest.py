import functools

import pytest
from hypothesis import HealthCheck, settings

from schur_szego import asymptotics, roots, spectra

settings.register_profile(
    "exact", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("exact")


@pytest.fixture
def cold_spectrum_report():
    """spectrum_report's lru_cache is shared by the whole session."""
    spectra.spectrum_report.cache_clear()
    yield
    spectra.spectrum_report.cache_clear()


@pytest.fixture
def cold_root_sample():
    """narayana_root_sample's lru_cache is shared by the whole session."""
    asymptotics.narayana_root_sample.cache_clear()
    yield
    asymptotics.narayana_root_sample.cache_clear()


@pytest.fixture(autouse=True)
def cold_remainder_sequences():
    """The _prs and _placement memos are shared by the whole session; clear them
    around each test so that no count of remainder-sequence builds or placements
    depends on test order."""
    memos = (roots._prs, roots._placement)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.fixture
def remainder_sequence_builds(monkeypatch):
    """Rebuild the _prs memo around a kernel that records each (a, b) it
    builds, i.e. each memo miss; the list of them is the fixture's value."""
    built = []
    kernel = roots._prs.__wrapped__

    def recording(a, b):
        built.append((a, b))
        return kernel(a, b)

    maxsize = roots._prs.cache_parameters()["maxsize"]
    monkeypatch.setattr(roots, "_prs", functools.lru_cache(maxsize=maxsize)(recording))
    return built
