import pytest
from hypothesis import HealthCheck, settings

from schur_szego import spectra

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
