import numpy as np
import pytest
from hypothesis import settings

from riskfuse.config import PipelineConfig
from riskfuse.dataset import FeatureMapping, bundled_path, default_catalog, load_dataset

# Boundary property tests run the CLI once per example; its first call
# pays for imports and file creation, so a per-example deadline only
# measures machine load.
settings.register_profile("boundary", deadline=None)


@pytest.fixture(scope="session")
def nasa_records():
    return load_dataset(bundled_path("nasa93.arff"))


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def mapping(nasa_records):
    return FeatureMapping.fit(nasa_records)


@pytest.fixture
def quick_config():
    """Small search budget for tests that only exercise plumbing."""
    return PipelineConfig(runs=2, max_iterations=10, population_size=4, cv_folds=2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
