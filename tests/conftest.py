import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class BruteForceIndex:
    """Linear-scan stand-in for the centroid index (test oracle)."""

    def __init__(self, cell_ids, centroids):
        self.cell_ids = list(cell_ids)
        self.centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)

    def within(self, center, radius):
        """Ids of the centroids within radius of center (inclusive), sorted."""
        if not self.cell_ids:
            return []
        d2 = ((self.centroids - np.asarray(center, dtype=np.float64)) ** 2).sum(axis=1)
        hits = np.flatnonzero(d2 <= radius * radius)
        return sorted(self.cell_ids[k] for k in hits)

    def pairs(self, radius, fresh=None):
        """Every two positions within radius (inclusive), i < j; with
        ``fresh``, one flag per centroid, those with a flagged end."""
        d2 = ((self.centroids[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        i, j = np.nonzero(np.triu(d2 <= radius * radius, k=1))
        if fresh is None:
            return i, j
        flagged = np.asarray(fresh)[i] | np.asarray(fresh)[j]
        return i[flagged], j[flagged]


@pytest.fixture
def brute_index_cls():
    return BruteForceIndex


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
