"""Shared builders for the test suite."""

import numpy as np
import pytest

from evolflow.lp_space import LpSample, TimeGrid


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_step_sample(rng, ncells=5, dim=2, p=1.0, a=0.0, b=1.0, scale=1.0):
    knots = np.sort(rng.uniform(a, b, size=ncells - 1))
    knots = np.unique(np.concatenate([[a], knots, [b]]))
    vals = scale * rng.normal(size=(knots.size - 1, dim))
    return LpSample(TimeGrid(knots), vals, p)
