"""Reference velocity instances: the Gaussian smoothing of their noise."""

import numpy as np
import pytest
from scipy import ndimage

from evolflow.instances import _gaussian_filter


@pytest.mark.parametrize("mode", ["constant", "wrap"])
def test_gaussian_filter_is_scipys_bit_for_bit(mode, rng):
    # each of 3 components is filtered as it is alone; the radius
    # int(4 sigma + 0.5) is 2, 8 and 14 nodes, so grids of 1 to 5 nodes lie
    # inside it, and wrap then repeats a grid several times
    for d in (1, 2, 3):
        for sigma in (0.5, 2, 3.3):
            for n in (1, 2, 5, 12, 32):
                if d == 3 and n == 32:
                    continue
                x = rng.normal(size=(n,) * d + (3,))
                got = _gaussian_filter(x, sigma, mode)
                for c in range(3):
                    ref = ndimage.gaussian_filter(x[..., c], sigma, mode=mode)
                    assert np.array_equal(got[..., c], ref), (d, sigma, n, c)
