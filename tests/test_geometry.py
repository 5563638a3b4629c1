import math

import pytest

from mcpursuit.geometry import PlanarVector


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_rejects_non_finite_components(bad):
    with pytest.raises(ValueError):
        PlanarVector(bad, 0.0)
    with pytest.raises(ValueError):
        PlanarVector(0.0, bad)
