from __future__ import annotations

import numpy as np
import pytest

from qpe import (
    DensityMatrix,
    ToleranceConfig,
    fls_update,
    qpe_order_oracle,
    random_agreeing_effect,
    random_state,
)


@pytest.fixture
def cfg() -> ToleranceConfig:
    return ToleranceConfig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def make_ordered_pair(rng):
    """Factory for pairs with the lower state strictly below the upper.

    Random pairs are almost never comparable, so ordered pairs are built
    constructively: either as the image of an agreeing update, or by pulling
    the state toward its own top eigenvector.
    """

    def make(dim: int) -> tuple[DensityMatrix, DensityMatrix]:
        rho = random_state(dim, rng=rng)
        if rng.random() < 0.5:
            return rho, fls_update(rho, random_agreeing_effect(rho, rng))
        v = rho.eigenvectors[:, 0]
        s = rng.uniform(0.1, 0.9)
        upper = (1.0 - s) * rho.matrix + s * np.outer(v, v.conj())
        return rho, DensityMatrix(upper)

    return make


@pytest.fixture
def make_incomparable_pair(rng):
    """Factory for pairs failing the order in both directions by a clear margin.

    The margin is on the least eigenvalue of the order matrix (the oracle
    route), so the draws do not depend on the predicate under test.
    """

    def make(dim: int, min_gap: float = 1e-4) -> tuple[DensityMatrix, DensityMatrix]:
        while True:
            a = random_state(dim, rng=rng)
            b = random_state(dim, rng=rng)
            if (qpe_order_oracle(a, b).slack < -min_gap
                    and qpe_order_oracle(b, a).slack < -min_gap):
                return a, b

    return make
