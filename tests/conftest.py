import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def cgauss(rng, *shape):
    """i.i.d. circular complex Gaussians with unit total variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_correlation(rng, n, strength=1.0):
    """Random Hermitian PD matrix with exact unit diagonal."""
    a = cgauss(rng, n, n) * strength
    m = a @ a.conj().T + n * np.eye(n)
    d = 1.0 / np.sqrt(np.abs(np.diagonal(m)))
    m = m * np.outer(d, d)
    m = 0.5 * (m + m.conj().T)
    np.fill_diagonal(m, 1.0)
    from dsmimo.corrmat import CorrelationMatrix

    return CorrelationMatrix(m)


def fresh_caches():
    """Empty every lru_cache that a loaded dsmimo module holds (the closed
    forms' per-side kernels): the next call of each is cold."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dsmimo" or name.startswith("dsmimo.")):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
