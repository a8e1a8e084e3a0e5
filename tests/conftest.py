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


def fresh_caches(monkeypatch):
    """Empty the closed forms' per-side caches from here to the end of the
    test."""
    import dsmimo.detform as detform
    import dsmimo.sep as sep

    for name in ("_MISO_DENSITY", "_KRON_TAILS"):
        monkeypatch.setattr(detform, name, detform._NodeCache())
    for name in ("_LATTICES", "_KRON_KERNELS", "_MISO_KERNELS"):
        monkeypatch.setattr(detform, name, detform._SideCache())
    monkeypatch.setattr(sep, "_RICH_KERNELS", detform._SideCache())
