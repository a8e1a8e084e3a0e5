"""Gauss-Legendre rules on [0, b] for the angular integrals of the error
probabilities, cached by degree and length.  Gamma expectations, and the
orthonormal polynomials of the weighted Gamma measures, are taken on each
side's lattice (`detform._Lattice`).
"""

from __future__ import annotations

import numpy as np

_GL_CACHE: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating f over [0, b] exactly for deg < 2n."""
    key = (n, float(b))
    if key not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = 0.5 * b * (x + 1.0)
        weights = 0.5 * b * w
        nodes.setflags(write=False)
        weights.setflags(write=False)
        _GL_CACHE[key] = (nodes, weights)
    return _GL_CACHE[key]
