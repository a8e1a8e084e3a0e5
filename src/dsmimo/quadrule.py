"""Quadrature pieces shared across the package: Gauss-Legendre rules on
[0, b] for the angular integrals of the error probabilities (cached by
degree and length), and orthonormal Laguerre polynomials against the
Gamma(alpha+1) probability measure, the Gram-route basis; normalizing the
measure keeps them finite for alpha in the thousands.  Gamma expectations
themselves are taken on the lattice of `detform._gamma_lattice`.
"""

from __future__ import annotations

import math

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


def orthonormal_laguerre(t: np.ndarray, alpha: float, kmax: int) -> np.ndarray:
    """Evaluate the first kmax orthonormal Laguerre polynomials at t.

    Orthonormal against the Gamma(alpha+1) probability measure:
    int p_i p_j dmu = delta_ij.  Returned array has shape (kmax, len(t)).
    Three-term recurrence with coefficients a_k = 2k+alpha+1,
    b_k = sqrt(k(k+alpha)).
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((kmax, t.shape[0]))
    out[0] = 1.0
    if kmax > 1:
        out[1] = (t - (alpha + 1.0)) / math.sqrt(alpha + 1.0)
    for k in range(1, kmax - 1):
        bk = math.sqrt(k * (k + alpha))
        bk1 = math.sqrt((k + 1) * (k + 1 + alpha))
        out[k + 1] = ((t - (2.0 * k + alpha + 1.0)) * out[k] - bk * out[k - 1]) / bk1
    return out
