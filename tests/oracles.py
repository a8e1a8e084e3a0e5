"""Reference evaluators shared by the kernel and acceptance tests."""

import mpmath as mp
import numpy as np
from scipy import integrate


def oracle_2f0(n, q, x, dps=40):
    """High-precision quadrature of the defining integral, independent of the
    production kernel.  Reliable for moderate x only: once the 1/x knee is
    far below the Gamma bulk the adaptive rule misses it (at
    (13, 16, 3.1e6) it returns 2.83e-97 against the true 6.36e-97)."""
    if x == 0:
        return 1.0
    with mp.workdps(dps):
        xm = mp.mpf(x)
        f = lambda t: (1 + xm * t) ** (-q) * t ** (n - 1) * mp.e ** (-t)
        val = mp.quad(f, [0, 1 / xm, n, mp.inf]) / mp.factorial(n - 1)
        return float(val)


def oracle_2f0_hyperu(n, q, x, dps=40):
    """2F0(n, q; -x) = x^-n U(n, n-q+1, 1/x) through mpmath's confluent
    hypergeometric U; valid over the whole domain, large x included."""
    if x == 0:
        return 1.0
    with mp.workdps(dps):
        xm = mp.mpf(x)
        return float(xm ** (-n) * mp.hyperu(n, n - q + 1, 1 / xm))


def max_eig_cdf(pdf2, grid):
    """CDF of the largest of two ordered eigenvalues from a joint pdf, by
    nested quadrature on a grid, returned as an interpolant."""
    from scipy.interpolate import PchipInterpolator

    gx, gw = np.polynomial.legendre.leggauss(96)
    dens = np.empty_like(grid)
    for i, x in enumerate(grid):
        t = 0.5 * x * (gx + 1)
        w = 0.5 * x * gw
        dens[i] = sum(wi * pdf2(x, ti) for ti, wi in zip(t, w))
    cdf_vals = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
    interp = PchipInterpolator(grid, np.clip(cdf_vals, 0, 1))
    top = float(cdf_vals[-1])

    def cdf(x):
        x = np.asarray(x, float)
        return np.where(x >= grid[-1], top, np.clip(interp(np.clip(x, 0, grid[-1])), 0, 1))

    return cdf
