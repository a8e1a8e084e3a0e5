"""Reference evaluators shared by the kernel and acceptance tests."""

import math

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


def oracle_miso_mgf(a, b, xi, dps=30):
    """E_V prod_l (1 + xi b_l V)^-1 for V = sum_k a_k E_k (E_k unit
    exponentials, the a_k distinct) by mpmath quadrature over V's density
    sum_k a_k^(d-2) e^(-v/a_k) / prod_(j != k) (a_k - a_j), which is summed
    with dps digits because it cancels where it vanishes like v^(d-1).  The
    product is summed in double precision (about 1e-14 relative), so a
    thousand factors cost one numpy call per node."""
    b = np.asarray(b, dtype=float)
    with mp.workdps(dps):
        am = [mp.mpf(float(v)) for v in a]
        coef = [ak ** (len(am) - 2) / mp.fprod(ak - aj for aj in am if aj is not ak)
                for ak in am]

        def f(v):
            prod = math.exp(-float(np.log1p(xi * float(v) * b).sum()))
            return mp.fsum(c * mp.exp(-v / ak) for c, ak in zip(coef, am)) * prod

        knee = 1 / (mp.mpf(xi) * float(b.sum()))
        pts = sorted({mp.mpf(0), *(knee * 4 ** i for i in range(-3, 6)),
                      *(max(am) * s for s in (1, 8, 40))})
        return float(mp.quad(f, pts + [mp.inf]))


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
