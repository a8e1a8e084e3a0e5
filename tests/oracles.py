"""Reference evaluators shared by the kernel and acceptance tests."""

import math

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gammaln, xlogy

from dsmimo.corrmat import identity_corr
from dsmimo.detform import expected_inv_det_kron


def kron_2f0(n, q, x):
    """2F0(n, q; -x) through the library: the Kronecker row at m = 1."""
    return expected_inv_det_kron(1, max(n, q), identity_corr(1).spectrum,
                                 identity_corr(min(n, q)).spectrum, x)


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


def _gamma_integral_mp(a, c, mult, x):
    """int_0^inf t^(a-1) e^-t prod_k (1 + x c_k t)^(-mult_k) dt at the working
    precision: Gamma(a) (x c)^-a U(a, a - mult + 1, 1/(x c)) for one factor,
    else mpmath's quadrature split at the factors' knees and the Gamma bulk."""
    if x == 0:
        return mp.gamma(a)
    if len(c) == 1:
        z = x * c[0]
        return mp.gamma(a) * z ** (-a) * mp.hyperu(a, a - mult[0] + 1, 1 / z)
    f = lambda t: t ** (a - 1) * mp.exp(-t) * mp.fprod(
        (1 + x * ck * t) ** (-mk) for ck, mk in zip(c, mult))
    bulk = [a - 1 + k * mp.sqrt(a) for k in (-6, 0, 6)]
    pts = sorted({mp.mpf(0), *(1 / (x * ck) for ck in c), *(p for p in bulk if p > 0)})
    return mp.quad(f, pts + [mp.inf])


def oracle_kron_mgf(m, n, sigma_spec, a_spec, xi, dps=60):
    """E det(I + xi A (x) XX^H)^(-1) (X m x n, row covariance Sigma) as the
    Andreief determinant ratio with monomial rows: entry (i, (sigma, j)) is
    int l^(n-m+i+j-2) e^(-l/sigma) prod_k (1 + xi r_k l)^(-m_k) dl, with
    column (sigma, j) scaled by sigma^-(n-m+j) so that mp.det sees O(1)
    pivots.  Entries with one distinct r_k go through mpmath's U (fast;
    slow only where 1/(xi sigma r) is close to n), others through
    mp.quad."""
    with mp.workdps(dps):
        x = mp.mpf(xi)
        c = [mp.mpf(v) for v in a_spec.values]
        cols = [(mp.mpf(v), j) for v, t in sigma_spec.distinct for j in range(1, t + 1)]
        memo = {}

        def det(xx):
            for sig, j in cols:
                for i in range(1, m + 1):
                    a = n - m + i + j - 1
                    if (sig, a) not in memo:
                        memo[sig, a] = _gamma_integral_mp(a, [sig * ck for ck in c],
                                                          a_spec.mults, xx)
            return mp.det(mp.matrix([[sig ** (i - 1) * memo[sig, n - m + i + j - 1]
                                      for sig, j in cols] for i in range(1, m + 1)]))

        num = det(x)
        memo.clear()
        return float(num / det(0))


def oracle_miso_mgf(a, b, xi):
    """E_V prod_l (1 + xi b_l V)^-1 for V = sum_k a_k E_k (E_k unit
    exponentials, any a_k > 0), integrated over V's density in its
    all-positive (uniformization) form: with lam = 1/a and X = max(lam) -
    min(lam),
        f(v) = prod(lam) v^(d-1) e^(-min(lam) v) / Gamma(d)
               * sum_n Poisson(n; X v) G_n,
    where G_n in [0, 1] is the mean of the degree-n monomials in
    y = (max(lam) - lam)/X, built by a recurrence of convex combinations.
    Nothing cancels, so the density and the product are summed in double
    precision (about 1e-14 relative; a thousand factors cost one numpy call
    per node), and QUADPACK integrates them adaptively to 1e-13 relative
    between the knees of the product and of the density, on pieces a factor
    of 4 long from the product's knee on, so it converges at any xi.  V beyond
    max(a)(d + 12 sqrt(d) + 100), where less than 1e-40 of its mass lies,
    is left out."""
    b = np.asarray(b, dtype=float)
    lam = 1.0 / np.asarray(a, dtype=float)
    d, big = lam.size, float(lam.max() - lam.min())
    v_end = (d + 12 * math.sqrt(d) + 100) / float(lam.min())
    n = np.arange(int(big * v_end + 15 * math.sqrt(big * v_end) + 50))
    # g[m] = G_m over the first k variables: G_m <- ((k-1) G_m + m y_k G_(m-1)) / (k+m-1)
    g = np.zeros(n.size)
    for k, y in enumerate((lam.max() - lam) / (big or 1.0), start=1):
        g[0] = 1.0
        for m in range(1, n.size):
            g[m] = ((k - 1) * g[m] + m * y * g[m - 1]) / (k + m - 1)
    log_c = float(np.log(lam).sum()) - math.lgamma(d)

    def f(v):
        pois = np.exp(xlogy(n, big * v) - big * v - gammaln(n + 1))
        return math.exp(log_c + xlogy(d - 1, v) - float(lam.min()) * v
                        - float(np.log1p(xi * v * b).sum())) * float(pois @ g)

    knee = 1.0 / (xi * float(b.sum()))
    # past the knee the product falls like a power of v: one piece per
    # factor of 4 up to v_end, as one piece over many decades does not converge
    past = max(6, math.ceil(math.log(v_end / knee, 4.0)) + 1)
    pts = sorted({0.0, v_end, *(knee * 4.0 ** i for i in range(-3, past)),
                  *(s / float(lam.min()) for s in (1, 8, 40))})
    pts = [p for p in pts if p <= v_end]
    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(pts, pts[1:]))
