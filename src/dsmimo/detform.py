"""Determinantal special-function kernels.

Everything here reduces to three ingredients:

* one Gamma-lattice rule (`_gamma_lattice`, `_product_mean`): a fixed-cost
  trapezoid rule in s = ln t for the expectation over t ~ Gamma(nw) of a
  product of factors (1 + x c_k t)^(-m_k).  It gives the MISO expectation
  and the measures whose orthonormal polynomials (`_lanczos`) carry the
  uncorrelated and doubly-correlated (Kronecker) MGF.  At m = 1 that MGF is
  the 2F0 kernel
      2F0(n, q; -x) = (1/(n-1)!) int_0^inf (1+x t)^(-q) t^(n-1) e^-t dt
  (the hypergeometric series itself is divergent);
* characteristic coefficients: the partial-fraction expansion of
  det(I + xi A)^(-1) over the distinct eigenvalues of A, gated against
  cancellation; a public reference that no evaluator calls (the smaller
  MISO side's density is the nonnegative matrix exponential
  `_log_density_ratio`);
* block determinants with confluent (multiplicity-aware) columns for the
  two reference eigenvalue densities, one matrix at a time, evaluated in
  log-scaled form (`_det_scaled`) so eigenvalue powers never overflow.  An
  eigenvalue of multiplicity t owns t adjacent derivative columns;
  `_columns` lists them once, and every Vandermonde-type block comes from
  the one vectorized builder `_vandermonde_blocks`.

The expected-inverse-determinant evaluators take xi as a scalar or a
vector and return values in (0, 1]; they are the moment generating
functions behind every closed-form SEP.  Coefficients that fail their
gate, and Kronecker values above 1 by more than round-off, raise
NumericFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrmat import Spectrum

#: log of the relative size of the dropped left tail of a Gamma lattice
_LOG_TAIL = math.log(1e-18)
#: elements per lattice block (512 KiB of doubles)
_BATCH = 1 << 16


class NumericFailure(ValueError):
    """A closed form lost its accuracy: a partial-fraction sum failed its
    gate or a result left its mathematical range."""


# ---------------------------------------------------------------------------
# Gamma lattice
# ---------------------------------------------------------------------------

def _gamma_lattice(nw: int, log_floor: float, deg: int = 0):
    """Nodes t and log-weights of the trapezoid rule in s = ln t for E f(t),
    t ~ Gamma(nw), geometrically convergent for f analytic near the real s
    axis and growing at most like t^deg: with top = nw + deg, step
    min(0.2, 0.5/sqrt(top)) from s = ln(top + 12 sqrt(top) + 40) down to
    where e^(nw s)/Gamma(nw) falls below 1e-18 e^log_floor, log_floor being
    the log of a lower bound on E |f|, which must be finite: at an argument
    near the float range it can overflow, and that raises NumericFailure."""
    if not math.isfinite(log_floor):
        raise NumericFailure(f"Gamma lattice floor {log_floor!r} is not finite")
    lg = math.lgamma(nw)
    top = nw + deg
    h = min(0.2, 0.5 / math.sqrt(top))
    s_hi = math.log(top + 12.0 * math.sqrt(top) + 40.0)
    s_lo = (lg + _LOG_TAIL + log_floor) / nw
    s = s_hi - h * np.arange(math.ceil((s_hi - s_lo) / h) + 1)
    t = np.exp(s)
    return t, nw * s - t - lg + math.log(h)


def _product_mean(logw: np.ndarray, t: np.ndarray, c, mult, x: np.ndarray):
    """sum_i exp(logw_i - sum_k mult_k log1p(x c_k t_i)) for each entry of
    x: a lattice expectation of prod_k (1 + x c_k t)^(-mult_k)."""
    ct = np.multiply.outer(c, t)
    out = np.empty(x.size)
    # bound the entry-by-factor-by-node temporaries to _BATCH doubles
    step = max(1, _BATCH // ct.size)
    for lo in range(0, x.size, step):
        e = mult @ np.log1p(np.multiply.outer(x[lo : lo + step], ct))
        out[lo : lo + step] = np.exp(logw - e).sum(axis=1)
    return out


def _log_floor(scales: np.ndarray, c: np.ndarray, mult: np.ndarray, xmax: float) -> float:
    """log of a lower bound on E prod_k (1 + xmax c_k V)^(-mult_k) for
    V = sum_i scales_i E_i, E_i unit exponentials: the product at v0 times
    P(V <= v0) >= prod_i (1 - e^(-v0/(d scales_i))), at
    v0 = min(d min(scales), d/(xmax sum_k mult_k c_k))."""
    d = scales.size
    v0 = min(d * float(scales.min()), d / (xmax * float(mult @ c)))
    return float(np.log(-np.expm1(-v0 / (d * scales))).sum()
                 - mult @ np.log1p(xmax * c * v0))


def _at_positive(x, fn):
    """fn over the positive entries of x >= 0 (a scalar or a vector) and 1
    at x = 0; a float for a scalar x, else an array."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xv < 0.0):
        raise ValueError("argument must be nonnegative")
    out = np.ones_like(xv)
    pos = xv > 0.0
    if pos.any():
        out[pos] = fn(xv[pos])
    return float(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# characteristic coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharCoefficients:
    """Partial-fraction coefficients X[p][j-1] aligned with a Spectrum.

    det(I + xi A)^(-1) = sum_p sum_j X[p][j-1] (1 + xi a<p>)^(-j).
    The coefficients sum to one (evaluate the expansion at xi = 0).
    """

    spectrum: Spectrum
    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        total = sum(c for row in self.coeffs for c in row)
        mag = sum(abs(c) for row in self.coeffs for c in row)
        # a sum of alternating coefficients is only good to eps * sum|X|
        if abs(total - 1.0) > 1e-10 or np.finfo(float).eps * mag > 1e-10:
            raise NumericFailure(f"characteristic coefficients: sum {total}, sum|X| {mag:.3g}")

    def items(self):
        """Yield (p, eigenvalue, j, X_pj) over all coefficients (j is 1-based)."""
        for p, (val, mult) in enumerate(self.spectrum.distinct):
            for j in range(1, mult + 1):
                yield p, val, j, self.coeffs[p][j - 1]

    def reconstruct(self, xi: float) -> float:
        """Evaluate the partial-fraction expansion of det(I + xi A)^(-1)."""
        return float(sum(x * (1.0 + xi * val) ** (-j)
                         for _, val, j, x in self.items()))


def characteristic_coefficients(spec: Spectrum) -> CharCoefficients:
    """Characteristic coefficients of a Hermitian matrix from its spectrum.

    The finite-sum definition runs over compositions of the multiplicity
    deficit; it is evaluated here as a truncated power-series product, one
    binomial series per foreign eigenvalue, which is algebraically the same
    sum without the combinatorial loop.
    """
    if any(v == 0.0 for v in spec.values):
        raise ValueError("characteristic coefficients need nonzero eigenvalues")
    rows = []
    for i, (ai, ti) in enumerate(spec.distinct):
        wmax = ti - 1
        series = np.zeros(wmax + 1)
        series[0] = 1.0
        for l, (al, tl) in enumerate(spec.distinct):
            if l == i:
                continue
            gap = 1.0 - al / ai
            term = np.array([math.comb(tl + k - 1, k) * (al / gap) ** k
                             for k in range(wmax + 1)])
            term *= gap ** (-tl)
            series = np.convolve(series, term)[: wmax + 1]
        rows.append(tuple(float((-1.0) ** (ti - j) / ai ** (ti - j) * series[ti - j])
                          for j in range(1, ti + 1)))
    return CharCoefficients(spec, tuple(rows))


# ---------------------------------------------------------------------------
# log-scaled determinants
# ---------------------------------------------------------------------------

def _det_scaled(logmag: np.ndarray, sign) -> tuple[float, float]:
    """(sign, log|det|) of the square matrix sign*exp(logmag), via row/column
    balancing so the scaled matrix feeds slogdet with O(1) entries.  A matrix
    with an all-zero row or column (or a row maximum that overflowed) is
    (0, -inf)."""
    r = logmag.max(axis=1)
    if not np.isfinite(r).all():
        return 0.0, -math.inf
    c = (logmag - r[:, None]).max(axis=0)
    c[np.isinf(c)] = 0.0  # an all-zero column stays zero: slogdet gives (0, -inf)
    s, ld = np.linalg.slogdet(sign * np.exp(logmag - r[:, None] - c))
    return float(s), float(ld + r.sum() + c.sum())


def _log_vandermonde(lams: np.ndarray) -> tuple[float, float]:
    """(sign, log|det|) of the matrix (lams_j^(i-1))."""
    i, j = np.triu_indices(lams.size, 1)
    d = lams[j] - lams[i]
    with np.errstate(divide="ignore"):
        return float(np.prod(np.sign(d))), float(np.log(np.abs(d)).sum())


def _columns(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalue, derivative order j >= 1) of every confluent column: a
    distinct eigenvalue of multiplicity t owns t adjacent columns j = 1..t."""
    return spec.expand(), np.concatenate([np.arange(1, t + 1) for t in spec.mults])


def _vandermonde_blocks(spec: Spectrum, nrows: int, power_offset: int):
    """(logmag, sign) of the stacked confluent Vandermonde blocks: row i of
    column (sigma, j) holds (i-j+1)_(j-1) b^(i-j) sigma^power_offset,
    b = -1/sigma, for i >= j and 0 above; column j is the (j-1)th
    b-derivative of (1, b, ..., b^(nrows-1)) scaled by sigma^power_offset."""
    vals, order = _columns(spec)
    d = np.arange(1, nrows + 1)[:, None] - order  # i - j
    live = d >= 0
    # logp[d, k] = log (d+1)_k = log(d+1) + log(d+2) + ... + log(d+k)
    steps = np.log(np.arange(1.0, nrows + 1)[:, None] + np.arange(order.max() - 1))
    logp = np.cumsum(np.hstack([np.zeros((nrows, 1)), steps]), axis=1)
    logp = logp[np.where(live, d, 0), order - 1]
    lv = np.array([math.log(abs(v)) for v in vals])
    pw = power_offset - d
    sign = (-1.0) ** d * np.sign(vals) ** pw
    return np.where(live, logp + pw * lv, -np.inf), np.where(live, sign, 0.0)


# ---------------------------------------------------------------------------
# eigenvalue densities
# ---------------------------------------------------------------------------

def _check_ordered_positive(lams) -> np.ndarray:
    v = np.asarray(lams, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a vector of eigenvalues")
    if np.any(v <= 0.0):
        raise ValueError("eigenvalue arguments must be positive")
    if np.any(np.diff(v) > 0.0):
        raise ValueError("eigenvalue arguments must be in decreasing order")
    return v


def _exp_kernel_columns(v: np.ndarray, spec: Spectrum) -> np.ndarray:
    """log of the kernel block v_i^(j-1) e^(-v_i/sigma) over the confluent
    columns (sigma, j) of spec; every entry is positive."""
    vals, order = _columns(spec)
    return (order - 1) * np.log(v)[:, None] - v[:, None] / vals


def wishart_eigen_pdf(lams, n: int, sigma_spec: Spectrum) -> float:
    """Joint pdf of the ordered eigenvalues of X X^H, X an m x n standard-
    column Gaussian with row covariance Sigma (m <= n), at the point lams
    (decreasing, positive).  Handles any Sigma multiplicity pattern."""
    v = _check_ordered_positive(lams)
    m = v.size
    if sigma_spec.dim != m:
        raise ValueError("sigma spectrum dimension must match len(lams)")
    if n < m:
        raise ValueError("need n >= m")

    gs, gl = _det_scaled(_exp_kernel_columns(v, sigma_spec), 1.0)
    bs, bl = _det_scaled(*_vandermonde_blocks(sigma_spec, m, n))
    vs, vl = _log_vandermonde(v)
    log_k = sum(math.lgamma(n - i + 1) for i in range(1, m + 1))

    sign = gs * vs * bs
    log = gl + vl + (n - m) * float(np.log(v).sum()) - log_k - bl
    return 0.0 if sign == 0.0 else sign * math.exp(log)


def quadratic_form_eigen_pdf(lams, n: int, beta_spec: Spectrum) -> float:
    """Joint pdf of the ordered eigenvalues of X A X^H for X an m x n
    standard-row Gaussian with column covariance Psi and A Hermitian PD;
    beta_spec is the spectrum of A^(1/2) Psi A^(1/2) (dimension n)."""
    v = _check_ordered_positive(lams)
    m = v.size
    if beta_spec.dim != n:
        raise ValueError("beta spectrum dimension must equal n")
    if n < m:
        raise ValueError("need n >= m")

    top_log, top_sign = _vandermonde_blocks(beta_spec, n - m, 0)
    qlog = _exp_kernel_columns(v, beta_spec)
    num_s, num_l = _det_scaled(np.vstack([top_log, qlog]),
                               np.vstack([top_sign, np.ones_like(qlog)]))
    den_s, den_l = _det_scaled(*_vandermonde_blocks(beta_spec, n, 0))
    vs, vl = _log_vandermonde(v)
    log_k = sum(math.lgamma(m - i + 1) for i in range(1, m + 1))
    log_det_apsi = float(sum(mu * math.log(val) for val, mu in beta_spec.distinct))

    sign = num_s * den_s * vs
    log = num_l - den_l + vl - log_k - m * log_det_apsi
    return 0.0 if sign == 0.0 else sign * math.exp(log)


# ---------------------------------------------------------------------------
# expected inverse determinants (the SEP kernels)
# ---------------------------------------------------------------------------

def _lanczos(t: np.ndarray, logmu: np.ndarray, k: int):
    """The first k orthonormal polynomials p_j of the discrete measures
    exp(logmu - shift) (stacked over leading axes, shift = max logmu) on the
    nodes t, by Lanczos with full reorthogonalisation (multiply the last
    vector by t, orthogonalise twice, normalise): the vectors sqrt(mu) p_j(t)
    (k, ..., nodes), alpha_j = <t p_j, p_j> (j < k - 1), log b_j (the norms,
    sums of squares; p_j has leading coefficient 1/(b_0 ... b_j)) and shift."""
    shift = logmu.max(axis=-1)
    w = np.exp(0.5 * (logmu - shift[..., None]))
    vecs = np.empty((k, *logmu.shape))
    alpha, norm = np.empty((2, k, *shift.shape))
    for j in range(k):
        if j:
            v = vecs[:j]
            first = np.einsum("k...n,...n->k...", v, w)
            w -= np.einsum("k...n,k...->...n", v, first)
            again = np.einsum("k...n,...n->k...", v, w)
            w -= np.einsum("k...n,k...->...n", v, again)
            alpha[j - 1] = first[j - 1] + again[j - 1]
        norm[j] = np.sqrt(np.einsum("...n,...n->...", w, w))
        np.divide(w, norm[j, ..., None], out=vecs[j])
        w = t * vecs[j]
    return vecs, alpha, np.log(norm), shift


def _poisson_tails(k: int, z: np.ndarray) -> np.ndarray:
    """P(N >= K) for N ~ Poisson(z), K = 0 .. k on a leading axis: 1 - P(N < K)
    where that head is below 1/2, else the pmf summed from the top (N up to
    3k + 40, past which the pmf is below 1e-17 of the sum for such z)."""
    ks = np.arange(3 * k + 41.0).reshape(-1, *([1] * z.ndim))
    pmf = np.exp(ks * np.log(np.maximum(z, np.finfo(float).tiny)) - z
                 - np.cumsum(np.log(np.maximum(ks, 1.0)), axis=0))
    head = np.cumsum(pmf[:k + 1], axis=0) - pmf[:k + 1]
    return np.where(head < 0.5, 1.0 - head, np.cumsum(pmf[::-1], axis=0)[:-k - 2:-1])


def expected_inv_det_kron(m: int, n: int, sigma_spec: Spectrum, a_spec: Spectrum,
                          xi):
    """E det(I + xi A (x) XX^H)^(-1) for X m x n (m <= n) with row covariance
    Sigma and a PSD matrix A, from their spectra; xi >= 0 a scalar or vector.
    By Andreief's identity this is det N(xi) / det N(0), N(xi) the matrix of
    int q_i(l) c_gj(l) l^(n-m) e^(-l/sigma_g) prod_k (1 + xi r_k l)^(-m_k) dl
    over rows of degree i < m and the confluent columns (g, j < t_g) of the
    eigenvalues sigma_g of Sigma, each divided by its polynomial's leading
    coefficient, whatever the polynomials.  Here column (g, j) holds p_j of
    mu_g = Gamma(n-m+1) prod_k (1 + xi sigma_g r_k t)^(-m_k), t = l/sigma_g,
    and row i p_i of mu_s at sigma_g t/sigma_s, s the smallest eigenvalue
    (larger ones then see the rows where their leading terms dominate, as
    monomials would).  The block of s is [I; 0], so det N is that of the rows
    t_s.. over the other columns: 1 with one eigenvalue, where the MGF is a
    ratio of products of Lanczos norms.  mu_g is mu_s e^(beta l), beta =
    1/sigma_s - 1/sigma_g > 0, and row i annihilates the Taylor terms of
    e^(beta l) below degree i - j, so entry (i, (g, j)) keeps only the weight
    P(Poisson(beta l) >= i - j): close eigenvalues cost no digits.  Values
    lie in (0, 1]: round-off above 1 becomes 1, a larger excess raises
    NumericFailure."""
    if sigma_spec.dim != m or n < m:
        raise ValueError("need sigma spectrum of dimension m and n >= m")
    sig = np.array(sigma_spec.values)
    tg = np.array(sigma_spec.mults)
    c = np.multiply.outer(sig, a_spec.values)
    mult = np.array(a_spec.mults, dtype=float)
    s = sig.size - 1  # values decrease
    other = np.flatnonzero(np.arange(sig.size) != s)
    k_o = int(tg[other].max(initial=0))
    # dividing by the leading coefficients multiplies by powers of the b_j:
    # row i and column (s, i) by b_0 .. b_i of mu_s, column (g, j) by those of mu_g
    lead_s = (m - np.arange(m)) + np.maximum(tg[s] - np.arange(m), 0)
    lead_o = np.maximum(tg[other, None] - np.arange(k_o), 0)
    scale = (sig[other] / sig[s])[:, None]
    tail_k = np.maximum(np.subtract.outer(np.arange(tg[s], m), np.arange(k_o)), 0)

    def log_det(x, t, logw, tails):
        """(sign, log) of det N(x) over its leading coefficients, x a vector."""
        # a node where x c_k t overflows has a factor of mu below 1/DBL_MAX,
        # and log1p(inf) takes mu there as 0
        with np.errstate(over="ignore"):
            logmu = logw - np.einsum("k,xgkn->xgn", mult,
                                     np.log1p(np.multiply.outer(np.multiply.outer(x, c), t)))
        _, a, lb, shift_s = _lanczos(t, logmu[:, s], m)
        vo, _, lbo, shift_o = _lanczos(t, logmu[:, other], k_o)
        log = (lead_s @ lb + np.einsum("gj,jxg->x", lead_o, lbo)
               + tg[s] * shift_s + shift_o @ tg[other])
        # rows q_(t_s) .. q_(m-1) at sigma_g t/sigma_s times the root of mu_g,
        # against the columns of g (the scales e^-shift are restored in log)
        u, b, a = scale * t, np.exp(lb)[..., None, None], a[..., None, None]
        root = np.exp(0.5 * (logmu[:, other] - shift_o[..., None]))
        rows = np.empty((m - tg[s], *root.shape))
        q_prev, q = 0.0, np.broadcast_to(1.0 / b[0], root.shape)
        for i in range(m):
            if i >= tg[s]:
                rows[i - tg[s]] = q * root
            if i + 1 < m:
                q_prev, q = q, ((u - a[i]) * q - b[i] * q_prev) / b[i + 1]
        blk = np.einsum("ixgn,jxgn,ijgn->xgij", rows, vo, tails)
        # lead_o > 0 marks the columns (g, j < t_g)
        sign, ld = np.linalg.slogdet(np.swapaxes(blk, 1, 2)[:, :, lead_o > 0])
        return sign, log + ld

    def mgf(xv):
        # every mu_g has at least its product's value at the Gamma mean (Jensen);
        # the integrands are mu_g times polynomials of degree <= 2m - 2; a bound
        # that overflows makes the floor -inf, which _gamma_lattice raises
        with np.errstate(over="ignore"):
            floor = -float(mult @ np.log1p(xv.max() * c.max(axis=0) * n))
        t, logw = _gamma_lattice(n - m + 1, floor, 2 * m - 2)
        tails = _poisson_tails(m - 1, (scale - 1.0) * t)[tail_k]
        x = np.concatenate([[0.0], xv])  # N(0), the normaliser, rides in the first block
        # equal blocks of entries whose entry-by-eigenvalue-by-degree-by-node
        # arrays stay within 2 _BATCH doubles
        size = x.size * sig.size * max(m, mult.size) * t.size
        blocks = np.array_split(x, -(-size // (2 * _BATCH)))
        sign, log = map(np.concatenate, zip(*(log_det(xs, t, logw, tails) for xs in blocks)))
        v = sign[1:] * sign[0] * np.exp(log[1:] - log[0])
        # an MGF is at most 1: round-off above it is noise, 1e-12 a failure
        if np.any(v > 1.0 + 1e-12):
            raise NumericFailure(f"Kronecker MGF {float(v.max())!r} exceeds 1")
        return np.minimum(v, 1.0)

    return _at_positive(xi, mgf)


def expected_inv_det_uncorr(m: int, n: int, nu: int, xi):
    """E det(I + xi XX^H)^(-nu) for an m x n i.i.d. standard complex Gaussian
    X with m <= n, xi >= 0 a scalar or a vector: `expected_inv_det_kron`
    with identity spectra."""
    if m > n:
        raise ValueError("need m <= n")
    ident = Spectrum((1.0,), (m,), m)
    return expected_inv_det_kron(m, n, ident, Spectrum((1.0,), (nu,), nu), xi)


def hyp2f0(n: int, q: int, x):
    """2F0(n, q; -x) for positive integers n, q and x >= 0 (scalar or array):
    the Kronecker row's MGF at m = 1, E (1 + x t)^-min(n, q) over t ~
    Gamma(max(n, q)) (2F0 is symmetric in n, q; its series diverges).  It
    agrees with x^-n U(n, n-q+1, 1/x) to about 1e-13 relative for n <= 72,
    q <= 16, x <= 1e11.  Values lie in (0, 1] (0 once they underflow) and
    decrease from 1 at x = 0."""
    if n < 1 or q < 1:
        raise ValueError("parameters must be positive integers")
    return expected_inv_det_uncorr(1, max(n, q), min(n, q), x)


def _log_density_ratio(mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log of the density of T = sum_j E_j/mu_j (E_j unit exponentials,
    min(mu) = 1) over the Gamma(d) density, at nodes t in descending order,
    by additions of nonnegative numbers only.

    T is the absorption time of a pure-birth chain with rates mu: its density
    is mu_d e^(-max(mu) t) [e^(Bt)]_(1,d), B nonnegative with diagonal
    x = max(mu) - mu and superdiagonal mu.  e^(Bt) is the k-th square of
    e^(Bt/2^k) (2^k > 2 max(x) t per node), each power kept under the
    diagonal similarity that makes its exponent's superdiagonal s = d/e, so
    [e^(Bt)]_(1,d) = E_(1,d) prod_(j<d) mu_j t/s.  The first power is a
    Taylor polynomial of degree d + 16 (the corner needs d - 1 steps; every
    entry is then good to 2^-18/18!); each square halves entry (i, j) j - i
    times to reach the next similarity and is rescaled by a power of two."""
    d, s = mu.size, mu.size / math.e
    x = mu.max() - mu
    k = np.maximum(np.frexp(x.max() * t)[1] + 1, 0)  # t descends, so k does
    # Horner on (d, d, nodes) arrays: P e is diag * e plus s * (e shifted up)
    diag, eye = np.ldexp(np.multiply.outer(x, t), -k)[:, None], np.eye(d)[:, :, None]
    e = eye
    for n in range(d + 16, 0, -1):
        pe = diag * e
        pe[:-1] += s * e[1:]
        e = eye + pe / n
    e = np.ascontiguousarray(e.transpose(2, 0, 1))
    i = np.arange(d)
    shift = i[:, None] - i  # entry (i, j) of a square is halved j - i times
    log2 = np.zeros_like(k)  # the kept power is e * 2^log2
    for j in range(int(k.max())):
        live = np.count_nonzero(k > j)  # the nodes still to square: a prefix
        sq = e[:live] @ e[:live]
        ex = np.frexp(sq.max(axis=(1, 2)))[1]
        e[:live] = np.ldexp(sq, shift - ex[:, None, None])
        log2[:live] = 2 * log2[:live] + ex
    return (float(np.log(mu).sum()) + math.lgamma(d) - (d - 1) * math.log(s) - x.max() * t
            + log2 * math.log(2.0) + np.log(e[:, 0, -1]))


def expected_inv_det_miso(sigma_spec: Spectrum, psi_spec: Spectrum, xi):
    """E det(I + xi XX^H)^(-1) for X with row covariance Sigma and column
    covariance Psi, xi >= 0 a scalar or a vector; symmetric in the spectra.

    With a (dimension d) the smaller spectrum and b the larger, this is the
    expectation over V = sum_k a_k E_k of prod_l (1 + xi b_l V)^(-1), on one
    Gamma(d) lattice in t = V/max(a), weighted by V's density from
    `_log_density_ratio` (any eigenvalue pattern, no cancellation)."""
    small, large = sorted((sigma_spec, psi_spec), key=lambda s: s.dim)
    a = small.expand()
    d, amax = a.size, float(a.max())
    log_kappa = float(np.log(amax / a).sum())
    b = np.array(large.values)
    mult = np.array(large.mults, dtype=float)

    def mgf(xv):
        # V's density is at most kappa t^(d-1)/Gamma(d): lower the floor by kappa
        t, logw = _gamma_lattice(d, _log_floor(a, b, mult, xv.max()) - log_kappa)
        step = max(1, _BATCH // (d * d))  # node-by-d-by-d blocks of _BATCH doubles
        # past d ~ 300 the corner of far-tail nodes underflows: they drop out
        with np.errstate(divide="ignore"):
            ratio = [_log_density_ratio(amax / a, t[lo : lo + step])
                     for lo in range(0, t.size, step)]
        return _product_mean(logw + np.concatenate(ratio), amax * t, b, mult, xv)

    return _at_positive(xi, mgf)
