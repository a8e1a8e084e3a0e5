"""Determinantal special-function kernels.

Everything here reduces to two ingredients:

* one Gamma-lattice rule (`_Lattice`): a fixed-cost trapezoid rule in
  s = ln t for the expectation over t ~ Gamma(nw) of the far side's
  product of factors (1 + x c_k t)^(-m_k) over its distinct eigenvalues,
  whose log one function forms (`_log_product`; the rich row in `sep` is
  that product alone).  It gives the MISO expectation and the
  measures whose orthonormal polynomials (`_lanczos`) carry the
  uncorrelated and doubly-correlated (Kronecker) MGF.  At m = 1 that MGF is
  the 2F0 kernel
      2F0(n, q; -x) = (1/(n-1)!) int_0^inf (1+x t)^(-q) t^(n-1) e^-t dt
  (the hypergeometric series itself is divergent);
* one nonnegative matrix exponential (`_log_density_ratio`): the density
  of the smaller MISO side's weighted sum of exponentials, made by
  additions of nonnegative numbers only, for any eigenvalue pattern.

The expected-inverse-determinant evaluators take xi as a scalar or a
vector and return values in (0, 1]; they are the moment generating
functions behind every closed-form SEP.  Kronecker values above 1 by more
than round-off, Kronecker column blocks that lose more than
_MAX_LOST_DIGITS digits, and lattice floors that overflow, raise
NumericFailure.

Each evaluator is split in two.  A kernel made once per side that is
costly to prepare (`_kron_kernel` per Sigma, `_miso_kernel` per smaller
side) holds every array of that side and its own lattice (`_Lattice`), and
a call runs only the part that depends on xi and the other side.  xi moves
only a lattice's floor, hence its node count, so the lattice keeps the
longest node prefix asked for with the side's per-node values on it (the
MISO density, the Kronecker row's Poisson tails), and a later call makes
only the nodes past it.  The kernels are functools.lru_caches of the
_CACHE_SIDES most recently used sides, keyed by exact values, and hold no
MGF value: a warm call returns bit for bit what a cold one does.

The Kronecker row keeps every digit for eigenvalues of Sigma close to its
smallest one, but not for a cluster above it, whose columns nearly coincide:
it estimates the digits lost (`_lost_digits`) and raises past the bound
(`expected_inv_det_kron`).
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .corrmat import Spectrum

#: log of the relative size of the dropped left tail of a Gamma lattice
_LOG_TAIL = math.log(1e-18)
#: elements per lattice block (512 KiB of doubles)
_BATCH = 1 << 16
#: sides that each kernel's lru_cache keeps (`_kron_kernel`, `_miso_kernel`)
_CACHE_SIDES = 16
#: most digits the Kronecker row's column block may lose (`_lost_digits`).
#: On ROADMAP item 1's clustered spectra (m = 6, n = 9) the MGF was off by
#: about 10^(digits - 15.9) relative, so at 6 digits by about 1e-10; the
#: built-in models were less off than that at equal digits
_MAX_LOST_DIGITS = 6.0


class NumericFailure(ValueError):
    """A closed form lost its accuracy: a result left its mathematical range
    or an intermediate overflowed."""


# ---------------------------------------------------------------------------
# Gamma lattice
# ---------------------------------------------------------------------------

class _Lattice:
    """The Gamma(nw) lattice of one side, with fn's values on its nodes: the
    trapezoid rule in s = ln t for E f(t), t ~ Gamma(nw), geometrically
    convergent for f analytic near the real s axis and growing at most like
    t^deg.  With top = nw + deg it steps h = min(0.2, 0.5/sqrt(top)) from
    s_hi = ln(top + 12 sqrt(top) + 40) down to a floor (`nodes`).  The floor
    moves only the node count, and node i is made from s_i = s_hi - h i
    alone, so every lattice of the side is a prefix of one node sequence.
    The longest prefix asked for is kept with fn's values on it (fn maps
    nodes to an array with one entry per node on its last axis, each from
    its node alone), and a call makes only the nodes past it: bit for bit
    what a cold call makes.  Without fn there are no values."""

    def __init__(self, nw: int, deg: int, fn=None):
        top = nw + deg
        self.nw, self.lg = nw, math.lgamma(nw)
        self.h = min(0.2, 0.5 / math.sqrt(top))
        self.s_hi = math.log(top + 12.0 * math.sqrt(top) + 40.0)
        self._fn = fn
        self._t = self._logw = self._values = None
        # one lock per side: a call growing this side blocks no other side
        self._lock = threading.Lock()

    def nodes(self, log_floor: float):
        """Nodes t, log-weights and fn's values (or None) down to where
        e^(nw s)/Gamma(nw) falls below 1e-18 e^log_floor, log_floor being the
        log of a lower bound on E |f|, which must be finite: at an argument
        near the float range it can overflow, and that raises NumericFailure.
        The nodes and log-weights are read-only, the values C-contiguous."""
        if not math.isfinite(log_floor):
            raise NumericFailure(f"Gamma lattice floor {log_floor!r} is not finite")
        s_lo = (self.lg + _LOG_TAIL + log_floor) / self.nw
        count = math.ceil((self.s_hi - s_lo) / self.h) + 1
        with self._lock:
            done = 0 if self._t is None else self._t.size
            if done < count:
                s = self.s_hi - self.h * np.arange(done, count)
                t = np.exp(s)
                self._t = _appended(self._t, t)
                self._logw = _appended(self._logw, self.nw * s - t - self.lg + math.log(self.h))
                if self._fn is not None:
                    self._values = _appended(self._values, self._fn(t))
            t, logw, values = self._t, self._logw, self._values
        return (t[:count], logw[:count],
                None if values is None else np.ascontiguousarray(values[..., :count]))


def _appended(kept, new: np.ndarray) -> np.ndarray:
    """new after kept (None at first) on the last axis, read-only."""
    out = new if kept is None else np.concatenate([kept, new], axis=-1)
    out.setflags(write=False)
    return out


def _log_product(x, c, mult, t):
    """sum_k mult_k log1p(x c_k t), the log of the far side's product
    prod_k (1 + x c_k t)^mult_k over the factors k on the last axis of c:
    shaped x.shape + c.shape[:-1] + t.shape for an array x and a vector t,
    c.shape[:-1] + t.shape for a float x.  A product x c_k t past the float
    range makes log1p inf and the MGF exp(-sum) 0 (its factor is above
    DBL_MAX).  An array x runs in blocks of entries whose products fill at
    most _BATCH doubles (or one entry's), all in one buffer: fresh
    temporaries of that size are mapped and page-faulted anew each block,
    which cost up to half a MISO call."""
    with np.errstate(over="ignore"):
        ct = np.multiply.outer(c, t)  # once: x times (c t) has one long inner loop
        if not isinstance(x, np.ndarray):
            return mult @ np.log1p(np.multiply(x, ct, out=ct), out=ct)
        step = max(1, _BATCH // ct.size)
        buf = np.empty((min(step, x.size), *ct.shape))
        out = np.empty((x.size, *ct.shape[:-2], ct.shape[-1]))
        for lo in range(0, x.size, step):
            xs = x[lo : lo + step]
            block = np.multiply.outer(xs, ct, out=buf[: xs.size])
            logs = np.log1p(block, out=block)
            # matmul makes a call per row, which costs more than one factor's scale
            out[lo : lo + step] = mult @ logs if mult.size > 1 else mult[0] * logs[..., 0, :]
    return out


def _log_floor(scales: np.ndarray, c: np.ndarray, mult: np.ndarray, xmax: float) -> float:
    """log of a lower bound on E prod_k (1 + xmax c_k V)^(-mult_k) for
    V = sum_i scales_i E_i, E_i unit exponentials: the product at v0 times
    P(V <= v0) >= prod_i (1 - e^(-v0/(d scales_i))), at
    v0 = min(d min(scales), d/(xmax sum_k mult_k c_k))."""
    d = scales.size
    v0 = min(d * float(scales.min()), d / (xmax * float(mult @ c)))
    return float(np.log(-np.expm1(-v0 / (d * scales))).sum() - _log_product(xmax, c, mult, v0))


def _at_positive(x, fn):
    """fn over the positive entries of x >= 0 (a scalar or a vector) and 1
    at x = 0; a float for a scalar x, else an array.  A negative or NaN
    entry raises ValueError."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    low = xv.min(initial=math.inf)  # NaN if any entry is
    if not low >= 0.0:
        raise ValueError(f"argument must be nonnegative, got {float(low)!r}")
    if xv.size and low > 0.0:  # every entry positive (every angular point): no mask, no copy
        out = fn(xv)
    else:
        out = np.ones_like(xv)
        pos = xv > 0.0
        if pos.any():
            out[pos] = fn(xv[pos])
    return float(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# expected inverse determinants (the SEP kernels)
# ---------------------------------------------------------------------------

def _lanczos(t: np.ndarray, logmu: np.ndarray, k: int):
    """The first k orthonormal polynomials p_j of the discrete measures
    exp(logmu - shift) (stacked over leading axes, shift = max logmu) on the
    nodes t, by Lanczos with full reorthogonalisation (multiply the last
    vector by t, orthogonalise twice, normalise): the vectors sqrt(mu) p_j(t)
    (k, ..., nodes), alpha_j = <t p_j, p_j> (j < k - 1), log b_j (the norms,
    sums of squares; p_j has leading coefficient 1/(b_0 ... b_j)), shift and
    the starting vector exp((logmu - shift)/2), the root of the measure, which
    no step overwrites."""
    shift = logmu.max(axis=-1)
    w = np.exp(0.5 * (logmu - shift[..., None]))
    root = w
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
        if j + 1 < k:
            w = t * vecs[j]
    return vecs, alpha, np.log(norm), shift, root


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
    P(Poisson(beta l) >= i - j): eigenvalues close to the smallest one cost
    no digits.  A cluster of eigenvalues above the smallest one does: its
    columns are near-copies of each other and their determinant cancels,
    so a value could be wrong and still lie in (0, 1] (ROADMAP item 1).  The
    digits lost are estimated at every xi (`_lost_digits`), and past
    _MAX_LOST_DIGITS the call raises NumericFailure.
    Those weights depend on Sigma, m, n and the lattice nodes alone, so they
    are made once per Sigma and reused at every xi and far side, as are the
    lattice and every other array of Sigma (`_kron_kernel`); with one
    eigenvalue there are none, and a call stops at the norms.
    Values lie in (0, 1]: round-off above 1 becomes 1, a larger excess
    raises NumericFailure."""
    if sigma_spec.dim != m or n < m:
        raise ValueError("need sigma spectrum of dimension m and n >= m")
    kernel = _kron_kernel(m, n, sigma_spec)
    return _at_positive(xi, lambda xv: kernel(xv, a_spec))


@lru_cache(maxsize=_CACHE_SIDES)
def _kron_kernel(m: int, n: int, sigma_spec: Spectrum):
    """`expected_inv_det_kron`'s kernel for one (m, n, Sigma): (xi > 0 a
    vector, A) to the MGF.  The arrays that depend on Sigma alone, its
    lattice and the Poisson tails on its nodes are made here, once per side;
    a call makes A's few arrays, the nodes past those kept and the
    determinants at its xi."""
    sig = np.array(sigma_spec.values)
    tg = np.array(sigma_spec.mults)
    s = sig.size - 1  # values decrease
    other = np.flatnonzero(np.arange(sig.size) != s)
    k_o = int(tg[other].max(initial=0))
    # dividing by the leading coefficients multiplies by powers of the b_j:
    # row i and column (s, i) by b_0 .. b_i of mu_s, column (g, j) by those of mu_g
    lead_s = (m - np.arange(m)) + np.maximum(tg[s] - np.arange(m), 0)
    lead_o = np.maximum(tg[other, None] - np.arange(k_o), 0)
    scale = (sig[other] / sig[s])[:, None]
    tail_k = np.maximum(np.subtract.outer(np.arange(tg[s], m), np.arange(k_o)), 0)
    # the integrands are mu_g times polynomials of degree <= 2m - 2
    lattice = _Lattice(n - m + 1, 2 * m - 2,
                       (lambda tn: _poisson_tails(m - 1, (scale - 1.0) * tn)[tail_k])
                       if other.size else None)

    def log_det(x, c, mult, t, logw, tails):
        """(sign, log) of det N(x) over its leading coefficients, x a vector,
        and the digits its column block loses (`_lost_digits`, 0 with one
        eigenvalue)."""
        logmu = logw - _log_product(x, c, mult, t)
        _, a, lb, shift_s, _ = _lanczos(t, logmu[:, s], m)
        if not other.size:  # one eigenvalue: det N = 1
            return np.ones(x.size), lead_s @ lb + tg[s] * shift_s, np.zeros(x.size)
        vo, _, lbo, shift_o, root = _lanczos(t, logmu[:, other], k_o)
        log = (lead_s @ lb + np.einsum("gj,jxg->x", lead_o, lbo)
               + tg[s] * shift_s + shift_o @ tg[other])
        # rows q_(t_s) .. q_(m-1) at sigma_g t/sigma_s times the root of mu_g,
        # against the columns of g (the scales e^-shift are restored in log)
        u, b, a = scale * t, np.exp(lb)[..., None, None], a[..., None, None]
        rows = np.empty((m - tg[s], *root.shape))
        q_prev, q = 0.0, np.broadcast_to(1.0 / b[0], root.shape)
        for i in range(m):
            if i >= tg[s]:
                rows[i - tg[s]] = q * root
            if i + 1 < m:
                q_prev, q = q, ((u - a[i]) * q - b[i] * q_prev) / b[i + 1]
        blk = np.einsum("ixgn,jxgn,ijgn->xgij", rows, vo, tails)
        # lead_o > 0 marks the columns (g, j < t_g)
        cols = np.swapaxes(blk, 1, 2)[:, :, lead_o > 0]
        sign, ld = np.linalg.slogdet(cols)
        return sign, log + ld, _lost_digits(cols)

    def kernel(xv, a_spec: Spectrum):
        c = np.multiply.outer(sig, a_spec.values)
        mult = np.array(a_spec.mults, dtype=float)
        # every mu_g has at least its product's value at the Gamma mean (Jensen);
        # a bound that overflows makes the floor -inf, which the lattice raises
        floor = -float(_log_product(xv.max(), c.max(axis=0), mult, n))
        t, logw, tails = lattice.nodes(floor)
        x = np.concatenate([[0.0], xv])  # N(0), the normaliser, rides in the first block
        # equal blocks of entries whose entry-by-eigenvalue-by-degree-by-node
        # arrays stay within 2 _BATCH doubles
        size = x.size * sig.size * max(m, mult.size) * t.size
        count = -(-size // (2 * _BATCH))
        if count == 1:
            sign, log, lost = log_det(x, c, mult, t, logw, tails)
        else:
            sign, log, lost = map(np.concatenate, zip(*(log_det(xs, c, mult, t, logw, tails)
                                                        for xs in np.array_split(x, count))))
        v = sign[1:] * sign[0] * np.exp(log[1:] - log[0])
        # an MGF is at most 1: round-off above it is noise, 1e-12 a failure
        if np.any(v > 1.0 + 1e-12):
            raise NumericFailure(f"Kronecker MGF {float(v.max())!r} exceeds 1")
        if np.any(lost > _MAX_LOST_DIGITS):
            raise NumericFailure(f"Kronecker column block loses {float(lost.max()):.1f} digits "
                                 f"(bound {_MAX_LOST_DIGITS}): Sigma has a cluster of "
                                 f"eigenvalues above its smallest one")
        return np.minimum(v, 1.0)

    return kernel


def _lost_digits(cols: np.ndarray) -> np.ndarray:
    """log10 of the 2-norm condition number of each square matrix of a
    stack once its columns, then its rows, are scaled to unit norm: about
    the digits that cancel in its determinant when columns are near-copies
    of each other.  Scaling removes what costs no digits, the columns' sizes
    and the rows' grading by the Poisson tails (eigenvalues close to the
    smallest one)."""
    with np.errstate(divide="ignore"):  # a singular block reads inf
        unit = cols / np.linalg.norm(cols, axis=-2, keepdims=True)
        return np.log10(np.linalg.cond(unit / np.linalg.norm(unit, axis=-1, keepdims=True)))


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
    `_log_density_ratio` (any eigenvalue pattern, no cancellation).  That
    density, about d^3 work per node, depends on a and the nodes alone: it
    is made once per smaller side, with that side's lattice and arrays
    (`_miso_kernel`), and reused at every xi and larger side."""
    small, large = sorted((sigma_spec, psi_spec), key=lambda s: s.dim)
    kernel = _miso_kernel(small)
    return _at_positive(xi, lambda xv: kernel(xv, large))


@lru_cache(maxsize=_CACHE_SIDES)
def _miso_kernel(small: Spectrum):
    """`expected_inv_det_miso`'s kernel for one smaller side: (xi > 0 a
    vector, the larger side) to the MGF.  The smaller side's arrays, its
    lattice and V's density on its nodes are made here, once per side."""
    a = small.expand()
    d, amax = a.size, float(a.max())
    log_kappa = float(np.log(amax / a).sum())

    def density(t):
        step = max(1, _BATCH // (d * d))  # node-by-d-by-d blocks of _BATCH doubles
        # past d ~ 300 the corner of far-tail nodes underflows: they drop out
        with np.errstate(divide="ignore"):
            return np.concatenate([_log_density_ratio(amax / a, t[lo : lo + step])
                                   for lo in range(0, t.size, step)])

    lattice = _Lattice(d, 0, density)

    def kernel(xv, large: Spectrum):
        b = np.array(large.values)
        mult = np.array(large.mults, dtype=float)
        # V's density is at most kappa t^(d-1)/Gamma(d): lower the floor by kappa
        t, logw, ratio = lattice.nodes(_log_floor(a, b, mult, xv.max()) - log_kappa)
        return np.exp(logw + ratio - _log_product(xv, b, mult, amax * t)).sum(axis=1)

    return kernel
