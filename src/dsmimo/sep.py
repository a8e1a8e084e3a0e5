"""Closed-form M-PSK symbol error probability for OSTBCs over
double-scattering channels.

Every formula is the angular average of the SNR moment generating function:
SEP = (1/pi) int_0^Theta MGF(g/sin^2 theta) dtheta with Theta = pi - pi/M
and g = sin^2(pi/M), the argument entering through the composite
xi = g*gbar/(n_s*n_t*rate*sin^2 theta).  The integrand depends on theta
only through sin^2 theta, so the arc past pi/2 mirrors [pi/M, pi/2]: one
folded rule (`theta_rule`, after Craig's form and Simon & Alouini's MGF
approach) evaluates every closed form and every Monte Carlo theta stage at
THETA_NODES nodes on [0, pi/2].  One table (`_closed_form_family`) picks
the MGF evaluator: the first of three rows that applies.

* Rich scattering: a product over transmit/receive eigenvalue pairs; with
  identity correlations, the i.i.d. Rayleigh reference curve.
* n_r, n_t or n_s = 1, unless every side is uncorrelated:
  `detform.expected_inv_det_miso` on the other two sides.
* A hop whose larger side is uncorrelated: `detform.expected_inv_det_kron`,
  at either end since ||H||_F = ||H^T||_F.

A closed-form point runs only the part of its row that depends on its xi.
Every array that depends on the sides alone is made once per side by a
kernel kept in an lru_cache of exact-value keys: detform's `_kron_kernel`
and `_miso_kernel`, and here the rich row's eigenvalue products
(`_rich_kernel`).  The angular rule is taken from `theta_rule` on every
call and sin^2 theta made anew from its nodes (`_sin2_rule`), so
`theta_rule` stays the one seam for the angular rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .detform import (_CACHE_SIDES, NumericFailure, expected_inv_det_kron,
                      expected_inv_det_miso)
from .matstat import Scenario
from .quadrule import gauss_legendre

#: Integrand nodes of the folded angular rule (`theta_rule`), read at call
#: time: 3/5 of them on [0, pi/M] and the rest on [pi/M, pi/2], or all on
#: [0, pi/2] for BPSK.  48 nodes on [0, pi/8] put 8-PSK's node nearest 0
#: at 2.4e-4 rad, which sets where its angular argument overflows; of the
#: splits tried (32 to 48 first-piece nodes), 48 + 32 was the most accurate
#: against 1200 nodes.  Doubling it moves the README, MISO, rich-scattering
#: and 4x3x2 closed forms by less than 1e-10 relative from -10 dB up at
#: every M, and by less than 6e-9 at -30 dB.
THETA_NODES = 80

#: theta_rule's rules, per (THETA_NODES, theta_max): nodes and weights
_THETA_RULES: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}

_SUPPORTED_M = (2, 4, 8, 16, 32, 64)


class UnsupportedScenarioError(ValueError):
    """No closed form for this scenario family (Monte Carlo still applies)."""


@dataclass(frozen=True)
class PskConstellation:
    """M-PSK constellation constants: g = sin^2(pi/M), Theta = pi - pi/M."""

    m: int

    def __post_init__(self):
        if self.m not in _SUPPORTED_M:
            raise ValueError(f"M must be one of {_SUPPORTED_M}, got {self.m}")

    @property
    def g(self) -> float:
        return math.sin(math.pi / self.m) ** 2

    @property
    def theta_max(self) -> float:
        return math.pi - math.pi / self.m

    @property
    def sep_ceiling(self) -> float:
        """SEP at zero SNR, (M-1)/M; no formula can exceed it."""
        return 1.0 - 1.0 / self.m


def ostbc_snr_scale(scn: Scenario) -> float:
    """Factor mapping gbar*||H||_F^2 to the per-subchannel SNR: 1/(n_t*rate)."""
    return float(1 / (scn.n_t * scn.rate))


def diversity_order(scn: Scenario) -> Fraction:
    """The closed-form SEP's high-SNR exponent: min over k = 0..m of
    k(n-m+k) + (m-k)n_r, with m, n = min, max of (n_t, n_s); n_t*n_r
    without double scattering.

    k counts the eigenvalues of the m x m Wishart factor near 1/snr.  The
    endpoints k = 0, m give the paper's n_t*n_s*n_r / max(n_t, n_s, n_r);
    an interior k is smaller exactly when n-m+1 < n_r < n+m-1.  When two k
    tie, the SEP carries an extra log(snr) factor.
    """
    if scn.no_double_scattering:
        return Fraction(scn.n_t * scn.n_r)
    m, n = sorted((scn.n_t, scn.n_s))
    return Fraction(min(k * (n - m + k) + (m - k) * scn.n_r for k in range(m + 1)))


def theta_rule(theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of int_0^theta_max f(theta) dtheta for an f of
    sin^2 theta, cached per theta_max and THETA_NODES.  Past pi/2 the rule
    folds the arc: with a = pi - theta_max, the integral is
    int_0^a f + 2 int_a^(pi/2) f, Gauss-Legendre on each piece, so no node
    lies past pi/2; up to pi/2 it is one Gauss-Legendre rule."""
    key = (THETA_NODES, float(theta_max))
    if key not in _THETA_RULES:
        if theta_max <= math.pi / 2:
            th, w = gauss_legendre(THETA_NODES, theta_max)
        else:
            a = math.pi - theta_max
            near = 3 * THETA_NODES // 5
            th0, w0 = gauss_legendre(near, a)
            th1, w1 = gauss_legendre(THETA_NODES - near, math.pi / 2 - a)
            th, w = np.concatenate([th0, a + th1]), np.concatenate([w0, 2.0 * w1])
            th.setflags(write=False)
            w.setflags(write=False)
        _THETA_RULES[key] = (th, w)
    return _THETA_RULES[key]


def _sin2_rule(theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """sin^2 theta at the nodes of theta_rule(theta_max), and its weights: the
    integrands read theta only through sin^2 theta.  The rule is taken from
    theta_rule on every call, so a replaced theta_rule reaches every angular
    integral."""
    th, w = theta_rule(theta_max)
    return np.sin(th) ** 2, w


def sep_theta_integral(integrand, theta_max: float) -> float:
    """(1/pi) int_0^theta_max integrand(theta) dtheta by the folded rule
    (`theta_rule`): past pi/2 the integrand must be a function of
    sin^2 theta, as every SEP integrand is."""
    th, w = theta_rule(theta_max)
    return float(np.asarray(integrand(th)) @ w) / math.pi


def conditional_sep_mpsk(gamma, psk: PskConstellation):
    """Exact M-PSK SEP conditioned on an instantaneous SNR gamma (vectorized):
    (1/pi) int_0^Theta exp(-g*gamma/sin^2 theta) dtheta.  Exponents below
    -700 are raised to -700, which keeps numpy's exp off its slow path near
    the underflow limit (ln of the smallest normal double is -708.4) and
    adds at most e^-700 Theta/pi, about 9e-305, to a trial's value."""
    s2, w = _sin2_rule(psk.theta_max)
    with np.errstate(over="ignore"):  # an exponent that overflows to -inf is floored too
        e = np.multiply.outer(-np.asarray(gamma, dtype=float).ravel(), psk.g / s2)
    np.exp(np.maximum(e, -700.0, out=e), out=e)
    out = e @ w / math.pi
    return float(out[0]) if np.ndim(gamma) == 0 else out


def conditional_sep_polynomial(coef: np.ndarray, psk: PskConstellation,
                               scale: float) -> np.ndarray:
    """Exact M-PSK SEP of each column of coef, (degree+1, trials), a trial
    whose SNR MGF is 1/P(x), P(x) = sum_j coef_j x^j with coef_0 = 1 and
    coef_j >= 0:
    (1/pi) int_0^Theta 1/P(scale*g/sin^2 theta) dtheta.  P is evaluated as
    P(x)/(1+x)^d in the basis x^j/(1+x)^d, whose entries lie in [0, 1], so
    no power of x overflows at any SNR, and an x that overflows to inf is
    the limit x^d/(1+x)^d = 1 of the last column; the floor on the j = 0
    column keeps that sum positive where every basis entry underflows."""
    s2, w = _sin2_rule(psk.theta_max)
    with np.errstate(over="ignore"):
        x = scale * psk.g / s2
    d = coef.shape[0] - 1
    j = np.arange(d + 1)[:, None]
    ratio = np.divide(x, 1.0 + x, out=np.ones_like(x), where=x < math.inf)
    basis = ratio ** j * (1.0 / (1.0 + x)) ** (d - j)
    num = w * basis[0] / math.pi
    basis[0] = np.maximum(basis[0], np.finfo(float).tiny)
    den = basis.T @ coef
    return num @ np.reciprocal(den, out=den)


def _sep_from_mgf(mgf, psk: PskConstellation, snr: float, n_t: int, rate,
                  n_s: int = 1) -> float:
    """The angular average shared by every closed form: (1/pi) int_0^Theta
    mgf(xi) dtheta at xi = g*snr/(n_s*n_t*rate*sin^2 theta); n_s = 1 drops
    the double-scattering normalization.  An snr that is not positive and
    finite raises ValueError; an xi that overflows, or a result outside
    [0, (M-1)/M], NumericFailure."""
    if not 0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    sin2, w = _sin2_rule(psk.theta_max)
    s2 = n_s * n_t * float(rate) * sin2
    g = psk.g
    # the largest xi in Python floats, which overflow to inf without a warning
    if g * float(snr) / float(s2.min()) == math.inf:
        raise NumericFailure(f"angular argument overflows at snr {snr!r}")
    sep = float(np.asarray(mgf(g * snr / s2)) @ w) / math.pi
    if not 0.0 <= sep <= psk.sep_ceiling:
        raise NumericFailure(f"closed-form SEP {sep!r} outside [0, {psk.sep_ceiling!r}]")
    return sep


def sep_mpsk_doubly_correlated(scn: Scenario, psk: PskConstellation, snr: float) -> float:
    """SEP over the Kronecker row (`_kron_args`): one m x m determinant in
    orthonormal polynomial bases of Gamma measures weighted by a product over
    the far side's eigenvalues, so n in the thousands loses no digits."""
    m, n, sigma, far = _applicable(_kron_args, scn)
    return _sep_from_mgf(lambda xi: expected_inv_det_kron(m, n, sigma, far, xi),
                         psk, snr, scn.n_t, scn.rate, scn.n_s)


def sep_mpsk_miso(scn: Scenario, psk: PskConstellation, snr: float) -> float:
    """SEP over the MISO row (`_miso_args`): the expectation, over the smaller
    remaining side's weighted sum of exponentials (a nonnegative matrix-
    exponential density, exact for any eigenvalue pattern), of a product over
    the larger side's eigenvalues, so the larger side may have any dimension."""
    sigma, psi = _applicable(_miso_args, scn)
    return _sep_from_mgf(lambda xi: expected_inv_det_miso(sigma, psi, xi),
                         psk, snr, scn.n_t, scn.rate, scn.n_s)


def sep_mpsk_no_double_scattering(scn: Scenario, psk: PskConstellation, snr: float) -> float:
    """SEP in the rich-scattering limit (single Gaussian factor): the MGF is
    prod_{i,j} (1 + g*gbar*lt_i*lr_j/(n_t*rate*sin^2))^(-1) over transmit and
    receive eigenvalues.  With identity correlations this is the i.i.d.
    Rayleigh reference curve."""
    return _sep_from_mgf(_rich_kernel(scn.phi_t.spectrum, scn.phi_r.spectrum),
                         psk, snr, scn.n_t, scn.rate)


@lru_cache(maxsize=_CACHE_SIDES)
def _rich_kernel(t_spec, r_spec):
    """The rich-scattering MGF over the products of the transmit and receive
    eigenvalues, made once per side pair."""
    pairs = np.multiply.outer(t_spec.expand(), r_spec.expand()).ravel()

    def kernel(c):
        # a product past the float range is a factor below 1/DBL_MAX: the MGF
        # is then 0, as exp(-inf) gives
        with np.errstate(over="ignore"):
            return np.exp(-np.log1p(np.multiply.outer(c, pairs)).sum(axis=1))

    return kernel


def sep_mpsk_iid_rayleigh(n_t: int, n_r: int, rate, psk: PskConstellation,
                          snr: float) -> float:
    """i.i.d. Rayleigh reference: (1/pi) int (1 + g*gbar/(n_t*rate*sin^2))^(-n_t*n_r)."""
    return _sep_from_mgf(lambda c: (1.0 + c) ** (-n_t * n_r), psk, snr, n_t, rate)


def _kron_args(scn: Scenario):
    """(m, n, Sigma, A) of `expected_inv_det_kron` from the first hop (t,s),
    (s,t), (r,s), (s,r) whose larger side is uncorrelated, or None: hop (x, y)
    with n_x <= n_y and phi_y = I leaves an n_x x n_x Wishart factor with n_y
    degrees and covariance phi_x, and its far side is A (by ||H|| = ||H^T||)."""
    t, s, r = (scn.n_t, scn.phi_t), (scn.n_s, scn.phi_s), (scn.n_r, scn.phi_r)
    for (m, sigma), (n, larger), (_, far) in ((t, s, r), (s, t, r), (r, s, t), (s, r, t)):
        if m <= n and larger.is_identity:
            return m, n, sigma.spectrum, far.spectrum
    return None


def _miso_args(scn: Scenario):
    """The two spectra of `expected_inv_det_miso` when n_r, n_t or n_s is 1
    (the first in that order), or None: ||H||_F^2 is then the product of
    independent quadratic forms in the other two sides."""
    s, t, r = scn.phi_s.spectrum, scn.phi_t.spectrum, scn.phi_r.spectrum
    for n, pair in ((scn.n_r, (s, t)), (scn.n_t, (s, r)), (scn.n_s, (t, r))):
        if n == 1:
            return pair
    return None


def _applicable(row, scn: Scenario):
    """row(scn), or UnsupportedScenarioError where that is None."""
    found = row(scn)
    if found is None:
        raise UnsupportedScenarioError("no closed form: needs rich scattering, n_r, n_t "
                                       "or n_s = 1, or a hop with an uncorrelated larger side")
    return found


def _closed_form_family(scn: Scenario):
    """The family function of the first row covering scn, or None.  Unless all
    sides are I, MISO goes before Kronecker: the MISO density adds only
    nonnegative terms, while the Kronecker determinant still loses digits to a
    tight cluster of Sigma eigenvalues above the smallest one (and raises
    when it loses too many).  A wrapper on a family's module attribute is
    called."""
    if scn.no_double_scattering:
        return sep_mpsk_no_double_scattering
    uncorrelated = scn.phi_t.is_identity and scn.phi_s.is_identity and scn.phi_r.is_identity
    if not uncorrelated and _miso_args(scn) is not None:
        return sep_mpsk_miso
    if _kron_args(scn) is not None:
        return sep_mpsk_doubly_correlated
    return None


def sep_mpsk(scn: Scenario, psk: PskConstellation, snr: float) -> float:
    """Closed-form SEP dispatcher: the first applicable row's formula.
    Raises UnsupportedScenarioError when no closed form exists and
    NumericFailure when the formula's value leaves [0, (M-1)/M] or its
    kernel lost its accuracy."""
    return _applicable(_closed_form_family, scn)(scn, psk, snr)


def has_closed_form(scn: Scenario) -> bool:
    return _closed_form_family(scn) is not None
