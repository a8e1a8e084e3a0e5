"""Gaussian/double-scattering channel sampling and closed-form trace moments.

Conventions: a circular complex Gaussian entry has i.i.d. real and
imaginary parts of variance 1/2, so E|g|^2 = 1 and channel entries are
unit power.  A matrix-variate Gaussian X with row covariance S and column
covariance P is S^(1/2) G P^(1/2) in law, G i.i.d. standard; it is drawn
in the eigenbases of S and P (_product_slice).

The moment/cumulant evaluators consume spectra rather than matrices: the
quantities depend on the eigenvalues only, and callers often have exact
spectra available.  Matrix inputs go through corrmat.spectrum_of first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .codes import OstbcCode
from .corrmat import CorrelationMatrix, Spectrum, correlation_figure, identity_corr


@dataclass(frozen=True, eq=False)
class Scenario:
    """One double-scattering environment: dimensions, correlations, code.

    `no_double_scattering` marks the scatterer-free limit (rich scattering,
    n_s -> infinity): the channel is a single correlated Gaussian matrix and
    every scatterer correlation-figure term is zero.  n_s/phi_s are ignored
    in that mode.
    """

    n_t: int
    n_s: int
    n_r: int
    phi_t: CorrelationMatrix
    phi_s: CorrelationMatrix
    phi_r: CorrelationMatrix
    code: OstbcCode | None = None
    no_double_scattering: bool = False

    def __post_init__(self):
        if min(self.n_t, self.n_s, self.n_r) < 1:
            raise ValueError("antenna/scatterer counts must be positive")
        if self.phi_t.dim != self.n_t or self.phi_r.dim != self.n_r:
            raise ValueError("correlation matrix dimensions must match the scenario")
        if not self.no_double_scattering and self.phi_s.dim != self.n_s:
            raise ValueError("correlation matrix dimensions must match the scenario")
        if self.code is not None and self.code.n_t != self.n_t:
            raise ValueError(
                f"code {self.code.name!r} is for {self.code.n_t} antennas, scenario has {self.n_t}"
            )
        object.__setattr__(self, "code", self.code or OstbcCode.rate_only(self.n_t))

    @classmethod
    def uncorrelated(cls, n_t: int, n_s: int, n_r: int, code: OstbcCode | None = None,
                     no_double_scattering: bool = False) -> "Scenario":
        return cls(n_t, n_s, n_r, identity_corr(n_t), identity_corr(n_s),
                   identity_corr(n_r), code, no_double_scattering)

    @property
    def rate(self):
        return self.code.rate

    def zetas(self) -> tuple[float, float, float]:
        """Correlation figures (zeta_T, zeta_S, zeta_R); zeta_S = 0 without
        double scattering."""
        zt = correlation_figure(self.phi_t)
        zr = correlation_figure(self.phi_r)
        zs = 0.0 if self.no_double_scattering else correlation_figure(self.phi_s)
        return zt, zs, zr


#: Trials per slice of a batched draw (sample_channel, and every Monte Carlo
#: block in mc._accumulate): one slice's temporaries (a few hundred kB for
#: 4x10x4) stay in cache.
SLICE = 4096
#: Most doubles one standard_normal call of _product_slice draws (32 MiB)
DRAW_DOUBLES = 1 << 22


def _std_complex(rng: np.random.Generator, count: int, scales) -> list[np.ndarray]:
    """`count` draws of each complex factor from one standard_normal call (two
    calls would grow the allocator's heap, and the peak RSS): the first
    factor's block, then the next, each in C order over (trial, row, column)
    with every entry stored as its (real, imaginary) pair; a factor's scale
    holds the standard deviation of each of those reals."""
    sizes = [count * f.size for f in scales]
    parts = np.split(rng.standard_normal(sum(sizes)), np.cumsum(sizes)[:-1])
    out = [z.reshape(count, *f.shape) for z, f in zip(parts, scales)]
    for z, f in zip(out, scales):
        z *= f
    return [z.view(complex) for z in out]


def reduced_sides(scn: Scenario):
    """(big, small) when channel_slice draws the reduced form, None
    otherwise: with phi_s = I and n_s > m = min(n_t, n_r), `small` is the
    m-dimensional end side folded into the bidiagonal factor
    (bidiagonal_slice; phi_t, or phi_r when n_r < n_t) and `big` the other
    end side, the one the reduction leaves unreduced."""
    if (scn.no_double_scattering or not scn.phi_s.is_identity
            or scn.n_s <= min(scn.n_t, scn.n_r)):
        return None
    return (scn.phi_t, scn.phi_r) if scn.n_r < scn.n_t else (scn.phi_r, scn.phi_t)


class SlicePlan:
    """The per-scenario set-up of a Monte Carlo call's slices
    (channel_slice, bidiagonal_slice, mc._frob_sq): the reduced draw's
    scale, Gamma shapes, spike and tilt constants, and without double
    scattering the eigenvalue products.  The call makes one and
    passes it in place of its Scenario, so every slice reuses it; it is
    dropped with the call.  tilt is bidiagonal_slice's; channel_slice takes
    an untilted plan.  _product_slice still makes its scales per slice:
    held across slices, they made a 4096-trial draw of 4x10x4 with
    exponential sides about 15% slower on a 2-core Xeon, in user time, with
    no more page faults."""

    def __init__(self, scn: Scenario, tilt: int = 0):
        self.scn, self.tilt = scn, tilt
        if scn.no_double_scattering:
            # ||H||_F^2's exponential weights (mc._frob_sq)
            self.pairs = np.multiply.outer(scn.phi_t.spectrum.expand(),
                                           scn.phi_r.spectrum.expand()).ravel()
        self.sides = reduced_sides(scn)
        if self.sides is None:
            return
        big, small = self.sides
        self.g_scale = np.outer(np.sqrt(0.5 / scn.n_s * big.spectrum.expand()),
                                np.ones(2 * small.dim))
        m = self.m = small.dim
        spike = _spike(small.spectrum)
        shapes = np.concatenate([scn.n_s - np.arange(m), m - 1 - np.arange(m - 1) if spike else []])
        tilted = np.concatenate([np.maximum(shapes[:m] - tilt, 0.5), shapes[m:]])
        # the trials of a SLICE-trial slice that take the tilted shapes
        self.hit = np.arange(SLICE) % TILT_EVERY == 0
        self.shapes, self.tilted = shapes, tilted
        # p_tilt/p = prod_i Gamma(s_i)/Gamma(t_i) g_i^(t_i - s_i), s_i the untilted shape
        self.log_ratio = sum(math.lgamma(a) - math.lgamma(t) for a, t in zip(shapes, tilted))
        self.dshape = tilted - shapes
        self.chain = spike is None
        if self.chain:
            self.c = small.spectrum.expand()
        else:
            self.spike_scale = np.array([spike[0]] + [spike[1]] * (2 * m - 2))[:, None]

    @classmethod
    def of(cls, scn, tilt: int = 0) -> "SlicePlan":
        """scn itself when it is a plan, else a new plan of it."""
        return scn if isinstance(scn, SlicePlan) else cls(scn, tilt)


def channel_slice(scn: Scenario, rng: np.random.Generator, b: int) -> np.ndarray:
    """One slice of b channels D, unrotated, with the law of ||H||_F and of
    the eigenvalues of H H^H, all that the estimators read: _product_slice,
    or with phi_s = I and n_s > m = min(n_t, n_r) the reduced form
    D = (sqrt(big) o G) B / sqrt(n_s), (b, big.dim, m), (big, small) =
    reduced_sides(scn).  One standard_normal call draws G i.i.d. CN(0, 1)
    in _std_complex's layout, then bidiagonal_slice's untilted draw gives
    B.  Write the factor next to small, H2 sqrt(t)^T (or H1^T sqrt(r)^T,
    D^T then the product), as Q B V^H (Golub-Kahan): the other factor times
    Q is i.i.d. and independent of B, and neither V nor a transpose changes
    ||D||_F or the eigenvalues of D D^H.  B is never formed: column j of D
    is G's column j times d_j plus its column j - 1 times f_(j-1).  scn may
    be an untilted SlicePlan of the scenario."""
    plan = SlicePlan.of(scn)
    if plan.sides is None:
        return _product_slice(plan.scn, rng, b)
    g, = _std_complex(rng, b, [plan.g_scale])
    d2, f2, _ = bidiagonal_slice(plan, rng, b)
    d = g * np.sqrt(d2).T[:, None]
    d[:, :, 1:] += g[:, :, :-1] * np.sqrt(f2).T[:, None]
    return d


def _product_slice(scn: Scenario, rng: np.random.Generator, b: int) -> np.ndarray:
    """One slice of b channels in the sides' eigenbases, (b, n_r, n_t).  With
    r, s, t the expanded spectra of phi_r, phi_s, phi_t, a slice draws
    D = (sqrt(r) o H1)(sqrt(s) sqrt(t)^T o H2)/sqrt(n_s), H1 then H2, or
    D = sqrt(r) sqrt(t)^T o G without double scattering.  Gaussian factors
    are invariant under unitary rotation, so H has the law of U_r D U_t^H
    (sample_channel).  Consecutive chunks of the slice's trials draw in turn,
    each its H1 block, then its H2 block, so no call draws more than
    DRAW_DOUBLES (a slice within it draws in one call)."""
    r = np.sqrt(0.5 * scn.phi_r.spectrum.expand())
    t = np.sqrt(scn.phi_t.spectrum.expand())
    scales = ([np.outer(r, t)] if scn.no_double_scattering else
              [np.outer(r / math.sqrt(scn.n_s), np.ones(scn.n_s)),
               np.outer(np.sqrt(0.5 * scn.phi_s.spectrum.expand()), t)])
    scales = [np.repeat(f, 2, axis=1) for f in scales]  # as complex entries are stored
    step = max(1, DRAW_DOUBLES // sum(f.size for f in scales))
    parts = [reduce(np.matmul, _std_complex(rng, min(step, b - lo), scales))
             for lo in range(0, b, step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


#: With a tilted bidiagonal draw, every TILT_EVERY-th trial of a slice takes
#: the tilted diagonal (bidiagonal_slice).  SLICE is a multiple of it, so these
#: are every TILT_EVERY-th trial of a block too.
TILT_EVERY = 8
if SLICE % TILT_EVERY:
    raise ImportError("SLICE must be a multiple of TILT_EVERY")


def _spike(spectrum: Spectrum):
    """(l, c) when at most one eigenvalue l of the spectrum differs from a
    repeated value c (identity and constant models, and any m <= 2), else
    None."""
    values, mults = spectrum.values, spectrum.mults
    if len(values) == 1:
        return values[0], values[0]
    if len(values) == 2 and 1 in mults:
        i = mults.index(1)
        return values[i], values[1 - i]
    return None


def _reflector(x: np.ndarray):
    """(v, tau) of the Householder reflection I - tau v v^H that maps each
    column of x (trial-last, nonzero) onto a multiple of e_1."""
    norm = np.linalg.norm(x, axis=0)
    v = x.copy()
    v[0] += np.exp(1j * np.angle(x[0])) * norm
    return v, 1.0 / (norm * (norm + np.abs(x[0])))  # tau = 2/|v|^2


def _golub_kahan(c: np.ndarray, gam: np.ndarray, z: np.ndarray):
    """(d2, f2), trial-last, of the upper-bidiagonal factor that Golub-Kahan
    bidiagonalization of Z diag(sqrt(c)) gives in law, Z n_s x m i.i.d.
    CN(0, 1), from the Gamma(n_s - k) draws gam (m, b) and the m(m-1)/2
    CN(0, 1) rows z, m - k - 1 of them at step k.  The remainder's rows are
    i.i.d. z L: a left reflection of L makes its first column alpha e_1, so
    d_k^2 = alpha^2 gam_k; the next row is r = sqrt(gam_k) L[0, 1:] +
    z_k L[1:, 1:], so f_k^2 = |r|^2, and a right reflection V mapping r
    onto e_1 leaves L[1:, 1:] V.  The alpha_k multiply to prod sqrt(c)."""
    m, b = gam.shape
    d2, f2 = np.empty((m, b)), np.empty((m - 1, b))
    ell = np.zeros((m, m, b), dtype=complex)
    ell[np.arange(m), np.arange(m)] = np.sqrt(c)[:, None]
    for k, zk in enumerate(np.split(z, np.cumsum(np.arange(m - 1, 0, -1)))[:-1]):
        if k:  # at step 0 L is diagonal, and the reflection would only flip row 0's sign
            v, tau = _reflector(ell[:, 0])
            ell -= tau * v[:, None] * np.einsum("ib,ijb->jb", v.conj(), ell)
        d2[k] = np.abs(ell[0, 0]) ** 2 * gam[k]
        r = np.sqrt(gam[k]) * ell[0, 1:] + np.einsum("ib,ijb->jb", zk, ell[1:, 1:])
        f2[k] = np.linalg.norm(r, axis=0) ** 2
        u, tau = _reflector(r.conj())
        ell = ell[1:, 1:]
        ell -= tau * np.einsum("ijb,jb->ib", ell, u)[:, None] * u.conj()
    d2[m - 1] = np.abs(ell[0, 0]) ** 2 * gam[m - 1]
    return d2, f2


def bidiagonal_slice(scn: Scenario, rng: np.random.Generator, b: int, tilt: int = 0):
    """(d2, f2, w) for one slice of b trials of an m x m upper-bidiagonal
    factor B, trials last: d2 (m, b) is its squared diagonal, f2 (m-1, b)
    its squared superdiagonal.  With (big, small) = reduced_sides(scn) and
    c small's spectrum, W = B^H B has the eigenvalue law of the Gram of
    Z diag(sqrt(c)), Z n_s x m i.i.d. CN(0, 1), so D has the law of
    (sqrt(big) o G) B / sqrt(n_s) up to unitary factors, G i.i.d.
    (channel_slice).  When small's spectrum has at most one eigenvalue l
    apart from a repeated value c (_spike), the entries are independent,
    Dumitriu and Edelman's complex bidiagonal model with one spike:
    d_1^2 = l Gamma(n_s), d_i^2 = c Gamma(n_s - i + 1) for i >= 2,
    f_i^2 = c Gamma(m - i).  Any other spectrum runs the
    Golub-Kahan chain (_golub_kahan).  A slice makes the chain's one
    standard_normal call, (entry, trial) order, then one standard_gamma call
    of the (i, trial) shapes, the diagonal's first.  Both draws take the
    diagonal shapes Gamma(n_s - i), i = 0..m-1, so det W = prod d2.  With
    tilt = 0, w is None (every weight 1).  With tilt = k > 0, trials whose
    index in the slice is a multiple of TILT_EVERY draw the diagonal from
    Gamma(max(n_s - i - k, 1/2)), and w is each trial's likelihood ratio p/q
    of the untilted law p to the slice's mixture q = (1 - a) p + a p_tilt, a
    the slice's tilted share, so that E[w f(W)] = E f(W) for any f, with
    w <= 1/(1 - a): a function growing like det(W)^(-k) near singular W has
    most of its mean where the tilted law puts its mass.  scn may be a
    SlicePlan of the scenario, whose tilt then applies."""
    plan = SlicePlan.of(scn, tilt)
    m = plan.m
    if plan.chain:
        z = math.sqrt(0.5) * rng.standard_normal((m * (m - 1) // 2, 2 * b)).view(complex)
    hit = np.resize(plan.hit, b)  # a multiple of TILT_EVERY long, so it repeats whole
    gam = rng.standard_gamma(np.where(hit, plan.tilted[:, None], plan.shapes[:, None]))
    w = None
    if plan.tilt:
        ratio = np.exp(plan.log_ratio + plan.dshape @ np.log(gam))
        a = hit.mean()
        w = 1.0 / ((1.0 - a) + a * ratio)
    if plan.chain:
        return (*_golub_kahan(plan.c, gam, z), w)
    gam *= plan.spike_scale
    return gam[:m], gam[m:], w


def sample_channel(scn: Scenario, rng: np.random.Generator,
                   size: int | None = None) -> np.ndarray:
    """Draw channel matrices H of shape (n_r, n_t), batched when size is set.

    H has the law of phi_r^(1/2) H1 phi_s^(1/2) H2 phi_t^(1/2)/sqrt(n_s), H1
    (n_r x n_s) and H2 (n_s x n_t) independent standard, or of
    phi_r^(1/2) G phi_t^(1/2) without double scattering: _product_slice's D
    rotated into the antenna frame, H = U_r D U_t^H (eigh's ascending
    eigenvectors, reversed to the order of spectrum.expand()).  No reduced
    form is drawn, as only the product has H's matrix law, so a trial costs
    O(n_s) whatever phi_s is.
    """
    ur, ut = (None if p.is_identity else np.linalg.eigh(p.entries)[1][:, ::-1]
              for p in (scn.phi_r, scn.phi_t))
    one = size is None
    b = 1 if one else size
    h = np.empty((b, scn.n_r, scn.n_t), dtype=complex)
    for lo in range(0, b, SLICE):
        d = _product_slice(scn, rng, min(SLICE, b - lo))
        if ur is not None:
            d = ur @ d
        h[lo:lo + len(d)] = d if ut is None else d @ ut.conj().T
    return h[0] if one else h


def trace_quadratic_cumulant(k: int, s1: Spectrum, s2: Spectrum) -> float:
    """k-th cumulant of tr(A X B X^H): (k-1)! tr{(A Sigma)^k} tr{(Psi B)^k}.

    s1 and s2 are the spectra of A*Sigma and Psi*B respectively.
    """
    if k < 1:
        raise ValueError("cumulant order must be >= 1")
    return math.factorial(k - 1) * s1.trace_power(k) * s2.trace_power(k)


def expected_trace_square(sigma_spec: Spectrum, psi_spec: Spectrum) -> float:
    """E tr[(A X B X^H)^2] = tr^2(ASigma)tr{(PsiB)^2} + tr^2(PsiB)tr{(ASigma)^2}."""
    t1, t2 = sigma_spec.trace_power(1), sigma_spec.trace_power(2)
    u1, u2 = psi_spec.trace_power(1), psi_spec.trace_power(2)
    return t1 * t1 * u2 + u1 * u1 * t2


def double_product_moments(sigma1: Spectrum, psi1sigma2: Spectrum,
                           psi2: Spectrum) -> tuple[float, float]:
    """Fourth-order moments of W = X1 X2 X2^H X1^H for independent Gaussian
    factors X1 ~ (Sigma1, Psi1) and X2 ~ (Sigma2, Psi2).

    Arguments are the spectra of Sigma1, Psi1*Sigma2 (as one product), and
    Psi2.  Returns (E[tr^2 W], E[tr(W^2)]).
    """
    a1, a2 = sigma1.trace_power(1), sigma1.trace_power(2)
    b1, b2 = psi1sigma2.trace_power(1), psi1sigma2.trace_power(2)
    c1, c2 = psi2.trace_power(1), psi2.trace_power(2)
    tr_sq_mean = (a2 * b1 * b1 * c2 + a2 * c1 * c1 * b2
                  + a1 * a1 * b2 * c2 + a1 * a1 * b1 * b1 * c1 * c1)
    tr_of_sq = (a1 * a1 * b1 * b1 * c2 + a1 * a1 * c1 * c1 * b2
                + b2 * c2 * a2 + b1 * b1 * c1 * c1 * a2)
    return tr_sq_mean, tr_of_sq


def kurtosis_frobenius(scn: Scenario) -> float:
    """Kurtosis of ||H||_F: zt*zr + zt*zs + zr*zs + 1 in correlation figures."""
    zt, zs, zr = scn.zetas()
    return zt * zr + zt * zs + zr * zs + 1.0


def frobenius_moments(scn: Scenario) -> tuple[float, float]:
    """(E||H||_F^2, E||H||_F^4) for the scenario."""
    m2 = float(scn.n_t * scn.n_r)
    return m2, kurtosis_frobenius(scn) * m2 * m2
