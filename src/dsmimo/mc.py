"""Monte Carlo verification engine.

Estimators are semi-analytic where possible: each trial draws a channel and
accumulates an exactly computed conditional quantity (the conditional M-PSK
SEP integral, the instantaneous capacity), which collapses the variance by
orders of magnitude relative to symbol-level simulation and makes tight
3-sigma cross-checks against the closed forms affordable.  Each reads H only
through ||H||_F^2 or det(I + c H H^H), so it takes the unrotated draw in the
sides' eigenbases (matstat.channel_slices).

With uncorrelated scatterers and n_s > m = min(n_t, n_r), mc_kurtosis_eff,
and mc_sep while m <= CONDITIONED_SEP_MAX_M, condition on less:
D = (sqrt(rho) o G) B / sqrt(n_s) with G i.i.d. and B the m x m Bartlett
factor (matstat.bartlett_factor_slices), so a trial draws B alone and
integrates G exactly.  With W = B^H B and (rho_k, mu_k) the distinct
eigenvalues of the unreduced end side Phi, a SEP trial is
(1/pi) int prod_k det(I + x rho_k W/n_s)^(-mu_k) dtheta at
x = snr g/(n_t rate sin^2 theta), and a kurtosis trial adds the exact
E[||H||^2 | B] and E[||H||^4 | B].  That SEP grows like det(W)^(-n) as W
nears singular (n the unreduced side's dimension), so mc_sep draws every
8th trial's diagonal from the tilted Gamma(n_s - i - n) and weights each
trial by its likelihood ratio (matstat.bartlett_factor_slices); without
it the per-trial values are heavy-tailed at high SNR and the batch-means
error understates the spread between seeds.  mc_capacity, and every other
scenario, keep the full draw.

Reproducibility contract: estimates depend only on (trials, seed).  Trials
are processed in fixed-size blocks of 2^16; block b draws from the SFC64
child stream SeedSequence(seed, spawn_key=(b,)).  A block is drawn in slices
of 4096 trials (matstat.SLICE); each slice takes its normals from one
standard_normal call, each factor in C order over (trial, row, column) with
every complex entry stored as its (real, imaginary) pair: the H1 block, then
the H2 block (G alone without double scattering).  With uncorrelated
scatterers and n_s > m the slice is drawn in reduced form,
D = (sqrt(r) o G)(R_b o sqrt(t)^T)/sqrt(n_s): the call holds G (n_r x n_t,
or n_t x n_r for the transposed D when n_r < n_t), then the strict upper
triangle of the m x m Bartlett factor R_b, and one standard_gamma call
follows with the (trial, i) diagonal, R_ii^2 ~ Gamma(n_s - i).  A trial then
costs 2 n_r n_t + m(m-1) normals and m gammas whatever n_s is; a conditioned
slice drops G from the call, m(m-1) normals and m gammas a trial, mc_sep's
gamma call taking the tilted shapes on trials whose index in the block is a
multiple of 8.  Blocks run concurrently on up to os.cpu_count() threads, and
their sums are reduced in block order, so results are bit-identical for any
worker count.  Standard errors come from 32 batch means over the trial
index, which stays honest for the ratio estimators (kurtosis) as well as
plain means.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .matstat import Scenario, bartlett_factor_slices, bartlett_sides, channel_slices
from .sep import (PskConstellation, conditional_sep_mpsk, conditional_sep_polynomial,
                  ostbc_snr_scale)

BLOCK_SIZE = 1 << 16
N_BATCHES = 32
#: mc_sep conditions on the Bartlett factor only up to this m: its Laplace
#: tables hold Catalan(m + 1) minors, and at m = 5 a 4096-trial slice
#: already takes as long as the full draw and twice its memory.
CONDITIONED_SEP_MAX_M = 4


def substream(seed: int, index: int) -> np.random.Generator:
    """Child stream `index`, numpy's construction for independent streams:
    SFC64 seeded by SeedSequence(seed mod 2^64, spawn_key=(index,))."""
    seq = np.random.SeedSequence(seed % 2**64, spawn_key=(index,))
    return np.random.Generator(np.random.SFC64(seq))


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    trials: int
    flag: str | None = None


class KurtosisEff(NamedTuple):
    kurtosis: Estimate
    eff_db: Estimate


def _accumulate(cfg: MonteCarloConfig, per_trial) -> np.ndarray:
    """The moment table of per_trial(rng, count), a pair (x, y) of arrays of
    `count` per-trial values, over the block schedule: a 3 x N_BATCHES array
    whose rows hold each batch's trial count, sum of x and sum of y."""
    trials = cfg.trials

    def block_table(block: int):
        start = block * BLOCK_SIZE
        cnt = min(BLOCK_SIZE, trials - start)
        x, y = per_trial(substream(cfg.seed, block), cnt)
        batch = (start + np.arange(cnt, dtype=np.int64)) * N_BATCHES // trials
        return np.array([np.bincount(batch, weights=w, minlength=N_BATCHES)
                         for w in (None, x, y)])

    blocks = -(-trials // BLOCK_SIZE)
    workers = min(blocks, os.cpu_count() or 1)
    if workers == 1:
        # Inline, with no thread: a pool thread gets its own malloc arena,
        # which raised the peak RSS of single-block CLI runs by about 12 MB.
        parts = map(block_table, range(blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(block_table, range(blocks)))
    table = np.zeros((3, N_BATCHES))
    for part in parts:  # block order, whatever finished first
        table += part
    return table


def _mean_estimate(cfg: MonteCarloConfig, per_trial) -> Estimate:
    """Mean and batch-means standard error of a per-trial scalar; falls back
    to the per-trial variance when there are too few trials for 32 batches."""

    def with_square(rng, n):
        v = per_trial(rng, n)
        return v, v * v

    counts, s1, s2 = _accumulate(cfg, with_square)
    n = cfg.trials
    mean = s1.sum() / n
    if np.all(counts > 1):
        se = float((s1 / counts).std(ddof=1) / math.sqrt(N_BATCHES))
    else:
        var = max(s2.sum() / n - mean**2, 0.0)
        se = math.sqrt(var / n)
    return Estimate(float(mean), se, n)


def _frob_sq_samples(scn: Scenario, rng: np.random.Generator, count: int) -> np.ndarray:
    """Per-trial ||H||_F^2 draws.

    Without double scattering ||H||_F^2 is a weighted sum of exponentials
    over transmit/receive eigenvalue pairs; otherwise it is ||D||_F^2 of the
    channel drawn in the sides' eigenbases (matstat.channel_slices), whose
    draw with uncorrelated scatterers holds no n_s-sized factor.
    """
    if scn.no_double_scattering:
        pairs = np.multiply.outer(scn.phi_t.spectrum.expand(),
                                  scn.phi_r.spectrum.expand()).ravel()
        return rng.standard_exponential((count, pairs.size)) @ pairs
    return _per_channel(scn, rng, count, lambda d: np.einsum(
        "bij,bij->b", d.view(float), d.view(float)))


def _per_channel(scn: Scenario, rng: np.random.Generator, count: int, fn) -> np.ndarray:
    """fn(D) over `count` draws of the channel in the sides' eigenbases
    (matstat.channel_slices), one slice at a time."""
    out = np.empty(count)
    for lo, d in channel_slices(scn, rng, count):
        out[lo:lo + len(d)] = fn(d)
    return out


def _log2_det_eye_plus(c: float, h: np.ndarray) -> np.ndarray:
    """log2 det(I + c H H^H) for a stack of channels: 2 sum_i log2 |R_ii|, R
    the QR factor of [I; sqrt(c) T], T the taller of H and H^H.  The Gram
    matrix is never formed, whose round-off times c would show in the unit
    eigenvalues of a channel of rank below min(n_r, n_t)."""
    t = h if h.shape[1] > h.shape[2] else h.conj().transpose(0, 2, 1)
    k = t.shape[2]
    eye = np.broadcast_to(np.eye(k), (len(t), k, k))
    r = np.linalg.qr(np.concatenate([eye, math.sqrt(c) * t], axis=1), mode="r")
    return 2.0 * np.log2(np.abs(np.diagonal(r, axis1=1, axis2=2))).sum(axis=1)


@cache
def _minor_expansions(m: int):
    """Laplace tables of the structurally nonzero minors of an m x m upper-
    triangular matrix, those on rows S and columns T (sorted) with S <= T
    elementwise: for each j = 2..m-1 the expansion of the j x j minors along
    their last row s, one (sign, minors, entries, subs) group per column
    position k, each term the entry (s, t_k) (flat index s*m + t_k) times
    the (j-1) x (j-1) minor `subs` without row s and column t_k; a 1 x 1
    minor is indexed by its flat entry.  The group k = j-1 (sign +1, minors
    None) holds a term of every minor; the others only the nonzero terms."""
    index = {((s,), (t,)): s * m + t for s in range(m) for t in range(s, m)}
    levels = []
    for j in range(2, m):
        pairs = [(rows, cols) for rows in combinations(range(m), j)
                 for cols in combinations(range(m), j)
                 if all(r <= c for r, c in zip(rows, cols))]
        groups = []
        for k in reversed(range(j)):
            terms = [(i, rows[-1] * m + cols[k], index[key])
                     for i, (rows, cols) in enumerate(pairs)
                     if (key := (rows[:-1], cols[:k] + cols[k + 1:])) in index
                     and cols[k] >= rows[-1]]
            if terms:
                i, entries, subs = (np.array(c) for c in zip(*terms))
                groups.append((1 - 2 * ((j - 1 + k) % 2), None if k == j - 1 else i,
                               entries, subs))
        levels.append(groups)
        index = {pair: i for i, pair in enumerate(pairs)}
    return levels


def _abs2_sum(subscripts: str, z: np.ndarray) -> np.ndarray:
    """The sum of |z|^2 that np.einsum(subscripts, z, z) takes."""
    return np.einsum(subscripts, z.real, z.real) + np.einsum(subscripts, z.imag, z.imag)


def _det_coefficients(b: np.ndarray) -> np.ndarray:
    """(m+1, count) coefficients e_0..e_m of det(I + y B^H B) = sum_j e_j y^j
    for a stack of `count` upper-triangular m x m B, with no eigensolve: by
    Cauchy-Binet e_j is the sum of |minor|^2 over the nonzero j x j minors
    of B, each built from the (j-1) x (j-1) ones (_minor_expansions), and
    e_m = prod |B_ii|^2.  Every e_j is a sum of nonnegative terms."""
    n, m, _ = b.shape
    e = np.empty((m + 1, n))
    e[0] = 1.0
    if m > 1:
        minors = flat = b.reshape(n, m * m)
        e[1] = _abs2_sum("nk,nk->n", flat)  # the zeros below the diagonal add nothing
        for j, groups in enumerate(_minor_expansions(m), start=2):
            prev = minors
            for sign, rows, entries, subs in groups:
                terms = np.take(flat, entries, axis=1)
                terms *= np.take(prev, subs, axis=1)
                if rows is None:
                    minors = terms
                elif sign > 0:
                    minors[:, rows] += terms
                else:
                    minors[:, rows] -= terms
            e[j] = _abs2_sum("nk,nk->n", minors)
    diag = np.diagonal(b, axis1=1, axis2=2)
    e[m] = np.prod(diag.real ** 2 + diag.imag ** 2, axis=1)
    return e


def _fold(e: np.ndarray, factors) -> np.ndarray:
    """Coefficients in x, (degree+1, count), of prod_k (sum_j e_j (a_k x)^j)^mu_k
    for each column of e, (a_k, mu_k) in factors: a product of polynomials
    with nonnegative coefficients, so no term cancels."""
    width, n = e.shape
    powers = np.arange(width)[:, None]
    out = None
    for a, mu in factors:
        p = e * a ** powers
        for _ in range(mu):
            if out is None:
                out = p
                continue
            nxt = np.zeros((len(out) + width - 1, n))
            for j in range(width):
                nxt[j:j + len(out)] += p[j] * out
            out = nxt
    return out


def _bartlett_sep(scn: Scenario, psk: PskConstellation, scale: float):
    """per_trial for mc_sep with the reduced draw (matstat.bartlett_sides):
    with D = (sqrt(rho) o G) B / sqrt(n_s) and G i.i.d., the SNR MGF given B
    is prod_k det(I + x rho_k W/n_s)^(-mu_k), W = B^H B and (rho_k, mu_k)
    the distinct eigenvalues of the unreduced side, so each trial's value is
    the SEP integral of that product (sep.conditional_sep_polynomial),
    times the trial's weight under the draw tilted by that side's
    dimension, the power of det(W) the SEP falls with at high SNR."""
    big = bartlett_sides(scn)[0]
    factors = [(rho / scn.n_s, mu) for rho, mu in big.spectrum.distinct]

    def per_trial(rng, n):
        out = np.empty(n)
        for lo, b, w in bartlett_factor_slices(scn, rng, n, tilt=big.dim):
            coef, hi = _fold(_det_coefficients(b), factors), lo + len(b)
            del b  # freed before the (theta nodes x trials) denominator
            out[lo:hi] = w * conditional_sep_polynomial(coef, psk, scale)
        return out

    return per_trial


def mc_sep(scn: Scenario, psk: PskConstellation, snr: float,
           cfg: MonteCarloConfig) -> Estimate:
    """Semi-analytic SEP estimate: average over channel draws of the exact
    conditional M-PSK SEP at gamma = snr*||H||_F^2/(n_t*rate); with the
    reduced draw, of the exact SEP given the Bartlett factor alone."""
    if not 0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    scale = snr * ostbc_snr_scale(scn)
    sides = bartlett_sides(scn)
    if sides is not None and sides[1].dim <= CONDITIONED_SEP_MAX_M:
        return _mean_estimate(cfg, _bartlett_sep(scn, psk, scale))

    def per_trial(rng, n):
        return conditional_sep_mpsk(scale * _frob_sq_samples(scn, rng, n), psk)

    return _mean_estimate(cfg, per_trial)


def _gram_traces(b: np.ndarray):
    """(tr W, tr W^2) of W = B^H B for a stack of upper-triangular m x m B:
    tr W = ||B||_F^2 and tr W^2 = ||W||_F^2, W's row i taken from its upper
    part W_ij = sum_{k <= i} conj(B_ki) B_kj (j >= i), trials last."""
    bt = b.transpose(1, 2, 0).copy()
    tr_w2 = np.zeros(len(b))
    for i in range(b.shape[1]):
        row = np.einsum("kn,kjn->jn", bt[:i + 1, i].conj(), bt[:i + 1, i:])
        tr_w2 += 2.0 * _abs2_sum("jn,jn->n", row) - _abs2_sum("n,n->n", row[0])
    return _abs2_sum("ijn,ijn->n", bt), tr_w2


def _frob_moments(scn: Scenario, rng: np.random.Generator, count: int):
    """Per-trial (X, X^2) of X = ||H||_F^2, or with the reduced draw their
    exact means given the Bartlett factor B: with W = B^H B and Phi the
    unreduced side, E[X|B] = tr Phi tr W/n_s and
    E[X^2|B] = ((tr Phi)^2 (tr W)^2 + tr Phi^2 tr W^2)/n_s^2
    (_gram_traces)."""
    sides = bartlett_sides(scn)
    if sides is None:
        x = _frob_sq_samples(scn, rng, count)
        return x, x * x
    phi = sides[0].spectrum
    t1, t2 = phi.trace_power(1) / scn.n_s, phi.trace_power(2) / scn.n_s**2
    m1, m2 = np.empty(count), np.empty(count)
    for lo, b, _ in bartlett_factor_slices(scn, rng, count):
        tr_w, tr_w2 = _gram_traces(b)
        m1[lo:lo + len(b)] = t1 * tr_w
        m2[lo:lo + len(b)] = (t1 * tr_w) ** 2 + t2 * tr_w2
    return m1, m2


def mc_kurtosis_eff(scn: Scenario, cfg: MonteCarloConfig) -> KurtosisEff:
    """Raw-moment kurtosis of ||H||_F and the fading figure 10log10(k-1).

    The raw-moment form E[X^2]/E[X]^2 with X = ||H||_F^2 avoids the
    catastrophic cancellation of the central form.  When the estimate is
    within one standard error of 1, the dB figure has no meaning and is
    returned as NaN with a flag.
    """
    if cfg.trials < 10_000:
        raise ValueError("kurtosis estimation needs at least 1e4 trials")
    counts, s1, s2 = _accumulate(cfg, partial(_frob_moments, scn))
    n = cfg.trials
    m1, m2 = s1.sum() / n, s2.sum() / n
    kappa = float(m2 / m1**2)
    bk = (s2 / counts) / (s1 / counts) ** 2
    se_k = float(bk.std(ddof=1) / math.sqrt(N_BATCHES))
    kurt = Estimate(kappa, se_k, n)

    if kappa <= 1.0 + se_k:
        eff = Estimate(float("nan"), float("nan"), n,
                       flag="kurtosis <= 1 within noise; EFF undefined in dB")
    else:
        eff_val = 10.0 * math.log10(kappa - 1.0)
        # delta method: d(eff)/d(kappa) = 10/(ln10 (kappa-1))
        se_eff = se_k * 10.0 / (math.log(10.0) * (kappa - 1.0))
        eff = Estimate(eff_val, se_eff, n)
    return KurtosisEff(kurt, eff)


def mc_capacity(scn: Scenario, snr: float, mode: str,
                cfg: MonteCarloConfig) -> Estimate:
    """Ergodic capacity estimate in bits/s/Hz.

    mode "general": E log2 det(I + (snr/n_t) H H^H);
    mode "ostbc":   rate * E log2(1 + snr*||H||_F^2/(n_t*rate)).
    """
    if not 0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    if mode == "ostbc":
        scale = snr * ostbc_snr_scale(scn)
        rate = float(scn.rate)

        def per_trial(rng, n):
            return rate * np.log2(1.0 + scale * _frob_sq_samples(scn, rng, n))

    elif mode == "general":
        c = snr / scn.n_t

        def per_trial(rng, n):
            return _per_channel(scn, rng, n, lambda h: _log2_det_eye_plus(c, h))

    else:
        raise ValueError(f"unknown capacity mode {mode!r}")
    return _mean_estimate(cfg, per_trial)


def fit_diversity_slope(curve) -> float:
    """Diversity order from a SEP curve: the negated least-squares slope of
    log10(SEP) against snr_db/10 over the top decade of the curve."""
    pts = sorted((float(s), float(p)) for s, p in curve)
    if len(pts) < 4:
        raise ValueError("need at least 4 curve points")
    top = pts[-1][0]
    if top - pts[0][0] < 10.0 - 1e-9:
        raise ValueError("curve must span at least 10 dB")
    window = [(s, p) for s, p in pts if s >= top - 10.0 - 1e-9]
    if any(p <= 0.0 for _, p in window):
        raise ValueError("SEP values in the fit window must be positive")
    x = np.array([s / 10.0 for s, _ in window])
    y = np.log10([p for _, p in window])
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(-coef[1])
