"""Monte Carlo verification engine.

Estimators are semi-analytic where possible: each trial draws a channel and
accumulates an exactly computed conditional quantity (the conditional M-PSK
SEP integral, the instantaneous capacity), which collapses the variance by
orders of magnitude relative to symbol-level simulation and makes tight
3-sigma cross-checks against the closed forms affordable.  Each reads H only
through ||H||_F^2 or det(I + c H H^H), so it takes the unrotated draw in the
sides' eigenbases (matstat.channel_slice).  Each estimator builds one
matstat.SlicePlan of its scenario and branches on it; the plan alone
decides how a slice is drawn (reduced or not, spiked or chain), and the
slice functions take nothing else.

With uncorrelated scatterers and n_s > m = min(n_t, n_r), the slice is
drawn in reduced form, D = (sqrt(rho) o G) B / sqrt(n_s): G i.i.d., then B
an m x m upper-bidiagonal factor whose Gram W = B^H B has the eigenvalue
law of the Gram of the n_s x m factor it replaces (matstat.bidiagonal_slice).
mc_capacity draws both (matstat.channel_slice); mc_sep and mc_kurtosis_eff
condition on less, drawing B alone and integrating G exactly.  With
(rho_k, mu_k) the distinct eigenvalues of the unreduced end side Phi, a SEP
trial is (1/pi) int prod_k det(I + x rho_k W/n_s)^(-mu_k) dtheta at
x = snr g/(n_t rate sin^2 theta), and a kurtosis trial adds the exact
E[||H||^2 | B] and E[||H||^4 | B].  That SEP grows like det(W)^(-n) as W
nears singular (n the unreduced side's dimension, the plan's tilt), so
mc_sep alone asks for the tilted draw: every 8th trial's diagonal from
Gamma(n_s - i - n), each trial weighted by its likelihood ratio; without
it the per-trial values are heavy-tailed at high SNR and the batch-means
error understates the spread between seeds.  Every theta stage,
conditioned on B or not, takes the closed forms' folded angular rule
(sep.theta_rule).

Reproducibility contract: estimates depend only on (trials, seed).  Trials
are processed in fixed-size blocks of 2^16; block b draws from the SFC64
child stream SeedSequence(seed, spawn_key=(b,)).  One loop, _accumulate,
walks a block in slices of 4096 trials (matstat.SLICE): every draw, theta
stage and estimator takes one slice, whose batch sums join the block's table
before the next slice is drawn.  Each slice takes its normals from one
standard_normal call, each factor in C order over (trial, row, column) with
every complex entry stored as its (real, imaginary) pair: the H1 block, then
the H2 block (G alone without double scattering, where ||H||_F^2 is one
standard_exponential call of (trial, eigenvalue pair) exponentials).  A
reduced slice's call holds G alone (n_r x n_t, or n_t x n_r when n_r < n_t),
and B's draw follows, trials last: the Golub-Kahan chain's m(m-1)/2 complex
normals in one standard_normal call, then one standard_gamma call of the
(i, trial) shapes, the m diagonal ones first; a spiked smaller end side
(identity, constant, m <= 2) draws no normals and 2m - 1 gammas.  Whatever
n_s is, a capacity trial then costs 2 n_r n_t normals plus B's variates, and
a conditioned trial (mc_sep, mc_kurtosis_eff) B's alone.  mc_sep's gamma
call takes the tilted diagonal shapes on trials whose index in the slice,
and so in the block, is a multiple of 8.  Blocks run concurrently on up
to os.cpu_count() threads, and their sums are reduced in block order, so
results are bit-identical for any worker count.  Standard errors come from
32 batch means over the trial index, which stays honest for the ratio
estimators (kurtosis) as well as plain means.

mc_sep and mc_capacity take snr as a float or as a 1-D grid.  A grid is
evaluated on common draws: each slice is drawn once (with its path
polynomial, or ||H||_F^2) and only the SNR stage runs per point, each
point's values joining the block's table as they are made.  Each point
equals the float call at that SNR bit for bit, so the Monte Carlo errors
along a curve are correlated, as they always were for same-seed calls.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .matstat import SLICE, Scenario, SlicePlan, bidiagonal_slice, channel_slice
from .sep import (PskConstellation, conditional_sep_mpsk, conditional_sep_polynomial,
                  ostbc_snr_scale)

BLOCK_SIZE = 1 << 16
N_BATCHES = 32


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


def _accumulate(cfg: MonteCarloConfig, per_slice, rows: int) -> np.ndarray:
    """The moment table of per_slice(rng, b), an iterable of `rows` arrays
    of per-trial values for the next b trials of a block, over the block
    schedule: a (1 + rows) x N_BATCHES array whose first row holds
    each batch's trial count and row 1 + k each batch's sum of the k-th
    array.  This is the one walk over a block's slices of at most SLICE
    trials; the arrays are taken one at a time, each added to the block's
    table as it arrives, so a generator of many arrays (one per SNR) holds
    no more of them than one, and no block-length array is ever held."""
    trials = cfg.trials

    def block_table(block: int):
        rng = substream(cfg.seed, block)
        start = block * BLOCK_SIZE
        cnt = min(BLOCK_SIZE, trials - start)
        table = np.zeros((1 + rows, N_BATCHES))
        for lo in range(0, cnt, SLICE):
            b = min(SLICE, cnt - lo)
            batch = (start + lo + np.arange(b, dtype=np.int64)) * N_BATCHES // trials
            table[0] += np.bincount(batch, minlength=N_BATCHES)
            for row, w in zip(table[1:], per_slice(rng, b), strict=True):
                row += np.bincount(batch, weights=w, minlength=N_BATCHES)
        return table

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
    table = np.zeros((1 + rows, N_BATCHES))
    for part in parts:  # block order, whatever finished first
        table += part
    return table


def _snr_grid(snr) -> list[float]:
    """The points of snr, a float or a non-empty 1-D sequence, each checked
    positive and finite."""
    grid = np.asarray(snr, dtype=float)
    if grid.ndim > 1 or grid.size == 0:
        raise ValueError("snr must be a number or a non-empty 1-D sequence")
    if not np.all((grid > 0) & (grid < math.inf)):
        raise ValueError("snr must be positive and finite")
    return np.atleast_1d(grid).tolist()


def _mean_estimates(cfg: MonteCarloConfig, per_slice, points: int) -> list[Estimate]:
    """Mean and batch-means standard error of each of `points` per-trial
    scalars, per_slice(rng, b) yielding one array per point as in
    _accumulate; falls back to the per-trial variance when there are too few
    trials for 32 batches.  The batch means are scaled by a power of two
    near their largest before their spread is taken, so squares of means
    below about 1e-154 do not underflow; every other spread is unchanged
    bit for bit."""

    def with_squares(rng, b):
        for v in per_slice(rng, b):
            yield v
            yield v * v

    counts, *sums = _accumulate(cfg, with_squares, 2 * points)
    n = cfg.trials
    out = []
    for s1, s2 in zip(sums[0::2], sums[1::2]):
        mean = s1.sum() / n
        if np.all(counts > 1):
            means = s1 / counts
            e = int(np.frexp(np.abs(means).max())[1])
            se = math.ldexp(float(np.ldexp(means, -e).std(ddof=1)), e) / math.sqrt(N_BATCHES)
        else:
            var = max(s2.sum() / n - mean**2, 0.0)
            se = math.sqrt(var / n)
        out.append(Estimate(float(mean), se, n))
    return out


def _frob_sq(plan: SlicePlan, rng: np.random.Generator, b: int) -> np.ndarray:
    """||H||_F^2 of one slice of b trials: without double scattering a
    weighted sum of exponentials over transmit/receive eigenvalue pairs,
    otherwise ||D||_F^2 of matstat.channel_slice."""
    if plan.scn.no_double_scattering:
        return rng.standard_exponential((b, plan.pairs.size)) @ plan.pairs
    d = channel_slice(plan, rng, b).view(float)
    return np.einsum("bij,bij->b", d, d)


def _peel(x: np.ndarray, one: float) -> np.ndarray:
    """sum_j log(one + s_j) over the columns of x (column, row, trial),
    peeled in place as _log2_det_eye_plus describes: s_j = |x_j|^2, and
    every later column x_l maps to x_l - tau_j x_j (x_j^H x_l), tau_j =
    1/(r_j (r_j + sqrt(one))), r_j = sqrt(one + s_j).  one = 1 is the
    plain peel, whose terms are log1p(s_j)."""
    out = np.zeros(x.shape[-1])
    for j, xj in enumerate(x):
        s = np.einsum("nb,nb->b", xj.real, xj.real) + np.einsum("nb,nb->b", xj.imag, xj.imag)
        out += np.log1p(s) if one == 1.0 else np.log(s + one)
        r = np.sqrt(one + s)
        tau = 1.0 / (r * (r + math.sqrt(one)))
        xc = xj.conj()
        for xl in x[j + 1:]:
            xl -= tau * (xc * xl).sum(axis=0) * xj
    return out


def _log2_det_eye_plus(c: float, h: np.ndarray) -> np.ndarray:
    """log2 det(I + c H H^H) for a stack of channels, by peeling columns off
    X = sqrt(c) T, T the taller of H and H^H, held trials last.  Step j adds
    log1p(s_j), s_j = |x_j|^2, then maps every later column x_l to
    x_l - tau_j x_j (x_j^H x_l) with tau_j = 1/(r_j (r_j + 1)), r_j =
    sqrt(1 + s_j): the contraction (I + x_j x_j^H)^(-1/2) that leaves
    det(I + X^H X) = prod_j (1 + s_j).  This is Householder QR of
    [I; X] with R_jj = r_j, the identity rows keeping row j of R a unit row
    until step j.  The Gram matrix is never formed, whose round-off times c
    would show in the unit eigenvalues of a channel of rank below
    min(n_r, n_t), and log1p keeps each term's relative accuracy at low
    SNR.  A trial where c |t_j|^2 or c t_j^H t_l overflows (c near the top
    of the float range) is peeled again in log space, on the columns of T
    itself: log1p(s_j) = log c + log(|y_j|^2 + 1/c), y_j = x_j/sqrt(c), and
    tau_j c = 1/(rho_j (rho_j + 1/sqrt(c))), rho_j = r_j/sqrt(c), scales
    the update of y_l.  Trials that stay finite keep the plain peel."""
    t = h if h.shape[1] > h.shape[2] else h.conj().transpose(0, 2, 1)
    x = np.multiply(t.transpose(2, 1, 0), math.sqrt(c), out=np.empty(t.shape[::-1], complex))
    with np.errstate(over="ignore", invalid="ignore"):  # such trials are redone below
        out = _peel(x, 1.0)
    lost = ~np.isfinite(out)
    if lost.any():
        y = np.ascontiguousarray(t[lost].transpose(2, 1, 0))
        out[lost] = t.shape[2] * math.log(c) + _peel(y, 1.0 / c)
    return out / math.log(2.0)


def _log2_1p(c: float, x: np.ndarray) -> np.ndarray:
    """log2(1 + c x) for x >= 0, or log2 c + log2(x + 1/c) where c x
    overflows."""
    with np.errstate(over="ignore"):
        v = np.log2(1.0 + c * x)
    lost = ~np.isfinite(v)
    v[lost] = math.log2(c) + np.log2(x[lost] + 1.0 / c)
    return v


def _path_coefficients(d2: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """(m+1, count) coefficients e_0..e_m of det(I + y W) = sum_j e_j y^j
    for a stack of W = B^H B, B upper bidiagonal with squared diagonal d2
    (m, count) and squared superdiagonal f2 (m-1, count), with no
    eigensolve.  By Cauchy-Binet e_j is the sum of |minor|^2 over B's j x j
    minors, and each nonzero one is a single product: a j-edge matching of
    the path c_1-r_1-c_2-r_2-...-c_m-r_m whose edges weigh d_1^2, f_1^2,
    d_2^2, ..., d_m^2.  So det(I + y W) is that path's matching polynomial,
    P_k = P_{k-1} + y w_k P_{k-2} over its edges: every e_j is a sum of
    nonnegative terms."""
    m, n = d2.shape
    weights = np.empty((2 * m - 1, n))
    weights[0::2], weights[1::2] = d2, f2
    prev, cur = np.zeros((m + 1, n)), np.zeros((m + 1, n))
    prev[0] = cur[0] = 1.0
    for k, w in enumerate(weights):
        top = k // 2 + 1  # the degree of P_k: edges 0..k match at most this many
        prev[1:top + 1] = cur[1:top + 1] + w * prev[:top]
        prev, cur = cur, prev
    return cur


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


def _bidiagonal_sep(plan: SlicePlan, psk: PskConstellation, scales: list[float]):
    """per_slice for mc_sep when the plan reduces, yielding one array per
    SNR scale:
    with D = (sqrt(rho) o G) B / sqrt(n_s) and G i.i.d., the SNR MGF given B
    is prod_k det(I + x rho_k W/n_s)^(-mu_k), W = B^H B and (rho_k, mu_k)
    the distinct eigenvalues of the unreduced side, so each trial's value is
    the SEP integral of that product (sep.conditional_sep_polynomial) over
    the bidiagonal draw of W (matstat.bidiagonal_slice), times the trial's
    weight under the tilted draw (plan.tilt, that side's dimension, the
    power of det(W) the SEP falls with at high SNR)."""
    factors = [(rho / plan.scn.n_s, mu) for rho, mu in plan.sides[0].spectrum.distinct]

    def per_slice(rng, b):
        d2, f2, w = bidiagonal_slice(plan, rng, b, tilted=True)
        coef = _fold(_path_coefficients(d2, f2), factors)
        for scale in scales:
            yield w * conditional_sep_polynomial(coef, psk, scale)

    return per_slice


def mc_sep(scn: Scenario, psk: PskConstellation, snr, cfg: MonteCarloConfig):
    """Semi-analytic SEP estimate: average over channel draws of the exact
    conditional M-PSK SEP at gamma = snr*||H||_F^2/(n_t*rate); with the
    reduced draw, of the exact SEP given the bidiagonal factor alone.

    snr is a float, giving one Estimate, or a 1-D sequence, giving a list
    of Estimates on common draws, each equal to the float call's."""
    grid = _snr_grid(snr)
    scales = [s * ostbc_snr_scale(scn) for s in grid]
    plan = SlicePlan(scn)
    if plan.sides is not None:
        per_slice = _bidiagonal_sep(plan, psk, scales)
    else:
        def per_slice(rng, b):
            x = _frob_sq(plan, rng, b)
            for scale in scales:
                yield conditional_sep_mpsk(scale * x, psk)
    ests = _mean_estimates(cfg, per_slice, len(grid))
    return ests if np.ndim(snr) else ests[0]


def _frob_moments(plan: SlicePlan, rng: np.random.Generator, b: int):
    """(X, X^2) of X = ||H||_F^2 for one slice of b trials, or with the
    reduced draw their exact means given the bidiagonal factor B
    (matstat.bidiagonal_slice): with W = B^H B and Phi the unreduced side,
    E[X|B] = tr Phi tr W/n_s and E[X^2|B] = ((tr Phi)^2 (tr W)^2
    + tr Phi^2 tr W^2)/n_s^2, W tridiagonal with W_ii = d_i^2 + f_(i-1)^2
    and |W_i,i+1|^2 = d_i^2 f_i^2."""
    if plan.sides is None:
        x = _frob_sq(plan, rng, b)
        return x, x * x
    phi, n_s = plan.sides[0].spectrum, plan.scn.n_s
    t1, t2 = phi.trace_power(1) / n_s, phi.trace_power(2) / n_s**2
    d2, f2, _ = bidiagonal_slice(plan, rng, b)
    w_ii = d2.copy()
    w_ii[1:] += f2
    m1 = t1 * w_ii.sum(axis=0)
    return m1, m1 ** 2 + t2 * ((w_ii * w_ii).sum(axis=0) + 2.0 * (d2[:-1] * f2).sum(axis=0))


def mc_kurtosis_eff(scn: Scenario, cfg: MonteCarloConfig) -> KurtosisEff:
    """Raw-moment kurtosis of ||H||_F and the fading figure 10log10(k-1).

    The raw-moment form E[X^2]/E[X]^2 with X = ||H||_F^2 avoids the
    catastrophic cancellation of the central form.  When the estimate is
    within one standard error of 1, the dB figure has no meaning and is
    returned as NaN with a flag.
    """
    if cfg.trials < 10_000:
        raise ValueError("kurtosis estimation needs at least 1e4 trials")
    counts, s1, s2 = _accumulate(cfg, partial(_frob_moments, SlicePlan(scn)), 2)
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


def mc_capacity(scn: Scenario, snr, mode: str, cfg: MonteCarloConfig):
    """Ergodic capacity estimate in bits/s/Hz.

    mode "general": E log2 det(I + (snr/n_t) H H^H);
    mode "ostbc":   rate * E log2(1 + snr*||H||_F^2/(n_t*rate)).

    snr is a float, giving one Estimate, or a 1-D sequence, giving a list
    of Estimates on common draws, each equal to the float call's.  Near the
    top of the float range the terms that overflow are taken in log space,
    so every estimate is finite.
    """
    grid = _snr_grid(snr)
    if mode == "ostbc":
        unit, rate = ostbc_snr_scale(scn), float(scn.rate)
        draw, value = _frob_sq, lambda x, s: rate * _log2_1p(s * unit, x)
    elif mode == "general":
        draw, value = channel_slice, lambda h, s: _log2_det_eye_plus(s / scn.n_t, h)
    else:
        raise ValueError(f"unknown capacity mode {mode!r}")

    plan = SlicePlan(scn)

    def per_slice(rng, b):
        x = draw(plan, rng, b)
        for s in grid:
            yield value(x, s)

    ests = _mean_estimates(cfg, per_slice, len(grid))
    return ests if np.ndim(snr) else ests[0]


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
