"""Correlation matrices, spectra, and majorization predicates.

The three named single-coefficient models (constant, exponential,
tridiagonal) are symmetric Toeplitz with unit diagonal.  Coefficients are
restricted to ranges where the matrix is strictly positive definite;
degenerate boundary values are rejected rather than limit-handled.

Spectra are kept as (distinct eigenvalue, multiplicity) lists because the
determinantal machinery downstream is discontinuous in the multiplicity
structure: whether two eigenvalues count as equal decides which confluent
block form applies.  Clustering is centralized in
`Spectrum.from_eigenvalues` with one fixed relative tolerance.

Two kinds of side share one type.  A general `CorrelationMatrix(entries)`
(user input, the exponential model) is checked on construction, and its
spectrum is clustered from the eigenvalues of that check.  The identity,
constant and tridiagonal models are spectrum-first: they hold their exact
spectrum and build the n x n entries only when something reads them, so an
identity side of any dimension costs a few bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Relative tolerance used to decide when two numerical eigenvalues are
#: the same distinct eigenvalue.
_CLUSTER_TOL = 1e-8
_DIAG_TOL = 1e-12
_NEG_EIG_TOL = -1e-10
_SQRT_FLOOR = 1e-14
_SUM_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues in strictly decreasing order with multiplicities."""

    values: tuple[float, ...]
    mults: tuple[int, ...]
    dim: int

    def __post_init__(self):
        if len(self.values) != len(self.mults):
            raise ValueError("values and mults must have equal length")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive")
        if sum(self.mults) != self.dim:
            raise ValueError(
                f"multiplicities sum to {sum(self.mults)}, expected dim={self.dim}"
            )
        if any(a <= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("distinct eigenvalues must be strictly decreasing")

    @property
    def n_distinct(self) -> int:
        return len(self.values)

    @property
    def distinct(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self.values, self.mults))

    def expand(self) -> np.ndarray:
        """Full eigenvalue vector (decreasing, multiplicities repeated)."""
        return np.repeat(self.values, self.mults).astype(float)

    def trace_power(self, k: int) -> float:
        """tr(A^k) from the spectrum."""
        return float(sum(m * v**k for v, m in self.distinct))

    @classmethod
    def from_eigenvalues(cls, eigs) -> "Spectrum":
        """Cluster a raw eigenvalue vector into a Spectrum.

        Two eigenvalues join the same group when they differ by less than
        1e-8*(1+|lambda|); the group representative is the mean of its
        members.
        """
        e = np.sort(np.asarray(eigs, dtype=float))[::-1]
        values, mults = [], []
        start = 0
        for i in range(1, e.size + 1):
            if i == e.size or (e[i - 1] - e[i]) >= _CLUSTER_TOL * (1.0 + abs(e[i])):
                group = e[start:i]
                values.append(float(group.mean()))
                mults.append(int(group.size))
                start = i
        return cls(tuple(values), tuple(mults), e.size)


def spectrum_of(matrix) -> Spectrum:
    """Spectrum of a Hermitian matrix (or CorrelationMatrix) with eigenvalue
    clustering."""
    if isinstance(matrix, CorrelationMatrix):
        return matrix.spectrum
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    return Spectrum.from_eigenvalues(np.linalg.eigvalsh(a))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Hermitian positive-definite matrix with all diagonal entries 1; the
    spectrum clusters the eigenvalues of the positive-definite check."""

    entries: np.ndarray
    spectrum: Spectrum = field(init=False, repr=False)

    #: True only for `identity_corr`'s result: a fact of how the side was
    #: built, never a comparison of entries.
    is_identity = False

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("correlation matrix must be square")
        object.__setattr__(self, "entries", a)
        if not np.array_equal(a, a.conj().T):
            raise ValueError("correlation matrix must be exactly Hermitian as stored")
        if np.max(np.abs(np.diagonal(a) - 1.0)) > _DIAG_TOL:
            raise ValueError("all diagonal entries must equal 1")
        eigs = np.linalg.eigvalsh(a)
        if np.min(eigs) <= 0.0:
            raise ValueError("correlation matrix must be positive definite")
        object.__setattr__(self, "spectrum", Spectrum.from_eigenvalues(eigs))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class _ModelSide(CorrelationMatrix):
    """A single-coefficient model held as its exact spectrum; its entries
    are unit-diagonal and Hermitian by construction, so none is checked.
    Subclasses give the spectrum and the dense entries, built when read."""

    def __init__(self, n: int, rho: float):
        # fills the attributes directly: the parent is frozen
        vars(self).update(spectrum=self._spectrum(n, rho), _rho=float(rho),
                          is_identity=(rho == 0.0))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.dim}, rho={self._rho!r})"

    @property
    def dim(self) -> int:
        return self.spectrum.dim


class _ConstantSide(_ModelSide):
    """The constant model (identity at rho = 0): {1+(n-1)rho once, 1-rho
    n-1 times}."""

    @staticmethod
    def _spectrum(n: int, rho: float) -> Spectrum:
        e1, e2 = 1.0 + (n - 1) * rho, 1.0 - rho
        # below float resolution of rho the two branches coincide at 1
        return Spectrum((e1, e2), (1, n - 1), n) if e1 > e2 else Spectrum((1.0,), (n,), n)

    @cached_property
    def entries(self) -> np.ndarray:
        return np.where(np.eye(self.dim, dtype=bool), 1.0, self._rho)


class _TridiagonalSide(_ModelSide):
    """The tridiagonal model: eigenvalues 1 + 2 rho cos(k pi/(n+1)),
    k = 1..n, clustered as a general side's."""

    @staticmethod
    def _spectrum(n: int, rho: float) -> Spectrum:
        return Spectrum.from_eigenvalues(
            1.0 + 2.0 * rho * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))

    @cached_property
    def entries(self) -> np.ndarray:
        n = self.dim
        return np.eye(n) + self._rho * (np.eye(n, k=1) + np.eye(n, k=-1))


def identity_corr(n: int) -> CorrelationMatrix:
    """The uncorrelated (identity) model."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return _ConstantSide(n, 0.0)


def constant_corr(n: int, rho: float) -> CorrelationMatrix:
    """Constant model: every off-diagonal entry equals rho.  rho=1 is rank
    one and rejected."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"constant model needs rho in [0, 1), got {rho}")
    if rho == 0.0 or n == 1:
        return identity_corr(n)
    return _ConstantSide(n, rho)


def exponential_corr(n: int, rho: float) -> CorrelationMatrix:
    """Exponential model: entry (i, j) = rho^|i-j|."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"exponential model needs rho in [0, 1), got {rho}")
    if rho == 0.0 or n == 1:
        return identity_corr(n)
    idx = np.arange(n)
    m = rho ** np.abs(idx[:, None] - idx[None, :]).astype(float)
    return CorrelationMatrix(m)


def tridiagonal_corr(n: int, rho: float) -> CorrelationMatrix:
    """Tridiagonal model: rho on the first off-diagonals, zero elsewhere.

    Positive definite iff rho < 0.5/cos(pi/(n+1)); the bound is excluded.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    bound = 0.5 / np.cos(np.pi / (n + 1))
    if not 0.0 <= rho < bound:
        raise ValueError(
            f"tridiagonal model needs rho in [0, {bound:.6g}) for n={n}, got {rho}"
        )
    if rho == 0.0 or n == 1:
        return identity_corr(n)
    side = _TridiagonalSide(n, rho)
    if side.spectrum.values[-1] <= 0.0:  # rho within round-off of the bound
        raise ValueError("correlation matrix must be positive definite")
    return side


def correlation_figure(phi: CorrelationMatrix) -> float:
    """tr(Phi^2)/n^2 from the spectrum; ranges over [1/n, 1] for
    unit-diagonal PD matrices."""
    return phi.spectrum.trace_power(2) / (phi.dim * phi.dim)


def matrix_sqrt(phi) -> np.ndarray:
    """Unique Hermitian PD square root, via eigendecomposition.

    Eigenvalues below -1e-10 are rejected; round-off negatives above that
    are floored at 1e-14 before the square root.
    """
    a = phi.entries if isinstance(phi, CorrelationMatrix) else np.asarray(phi)
    w, v = np.linalg.eigh(a)
    if np.min(w) < _NEG_EIG_TOL:
        raise ValueError("matrix_sqrt requires a positive-definite input")
    w = np.maximum(w, _SQRT_FLOOR)
    s = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (s + s.conj().T)


def majorizes(a, b, weak: bool = False) -> bool:
    """True when `a` is majorized by `b` (a <= b in the majorization order).

    Checks dominance of sorted-descending prefix sums; the strict (default)
    mode additionally requires the total sums to agree within 1e-10.
    A relative slack of the same size is allowed on each prefix comparison
    so that numerically equal spectra compare as majorized.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("majorizes needs two equal-length vectors")
    pa = np.cumsum(np.sort(a)[::-1])
    pb = np.cumsum(np.sort(b)[::-1])
    scale = 1.0 + np.maximum(np.abs(pa), np.abs(pb))
    if not weak and abs(pa[-1] - pb[-1]) > _SUM_TOL * scale[-1]:
        return False
    return bool(np.all(pa <= pb + _SUM_TOL * scale))
