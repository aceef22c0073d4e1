"""States, effects and their spectral structure.

DensityMatrix and Effect are linalg.HermitianOperators: the constructors validate
outside input, and HermitianOperator._derived builds what the package computes
from admitted operands, in their band. A state from CHOLESKY_MIN_DIM on is
validated by a factorization, and its spectrum is left to its first read.
Eigenspace extraction clusters eigenvalues that sit within cluster_width of
each other so near-degenerate spectra count as degenerate.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import BadParameter, DimensionMismatch, InvalidState
from .linalg import (
    FAILS,
    HermitianOperator,
    as_operator,
    assert_hermitian,
    cholesky_factors,
    extreme_eigenvector,
    hermitian_eig,
    hermitian_part,
    kernel_cutoff,
    psd_operand,
    rank,
    relation_of,
    remembered,
    vector_norm,
)

TRACE_REJECT = 1e-6
TRACE_WARN = 1e-9
# DensityMatrix validates by linalg.cholesky_factors from this dimension on,
# and falls back to the band on the spectrum when the factorization fails.
# On one pinned CPU (best of 7 timeit repeats) an eigvalsh took 5.6 us at
# n = 4, 10.9 at 8, 17.8 at 12, 28.5 at 16 and 442 at 64; the factorization
# with its finiteness check 8.6, 9.2, 10.3, 10.9 and 89 us. So a state that
# factors saves 7.5 us at 12 and 352 us at 64, and a singular one, which
# still needs its eigvalsh, pays the failed factorization: 10.3 and 89 us.
CHOLESKY_MIN_DIM = 12
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Eigenspace:
    """Orthonormal basis (columns) of an eigenvalue cluster."""

    basis: np.ndarray
    eigenvalue: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _unit_trace(H: np.ndarray) -> np.ndarray:
    """H, a matrix that assert_hermitian returned, held to a state's trace
    rule: renormalized with a warning past TRACE_WARN, InvalidState from
    TRACE_REJECT on. DensityMatrix and a channel's Choi state apply it."""
    tr = float(H.trace().real)
    if abs(tr - 1.0) >= TRACE_REJECT:
        raise InvalidState(f"trace {tr} is not 1 within {TRACE_REJECT}")
    if abs(tr - 1.0) > TRACE_WARN:
        warnings.warn(f"renormalizing state with trace off by {tr - 1.0:.2e}", stacklevel=3)
        H = H / tr
    return H


class DensityMatrix(HermitianOperator):
    """Unit-trace PSD matrix with a cached spectrum.

    Inputs whose trace is off by less than 1e-6 are renormalized with a
    warning; anything worse is rejected. A decisively negative eigenvalue
    (beyond ten times the PSD slack) is rejected.

    From CHOLESKY_MIN_DIM on, a matrix that factors is accepted without
    its spectrum: the factor bounds its least eigenvalue far inside that
    edge. Any other matrix, and every one at psd_slack = 0, is decided on
    the spectrum, so the outcome and message are the same.

    A state records the cfg whose band it was validated under
    (_validated_under), or, if derived, its operands' band.
    """

    _derived_as = "posterior"  # the one derived state a bound can refuse

    def __init__(self, matrix, cfg: ToleranceConfig = DEFAULT_CONFIG):
        H = _unit_trace(assert_hermitian(matrix))
        super().__init__(H)
        self._validated_under = cfg
        # a factor puts lambda_min above -n^2 eps ||H||, and ||H|| is about 1
        # for a unit trace so nearly PSD: when that is a tenth of the fails
        # edge -10 psd_slack or less, the band would accept too, and the
        # spectrum is left to its first read
        n = len(H)
        if n >= CHOLESKY_MIN_DIM and n * n * EPS <= cfg.psd_slack and cholesky_factors(H):
            return
        # the band on the spectrum's two ends, as psd_verdict reads it
        w = self.eigenvalues
        if relation_of(w[-1], w[0], cfg) == FAILS:
            raise InvalidState(f"not positive semidefinite (lambda_min = {w[-1]:.3e})")

    @classmethod
    def maximally_mixed(cls, n: int, cfg: ToleranceConfig = DEFAULT_CONFIG):
        return cls(np.eye(n) / n, cfg)

    @classmethod
    def from_diag(cls, probs, cfg: ToleranceConfig = DEFAULT_CONFIG):
        return cls(np.diag(np.asarray(probs, dtype=float)), cfg)

    @classmethod
    def pure(cls, vector, cfg: ToleranceConfig = DEFAULT_CONFIG):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise BadParameter("cannot build a pure state from the zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()), cfg)


class Effect(HermitianOperator):
    """Measurement effect: Hermitian with 0 <= E <= I (within slack). Like a
    state, it records the cfg its bounds were checked under (_validated_under),
    or, if derived, its operands' band."""
    _derived_as = "effect"

    def __init__(self, matrix, cfg: ToleranceConfig = DEFAULT_CONFIG):
        super().__init__(assert_hermitian(matrix))
        self._validated_under = cfg
        w = self.eigenvalues
        if relation_of(w[-1], w[0], cfg) == FAILS:
            raise InvalidState(f"effect not PSD (lambda_min = {w[-1]:.3e})")
        # the spectrum of I - E is 1 - w: least 1 - w[0], top 1 - w[-1]
        if relation_of(1.0 - w[0], 1.0 - w[-1], cfg) == FAILS:
            raise InvalidState(f"effect exceeds identity (slack = {1.0 - w[0]:.3e})")

    @classmethod
    def identity(cls, n: int):
        return cls(np.eye(n))

    @classmethod
    def from_diag(cls, values, cfg: ToleranceConfig = DEFAULT_CONFIG):
        return cls(np.diag(np.asarray(values, dtype=float)), cfg)


def top_eigenvalue(rho) -> float:
    return float(as_operator(rho).eigenvalues[0])


def sandwich(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> HermitianOperator:
    """rho^-1/2 sigma rho^-1/2, the generalized inverse vanishing off rho's support.

    Reconstruction, the order, the max-divergence and its attaining direction
    all read it. It is remembered on rho for sigma (linalg.remembered).
    """
    return remembered(rho, sigma, cfg._sandwich_key, _sandwich, cfg)


def _sandwich(rho: HermitianOperator, sigma: HermitianOperator,
              cfg: ToleranceConfig) -> HermitianOperator:
    """The sandwich computed afresh, for sandwich to remember."""
    X = rho.power(-0.5, cfg)
    return HermitianOperator(hermitian_part(X.dot(sigma.matrix).dot(X)))


def attaining_direction(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The unit vector u proportional to rho^-1/2 v, v the top eigenvector of
    the sandwich S.

    When sigma lives on rho's support, u* sigma u / u* rho u = lambda_max(S):
    the projector onto u is the one measurement that attains
    D_inf(sigma || rho). v is linalg.extreme_eigenvector of the remembered
    sandwich at the lambda_max(S) its spectrum already holds: the
    sandwich's cached eigenvectors at small dims, one shifted solve above.
    u reads rho's cached eigenbasis and forms no power of rho. qpe_leq's
    fails witness is this u.
    """
    S = sandwich(rho, sigma, cfg)
    u = rho.power_times(-0.5, extreme_eigenvector(S, S.eigenvalues), cfg)
    return u / vector_norm(u)


def top_eigenspace(rho, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Eigenspace:
    """Eigenspace of the top cluster of the cached eigh, with top_eigenvalue as its eigenvalue."""
    op = as_operator(rho)
    w, V = op._eigh
    width = cfg.cluster_width * max(abs(float(w[0])), 1e-300)
    stop = 1
    while stop < w.size and w[stop - 1] - w[stop] <= width:
        stop += 1
    return Eigenspace(V[:, :stop].copy(), top_eigenvalue(op))


def kernel(rho, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Eigenspace:
    """The complement of support: the cached eigh's columns past linalg.rank of its eigenvalues."""
    w, V = as_operator(rho)._eigh
    return Eigenspace(V[:, rank(w, cfg):].copy(), 0.0)


def heaviest_kernel_direction(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG,
                              ) -> tuple[float, np.ndarray] | None:
    """(weight, u): the unit vector u of rho's kernel on which sigma weighs
    most, and that weight u* sigma u; None when rho has full rank.

    u is the top eigenvector of sigma compressed to rho's kernel, found by
    the one eigh on that small block. Both are HermitianOperators.
    """
    K = kernel(rho, cfg).basis
    if not K.shape[1]:  # full rank
        return None
    mass, Y = hermitian_eig(K.conj().T @ sigma.matrix @ K)
    return float(mass[-1]), K @ Y[:, -1]


def escape_direction(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray | None:
    """A unit vector of rho's kernel on which sigma weighs more than its own
    kernel_cutoff, or None when sigma lives on rho's support.

    sigma escaping rho's support is what makes D_inf(sigma || rho) infinite
    and rho not below sigma; the vector u is the witness of both, as
    u* rho u vanishes while u* sigma u does not.
    """
    heaviest = heaviest_kernel_direction(rho, sigma, cfg)
    if heaviest is None or heaviest[0] <= kernel_cutoff(sigma.eigenvalues, cfg):
        return None
    return heaviest[1]


def rank_of(rho, cfg: ToleranceConfig = DEFAULT_CONFIG) -> int:
    """linalg.rank of the cached eigh that kernel, support and power cut."""
    return rank(as_operator(rho)._eigh[0], cfg)


def bottom_eigenspace_nonzero(rho, cfg: ToleranceConfig = DEFAULT_CONFIG) -> Eigenspace:
    """Eigenspace of the least nonzero eigenvalue cluster of the cached eigh,
    which ends the support prefix that kernel cuts; its eigenvalue is the eigvalsh's."""
    op = as_operator(rho)
    w, V = op._eigh
    r = rank(w, cfg)
    if not r:
        raise InvalidState("matrix has no nonzero eigenvalues")
    width = cfg.cluster_width * max(abs(float(w[0])), 1e-300)
    start = r - 1
    while start > 0 and w[start - 1] - w[start] <= width:
        start -= 1
    return Eigenspace(V[:, start:r].copy(), float(op.eigenvalues[r - 1]))


def min_entropy(rho, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """-log of the top eigenvalue, in the configured base; NegativeEigenvalue
    for a raw operand that is not PSD."""
    return -cfg.log(top_eigenvalue(psd_operand(rho, cfg)))


def subspace_intersects(a, b, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Whether two subspaces share a common direction.

    True iff the smallest principal angle is numerically zero, i.e. the
    largest singular value of the basis cross-Gram matrix reaches
    1 - max(cluster_width, 1e-12).
    """
    A = a.basis if isinstance(a, Eigenspace) else np.asarray(a, dtype=complex)
    B = b.basis if isinstance(b, Eigenspace) else np.asarray(b, dtype=complex)
    if A.ndim == 1:
        A = A[:, None]
    if B.ndim == 1:
        B = B[:, None]
    if A.shape[0] != B.shape[0]:
        raise DimensionMismatch("subspace bases live in different spaces")
    if A.shape[1] == 0 or B.shape[1] == 0:
        return False
    return _principal_cosine(A, B) >= 1.0 - max(cfg.cluster_width, 1e-12)


def _principal_cosine(A: np.ndarray, B: np.ndarray) -> float:
    """The cosine of the smallest principal angle between the spans of two
    orthonormal bases: the largest singular value of their cross-Gram A* B."""
    return float(np.linalg.svd(A.conj().T @ B, compute_uv=False).max(initial=0.0))


def random_state(
    dim: int,
    rank: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> DensityMatrix:
    """G G^dagger / tr for a dim x rank complex Gaussian G."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rank = dim if rank is None else rank
    if dim < 1 or rank < 1 or rank > dim:
        raise BadParameter(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    raw = G @ G.conj().T
    return DensityMatrix._derived(raw / raw.trace().real, DEFAULT_CONFIG)
