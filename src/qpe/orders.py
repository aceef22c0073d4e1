"""Positive-evidence order predicates on probability vectors and states.

The central relation compares states after rescaling by their top eigenvalue:
rho is below sigma when sigma+ rho - rho+ sigma is PSD. Variants swap the
rescaling functional (least nonzero eigenvalue, general norms) or relax the
matrix inequality.
"""
from __future__ import annotations

import warnings

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import BadParameter, DimensionMismatch, InvalidState, NonFiniteInput, NonpositiveScalar
from .linalg import (
    FAILS,
    HOLDS,
    HermitianOperator,
    OrderVerdict,
    as_operator,
    hermitian_part,
    psd_verdict,
    schatten_norm,
)
from .states import DensityMatrix, bottom_eigenspace_nonzero, kernel, subspace_intersects

__all__ = [
    "OrderVerdict",
    "as_probability_vector",
    "classical_pe_leq",
    "qpe_leq",
    "lev_leq",
    "primed_leq",
    "f_renormalized_leq",
    "majorizes",
]

# largest entrywise projector gap at which two subspaces still coincide
SUBSPACE_ATOL = 1e-8


def as_probability_vector(x) -> np.ndarray:
    """Validate and normalize a probability vector.

    Entries may dip to -1e-12 (clipped to 0); the sum may be off by up to
    1e-6 (renormalized with a warning).
    """
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size == 0:
        raise InvalidState("empty probability vector")
    if not np.isfinite(v).all():
        raise NonFiniteInput("probability vector has a NaN or infinite entry")
    if v.min() < -1e-12:
        raise InvalidState(f"negative entry {v.min():.3e} in probability vector")
    v = np.maximum(v, 0.0)
    total = v.sum()
    if abs(total - 1.0) >= 1e-6:
        raise InvalidState(f"probability vector sums to {total}")
    if abs(total - 1.0) > 1e-9:
        warnings.warn(f"renormalizing probability vector off by {total - 1.0:.2e}",
                      stacklevel=2)
    return v / total


def _probability_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Both vectors through as_probability_vector, checked to be of one length."""
    xv, yv = as_probability_vector(x), as_probability_vector(y)
    if xv.size != yv.size:
        raise DimensionMismatch("probability vectors differ in length")
    return xv, yv


def classical_pe_leq(x, y, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """x below y iff y_i / y+ <= x_i / x+ for every component.

    Computed as the cross-multiplied margin min_i (x_i y+ - y_i x+), which
    doubles as the verdict slack.
    """
    xv, yv = _probability_pair(x, y)
    margins = xv * yv.max() - yv * xv.max()
    # every margin lies in [-1, 1], so the band's scale max(1, ||.||) is 1
    verdict = psd_verdict(np.sort(margins)[::-1], None, cfg)
    if verdict.fails:
        witness = np.zeros(xv.size)
        witness[int(margins.argmin())] = 1.0
        return OrderVerdict(FAILS, verdict.slack, witness=witness)
    return verdict


def _operands(rho, sigma):
    """Both operands as HermitianOperators of one shape."""
    r, s = as_operator(rho), as_operator(sigma)
    if r.matrix.shape != s.matrix.shape:
        raise DimensionMismatch(
            f"state shapes differ: {r.matrix.shape} vs {s.matrix.shape}"
        )
    return r, s


def _order_verdict(M: np.ndarray, cfg: ToleranceConfig) -> OrderVerdict:
    """psd_verdict on a one-shot order matrix, solved here and not cached.

    M is a real combination of the operands' folded matrices, so it is
    Hermitian and needs no check. lev, primed and f-renormalized pass
    hermitian_part(M): the fold can flip the sign of a zero entry, which
    LAPACK reads, and it keeps their verdicts bit-identical to is_psd's.
    """
    return psd_verdict(np.linalg.eigvalsh(M)[::-1], M, cfg)


def qpe_leq(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Positive-evidence order: sigma+ rho - rho+ sigma PSD.

    The verdict is remembered on rho for sigma (one of rho's recent partners)
    and psd_slack (the one cfg field it reads), so it is shared between
    calls and its witness is read-only.
    """
    r, s = _operands(rho, sigma)

    def decide():
        verdict = _order_verdict(s.eigenvalues[0] * r.matrix - r.eigenvalues[0] * s.matrix, cfg)
        if verdict.witness is not None:
            verdict.witness.setflags(write=False)
        return verdict

    return r._remember(s, ("qpe_leq", cfg.psd_slack), decide)


def lev_leq(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Least-nonzero-eigenvalue order.

    Two ways to be below: equal kernels with rho- sigma - sigma- rho PSD,
    or a strictly larger kernel on sigma that absorbs part of rho's bottom
    eigenspace. The second route is structural, so its slack is 0.
    """
    r, s = _operands(rho, sigma)
    ker_r = kernel(r, cfg)
    ker_s = kernel(s, cfg)

    if ker_r.dim == ker_s.dim:
        same = ker_r.dim == 0 or subspace_equal(ker_r.basis, ker_s.basis)
        if same:
            r_min = bottom_eigenspace_nonzero(r, cfg).eigenvalue
            s_min = bottom_eigenspace_nonzero(s, cfg).eigenvalue
            return _order_verdict(hermitian_part(r_min * s.matrix - s_min * r.matrix), cfg)
        return OrderVerdict(FAILS, -1.0)

    if ker_s.dim > ker_r.dim:
        contained = ker_r.dim == 0 or _contained_in(ker_r.basis, ker_s.basis)
        if contained and subspace_intersects(
            bottom_eigenspace_nonzero(r, cfg), ker_s, cfg
        ):
            return OrderVerdict(HOLDS, 0.0)
    return OrderVerdict(FAILS, -1.0)


def subspace_equal(A: np.ndarray, B: np.ndarray) -> bool:
    if A.shape[1] != B.shape[1]:
        return False
    PA = A @ A.conj().T
    PB = B @ B.conj().T
    return bool(np.abs(PA - PB).max(initial=0.0) <= SUBSPACE_ATOL)


def _contained_in(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether span(A) is a subspace of span(B)."""
    PB = B @ B.conj().T
    return bool(np.abs(PB @ A - A).max(initial=0.0) <= SUBSPACE_ATOL)


def primed_leq(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Relaxed order: sigma - rho <= (sigma+ - rho+) I."""
    r, s = _operands(rho, sigma)
    gap = float(s.eigenvalues[0]) - float(r.eigenvalues[0])
    return _order_verdict(hermitian_part(gap * np.eye(r.dim) - (s.matrix - r.matrix)), cfg)


def _renorm_scalar(f, X: HermitianOperator) -> float:
    """Evaluate a renormalization functional from the small catalog."""
    if f == "op_norm":
        val = schatten_norm(X, np.inf)
    elif isinstance(f, (tuple, list)) and len(f) == 3 and f[0] == "schatten":
        _, p, r = f
        val = schatten_norm(X, p) ** r
    else:
        raise BadParameter(
            f"unknown functional {f!r}; use 'op_norm' or ('schatten', p, r)"
        )
    if not val > 0.0:
        raise NonpositiveScalar(f"functional {f!r} returned {val}")
    return float(val)


def f_renormalized_leq(rho, sigma, f, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Order induced by an alternative rescaling: f(sigma) rho - f(rho) sigma PSD."""
    r, s = _operands(rho, sigma)
    M = _renorm_scalar(f, s) * r.matrix - _renorm_scalar(f, r) * s.matrix
    return _order_verdict(hermitian_part(M), cfg)


def majorizes(x, y, atol: float = 1e-12) -> bool:
    """Whether x majorizes y: descending prefix sums of x dominate y's."""
    xv, yv = _probability_pair(x, y)
    cx = np.cumsum(np.sort(xv)[::-1])
    cy = np.cumsum(np.sort(yv)[::-1])
    return bool(np.all(cx >= cy - atol))


def eigenvalue_shadow(rho: DensityMatrix) -> np.ndarray:
    """Descending spectrum of a state, as a probability vector."""
    return np.maximum(rho.eigenvalues, 0.0)
