"""Positive-evidence order predicates on probability vectors and states.

The central relation compares states after rescaling by their top eigenvalue:
rho is below sigma when sigma+ rho - rho+ sigma is PSD. It is decided by the
max-divergence characterization, on the sandwich rho^-1/2 sigma rho^-1/2,
with a dimensionless slack that no rescaling or tensoring with I/m moves.
Variants swap the rescaling functional (least nonzero eigenvalue, general
norms) or relax the matrix inequality; they decide on the least eigenvalue
of their order matrix over a scale of the pair, which rescaling or
tensoring with I/m does not move either.

qpe_leq's slack is never positive in exact arithmetic, and a pair holds
exactly when it is 0: for a unit v in sigma's top eigenspace,
v* (sigma+ rho - rho+ sigma) v = sigma+ (v* rho v - rho+) <= 0, and
lambda_max(S) >= sigma+ / rho+ through rho^1/2 v. So an ordered pair shares
a top eigenvector, and a holds slack is rounding that carries no
information: 2,000 well-conditioned holding pairs at dims 2-5 read from
-2.3e-14 to 1.2e-14. rho^-1/2 amplifies it by kappa, rho's condition
number on its support, so an ill-conditioned prior's holds slack reaches
about SANDWICH_ROUNDING * kappa.
"""
from __future__ import annotations

import warnings

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import BadParameter, DimensionMismatch, InvalidState, NonFiniteInput, NonpositiveScalar
from .linalg import (
    FAILS,
    HOLDS,
    MARGINAL,
    HermitianOperator,
    OrderVerdict,
    as_operator,
    extreme_eigenvector,
    hermitian_eigvals,
    hermitian_part,
    kernel_cutoff,
    operator_pair,
    rank,
    relation_of,
    remembered,
    schatten_norm,
)
from .states import (
    DensityMatrix,
    attaining_direction,
    bottom_eigenspace_nonzero,
    escape_direction,
    heaviest_kernel_direction,
    kernel,
    rank_of,
    sandwich,
    subspace_intersects,
)

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

# absolute shortfall a prefix sum may have in majorizes
MAJORIZATION_ATOL = 1e-12
# rho^-1/2 amplifies the rounding in sigma by up to rho's condition number
# kappa on its support: ordered pairs' sandwich slacks were measured down to
# -0.37 eps kappa (dims 2-32, priors with eigenvalues down to kernel_cutoff).
# qpe_leq decides a slack within this times kappa of zero on the order
# matrix; the margin also keeps a fails witness's form clear of rounding.
SANDWICH_ROUNDING = 64 * float(np.finfo(float).eps)


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

    qpe_leq on diagonal states, in its units: y must vanish where x does
    (at x's kernel_cutoff, to y's), else the verdict fails with slack -inf;
    otherwise the slack is 1 - x+ max_i (y_i / x_i) / y+ over x's support.
    A fails witness is the unit vector of the component attaining it.
    """
    xv, yv = _probability_pair(x, y)
    x_top, y_top = float(xv.max()), float(yv.max())
    live = xv > kernel_cutoff((x_top,), cfg)
    escaped = np.where(live, 0.0, yv)
    if escaped.max() > kernel_cutoff((y_top,), cfg):
        return OrderVerdict(FAILS, -np.inf, witness=_unit(xv.size, int(escaped.argmax())))
    ratios = np.divide(yv, xv, out=np.zeros_like(yv), where=live)
    slack = 1.0 - x_top * float(ratios.max()) / y_top
    relation = relation_of(slack, slack, cfg)
    if relation == FAILS:
        return OrderVerdict(FAILS, slack, witness=_unit(xv.size, int(ratios.argmax())))
    return OrderVerdict(relation, slack)


def _unit(n: int, i: int) -> np.ndarray:
    out = np.zeros(n)
    out[i] = 1.0
    return out


def _order_verdict(M: np.ndarray, cfg: ToleranceConfig, unit: float) -> OrderVerdict:
    """The verdict on a one-shot order matrix, solved here and not cached.

    M is lev's, primed's or f-renormalized's order matrix, passed as
    hermitian_part(M) (the fold can flip the sign of a zero entry, which
    LAPACK reads, and it keeps their spectra and witnesses bit-identical to
    is_psd's), or qpe_leq's fallback. unit is a scale of the pair that
    bounds ||M|| and moves as M does under rescaling and tensoring with
    I/m. The slack is lambda_min(M) / unit, banded as qpe_leq's
    dimensionless slack is (relation_of(slack, slack)); a fails witness is
    M's least eigenvector. NonpositiveScalar unless unit > 0.
    """
    if not unit > 0.0:
        raise NonpositiveScalar(f"slack unit {unit} is not positive: the pair's tops are not")
    w = hermitian_eigvals(M)[::-1]
    slack = float(w[-1]) / unit
    relation = relation_of(slack, slack, cfg)
    if relation == FAILS:
        return OrderVerdict(FAILS, slack, witness=extreme_eigenvector(M, w, top=False))
    return OrderVerdict(relation, slack)


def qpe_leq(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Positive-evidence order: sigma+ rho - rho+ sigma PSD.

    Decided by the max-divergence characterization: rho is below sigma iff
    sigma lives on rho's support and rho+ lambda_max(S) <= sigma+ for the
    sandwich S = rho^-1/2 sigma rho^-1/2 (states.sandwich, which the
    max-divergence reads too). The slack is 1 - rho+ lambda_max(S) / sigma+,
    dimensionless: 1 - exp(gap) for order_divergence_gap's natural-log gap,
    and unmoved by tensoring both states with I/m. It is -inf when sigma
    escapes rho's support. A fails witness u has u* (sigma+ rho - rho+ sigma) u < 0:
    the kernel direction sigma escapes along, or states.attaining_direction,
    rho^-1/2 applied to S's top eigenvector.

    The single exception: a slack that does not hold but lies within
    SANDWICH_ROUNDING * kappa of zero, kappa being rho's condition number
    on its support, is rounding that rho^-1/2 amplified. Such a pair is
    decided on rho/rho+ - sigma/sigma+ (norm at most 1, also unmoved by
    tensoring with I/m), whose least eigenvalue, in unit 1, is the slack.

    On the sandwich route rho+, rho's full rank and its least eigenvalue on
    its support are read off the eigh that rho^-1/2 is formed from, so a
    prior validated by its factorization needs no other solve; sigma+, and
    rho+ on the order matrix, off each state's eigvalsh spectrum.

    The gate (linalg.operator_pair) refuses a raw operand outside the PSD band
    with NegativeEigenvalue; a zero one passes it, and raises NonpositiveScalar.

    The verdict is remembered on rho for sigma (linalg.remembered), so it is
    shared between calls and its witness is read-only.
    """
    return remembered(rho, sigma, cfg._qpe_leq_key, _qpe_verdict, cfg)


def _qpe_verdict(r: HermitianOperator, s: HermitianOperator,
                 cfg: ToleranceConfig) -> OrderVerdict:
    """qpe_leq's verdict on an operator pair, its witness read-only: the
    memo shares it between calls."""
    verdict = _sandwich_verdict(r, s, cfg)
    if verdict.witness is not None:
        verdict.witness.setflags(write=False)
    return verdict


def _sandwich_verdict(r: HermitianOperator, s: HermitianOperator,
                      cfg: ToleranceConfig) -> OrderVerdict:
    # rho's spectrum from the eigh its inverse square root is formed from,
    # so the verdict and the sandwich cut the same support
    w = r._eigh[0]
    r_top, s_top = float(w[0]), float(s.eigenvalues[0])
    if not (r_top > 0.0 and s_top > 0.0):
        raise NonpositiveScalar(f"qpe_leq rescales by the top eigenvalues, got {r_top}, {s_top}")
    support = rank(w, cfg)
    if support < len(w):  # else rho has no kernel for sigma to escape along
        escape = escape_direction(r, s, cfg)
        if escape is not None:
            return OrderVerdict(FAILS, -np.inf, witness=escape)
    S = sandwich(r, s, cfg)
    slack = 1.0 - r_top * float(S.eigenvalues[0]) / s_top
    relation = relation_of(slack, slack, cfg)
    if relation == HOLDS:
        return OrderVerdict(HOLDS, slack)
    if -slack <= SANDWICH_ROUNDING * r_top / float(w[support - 1]):  # least on rho's support
        # both tops from eigvalsh, so that a state against itself (or an
        # equal copy) gives the zero matrix
        return _order_verdict(r.matrix / float(r.eigenvalues[0]) - s.matrix / s_top, cfg, 1.0)
    if relation == MARGINAL:
        return OrderVerdict(MARGINAL, slack)
    return OrderVerdict(FAILS, slack, witness=attaining_direction(r, s, cfg))


def lev_leq(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Least-nonzero-eigenvalue order.

    Two ways to be below: equal kernels with rho- sigma - sigma- rho PSD,
    whose slack is lambda_min(rho- sigma - sigma- rho) / max(rho- sigma+,
    sigma- rho+), or a strictly larger kernel on sigma that absorbs part of
    rho's bottom eigenspace. The second route is structural, so its slack is 0.
    Both need rho's kernel in sigma's: kernels nest by qpe_leq's support
    rule, states.escape_direction, and a pair whose sigma escapes rho's
    support fails with slack -inf and the escape direction as its witness.
    Given nesting, the kernels are equal iff the eigh ranks are. A larger
    kernel on sigma that misses rho's bottom eigenspace fails with slack
    -inf too: the witness is the unit vector of sigma's kernel on which rho
    weighs most. rho- and sigma- are read off the eigvalsh spectra only when
    both count full rank there and states.rank_of(rho) agrees; else off the eighs.
    """
    r, s = operator_pair(rho, sigma, cfg)
    support = r.dim  # the rank of rho and of sigma: rho- and sigma- end it
    wr, ws = r.eigenvalues, s.eigenvalues
    if not rank(wr, cfg) == rank(ws, cfg) == rank_of(r, cfg) == support:
        escape = escape_direction(r, s, cfg)
        if escape is not None:
            return OrderVerdict(FAILS, -np.inf, witness=escape)
        wr, ws = r._eigh[0], s._eigh[0]
        support, s_rank = rank(wr, cfg), rank(ws, cfg)
        # no escape bounds sigma's rank by rho's (Courant-Fischer) but for rounding
        if s_rank > support:
            return _kernel_mismatch(r, s, cfg)
        if s_rank < support:
            if subspace_intersects(bottom_eigenspace_nonzero(r, cfg), kernel(s, cfg), cfg):
                return OrderVerdict(HOLDS, 0.0)
            # sigma's kernel grew past rho's, but not into rho's bottom eigenspace
            return _kernel_mismatch(s, r, cfg)
    if not support:
        raise InvalidState("matrix has no nonzero eigenvalues")
    r_min, s_min = float(wr[support - 1]), float(ws[support - 1])
    unit = max(r_min * float(ws[0]), s_min * float(wr[0]))
    return _order_verdict(hermitian_part(r_min * s.matrix - s_min * r.matrix), cfg, unit)


def _kernel_mismatch(a: HermitianOperator, b: HermitianOperator,
                     cfg: ToleranceConfig) -> OrderVerdict:
    """lev_leq's structural fails: the witness is the unit vector of a's
    (nonempty) kernel on which b weighs most."""
    witness = heaviest_kernel_direction(a, b, cfg)[1]
    return OrderVerdict(FAILS, -np.inf, witness=witness)


def primed_leq(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Relaxed order: sigma - rho <= (sigma+ - rho+) I.

    The slack is lambda_min((sigma+ - rho+) I - (sigma - rho)) / max(sigma+, rho+)."""
    r, s = operator_pair(rho, sigma, cfg)
    r_top, s_top = float(r.eigenvalues[0]), float(s.eigenvalues[0])
    M = hermitian_part((s_top - r_top) * np.eye(r.dim) - (s.matrix - r.matrix))
    return _order_verdict(M, cfg, max(s_top, r_top))


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
    """Order induced by an alternative rescaling: f(sigma) rho - f(rho) sigma PSD.

    The slack is lambda_min(f(sigma) rho - f(rho) sigma) / max(f(sigma) rho+,
    f(rho) sigma+)."""
    r, s = operator_pair(rho, sigma, cfg)
    f_s, f_r = _renorm_scalar(f, s), _renorm_scalar(f, r)
    unit = max(f_s * float(r.eigenvalues[0]), f_r * float(s.eigenvalues[0]))
    return _order_verdict(hermitian_part(f_s * r.matrix - f_r * s.matrix), cfg, unit)


def majorizes(x, y) -> bool:
    """Whether x majorizes y: descending prefix sums of x dominate y's.

    Each prefix sum of x may fall short by MAJORIZATION_ATOL, so rounding in
    the sums of two equal vectors does not break the tie.
    """
    xv, yv = _probability_pair(x, y)
    cx = np.cumsum(np.sort(xv)[::-1])
    cy = np.cumsum(np.sort(yv)[::-1])
    return bool(np.all(cx >= cy - MAJORIZATION_ATOL))


def eigenvalue_shadow(rho: DensityMatrix) -> np.ndarray:
    """Descending spectrum of a state, as a probability vector."""
    return np.maximum(as_operator(rho).eigenvalues, 0.0)
