"""Bayesian update rules and their order-theoretic inverses.

Two quantum rules are implemented: the state-sandwich form
rho -> rho^1/2 E rho^1/2 / tr(E rho), whose reachable set is exactly the
upper set of rho in the positive-evidence order when the evidence shares a
top eigenvector with the prior, and the effect-sandwich (projection
postulate) form rho -> E^1/2 rho E^1/2 / tr(E rho), which is not transitive
as a relation (oracle searches for a witness). Both admit explicit inverses:
an order-certified closed form for the first, the unique PSD solution of a
quadratic matrix equation for the second.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import (
    BadParameter,
    DimensionMismatch,
    NonFiniteInput,
    NotBelow,
    SupportViolation,
    ZeroEvidence,
    ZeroProbability,
)
from .linalg import HermitianOperator, hermitian_part, kernel_cutoff, operator_pair
from .orders import _probability_pair, as_probability_vector, classical_pe_leq, qpe_leq
from .states import DensityMatrix, Effect, sandwich, top_eigenspace


def classical_update(x, p) -> np.ndarray:
    """Bayes rule on a probability vector: y_i = p_i x_i / sum_j p_j x_j."""
    xv = as_probability_vector(x)
    pv = np.asarray(p, dtype=float).reshape(-1)
    if pv.size != xv.size:
        raise DimensionMismatch("prior and evidence differ in length")
    if not np.isfinite(pv).all():
        raise NonFiniteInput("evidence vector has a NaN or infinite entry")
    if pv.min() < -1e-12 or pv.max() > 1.0 + 1e-12:
        raise BadParameter("evidence entries must lie in [0, 1]")
    pv = np.clip(pv, 0.0, 1.0)
    weighted = pv * xv
    total = weighted.sum()
    if total <= 1e-12:
        raise ZeroEvidence(f"evidence has weight {total:.3e} on the prior")
    return weighted / total


def classical_solve_evidence(x, y, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Evidence vector p with classical_update(x, p) = y, for x below y.

    Normalized so the maximum (attained where y peaks, which the order forces
    onto a peak of x) is exactly 1.
    """
    xv, yv = _probability_pair(x, y)
    verdict = classical_pe_leq(xv, yv, cfg)
    if verdict.slack == -np.inf:
        raise SupportViolation(
            f"target has weight at index {int(verdict.witness.argmax())} "
            "outside the prior's support"
        )
    if not verdict.holds:
        raise NotBelow(f"prior is not below target ({verdict.relation})")
    p = np.zeros_like(xv)
    live = xv > kernel_cutoff((xv.max(),), cfg)
    p[live] = (yv[live] / xv[live]) * (xv.max() / yv.max())
    p = np.clip(p, 0.0, 1.0)
    p[int(yv.argmax())] = 1.0
    return p


def _conditioned(outer, inner, cfg: ToleranceConfig) -> DensityMatrix:
    """outer^1/2 inner outer^1/2 / tr(E rho), the state and effect either way
    round, past operator_pair's gate, for built and raw operands alike. The
    gate passes an operand in the PSD band's marginal part, whose negative
    eigenvalue a small tr(E rho) magnifies, so the posterior is derived under
    the a-priori bound min(lambda_min(inner), 0) outer+ / tr(E rho) on its
    least eigenvalue, in the band inner was admitted under. outer^1/2 maps
    outer's kernel to zero, so only inner's sign reaches the posterior."""
    sq = outer.power(0.5, cfg)
    out = sq.dot(inner.matrix).dot(sq)
    prob = float(out.trace().real)
    if prob <= cfg.rank_cutoff:
        raise ZeroProbability(f"tr(E rho) = {prob:.3e}")
    # v* out v >= lambda_min(inner) |outer^1/2 v|^2, and |outer^1/2 v|^2 <= outer+
    least = min(float(inner.eigenvalues[-1]), 0.0) * float(outer._eigh[0][0]) / prob
    return DensityMatrix._derived(out / prob, inner._validated_under, least)


def fls_update(rho: DensityMatrix, effect: Effect,
               cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """State-sandwich update rho^1/2 E rho^1/2 / tr(E rho)."""
    return _conditioned(*operator_pair(rho, effect, cfg), cfg)


def sequential_update(rho: DensityMatrix, effect: Effect,
                      cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """Effect-sandwich update E^1/2 rho E^1/2 / tr(E rho)."""
    rho, effect = operator_pair(rho, effect, cfg)
    return _conditioned(effect, rho, cfg)


def reconstruct_effect(rho: DensityMatrix, sigma: DensityMatrix,
                       cfg: ToleranceConfig = DEFAULT_CONFIG) -> Effect:
    """Effect mapping rho onto sigma under the state-sandwich rule.

    Closed form (rho/rho+)^-1/2 (sigma/sigma+) (rho/rho+)^-1/2 with the
    generalized inverse vanishing off rho's support, rescaled to unit
    operator norm; the rescaling absorbs rho+ and sigma+, so this is the
    sandwich rho^-1/2 sigma rho^-1/2 over its norm, and its spectrum is the
    sandwich's over the same norm. Requires rho below sigma in the
    positive-evidence order. Its least eigenvalue is banded where sigma was
    admitted: rho^-1/2 magnifies a raw sigma's marginal negative part, and
    rounding in rho's kernel leaves a validated pair's a few eps below 0.
    """
    rho, sigma = operator_pair(rho, sigma, cfg)
    verdict = qpe_leq(rho, sigma, cfg)
    if not verdict.holds:
        raise NotBelow(f"prior is not below target ({verdict.relation}, "
                       f"slack {verdict.slack:.3e})")
    middle = sandwich(rho, sigma, cfg)
    norm = middle.norm
    w = middle.eigenvalues / norm  # its top is 1, so only the least is banded
    # the fold settles the sign of the zero entries the division can flip
    return Effect._derived(middle.matrix / norm, sigma._validated_under, w[-1], w)


def random_agreeing_effect(
    rho: DensityMatrix,
    rng: np.random.Generator,
    low: float = 0.05,
    high: float = 0.95,
    projector_rank: int | None = None,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> Effect:
    """Random effect whose top eigenspace meets the state's.

    Places eigenvalue 1 on a random direction of the state's top eigenspace.
    With projector_rank set, returns a rank-projector containing that
    direction instead of a full-spectrum effect. Either spectrum lies in
    {1} and [low, high] by construction, so the effect is derived under cfg.
    """
    if not 0.0 <= low <= high <= 1.0:
        raise BadParameter(f"need 0 <= low <= high <= 1, got low={low}, high={high}")
    top = top_eigenspace(rho, cfg)
    coeff = rng.standard_normal(top.dim) + 1j * rng.standard_normal(top.dim)
    v = top.basis @ coeff
    v = v / np.linalg.norm(v)
    n = len(v)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G[:, 0] = v
    Q, _ = np.linalg.qr(G)
    rest = Q[:, 1:]
    if projector_rank is not None:
        if not 1 <= projector_rank <= n:
            raise BadParameter(f"projector rank {projector_rank} out of range")
        cols = np.concatenate([v[:, None], rest[:, : projector_rank - 1]], axis=1)
        E = cols @ cols.conj().T
    else:
        E = np.outer(v, v.conj()) + (rest * rng.uniform(low, high, n - 1)) @ rest.conj().T
    return Effect._derived(E, cfg)


def sequential_solve_effect(rho: DensityMatrix, sigma: DensityMatrix,
                            cfg: ToleranceConfig = DEFAULT_CONFIG) -> Effect:
    """The unique candidate effect for the effect-sandwich rule.

    Solves X rho X proportional to sigma for PSD X via
    X = rho^-1/2 (rho^1/2 sigma rho^1/2)^1/2 rho^-1/2 and returns X^2
    rescaled to unit norm. For full-rank rho this is the only effect (up to
    scale, which the update ignores) that can map rho onto sigma. Only rho
    and sigma are checked, at the gate: the middle factor and X X* are PSD
    by construction, and the norm puts the candidate's top eigenvalue at
    exactly 1, so the effect is built unchecked and records cfg.
    """
    rho, sigma = operator_pair(rho, sigma, cfg)
    half = rho.power(0.5, cfg)
    mid = HermitianOperator(hermitian_part(half.dot(sigma.matrix).dot(half))).power(0.5, cfg)
    inv_half = rho.power(-0.5, cfg)
    X = inv_half @ mid @ inv_half
    G = hermitian_part(X @ X.conj().T)
    candidate = HermitianOperator(G)
    norm = candidate.norm
    if norm <= 0:
        raise ZeroProbability("candidate effect vanished")
    # G's spectrum over its norm is the effect's, as in reconstruct_effect
    return Effect._derived(G / norm, cfg, w=candidate.eigenvalues / norm)
