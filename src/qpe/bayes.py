"""Bayesian update rules and their order-theoretic inverses.

Two quantum rules are implemented: the state-sandwich form
rho -> rho^1/2 E rho^1/2 / tr(E rho), whose reachable set is exactly the
upper set of rho in the positive-evidence order when the evidence shares a
top eigenvector with the prior, and the effect-sandwich (projection
postulate) form rho -> E^1/2 rho E^1/2 / tr(E rho), which is not transitive
as a relation. Both admit explicit inverses: an order-certified closed form
for the first, the unique PSD solution of a quadratic matrix equation for
the second.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import (
    BadParameter,
    DimensionMismatch,
    NonFiniteInput,
    NotBelow,
    PreconditionViolated,
    SupportViolation,
    ZeroEvidence,
    ZeroProbability,
)
from .linalg import as_operator, hermitian_part, kernel_cutoff, matrix_power, operator_pair
from .orders import _probability_pair, as_probability_vector, classical_pe_leq, qpe_leq
from .states import (
    DensityMatrix,
    Effect,
    sandwich,
    subspace_intersects,
    top_eigenspace,
)


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
    round, gated by operator_pair: a state by construction, checked only if
    an operand came in raw."""
    sq = outer.power(0.5, cfg)
    out = sq.dot(inner.matrix).dot(sq)
    prob = float(out.trace().real)
    if prob <= cfg.rank_cutoff:
        raise ZeroProbability(f"tr(E rho) = {prob:.3e}")
    if isinstance(outer, (DensityMatrix, Effect)) and isinstance(inner, (DensityMatrix, Effect)):
        return DensityMatrix._derived(out / prob)
    return DensityMatrix(out / prob, cfg)


def fls_update(rho: DensityMatrix, effect: Effect,
               cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """State-sandwich update rho^1/2 E rho^1/2 / tr(E rho)."""
    return _conditioned(*operator_pair(rho, effect), cfg)


def sequential_update(rho: DensityMatrix, effect: Effect,
                      cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """Effect-sandwich update E^1/2 rho E^1/2 / tr(E rho)."""
    rho, effect = operator_pair(rho, effect)
    return _conditioned(effect, rho, cfg)


def reconstruct_effect(rho: DensityMatrix, sigma: DensityMatrix,
                       cfg: ToleranceConfig = DEFAULT_CONFIG) -> Effect:
    """Effect mapping rho onto sigma under the state-sandwich rule.

    Closed form (rho/rho+)^-1/2 (sigma/sigma+) (rho/rho+)^-1/2 with the
    generalized inverse vanishing off rho's support, rescaled to unit
    operator norm; the rescaling absorbs rho+ and sigma+, so this is the
    sandwich rho^-1/2 sigma rho^-1/2 over its norm, and its spectrum is the
    sandwich's over the same norm. Requires rho below sigma in the
    positive-evidence order.
    """
    rho, sigma = operator_pair(rho, sigma)
    verdict = qpe_leq(rho, sigma, cfg)
    if not verdict.holds:
        raise NotBelow(f"prior is not below target ({verdict.relation}, "
                       f"slack {verdict.slack:.3e})")
    middle = sandwich(rho, sigma, cfg)
    norm = middle.norm
    if not norm > 0:  # a zero sandwich stays as it is
        norm = 1.0
    # the fold settles the sign of the zero entries the division can flip; the
    # bounds are checked on the known spectrum, as a raw operand can break them
    return Effect._derived(middle.matrix / norm, middle.eigenvalues / norm)._check_bounds(cfg)


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
    direction instead of a full-spectrum effect.
    """
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
        return Effect(cols @ cols.conj().T, cfg)
    evs = rng.uniform(low, high, n - 1)
    E = np.outer(v, v.conj()) + (rest * evs) @ rest.conj().T
    return Effect(E, cfg)


def sequential_solve_effect(rho: DensityMatrix, sigma: DensityMatrix,
                            cfg: ToleranceConfig = DEFAULT_CONFIG) -> Effect:
    """The unique candidate effect for the effect-sandwich rule.

    Solves X rho X proportional to sigma for PSD X via
    X = rho^-1/2 (rho^1/2 sigma rho^1/2)^1/2 rho^-1/2 and returns X^2
    rescaled to unit norm. For full-rank rho this is the only effect (up to
    scale, which the update ignores) that can map rho onto sigma.
    """
    rho, sigma = operator_pair(rho, sigma)
    half = rho.power(0.5, cfg)
    mid = matrix_power(half @ sigma.matrix @ half, 0.5, cfg)
    inv_half = rho.power(-0.5, cfg)
    X = inv_half @ mid @ inv_half
    G = hermitian_part(X @ X.conj().T)
    candidate = as_operator(G)
    norm = candidate.norm
    if norm <= 0:
        raise ZeroProbability("candidate effect vanished")
    # G's spectrum over its norm is the effect's, as in reconstruct_effect
    return Effect._derived(G / norm, candidate.eigenvalues / norm)._check_bounds(cfg)


def measurement_monotone_check(rho: DensityMatrix, sigma: DensityMatrix,
                               effect: Effect,
                               cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Whether conditioning preserves the order on an admissible triple.

    Requires rho below sigma and evidence sharing a top eigenvector with the
    upper state; returns the verdict of the order between the two
    effect-sandwich updates.
    """
    order = qpe_leq(rho, sigma, cfg)
    if not order.holds:
        raise PreconditionViolated(f"lower state not below upper ({order.relation})")
    if not subspace_intersects(top_eigenspace(effect, cfg),
                               top_eigenspace(sigma, cfg), cfg):
        raise PreconditionViolated("evidence does not share a top eigenvector "
                                   "with the upper state")
    upd_r = sequential_update(rho, effect, cfg)
    upd_s = sequential_update(sigma, effect, cfg)
    return qpe_leq(upd_r, upd_s, cfg).holds


@dataclass
class TransitivityReport:
    """Outcome of the search for a two-step chain with no one-step shortcut."""

    found: bool
    trials: int
    dim: int
    seed: int
    message: str
    rho: np.ndarray | None = None
    first_effect: np.ndarray | None = None
    second_effect: np.ndarray | None = None
    intermediate: np.ndarray | None = None
    final: np.ndarray | None = None
    candidate: np.ndarray | None = field(default=None, repr=False)
    candidate_overlap: float | None = None
    replay_residual: float | None = None


def sequential_transitivity_demo(
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    budget: int = 2000,
    seed: int = 0,
    dim: int = 3,
) -> TransitivityReport:
    """Search for a failure of transitivity of the effect-sandwich relation.

    Draws full-rank priors and chains two agreeing updates; the unique
    candidate for a one-step effect is reconstructed by solving the sandwich
    equation, so failing the agreeing condition certifies that no single
    agreeing effect reproduces the chain. Dimension 2 provably always
    composes (a shared top eigenvector forces a common eigenbasis), so qubit
    searches report NotFound. A budget below 1 or a dim below 2 samples
    nothing and is rejected with BadParameter.
    """
    if budget < 1 or dim < 2:
        raise BadParameter(f"need budget >= 1 and dim >= 2, got budget={budget}, dim={dim}")
    rng = np.random.default_rng(seed)
    best_overlap = 1.0
    for trial in range(budget):
        rho = _random_full_rank(dim, rng)
        first = _draw_step_effect(rho, rng, cfg)
        mid = sequential_update(rho, first, cfg)
        second = _draw_step_effect(mid, rng, cfg)
        final = sequential_update(mid, second, cfg)
        try:
            cand = sequential_solve_effect(rho, final, cfg)
        except ZeroProbability:
            continue
        replay = float(
            np.abs(sequential_update(rho, cand, cfg).matrix - final.matrix).max()
        )
        if replay > 1e-8:
            # reconstruction failed numerically; not a usable certificate
            continue
        overlap = _top_overlap(cand, rho, cfg)
        best_overlap = min(best_overlap, overlap)
        if overlap < 0.5:
            return TransitivityReport(
                found=True,
                trials=trial + 1,
                dim=dim,
                seed=seed,
                message=(
                    "two agreeing updates with no agreeing one-step effect: "
                    f"unique candidate has top-eigenspace overlap {overlap:.2e} "
                    "with the prior"
                ),
                rho=rho.matrix,
                first_effect=first.matrix,
                second_effect=second.matrix,
                intermediate=mid.matrix,
                final=final.matrix,
                candidate=cand.matrix,
                candidate_overlap=overlap,
                replay_residual=replay,
            )
    return TransitivityReport(
        found=False,
        trials=budget,
        dim=dim,
        seed=seed,
        message=(
            "NotFound: every sampled chain admitted a one-step agreeing effect "
            f"(closest overlap {best_overlap:.3f})"
        ),
        candidate_overlap=best_overlap,
    )


def _random_full_rank(dim, rng):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    raw = G @ G.conj().T + 0.05 * np.eye(dim)
    return DensityMatrix._derived(raw / raw.trace().real)


def _draw_step_effect(state, rng, cfg):
    # alternate between smooth spectra and rank-deficient projectors;
    # only the projective steps ever break one-step composability
    if state.dim > 2 and rng.random() < 0.5:
        rank = int(rng.integers(2, state.dim))
        return random_agreeing_effect(state, rng, projector_rank=rank, cfg=cfg)
    return random_agreeing_effect(state, rng, cfg=cfg)


def _top_overlap(effect, state, cfg) -> float:
    A = top_eigenspace(effect, cfg).basis
    B = top_eigenspace(state, cfg).basis
    s = np.linalg.svd(A.conj().T @ B, compute_uv=False)
    return float(s.max(initial=0.0))
