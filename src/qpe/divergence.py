"""Renyi entropies, sandwiched divergences, and the order gap.

The max-divergence (alpha = infinity limit of the sandwiched family) has a
closed form log ||rho^-1/2 sigma rho^-1/2|| and detects the
positive-evidence order exactly: the gap against the log-ratio of top
eigenvalues vanishes precisely when the order holds. The same quantity is
an operationally attainable bound on measurement distinguishability ratios.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import BadAlpha, QpeError
from .linalg import OrderVerdict, _sandwiched_trace, operator_pair, psd_operand, rank, remembered
from .orders import _probability_pair, classical_pe_leq, qpe_leq
from .states import (DensityMatrix, Effect, attaining_direction, escape_direction, min_entropy,
                     sandwich)


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence with the parameters that produced it."""

    value: float
    alpha: float
    log_base: str
    support_violation: bool = False


def renyi_entropy(rho: DensityMatrix, alpha: float,
                  cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Renyi entropy of order alpha; alpha = 1 is von Neumann, inf is
    min-entropy. NegativeEigenvalue for a raw operand that is not PSD."""
    if not alpha > 0:
        raise BadAlpha(f"order must be positive, got {alpha}")
    if np.isinf(alpha):
        return min_entropy(rho, cfg)
    w = psd_operand(rho, cfg).eigenvalues
    w = w[:rank(w, cfg)].copy()  # contiguous, as the sums and powers read it
    if alpha == 1:
        return float(-(w * cfg.log(w)).sum())
    return float(cfg.log((w ** alpha).sum()) / (1.0 - alpha))


def max_divergence(sigma: DensityMatrix, rho: DensityMatrix,
                   cfg: ToleranceConfig = DEFAULT_CONFIG) -> DivergenceValue:
    """D_inf(sigma || rho) = log || rho^-1/2 sigma rho^-1/2 ||.

    Infinite when sigma has weight outside rho's support. The value is
    remembered on rho for sigma (linalg.remembered), and
    channel_max_divergence and renyi_divergence at alpha = inf share it.
    """
    try:
        return remembered(rho, sigma, cfg._max_divergence_key, _max_divergence, cfg)
    except QpeError:
        operator_pair(sigma, rho, cfg)  # a refused pair's refusal in this order: sigma's first
        raise


def _max_divergence(rho, sigma, cfg: ToleranceConfig) -> DivergenceValue:
    """max_divergence computed afresh on an operator pair, for it to remember."""
    if escape_direction(rho, sigma, cfg) is not None:
        return DivergenceValue(np.inf, np.inf, cfg.log_base, support_violation=True)
    return DivergenceValue(float(cfg.log(sandwich(rho, sigma, cfg).norm)),
                           np.inf, cfg.log_base)


def renyi_divergence(sigma: DensityMatrix, rho: DensityMatrix, alpha: float,
                     cfg: ToleranceConfig = DEFAULT_CONFIG) -> DivergenceValue:
    """Sandwiched Renyi divergence D_alpha(sigma || rho).

    alpha = 1 is the standard relative entropy, alpha = inf the
    max-divergence, alpha = 1/2 gives -log of the squared fidelity.
    """
    if not alpha > 0:
        raise BadAlpha(f"order must be positive, got {alpha}")
    sigma, rho = operator_pair(sigma, rho, cfg)
    if np.isinf(alpha):
        return max_divergence(sigma, rho, cfg)
    w_s, V_s = sigma.support(cfg)
    w_r, V_r = rho.support(cfg)
    if alpha >= 1 and escape_direction(rho, sigma, cfg) is not None:
        return DivergenceValue(np.inf, alpha, cfg.log_base, support_violation=True)
    if alpha == 1:  # tr sigma log sigma - tr sigma log rho, on the two supports
        cross = (w_s[:, None] * np.abs(V_s.conj().T @ V_r) ** 2 * cfg.log(w_r)).sum()
        return DivergenceValue(float((w_s * cfg.log(w_s)).sum() - cross), 1.0, cfg.log_base)
    total = _sandwiched_trace(rho, sigma, alpha, cfg)
    if total == 0.0:  # disjoint supports, alpha < 1
        return DivergenceValue(np.inf, alpha, cfg.log_base, support_violation=True)
    return DivergenceValue(float(cfg.log(total) / (alpha - 1.0)), alpha, cfg.log_base)


def classical_max_divergence(x, y, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Max-divergence of probability vectors: log max_i x_i / y_i.

    Read off classical_pe_leq(y, x), as the gap is off qpe_leq: its slack is
    1 - y+ max_i (x_i / y_i) / x+ over y's support, and -inf (so the
    divergence is infinite) when x escapes that support. So the support rule
    is max_divergence's, and the two agree on diagonal states.
    """
    xv, yv = _probability_pair(x, y)
    return float(cfg.log((1.0 - classical_pe_leq(yv, xv, cfg).slack) * xv.max() / yv.max()))


def povm_distinguishability_lower_bound(sigma: DensityMatrix, rho: DensityMatrix,
                                        cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """log tr(sigma P) / tr(rho P) for the one projector P that attains D_inf.

    P projects onto states.attaining_direction, so the bound equals
    D_inf(sigma || rho) to rounding; the Born probabilities are computed on
    the two matrices, not read off the sandwich. Infinite when sigma escapes
    rho's support, by max_divergence's rule. oracle.random_effect_lower_bound
    is the independent check.
    """
    sigma, rho = operator_pair(sigma, rho, cfg)
    if escape_direction(rho, sigma, cfg) is not None:
        return np.inf
    u = attaining_direction(rho, sigma, cfg)
    return float(cfg.log(np.vdot(u, sigma.matrix @ u).real / np.vdot(u, rho.matrix @ u).real))


def order_divergence_gap(rho: DensityMatrix, sigma: DensityMatrix,
                         cfg: ToleranceConfig = DEFAULT_CONFIG,
                         ) -> tuple[float, OrderVerdict]:
    """Gap D_inf(sigma || rho) - log(sigma+ / rho+), paired with the order verdict.

    The gap is log(1 - slack) of qpe_leq's verdict, so the gap and the
    verdict come from one number. On the sandwich route that is
    log(rho+ lambda_max(S) / sigma+), the gap as defined, and inf when sigma
    escapes rho's support. Where qpe_leq's rounding fallback decides, the
    slack is the least eigenvalue of rho/rho+ - sigma/sigma+, never
    positive, so the gap is nonnegative and at most log(1 + psd_slack) when
    the verdict holds. The value is not clamped: an ordered pair's gap on
    the sandwich route can read slightly negative, down to about
    -SANDWICH_ROUNDING * kappa, kappa being rho's condition number on its
    support, as rho^-1/2 amplifies rounding by kappa. The -1e-12 that the
    property tests allow holds only on well-conditioned priors.
    """
    verdict = qpe_leq(rho, sigma, cfg)
    return float(cfg.log(1.0 - verdict.slack)), verdict


def effect_probability(state: DensityMatrix, effect: Effect) -> float:
    """Born probability tr(E rho)."""
    state, effect = operator_pair(state, effect, DEFAULT_CONFIG)
    return float((effect.matrix @ state.matrix).trace().real)
