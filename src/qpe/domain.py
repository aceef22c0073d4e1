"""Way-below witnesses and directed suprema for the positive-evidence order.

Mixing any state toward the maximally mixed state produces approximants that
are way below it, and these certificates are checkable: a claimed witness
either recovers the mixing parameter exactly (a finite verification) or is
rejected. States with nontrivial kernel are never way below anything, which
gives a decidable negative rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import NotAChain, NotConverged
from .linalg import (CERTIFIED_BELOW, NOT_BELOW, UNKNOWN, as_operator, check_mixing_weight,
                     operator_norm, psd_operand, remembered)
from .orders import qpe_leq
from .states import DensityMatrix, _unit_trace, rank_of


def depolarize(rho: DensityMatrix, t: float,
               cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """Mix toward the maximally mixed state: (1 - t) rho + t I/n, a raw rho held to
    a state's trace rule first. It is derived in rho's band, which it lies in by
    construction: its lambda_min is at least (1 - t) lambda_min(rho)."""
    check_mixing_weight(t)
    rho = psd_operand(rho, cfg)
    n = rho.dim
    M = rho.matrix if isinstance(rho, DensityMatrix) else _unit_trace(rho.matrix)
    return DensityMatrix._derived((1.0 - t) * M + (t / n) * np.eye(n), rho._validated_under)


@dataclass(frozen=True)
class WayBelowWitness:
    """Result of a way-below check: a certificate, a refutation, or neither."""

    verdict: str
    rule: str
    t: float | None = None
    residual: float | None = None
    note: str = ""

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED_BELOW


def way_below_witness(rho: DensityMatrix, sigma: DensityMatrix,
                      cfg: ToleranceConfig = DEFAULT_CONFIG) -> WayBelowWitness:
    """Decide rho way-below sigma where a finite certificate exists.

    Certification routes, tried in order: kernel obstruction (rho with
    nontrivial kernel is way below nothing), failure of the plain order, and
    recognizing rho as a strict mixture of sigma with the maximally mixed
    state. A semi-decision: unknown means no route applied, not that the
    relation fails.

    The witness is remembered on rho for sigma (linalg.remembered), so a
    pair asked again gets the same object back.
    """
    return remembered(rho, sigma, cfg._way_below_key, _way_below, cfg)


def _way_below(rho: DensityMatrix, sigma: DensityMatrix,
               cfg: ToleranceConfig) -> WayBelowWitness:
    n = rho.dim
    if rank_of(rho, cfg) < n:
        return WayBelowWitness(
            NOT_BELOW, "kernel-obstruction",
            note="a state with nontrivial kernel approximates nothing from below",
        )
    order = qpe_leq(rho, sigma, cfg)
    if order.fails:
        return WayBelowWitness(NOT_BELOW, "order-violation",
                               residual=order.slack,
                               note="not even below in the plain order")
    if order.marginal:
        return WayBelowWitness(UNKNOWN, "order-marginal", residual=order.slack)
    bottom = np.eye(n) / n
    gap = bottom - sigma.matrix
    denom = float(np.vdot(gap, gap).real)
    if denom <= cfg.rank_cutoff ** 2:
        # sigma is the maximally mixed state; everything full-rank below it
        # is a mixture with t = 1
        resid = float(np.abs(rho.matrix - bottom).max())
        if resid <= cfg.psd_slack:
            return WayBelowWitness(CERTIFIED_BELOW, "mixture-with-bottom",
                                   t=1.0, residual=resid)
        return WayBelowWitness(UNKNOWN, "bottom-target", residual=resid)
    t = float(np.vdot(rho.matrix - sigma.matrix, gap).real) / denom
    if 0.0 < t <= 1.0:
        recon = (1.0 - t) * sigma.matrix + t * bottom
        resid = float(np.abs(recon - rho.matrix).max())
        if resid <= cfg.psd_slack:
            note = ""
            if t < 1.0:
                note = f"equals the oversized mixture with weight {1.0 / (1.0 - t):.6g}"
            return WayBelowWitness(CERTIFIED_BELOW, "mixture-with-bottom",
                                   t=t, residual=resid, note=note)
    return WayBelowWitness(UNKNOWN, "no-rule")


def directed_supremum(chain, cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """Limit of an increasing chain of states.

    Verifies each consecutive pair is ordered and that the tail has settled;
    the supremum of a convergent increasing chain is its limit.
    """
    states = [as_operator(s) for s in chain]
    if not states:
        raise NotAChain("empty chain")
    for a, b in zip(states, states[1:]):
        v = qpe_leq(a, b, cfg)
        if v.fails:
            raise NotAChain(f"consecutive pair out of order (slack {v.slack:.3e})")
    if len(states) == 1:
        return states[0]
    tail_gap = operator_norm(states[-1].matrix - states[-2].matrix)
    if tail_gap > 1e-10:
        raise NotConverged(f"chain tail still moving (gap {tail_gap:.3e})")
    return states[-1]
