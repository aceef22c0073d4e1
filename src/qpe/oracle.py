"""Independent verification routes and stored counterexamples.

Everything here deliberately avoids the main code paths: positivity is
probed by Rayleigh quotients instead of an eigensolver, the state order on
its order matrix instead of the sandwich, the diagonal order by
elementwise division, the channel order from the Kraus action instead of
the Choi states and the channel action from the Choi matrix instead, the
max-divergence from below by random effects instead
of its attaining projector, and entropies by the direct sum formula. A
disagreement between these routes and the main library is a bug in one of
them, never a tolerance artifact to be absorbed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, _channel_pair
from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import BadParameter, DegenerateDraw, DimensionMismatch
from .linalg import (FAILS, HOLDS, MARGINAL, OrderVerdict, as_operator, is_psd, operator_pair,
                     partial_trace, partial_transpose)
from .orders import majorizes, qpe_leq
from .states import DensityMatrix, top_eigenvalue

# noise floor of the oracles' own arithmetic: psd_probe's is -10 SLACK
# max(1, ||A||), and diagonal_order_oracle bands its margin at -SLACK, -10 SLACK
SLACK = 1e-9
# psd_probe's random directions are drawn from this seed
PROBE_SEED = 0
# each stored counterexample must survive perturbations of this size
PERTURBATION = 1e-12


@dataclass(frozen=True)
class ProbeResult:
    """One-sided positivity probe: violated means certainly not PSD."""

    violated: bool
    min_quotient: float
    trials: int


def psd_probe(A, trials: int = 200) -> ProbeResult:
    """Hunt for a negative Rayleigh quotient without an eigensolver.

    Samples trials random unit vectors (seeded by PROBE_SEED) and the
    coordinate directions; finding v* A v below the noise floor set by SLACK
    certifies non-positivity, finding nothing is inconclusive. A negative
    trials raises BadParameter.
    """
    if trials < 0:
        raise BadParameter(f"trials must be nonnegative, got {trials}")
    M = np.asarray(A, dtype=complex)
    n = M.shape[0]
    rng = np.random.default_rng(PROBE_SEED)
    floor = -10.0 * SLACK * max(1.0, float(np.linalg.norm(M)))
    worst = np.inf
    for i in range(n):
        worst = min(worst, float(M[i, i].real))
    for _ in range(trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        worst = min(worst, float(np.vdot(v, M @ v).real))
    return ProbeResult(worst < floor, worst, trials)


def qpe_order_oracle(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """State order as positivity of the order matrix sigma+ rho - rho+ sigma.

    is_psd on the matrix itself, with no inverse of rho: the slack is its
    least eigenvalue (absolute units, banded by max(1, ||.||)) and a fails
    witness its bottom eigenvector. qpe_leq decides the same relation on the
    sandwich; their verdicts may differ only where either is marginal, or
    where the matrix's absolute band is wider than the sandwich's relative
    one (a violation on a direction where rho is below about psd_slack).
    """
    rho, sigma = operator_pair(rho, sigma)
    r_top, s_top = top_eigenvalue(rho), top_eigenvalue(sigma)
    return is_psd(s_top * rho.matrix - r_top * sigma.matrix, cfg)


def random_effect_lower_bound(sigma, rho, trials: int = 64, seed: int = 0) -> float:
    """Best natural-log Born ratio log tr(sigma M) / tr(rho M) over random effects.

    Each M is G G^dagger / tr(G G^dagger) for a complex Gaussian n x n G:
    PSD with unit trace, so 0 <= M <= I, a bona fide effect. The ratio does
    not depend on M's scale, so no eigensolve normalizes it. Every ratio is
    a lower bound on D_inf(sigma || rho): sigma <= exp(D_inf) rho, so
    tr(sigma M) <= exp(D_inf) tr(rho M) for every M >= 0. -inf when trials
    is 0; a negative trials raises BadParameter.
    """
    if trials < 0:
        raise BadParameter(f"trials must be nonnegative, got {trials}")
    sigma, rho = operator_pair(sigma, rho)
    n = rho.dim
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((trials, n, n)) + 1j * rng.standard_normal((trials, n, n))
    M = G @ G.conj().transpose(0, 2, 1)
    M /= np.trace(M, axis1=1, axis2=2).real[:, None, None]
    p_sig = np.einsum("ij,tji->t", sigma.matrix, M).real
    p_rho = np.einsum("ij,tji->t", rho.matrix, M).real
    return float(np.log(p_sig / p_rho).max(initial=-np.inf))


def diagonal_order_oracle(x, y) -> OrderVerdict:
    """Order check on probability vectors by dividing out the peaks.

    Forms the ratios y_i / y_max and x_i / x_max directly and compares them,
    a different arithmetic route from the cross-multiplied form used by the
    library predicate. The least margin is banded by SLACK.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.size != yv.size:
        raise DimensionMismatch("vectors differ in length")
    x_top = xv.max()
    y_top = yv.max()
    margin = np.inf
    for xi, yi in zip(xv, yv):
        if xi <= 0.0:
            if yi > 0.0:
                margin = min(margin, -yi / y_top)
            continue
        margin = min(margin, xi / x_top - yi / y_top)
    if margin >= -SLACK:
        return OrderVerdict(HOLDS, float(margin))
    if margin < -10.0 * SLACK:
        return OrderVerdict(FAILS, float(margin))
    return OrderVerdict(MARGINAL, float(margin))


def channel_order_oracle(phi: Channel, psi: Channel,
                         cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Channel order as complete positivity of a rescaled difference map.

    Assembles the Choi block of (psi+ phi - phi+ psi) / (n phi+ psi+) from
    the images of the n^2 matrix units under each Kraus action, where phi+
    and psi+ are the top Choi eigenvalues, and tests it for positivity. The
    block equals qpe_order_oracle's order matrix on the Choi states divided
    by phi+ psi+, so the slack carries that factor.
    """
    _channel_pair(phi, psi)
    n, k = phi.in_dim, phi.out_dim
    phi_top = top_eigenvalue(phi.choi)
    psi_top = top_eigenvalue(psi.choi)
    scale = n * phi_top * psi_top
    block = np.zeros((n * k, n * k), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit[i, j] = 1.0
            diff = psi_top * phi._apply_matrix(unit) \
                - phi_top * psi._apply_matrix(unit)
            block[i * k:(i + 1) * k, j * k:(j + 1) * k] = diff / scale
            unit[i, j] = 0.0
    return is_psd(block, cfg)


def choi_form_output(channel: Channel, rho) -> DensityMatrix:
    """Channel.apply's output from the Choi matrix J alone, n tr_1(J^T1 (rho x I)),
    with its dimension check and its output checked under the channel's cfg."""
    rho = as_operator(rho)
    n, k = channel.in_dim, channel.out_dim
    if rho.dim != n:
        raise DimensionMismatch(f"input shape {rho.matrix.shape} does not match in_dim {n}")
    lifted = partial_transpose(channel.choi.matrix, (n, k), 1)
    out = n * partial_trace(lifted @ np.kron(rho.matrix, np.eye(k)), (n, k), 1)
    return DensityMatrix(out, channel.cfg)


def shannon_entropy(p, base: str = "natural") -> float:
    """Direct -sum p log p, bypassing any matrix machinery."""
    pv = np.asarray(p, dtype=float).reshape(-1)
    live = pv > 0
    logs = np.log2(pv[live]) if base == "two" else np.log(pv[live])
    return float(-(pv[live] * logs).sum())


@dataclass
class PartialTraceReport:
    """A verified instance where discarding a subsystem breaks the order."""

    dim: int
    t: float
    seed: int
    rho: np.ndarray
    pure_target: np.ndarray
    order_verdict: OrderVerdict
    marginal_rho: np.ndarray
    marginal_deviation: float
    monotone_broken: bool


def partial_trace_counterexample(n: int = 2, t: float = 0.5, seed: int = 9,
                                 cfg: ToleranceConfig = DEFAULT_CONFIG,
                                 ) -> PartialTraceReport:
    """Build a state below a maximally entangled one with a non-bottom marginal.

    The target's marginal is the maximally mixed state, the bottom of the
    order, and nothing but the bottom sits below it; so any below-target
    state whose marginal moves away from the bottom witnesses that the
    partial trace is not monotone.
    """
    if n < 2:
        raise BadParameter(f"the partial-trace instance needs subsystem dimension >= 2, got {n}")
    rng = np.random.default_rng(seed)
    m = np.eye(n).reshape(-1) / np.sqrt(n)
    P = np.outer(m, m.conj())
    G = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    G[:, 0] = m
    Q, _ = np.linalg.qr(G)
    comp = Q[:, 1:]
    H = rng.standard_normal((n * n - 1,) * 2) + 1j * rng.standard_normal((n * n - 1,) * 2)
    body = H @ H.conj().T
    A = comp @ (body / body.trace().real) @ comp.conj().T
    rho_raw = t * P + (1.0 - t) * A
    rho = DensityMatrix(rho_raw, cfg)
    target = DensityMatrix(P, cfg)
    verdict = qpe_leq(rho, target, cfg)
    marginal = partial_trace(rho_raw, (n, n), 2)
    deviation = float(np.abs(marginal - np.eye(n) / n).max())
    if deviation < 1e-3:
        raise DegenerateDraw("marginal landed on the bottom; re-seed")
    return PartialTraceReport(
        dim=n, t=t, seed=seed,
        rho=rho.matrix, pure_target=target.matrix,
        order_verdict=verdict,
        marginal_rho=marginal,
        marginal_deviation=deviation,
        monotone_broken=bool(verdict.holds and deviation > 1e-3),
    )


@dataclass
class CounterexampleReport:
    """A stored pair with the claims it witnesses and a stability flag."""

    name: str
    lower: np.ndarray
    upper: np.ndarray
    checks: dict[str, bool]
    values: dict[str, float]
    stable: bool
    witnessed: bool


def _order_without_majorization(x, y, cfg):
    verdict = diagonal_order_oracle(x, y)
    return ({"order_holds": verdict.holds,
             "upper_majorizes_lower": majorizes(y, x),
             "lower_majorizes_upper": majorizes(x, y)},
            {"order_margin": verdict.slack})


def _entropy_up_the_order(x, y, cfg):
    s_low = shannon_entropy(x, cfg.log_base)
    s_high = shannon_entropy(y, cfg.log_base)
    return ({"order_holds": diagonal_order_oracle(x, y).holds,
             "entropy_increases": s_high > s_low},
            {"entropy_low": s_low, "entropy_high": s_high, "entropy_gap": s_high - s_low})


ORDER_NOT_MAJORIZATION = (
    np.array([0.46, 0.46, 0.08]),
    np.array([0.70, 0.20, 0.10]),
)

ENTROPY_UP_THE_ORDER = (
    np.array([30.0, 29.0, 11.0, 10.0]) / 80.0,
    np.array([34.0, 23.0, 12.0, 11.0]) / 80.0,
)

# (name, (lower, upper), claims function, the claims the pair witnesses)
COUNTEREXAMPLES = (
    ("order-without-majorization", ORDER_NOT_MAJORIZATION, _order_without_majorization,
     {"order_holds": True, "upper_majorizes_lower": False, "lower_majorizes_upper": False}),
    ("entropy-increase-up-the-order", ENTROPY_UP_THE_ORDER, _entropy_up_the_order,
     {"order_holds": True, "entropy_increases": True}),
)


def _perturbed(v: np.ndarray, sign: float) -> np.ndarray:
    out = v + sign * PERTURBATION * np.linspace(1.0, 2.0, v.size)
    return out / out.sum()


def counterexample_suite(cfg: ToleranceConfig = DEFAULT_CONFIG) -> list[CounterexampleReport]:
    """Replay the stored counterexamples and re-verify every claim.

    Each pair's claims are checked through the independent diagonal oracle:
    witnessed means they come out as stored, and stable means they still do
    on the four perturbations of size PERTURBATION, so the phenomena are not
    knife-edge artifacts.
    """
    reports = []
    for name, (x, y), claims, expected in COUNTEREXAMPLES:
        checks, values = claims(x, y, cfg)
        stable = all(claims(_perturbed(x, sx), _perturbed(y, sy), cfg)[0] == expected
                     for sx in (-1.0, 1.0) for sy in (-1.0, 1.0))
        reports.append(CounterexampleReport(name, x, y, checks, values,
                                            stable, checks == expected))
    return reports
