"""Independent verification routes, claim checks and stored counterexamples.

The routes deliberately avoid the main code paths: positivity is
probed by Rayleigh quotients instead of an eigensolver, the state order on
its order matrix instead of the sandwich, the diagonal order by
elementwise division, the channel order from the Kraus action instead of
the Choi states and the channel action from the Choi matrix instead, the
max-divergence from below by random effects instead
of its attaining projector, and entropies by the direct sum formula. A
disagreement between these routes and the main library is a bug in one of
them, never a tolerance artifact to be absorbed. The checks and searches
of the paper's structural claims (order preservation under mixing and
conditioning, the Jamiolkowski identities, the non-transitive
effect-sandwich rule) use the main code paths instead, and they alone
raise PreconditionViolated.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bayes import random_agreeing_effect, sequential_solve_effect, sequential_update
from .channels import (Channel, _channel_pair, _kraus_sandwich, channel_compose, channel_mix,
                       channel_tensor)
from .config import DEFAULT_CONFIG, LOG_BASES, ToleranceConfig
from .exceptions import (BadParameter, DegenerateDraw, DimensionMismatch, NonFiniteInput,
                         PreconditionViolated, ZeroProbability)
from .linalg import (FAILS, HOLDS, MARGINAL, OrderVerdict, as_square_array, check_mixing_weight,
                     is_psd, operator_pair, partial_trace, partial_transpose, psd_operand)
from .orders import as_probability_vector, majorizes, qpe_leq
from .states import (DensityMatrix, Effect, _principal_cosine, rank_of, subspace_intersects,
                     top_eigenspace, top_eigenvalue)

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
    trials raises BadParameter. A is read by as_square_array: a non-square
    or non-finite matrix raises, and a state probes its own matrix.
    """
    if trials < 0:
        raise BadParameter(f"trials must be nonnegative, got {trials}")
    M = as_square_array(A)
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
    rho, sigma = operator_pair(rho, sigma, cfg)
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
    sigma, rho = operator_pair(sigma, rho, DEFAULT_CONFIG)
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
    library predicate. The least margin is banded by SLACK; a NaN or
    infinite entry raises NonFiniteInput.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.size != yv.size:
        raise DimensionMismatch("vectors differ in length")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise NonFiniteInput("probability vector has a NaN or infinite entry")
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
    rho = psd_operand(rho, channel.cfg)
    n, k = channel.in_dim, channel.out_dim
    if rho.dim != n:
        raise DimensionMismatch(f"input shape {rho.matrix.shape} does not match in_dim {n}")
    lifted = partial_transpose(channel.choi.matrix, (n, k), 1)
    out = n * partial_trace(lifted @ np.kron(rho.matrix, np.eye(k)), (n, k), 1)
    return DensityMatrix(out, channel.cfg)


def shannon_entropy(p, base: str = "natural") -> float:
    """Direct -sum p log p on orders.as_probability_vector's vector,
    bypassing any matrix machinery; base is one of config.LOG_BASES."""
    if base not in LOG_BASES:
        raise BadParameter(f"log base must be one of {LOG_BASES}, got {base!r}")
    pv = as_probability_vector(p)
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


def _order_preserved(rho, sigma, move, unordered: str, cfg: ToleranceConfig) -> bool:
    """Whether qpe_leq(move(rho), move(sigma)) holds, for rho below sigma; else
    PreconditionViolated with unordered formatted by the pair's relation."""
    order = qpe_leq(rho, sigma, cfg)
    if not order.holds:
        raise PreconditionViolated(unordered.format(order.relation))
    return qpe_leq(move(rho), move(sigma), cfg).holds


def mixing_monotone_check(kappa: DensityMatrix, rho: DensityMatrix,
                          sigma: DensityMatrix, t: float,
                          cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Whether mixing both sides of an ordered pair toward a lower state preserves order."""
    check_mixing_weight(t)
    kappa, rho = operator_pair(kappa, rho, cfg)
    rho, sigma = operator_pair(rho, sigma, cfg)
    if not qpe_leq(kappa, rho, cfg).holds:
        raise PreconditionViolated("mixing anchor is not below the lower state")
    return _order_preserved(
        rho, sigma, lambda state: DensityMatrix((1.0 - t) * state.matrix + t * kappa.matrix, cfg),
        "pair is not ordered", cfg)


def measurement_monotone_check(rho: DensityMatrix, sigma: DensityMatrix,
                               effect: Effect,
                               cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """Whether conditioning preserves the order on an admissible triple.

    Requires rho below sigma and evidence sharing a top eigenvector with the
    upper state; returns the verdict of the order between the two
    effect-sandwich updates.
    """
    sigma, effect = operator_pair(sigma, effect, cfg)
    if not subspace_intersects(top_eigenspace(effect, cfg),
                               top_eigenspace(sigma, cfg), cfg):
        raise PreconditionViolated("evidence does not share a top eigenvector "
                                   "with the upper state")
    return _order_preserved(rho, sigma, lambda state: sequential_update(state, effect, cfg),
                            "lower state not below upper ({})", cfg)


def jamiolkowski_properties_check(
    phi1: Channel,
    phi2: Channel,
    xi_pre: Channel,
    xi_post: Channel,
    mix_with: Channel,
    t: float = 0.3,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> dict[str, float]:
    """Residuals for the structural identities of the channel-state map.

    Checks positivity and trace marginals of the Choi state, rank agreement
    with the Kraus family, the permutation identity for tensor products,
    linearity under mixing, and the transformation rule under pre- and
    post-composition. All residuals should sit at numerical noise.
    """
    if xi_pre.in_dim != xi_pre.out_dim or xi_pre.in_dim != phi1.in_dim:
        raise DimensionMismatch("pre-composition channel must be square on "
                                "the input space")
    if xi_post.in_dim != phi1.out_dim:
        raise DimensionMismatch("post-composition channel does not match "
                                "the output space")
    _channel_pair(mix_with, phi1)
    n, k = phi1.in_dim, phi1.out_dim
    J1 = phi1.choi.matrix
    out: dict[str, float] = {}
    out["cp_psd"] = float(max(0.0, -phi1.choi.eigenvalues[-1]))
    out["tp_trace"] = float(abs(J1.trace().real - 1.0))
    marginal = partial_trace(J1, (n, k), 2)
    out["tp_partial"] = float(np.abs(marginal - np.eye(n) / n).max())
    rebuilt = Channel.from_choi(J1, n, k, cfg)
    out["rank_match"] = float(abs(rank_of(phi1.choi, cfg) - len(rebuilt.kraus)))

    big = channel_tensor(phi1, phi2, cfg).choi.matrix
    # kron orders both indices as (n1 k1)(n2 k2); the tensor channel's Choi
    # matrix as (n1 n2)(k1 k2)
    glued = np.kron(J1, phi2.choi.matrix).reshape((n, k, phi2.in_dim, phi2.out_dim) * 2)
    glued = glued.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(big.shape)
    out["tensor_permute"] = float(np.abs(big - glued).max())

    mixed = channel_mix(phi1, mix_with, t, cfg).choi.matrix
    straight = (1.0 - t) * J1 + t * mix_with.choi.matrix
    out["mix_linear"] = float(np.abs(mixed - straight).max())

    sandwiched = channel_compose(xi_post, channel_compose(phi1, xi_pre, cfg), cfg)
    lifted_ops = [np.kron(A.T, B) for A in xi_pre.kraus for B in xi_post.kraus]
    transported = _kraus_sandwich(lifted_ops, J1)
    out["compose_transform"] = float(
        np.abs(sandwiched.choi.matrix - transported).max()
    )
    return out


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
        overlap = _principal_cosine(top_eigenspace(cand, cfg).basis,
                                    top_eigenspace(rho, cfg).basis)
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
    return DensityMatrix._derived(raw / raw.trace().real, DEFAULT_CONFIG)


def _draw_step_effect(state, rng, cfg):
    # alternate between smooth spectra and rank-deficient projectors;
    # only the projective steps ever break one-step composability
    if state.dim > 2 and rng.random() < 0.5:
        rank = int(rng.integers(2, state.dim))
        return random_agreeing_effect(state, rng, projector_rank=rank, cfg=cfg)
    return random_agreeing_effect(state, rng, cfg=cfg)
