"""Property tests on state pairs at dims 2-5 (the witness and bound
properties also at two dims on the solve side of the witness crossover),
drawn by hypothesis.

A state remembers its order verdict, sandwich, max-divergence and way-below
witness for its recent partners (up to 8, oldest dropped first), so the
pair queries must give the cold results in any order of calls, either
orientation and any mix of partners, also once a pool of more than 8
states makes old partners drop out. The order verdict and the
order-divergence gap must not move under a unitary conjugation of both
states, nor the verdict and its slack under tensoring both with I/m or
under the direct sum of both with a k x k zero block. The gap is (to
rounding) nonnegative and vanishes exactly when the order holds, and an
ordered pair survives the reconstruct-then-update round trip, also on
near-boundary pairs reached by evidence whose second eigenvalue is close
to 1. The measurement bound attains the max-divergence,
and no random effect exceeds it. Every fails witness certifies on its own
order matrix, on both sides of linalg.SHIFTED_SOLVE_MIN_DIM (eigh below,
inverse iteration from the dimension on), also where the eigenvector it
needs is orthogonal to the iteration's start vector or sits in a cluster
of relative width down to 1e-12.

Every function that takes two operators goes through linalg.operator_pair:
on a raw array it gives the result it gives on fresh states, on a pair
of two dimensions it raises DimensionMismatch, and on a raw operand
outside the PSD band, in either slot, NegativeEigenvalue. The functions that take one
operator, a channel's action included, also give a raw array the result of
a fresh state, and those that read it as PSD refuse a raw operand outside
the band through linalg.psd_operand, even where their map would take it
onto a state. Two structural claims of the order hold on drawn pairs:
mixing an ordered pair toward an anchor below it keeps it ordered, and the
tensor product of two ordered pairs is ordered. So do two of the
abstract's claims: the optimal approximation (a pure state is above rho
exactly when it is a top eigenvector of rho), and the Bayes update, which
moves a full-rank rho by a max-divergence of -log tr(rho E) for an effect
E of norm 1.

A state or effect the package computes from admitted ones is built by
HermitianOperator._derived, which checks at most a bound on its least
eigenvalue: at every such site its matrix is the validating constructor's
on the same arithmetic, bit for bit, and its spectrum, solved when first
read, that constructor's. A channel's output
stays on the validating constructor, which renormalizes the trace a nearly
complete Kraus family leaves off.
"""
from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qpe import (
    Channel,
    DensityMatrix,
    DimensionMismatch,
    Effect,
    NegativeEigenvalue,
    QpeError,
    choi_form_output,
    depolarize,
    directed_supremum,
    effect_probability,
    eigenvalue_shadow,
    extended_output,
    f_renormalized_leq,
    fidelity,
    fls_update,
    is_psd,
    lev_leq,
    max_divergence,
    min_entropy,
    mixing_monotone_check,
    order_divergence_gap,
    povm_distinguishability_lower_bound,
    primed_leq,
    qpe_leq,
    qpe_order_oracle,
    random_agreeing_effect,
    random_effect_lower_bound,
    random_state,
    rank_of,
    reconstruct_effect,
    renyi_divergence,
    renyi_entropy,
    sequential_solve_effect,
    sequential_update,
    top_eigenvalue,
    way_below_witness,
)
from qpe.oracle import sequential_transitivity_demo
from qpe.linalg import (
    PARTNER_MEMO_SIZE,
    SHIFTED_SOLVE_MIN_DIM,
    HermitianOperator,
    _start_vector,
    random_unitary,
)
from qpe.states import sandwich

INVARIANCE_TOL = 1e-9
# on an ordered pair the gap sits at 0 to rounding that rho^-1/2 amplifies by
# kappa, rho's condition number on its support: its floor is about
# -SANDWICH_ROUNDING * kappa. These well-conditioned draws read as low as
# -3.7e-14 over 20,000 sampled pairs; -1e-12 holds only for such priors
GAP_FLOOR = -1e-12
# the verdict band is 1e-9 wide; a holds verdict means a gap below this
GAP_TOL = 1e-8
ROUND_TRIP_TOL = 1e-8
# the attaining projector's Born ratio and the sandwich norm both carry
# rounding amplified by rho's condition number
BOUND_TOL = 1e-8
# derandomized so the suite is reproducible; the examples still span every kind
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)
# a witness is eigh's below the crossover and a shifted solve's from it on
LARGE_DIMS = (SHIFTED_SOLVE_MIN_DIM, 2 * SHIFTED_SOLVE_MIN_DIM + 1)
dims_across_the_crossover = st.one_of(st.integers(2, 5), st.sampled_from(LARGE_DIMS))


def _pair(kind: str, n: int, rng: np.random.Generator):
    rho = random_state(n, rng=rng)
    if kind == "random":
        return rho.matrix.copy(), random_state(n, rng=rng).matrix.copy()
    if kind == "ordered":
        v = rho.eigenvectors[:, 0]
        s = rng.uniform(0.1, 0.9)
        return rho.matrix.copy(), (1.0 - s) * rho.matrix + s * np.outer(v, v.conj())
    if kind == "rank_deficient":
        low = random_state(n, rank=int(rng.integers(1, n)), rng=rng)
        if rng.random() < 0.5:
            # stays in the prior's support, so the pair is ordered
            return low.matrix.copy(), fls_update(low, random_agreeing_effect(low, rng)).matrix.copy()
        return low.matrix.copy(), rho.matrix.copy()
    other = random_state(n, rng=rng)
    return rho.matrix.copy(), rho.matrix + 1e-13 * (other.matrix - rho.matrix)


@st.composite
def raw_pairs(draw):
    kind = draw(st.sampled_from(["random", "ordered", "rank_deficient", "near_equal"]))
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _pair(kind, n, rng)


@st.composite
def near_boundary_pairs(draw):
    """sigma = fls_update(rho, E) for an agreeing E whose second eigenvalue
    lies in [1 - 1e-3, 1), so sigma is above rho but barely moved off it."""
    n = draw(st.integers(2, 5))
    rank = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(n, rank=rank, rng=rng)
    effect = random_agreeing_effect(rho, rng, low=1.0 - 1e-3, high=1.0)
    return rho.matrix.copy(), fls_update(rho, effect).matrix.copy()


def _bits(verdict):
    return (verdict.relation, np.float64(verdict.slack).tobytes(),
            None if verdict.witness is None else verdict.witness.tobytes())


def _round_trip(rho, sigma):
    try:
        effect = reconstruct_effect(rho, sigma)
        return effect.matrix.tobytes(), fls_update(rho, effect).matrix.tobytes()
    except QpeError as exc:
        return type(exc).__name__


def _fields(result):
    """Every field of a divergence or way-below witness, floats as bytes."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in dataclasses.astuple(result))


def _gap(rho, sigma):
    gap, verdict = order_divergence_gap(rho, sigma)
    return np.float64(gap).tobytes(), _bits(verdict)


QUERIES = {
    "qpe_leq": lambda rho, sigma: _bits(qpe_leq(rho, sigma)),
    "max_divergence": lambda rho, sigma: _fields(max_divergence(sigma, rho)),
    "order_divergence_gap": _gap,
    "reconstruct_effect": _round_trip,
    "way_below_witness": lambda rho, sigma: _fields(way_below_witness(rho, sigma)),
}

calls = st.lists(st.tuples(st.sampled_from(sorted(QUERIES)), st.booleans()),
                 min_size=1, max_size=8)


@PROPERTY_SETTINGS
@given(pair=raw_pairs(), sequence=calls)
def test_any_interleaving_gives_the_cold_results(pair, sequence):
    R, S = pair
    warm = (DensityMatrix(R), DensityMatrix(S))
    for name, flipped in sequence:
        order = slice(None, None, -1 if flipped else 1)
        cold = QUERIES[name](*(DensityMatrix(R), DensityMatrix(S))[order])
        assert QUERIES[name](*warm[order]) == cold, name


@st.composite
def pools(draw):
    """Raw matrices of more than PARTNER_MEMO_SIZE states of one dim: random
    ones, some rank-deficient, and agreeing updates of earlier members, so
    the pool holds ordered and incomparable pairs."""
    n = draw(st.integers(2, 5))
    size = draw(st.integers(PARTNER_MEMO_SIZE + 1, PARTNER_MEMO_SIZE + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = []
    while len(pool) < size:
        if pool and rng.random() < 0.5:
            prior = pool[rng.integers(len(pool))]
            pool.append(fls_update(prior, random_agreeing_effect(prior, rng)))
        else:
            pool.append(random_state(n, rank=int(rng.integers(1, n + 1)), rng=rng))
    return [state.matrix.copy() for state in pool]


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(raw=pools(), seed=st.integers(0, 2**32 - 1))
def test_pool_queries_past_the_partner_cap_give_the_cold_results(raw, seed):
    rng = np.random.default_rng(seed)
    names = sorted(QUERIES)
    pool = [DensityMatrix(M) for M in raw]
    for _ in range(6 * PARTNER_MEMO_SIZE):
        # the first operand is mostly state 0, which so meets more partners
        # than it remembers and drops the oldest, and meets some of them again
        i = 0 if rng.random() < 0.7 else int(rng.integers(len(raw)))
        j = int(rng.integers(len(raw)))
        name = names[rng.integers(len(names))]
        cold = QUERIES[name](DensityMatrix(raw[i]), DensityMatrix(raw[j]))
        assert QUERIES[name](pool[i], pool[j]) == cold, (name, i, j)


@st.composite
def bound_pairs(draw):
    """(sigma, rho) raw: a full-rank prior, a rank-deficient prior with sigma
    inside its support, or one that sigma escapes."""
    kind = draw(st.sampled_from(["full_rank", "inside_support", "escaping"]))
    n = draw(dims_across_the_crossover)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "full_rank":
        return random_state(n, rng=rng).matrix.copy(), random_state(n, rng=rng).matrix.copy()
    rank = int(rng.integers(1, n))
    rho = random_state(n, rank=rank, rng=rng)
    if kind == "escaping":
        return random_state(n, rng=rng).matrix.copy(), rho.matrix.copy()
    K = rho.eigenvectors[:, :rank]
    inner = random_state(rank, rng=rng).matrix
    return K @ inner @ K.conj().T, rho.matrix.copy()


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(pair=bound_pairs(), seed=st.integers(0, 2**32 - 1))
def test_measurement_bound_attains_the_max_divergence(pair, seed):
    sigma, rho = (DensityMatrix(M) for M in pair)
    d = max_divergence(sigma, rho).value
    bound = povm_distinguishability_lower_bound(sigma, rho)
    if np.isinf(d):
        assert bound == d
    else:
        assert abs(bound - d) <= BOUND_TOL, (bound, d)
    assert random_effect_lower_bound(sigma, rho, trials=16, seed=seed) <= d + 1e-9


@PROPERTY_SETTINGS
@given(pair=raw_pairs(), seed=st.integers(0, 2**32 - 1))
def test_order_and_gap_are_unitarily_invariant(pair, seed):
    R, S = pair
    U = random_unitary(R.shape[0], np.random.default_rng(seed))
    rho, sigma = DensityMatrix(R), DensityMatrix(S)
    rho_u, sigma_u = (DensityMatrix(U @ M @ U.conj().T) for M in (R, S))
    gap, verdict = order_divergence_gap(rho, sigma)
    gap_u, verdict_u = order_divergence_gap(rho_u, sigma_u)
    assert verdict_u.relation == verdict.relation
    # a support escape reads -inf in both
    assert verdict_u.slack == verdict.slack or abs(verdict_u.slack - verdict.slack) <= INVARIANCE_TOL
    if np.isinf(gap):
        assert gap_u == gap
    else:
        assert abs(gap_u - gap) <= INVARIANCE_TOL


@settings(PROPERTY_SETTINGS, max_examples=6)
@given(pair=raw_pairs(), data=st.data())
def test_order_is_invariant_under_tensoring_with_the_uniform_state(pair, data):
    R, S = pair
    n = R.shape[0]
    m = data.draw(st.integers(1, 1000 // n), label="m")
    bottom = np.eye(m) / m
    verdict = qpe_leq(DensityMatrix(R), DensityMatrix(S))
    lifted = qpe_leq(DensityMatrix(np.kron(R, bottom)), DensityMatrix(np.kron(S, bottom)))
    assert lifted.relation == verdict.relation
    assert lifted.slack == verdict.slack or abs(lifted.slack - verdict.slack) <= INVARIANCE_TOL


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(pair=raw_pairs(), k=st.integers(1, 3))
def test_order_is_invariant_under_a_direct_sum_with_zero(pair, k):
    R, S = pair
    n = R.shape[0]

    def embedded(M):
        out = np.zeros((n + k, n + k), dtype=complex)
        out[:n, :n] = M
        return DensityMatrix(out)

    verdict = qpe_leq(DensityMatrix(R), DensityMatrix(S))
    lifted = qpe_leq(embedded(R), embedded(S))
    assert lifted.relation == verdict.relation
    # a support escape reads -inf in both
    assert lifted.slack == verdict.slack or abs(lifted.slack - verdict.slack) <= INVARIANCE_TOL


def _check_gap_and_round_trip(R, S):
    rho, sigma = DensityMatrix(R), DensityMatrix(S)
    gap, verdict = order_divergence_gap(rho, sigma)
    assert gap >= GAP_FLOOR
    assert (gap < GAP_TOL) == verdict.holds, (gap, verdict.relation)
    if verdict.holds:
        posterior = fls_update(rho, reconstruct_effect(rho, sigma))
        assert np.abs(posterior.matrix - sigma.matrix).max() <= ROUND_TRIP_TOL
    return verdict


@PROPERTY_SETTINGS
@given(pair=raw_pairs())
def test_gap_vanishes_iff_ordered_and_the_round_trip_returns_sigma(pair):
    _check_gap_and_round_trip(*pair)


@PROPERTY_SETTINGS
@given(pair=near_boundary_pairs())
def test_near_boundary_pair_is_ordered_with_zero_gap_and_round_trips(pair):
    assert _check_gap_and_round_trip(*pair).holds


def _basis_off_the_start_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """A unitary whose first two columns (the first, at n = 2) are
    orthogonal to extreme_eigenvector's start vector."""
    b = _start_vector(n).astype(complex)
    U = random_unitary(n, rng)
    k = min(2, n - 1)
    U[:, :k] -= np.outer(b, b.conj() @ U[:, :k]) / np.vdot(b, b).real
    return np.linalg.qr(U)[0]


def _state_with_hard_ends(n: int, rng: np.random.Generator, orthogonal: bool,
                          width: float) -> np.ndarray:
    """A full-rank state whose least eigenvector (column 0 of its basis) and
    top one (column 1) are orthogonal to the start vector if asked, and
    whose bottom and top pairs of eigenvalues are width apart, relatively."""
    Q = _basis_off_the_start_vector(n, rng) if orthogonal else random_unitary(n, rng)
    w = np.sort(rng.uniform(0.2, 1.0, n))
    w[-1], w[0] = 2.0, 0.1
    if n > 2:
        w[1], w[-2] = w[0] * (1.0 + width), w[-1] * (1.0 - width)
    order = np.r_[0, n - 1, 1:n - 1]  # least, top, then the rest
    M = (Q * (w[order] / w.sum())) @ Q.conj().T
    return (M + M.conj().T) / 2.0


def _rounding_fallback_pair(n: int, rng: np.random.Generator):
    """rho with an eigenvalue at 1e-10 rho+ and sigma = (rho + t x x*) / (1 + t),
    x orthogonal to rho's top and least eigenvectors and to the start vector.
    The order matrix rho/rho+ - sigma/sigma+ is -t x x* / rho+, so the pair
    fails; the sandwich slack lies within SANDWICH_ROUNDING kappa of zero,
    so qpe_leq decides on that matrix."""
    w = np.sort(rng.uniform(0.2, 1.0, n))[::-1]
    w[0], w[-1] = 2.0, 2e-10
    V = random_unitary(n, rng)
    rho = (V * (w / w.sum())) @ V.conj().T
    x = V[:, 1:-1] @ (rng.standard_normal(n - 2) + 1j * rng.standard_normal(n - 2))
    b = V[:, 1:-1] @ (V[:, 1:-1].conj().T @ _start_vector(n))
    if n > 4:  # room for x in the middle eigenspace and off the start vector
        x -= b * np.vdot(b, x) / np.vdot(b, b)
    x /= np.linalg.norm(x)
    t = 1e-5 * float(np.linalg.eigvalsh(rho)[-1])
    sigma = (rho + t * np.outer(x, x.conj())) / (1.0 + t)
    return rho, (sigma + sigma.conj().T) / 2.0


@st.composite
def witness_pairs(draw):
    """(kind, R, S) raw, R not below S for every kind but "random".

    "hard": S = I/n above a state whose extreme eigenvectors avoid the start
    vector or sit in a narrow cluster; qpe_leq's sandwich, the four order
    matrices below and is_psd's all take their witness at those ends.
    "fallback": _rounding_fallback_pair.
    """
    kind = draw(st.sampled_from(["random", "hard", "fallback"]))
    n = draw(dims_across_the_crossover)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return kind, random_state(n, rng=rng).matrix.copy(), random_state(n, rng=rng).matrix.copy()
    if kind == "fallback":
        return (kind, *_rounding_fallback_pair(max(n, 4), rng))
    orthogonal = draw(st.booleans())
    width = draw(st.sampled_from([0.3, 1e-6, 1e-9, 1e-12]))
    return kind, _state_with_hard_ends(n, rng, orthogonal, width), np.eye(n) / n


def _order_matrices(rho, sigma):
    """Each predicate with the matrix its fails witness must certify on."""
    r_top, s_top = float(rho.eigenvalues[0]), float(sigma.eigenvalues[0])
    r_min, s_min = float(rho.eigenvalues[-1]), float(sigma.eigenvalues[-1])
    qpe_matrix = s_top * rho.matrix - r_top * sigma.matrix
    return {
        "qpe_leq": (qpe_leq(rho, sigma), qpe_matrix),
        # full-rank pairs: lev decides on its order matrix, not structurally
        "lev_leq": (lev_leq(rho, sigma), r_min * sigma.matrix - s_min * rho.matrix),
        "primed_leq": (primed_leq(rho, sigma),
                       (s_top - r_top) * np.eye(rho.dim) - (sigma.matrix - rho.matrix)),
        "f_renormalized_leq": (f_renormalized_leq(rho, sigma, "op_norm"),
                               sigma.norm * rho.matrix - rho.norm * sigma.matrix),
        "is_psd": (is_psd(qpe_matrix), qpe_matrix),
    }


@PROPERTY_SETTINGS
@given(case=witness_pairs())
def test_every_fails_witness_certifies_on_its_order_matrix(case):
    kind, R, S = case
    rho, sigma = DensityMatrix(R), DensityMatrix(S)
    for orientation in ((rho, sigma), (sigma, rho)):
        for name, (verdict, M) in _order_matrices(*orientation).items():
            if not verdict.fails:
                continue
            u = verdict.witness
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12, name
            assert np.vdot(u, M @ u).real < 0.0, (name, verdict.slack)
    verdict = qpe_leq(rho, sigma)
    if kind != "random":
        assert verdict.fails
    if kind == "fallback":
        # decided on the order matrix, not on the sandwich
        sandwich_slack = 1.0 - float(rho.eigenvalues[0]) * float(
            sandwich(rho, sigma).eigenvalues[0]) / float(sigma.eigenvalues[0])
        assert verdict.slack != sandwich_slack


def _float(x):
    return np.float64(x).tobytes()


# every function operator_pair gates, with the kinds of its two operands
# ("s" a state, "e" an effect) and the bytes its result is compared by
GATED = {
    "qpe_leq": ("ss", lambda a, b: _bits(qpe_leq(a, b))),
    "lev_leq": ("ss", lambda a, b: _bits(lev_leq(a, b))),
    "primed_leq": ("ss", lambda a, b: _bits(primed_leq(a, b))),
    "f_renormalized_leq": ("ss", lambda a, b: _bits(f_renormalized_leq(a, b, "op_norm"))),
    "max_divergence": ("ss", lambda a, b: _fields(max_divergence(a, b))),
    "renyi_divergence": ("ss", lambda a, b: tuple(_fields(renyi_divergence(a, b, alpha))
                                                  for alpha in (0.5, 1.0, 2.0))),
    "povm_distinguishability_lower_bound":
        ("ss", lambda a, b: _float(povm_distinguishability_lower_bound(a, b))),
    "effect_probability": ("se", lambda a, b: _float(effect_probability(a, b))),
    "fls_update": ("se", lambda a, b: fls_update(a, b).matrix.tobytes()),
    "sequential_update": ("se", lambda a, b: sequential_update(a, b).matrix.tobytes()),
    "sequential_solve_effect": ("ss", lambda a, b: sequential_solve_effect(a, b).matrix.tobytes()),
    "reconstruct_effect": ("ss", lambda a, b: reconstruct_effect(a, b).matrix.tobytes()),
    "way_below_witness": ("ss", lambda a, b: _fields(way_below_witness(a, b))),
    "qpe_order_oracle": ("ss", lambda a, b: _bits(qpe_order_oracle(a, b))),
    "random_effect_lower_bound": ("ss", lambda a, b: _float(random_effect_lower_bound(a, b, trials=4))),
    "fidelity": ("ss", lambda a, b: _float(fidelity(a, b))),
    "mixing_monotone_check": ("ss", lambda a, b: mixing_monotone_check(a, a, b, 0.3)),
    "directed_supremum": ("ss", lambda a, b: directed_supremum([a, b, b]).matrix.tobytes()),
}


def _dim(a):
    return a.dim if isinstance(a, DensityMatrix) else len(a)


# the single-operand functions, which take a raw array through as_operator
ONE_OPERAND = {
    "renyi_entropy": lambda a: tuple(_float(renyi_entropy(a, alpha)) for alpha in (0.5, 1.0, np.inf)),
    "depolarize": lambda a: depolarize(a, 0.3).matrix.tobytes(),
    "eigenvalue_shadow": lambda a: eigenvalue_shadow(a).tobytes(),
    "min_entropy": lambda a: _float(min_entropy(a)),
    "top_eigenvalue": lambda a: _float(top_eigenvalue(a)),
    "rank_of": rank_of,
    "random_agreeing_effect":
        lambda a: random_agreeing_effect(a, np.random.default_rng(0)).matrix.tobytes(),
    "Channel.apply": lambda a: Channel.random(_dim(a), 3, 2, rng=0).apply(a).matrix.tobytes(),
    "choi_form_output":
        lambda a: choi_form_output(Channel.random(_dim(a), 3, 2, rng=0), a).matrix.tobytes(),
    # id_n x phi for a channel phi on dimension 1, so the input is n x 1
    "extended_output": lambda a: extended_output(Channel.random(1, 2, 2, rng=0), a,
                                                 _dim(a)).matrix.tobytes(),
}


def _fresh(kinds, raw):
    return tuple((DensityMatrix if kind == "s" else Effect)(M) for kind, M in zip(kinds, raw))


def _outcome(query, *operands):
    try:
        return query(*operands)
    except QpeError as exc:
        return type(exc).__name__


@PROPERTY_SETTINGS
@given(pair=raw_pairs())
def test_a_raw_operand_gets_the_result_of_a_fresh_state(pair):
    for name, (kinds, query) in GATED.items():
        assert _outcome(query, *pair) == _outcome(query, *_fresh(kinds, pair)), name
    for name, query in ONE_OPERAND.items():
        for M in pair:
            assert _outcome(query, M) == _outcome(query, DensityMatrix(M)), name


@pytest.mark.parametrize("name", sorted(GATED))
def test_operands_of_two_dims_raise_dimension_mismatch(name):
    """The whole refusal text, in the query's own operand order: the first
    operand's dim is named first, raw or built, so a gate whose operands
    were swapped fails here."""
    kinds, query = GATED[name]
    small, large = random_state(2, rng=0).matrix, random_state(3, rng=1).matrix
    for raw, text in zip(((small, large), (large, small)), ("2 vs 3", "3 vs 2")):
        for operands in (raw, _fresh(kinds, raw)):
            with pytest.raises(DimensionMismatch, match=f"^operand dimensions differ: {text}$"):
                query(*operands)


# a raw operand decisively below zero in one eigenvalue
NOT_PSD = np.diag([0.75, 0.5, -0.25])


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("name", sorted(GATED))
def test_a_raw_operand_outside_the_psd_band_raises_negative_eigenvalue(name, slot):
    """The gate refuses it whatever the other operand, before the function
    reads either: no answer, and no refusal of another kind."""
    kinds, query = GATED[name]
    operands = list(_fresh(kinds, (random_state(3, rng=0).matrix,) * 2))
    operands[slot] = NOT_PSD
    with pytest.raises(NegativeEigenvalue,
                       match=r"^operator not PSD \(lambda_min = -2\.500e-01\)$"):
        query(*operands)


# a raw operand that a mixing or a channel maps onto a state:
# depolarize(MAPPED_NOT_PSD, 0.9) would be diag(0.6, 0.4)
MAPPED_NOT_PSD = np.diag([1.5, -0.5])
# the single-operand functions that read their operand as PSD, each with
# a map that would take MAPPED_NOT_PSD to a state
ONE_OPERAND_GATED = {
    "depolarize": lambda a: depolarize(a, 0.9),
    "Channel.apply": lambda a: Channel.depolarizing(2, 0.9).apply(a),
    "extended_output": lambda a: extended_output(Channel.depolarizing(2, 0.9), a, 1),
    "choi_form_output": lambda a: choi_form_output(Channel.depolarizing(2, 0.9), a),
    "min_entropy": min_entropy,
    "renyi_entropy": lambda a: renyi_entropy(a, 2.0),
}


@pytest.mark.parametrize("name", sorted(ONE_OPERAND_GATED))
def test_a_one_operand_function_refuses_a_raw_operand_outside_the_psd_band(name):
    """linalg.psd_operand, operator_pair's one-operand counterpart, refuses
    it before the function maps it, so no state comes out of it."""
    with pytest.raises(NegativeEigenvalue,
                       match=r"^operator not PSD \(lambda_min = -5\.000e-01\)$"):
        ONE_OPERAND_GATED[name](MAPPED_NOT_PSD)


@st.composite
def ordered_pairs(draw):
    """Raw (rho, sigma) with rho below sigma: sigma pulled toward rho's top
    eigenvector, or a near-boundary pair."""
    if draw(st.booleans()):
        return draw(near_boundary_pairs())
    n = draw(st.integers(2, 5))
    return _pair("ordered", n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@PROPERTY_SETTINGS
@given(pair=ordered_pairs(), s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_mixing_an_ordered_pair_toward_an_anchor_below_keeps_it_ordered(pair, s, t):
    rho, sigma = (DensityMatrix(M) for M in pair)
    # rho' = depolarize(rho, s) is below rho: rho+ rho' - rho'+ rho = (s/n)(rho+ I - rho)
    assert mixing_monotone_check(depolarize(rho, s), rho, sigma, t)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(first=ordered_pairs(), second=ordered_pairs())
def test_the_tensor_product_of_ordered_pairs_is_ordered(first, second):
    rho, sigma = (DensityMatrix(np.kron(a, b)) for a, b in zip(first, second))
    assert qpe_leq(rho, sigma).holds


# the divergence is -log of a probability in (0, 1], read off one sandwich
BAYES_DIVERGENCE_TOL = 1e-12


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_the_update_moves_rho_by_the_evidence_it_receives(n, seed):
    """The abstract's Bayes claim: for a full-rank rho and an effect E whose
    top eigenvalue is 1, D_max(fls_update(rho, E) || rho) = -log tr(rho E).
    The posterior is rho^1/2 E rho^1/2 / tr(rho E), so its sandwich against
    rho is rho^-1/2 rho^1/2 E rho^1/2 rho^-1/2 / tr(rho E) = E / tr(rho E),
    whose top eigenvalue is 1 / tr(rho E); D_max is that eigenvalue's log."""
    rng = np.random.default_rng(seed)
    rho = random_state(n, rng=rng)
    effect = random_agreeing_effect(rho, rng)
    prob = float(np.trace(rho.matrix @ effect.matrix).real)
    got = max_divergence(fls_update(rho, effect), rho)
    assert not got.support_violation
    assert_allclose(got.value, -np.log(prob), rtol=0, atol=BAYES_DIVERGENCE_TOL)


# a perturbation of the top eigenvector by this much toward a lower one
# moves the slack by about -PERTURBATION^2 (rho+ / lambda - 1), at most -1.1e-7
# with lambda <= 0.9 rho+: past the default fails band (-1e-8)
PERTURBATION = 1e-3


@st.composite
def spectral_states(draw):
    """(rho, U, k): a state at dims 2-5 with eigenbasis U (columns, top
    first) and a top eigenspace of dimension k < n. The other eigenvalues
    lie in [0.05, 0.9] rho+, or are 0 (a kernel), so each sits below rho+
    by a clear gap."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = rng.uniform(0.05, 0.9, n - k) * (rng.random(n - k) < 0.8)
    w = np.concatenate([np.ones(k), rest])
    U = random_unitary(n, rng)
    return DensityMatrix((U * (w / w.sum())) @ U.conj().T), U, k


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(case=spectral_states(), seed=st.integers(0, 2**32 - 1))
def test_a_pure_state_is_above_rho_iff_it_is_a_top_eigenvector(case, seed):
    """The abstract's optimal approximation: rho is below |v><v| exactly when
    v is a top eigenvector of rho, since rho - rho+ |v><v| is then PSD. An
    eigenvector outside the top eigenspace fails, and so does a top one
    perturbed by PERTURBATION toward it."""
    rho, U, k = case
    rng = np.random.default_rng(seed)
    top = U[:, :k] @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    top /= np.linalg.norm(top)
    lower = U[:, rng.integers(k, rho.dim)]
    assert qpe_leq(rho, DensityMatrix.pure(top)).holds
    assert qpe_leq(rho, DensityMatrix.pure(lower)).fails
    assert qpe_leq(rho, DensityMatrix.pure(top + PERTURBATION * lower)).fails


@contextmanager
def _derived_builds():
    """(cls, A, w, built) for each HermitianOperator._derived call in the block."""
    builds = []
    derived = HermitianOperator._derived.__func__

    def spy(cls, A, band, least=0.0, w=None):
        built = derived(cls, A, band, least, w)
        builds.append((cls, A, w, built))
        return built

    with mock.patch.object(HermitianOperator, "_derived", classmethod(spy)):
        yield builds


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(pair=st.one_of(ordered_pairs(), raw_pairs()), seed=st.integers(0, 2**32 - 1))
def test_a_derived_build_is_the_validating_build_of_its_arithmetic(pair, seed):
    """Full-rank, rank-deficient and near-boundary operands, through every
    site that builds with _derived: the updates, reconstruct_effect,
    sequential_solve_effect, depolarize, the agreeing effects and the random
    draws."""
    rho, sigma = (DensityMatrix(M) for M in pair)
    rng = np.random.default_rng(seed)
    effect = random_agreeing_effect(rho, rng)
    n = rho.dim
    sites = [
        lambda: fls_update(rho, effect),
        lambda: sequential_update(rho, effect),
        lambda: reconstruct_effect(rho, sigma),
        lambda: sequential_solve_effect(rho, sigma),
        lambda: depolarize(rho, 0.3),
        lambda: random_agreeing_effect(rho, rng),
        lambda: random_agreeing_effect(rho, rng, projector_rank=int(rng.integers(1, n + 1))),
        lambda: random_state(n, rank=int(rng.integers(1, n + 1)), rng=rng),
        lambda: sequential_transitivity_demo(budget=1, seed=seed, dim=n),
    ]
    with _derived_builds() as builds:
        for site in sites:
            _outcome(site)
    assert builds
    for cls, A, w, built in builds:
        checked = cls(A)
        assert built.matrix.tobytes() == checked.matrix.tobytes()
        if w is None:
            assert built.eigenvalues.tobytes() == checked.eigenvalues.tobytes()
        else:
            # the reconstructed and solved effects': a spectrum over its norm
            assert np.abs(built.eigenvalues - checked.eigenvalues).max() <= 1e-13


@pytest.mark.parametrize("action", [
    lambda phi, rho: phi.apply(rho),
    lambda phi, rho: extended_output(phi, rho, 1),
], ids=["Channel.apply", "extended_output"])
def test_a_nearly_complete_kraus_family_has_its_output_renormalized(action):
    """A Kraus family is complete only to COMPLETENESS_TOL (1e-8), above the
    1e-9 trace defect the validating constructor forgives, which is why a
    channel's output stays on that constructor."""
    kraus = [np.sqrt(1.0 + 5e-9) * random_unitary(3, np.random.default_rng(0))]
    with pytest.warns(UserWarning, match="renormalizing"):
        phi = Channel(kraus)  # its Choi state carries the same defect
    with pytest.warns(UserWarning, match="renormalizing state with trace off by 5.00e-09"):
        out = action(phi, random_state(3, rng=1))
    assert abs(out.matrix.trace().real - 1.0) <= 1e-15
