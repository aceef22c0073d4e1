"""States compute their spectrum once, and the cached routes match raw arrays.

The eigensolve counts are pinned by wrapping the package's eigensolver
kernel, linalg.hermitian_eigvals and hermitian_eig, and the factorizations
by wrapping linalg.cholesky_factors, with which a state from
states.CHOLESKY_MIN_DIM on is validated.
The partner-memo tests check that a remembered order verdict, sandwich,
divergence, way-below witness or reconstructed effect is the cold result
bit for bit, also when the pair is asked again under a ToleranceConfig
with one field moved, by as little as one ulp, and that equal tolerances
share one entry.
The differential tests recompute every quantity that reads a state's cached
spectrum (sandwich, generalized powers, kernel) from the raw matrices
through matrix_power, which solves a raw array afresh on each call, and
the sandwiched Renyi divergence through numpy's own eigh.
"""
from __future__ import annotations

import copy
import dataclasses
import gc
import importlib
import json
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe import (
    Channel,
    DensityMatrix,
    DimensionMismatch,
    InvalidState,
    NotBelow,
    channel_max_divergence,
    channel_qpe_leq,
    f_renormalized_leq,
    fls_update,
    is_psd,
    jamiolkowski_properties_check,
    lev_leq,
    max_divergence,
    min_entropy,
    operator_norm,
    order_divergence_gap,
    povm_distinguishability_lower_bound,
    primed_leq,
    qpe_leq,
    qpe_order_oracle,
    random_agreeing_effect,
    random_state,
    reconstruct_effect,
    renyi_divergence,
    renyi_entropy,
    schatten_norm,
    sequential_solve_effect,
    sequential_update,
    ToleranceConfig,
    way_below_witness,
)
from qpe.channels import entanglement_fidelity, maximally_entangled
from qpe.config import DEFAULT_CONFIG
from qpe.domain import CERTIFIED_BELOW, NOT_BELOW, UNKNOWN, depolarize
from qpe.linalg import (
    PARTNER_MEMO_SIZE,
    HermitianOperator,
    OrderVerdict,
    assert_hermitian,
    cholesky_factors,
    fidelity,
    hermitian_eig,
    hermitian_eigvals,
    matrix_power,
    operator_pair,
    random_unitary,
)
from qpe.serialization import channel_json, load_channel
from qpe.states import CHOLESKY_MIN_DIM, sandwich
from spies import spying

DIFF_RTOL = 1e-10


def count_eigensolves(fn):
    """Calls of the eigensolver kernel, both functions, under every name."""
    with spying(hermitian_eigvals, hermitian_eig) as (eigvals, eig):
        fn()
    return eigvals.call_count + eig.call_count


def count_kernel_calls(fn):
    """(eigensolves, factorizations): calls of the eigensolver kernel and of
    the Cholesky kernel, under every name."""
    with spying(hermitian_eigvals, hermitian_eig, cholesky_factors) as (eigvals, eig, chol):
        fn()
    return eigvals.call_count + eig.call_count, chol.call_count


def count_hermitian_checks(fn):
    """Calls of assert_hermitian under every name a qpe module binds it to."""
    with spying(assert_hermitian) as (check,):
        fn()
    return check.call_count


@pytest.fixture
def ordered_raw_pair():
    """Raw matrices of a dim-4 pair with the first strictly below the second."""
    R = random_state(4, rng=np.random.default_rng(11)).matrix.copy()
    w, V = np.linalg.eigh(R)
    v = V[:, -1]
    S = 0.6 * R + 0.4 * np.outer(v, v.conj())
    return R, S


@pytest.fixture
def incomparable_raw_pair():
    """Raw matrices of a dim-4 pair with the first not below the second."""
    rng = np.random.default_rng(12)
    while True:
        a, b = random_state(4, rng=rng), random_state(4, rng=rng)
        if qpe_order_oracle(a, b).slack < -1e-3:
            return a.matrix.copy(), b.matrix.copy()


@pytest.fixture
def rank_deficient_raw_pair():
    """A rank-2 prior and an agreeing update of it, so the pair is ordered."""
    rng = np.random.default_rng(13)
    rho = random_state(4, rank=2, rng=rng)
    sigma = fls_update(rho, random_agreeing_effect(rho, rng))
    return rho.matrix.copy(), sigma.matrix.copy()


@pytest.fixture
def near_equal_raw_pair():
    rng = np.random.default_rng(14)
    a, b = random_state(4, rng=rng), random_state(4, rng=rng)
    return a.matrix.copy(), a.matrix + 1e-13 * (b.matrix - a.matrix)


class TestEigensolveCounts:
    def test_building_a_state_solves_once(self, ordered_raw_pair):
        R, _ = ordered_raw_pair
        # below CHOLESKY_MIN_DIM validation reads the spectrum, unfactored
        assert count_kernel_calls(lambda: DensityMatrix(R)) == (1, 0)

    @pytest.mark.parametrize("entropy", [lambda M: renyi_entropy(M, 2), min_entropy])
    def test_an_entropy_of_a_raw_operand_solves_once(self, ordered_raw_pair, entropy):
        R, _ = ordered_raw_pair
        # the gate bands the eigenvalues the entropy then reads: no eigh
        with spying(hermitian_eigvals, hermitian_eig) as (eigvals, eig):
            entropy(R)
        assert (eigvals.call_count, eig.call_count) == (1, 0)

    def test_order_on_built_states(self, ordered_raw_pair):
        rho, sigma = (DensityMatrix(M) for M in ordered_raw_pair)
        # rho's eigh for power(-0.5), then the sandwich, which stays remembered
        assert count_eigensolves(lambda: qpe_leq(rho, sigma)) == 2
        assert count_eigensolves(lambda: max_divergence(sigma, rho)) == 0

    @pytest.mark.parametrize("pair", ["ordered_raw_pair", "rank_deficient_raw_pair"])
    def test_warm_max_divergence(self, request, pair):
        rho, sigma = (DensityMatrix(M) for M in request.getfixturevalue(pair))
        max_divergence(sigma, rho)
        # the sandwich and the support check are remembered on rho
        assert count_eigensolves(lambda: max_divergence(sigma, rho)) == 0

    def test_warm_reconstruction_round_trip(self, ordered_raw_pair):
        rho, sigma = (DensityMatrix(M) for M in ordered_raw_pair)

        def round_trip():
            return fls_update(rho, reconstruct_effect(rho, sigma))

        round_trip()
        # the effect reads the sandwich spectrum, and the posterior, computed
        # from two validated operators, is built unchecked and solves nothing
        # until its spectrum is read
        assert count_eigensolves(round_trip) == 0

    def test_warm_sequential_solve_effect(self, ordered_raw_pair):
        rho, sigma = (DensityMatrix(M) for M in ordered_raw_pair)
        sequential_solve_effect(rho, sigma)

        def call():
            return sequential_solve_effect(rho, sigma)

        # the eigh of the middle factor for its root, then the candidate's
        # eigvalsh for its norm, whose spectrum over the norm is the effect's;
        # both are PSD by construction, so neither is checked
        assert count_eigensolves(call) == 2
        assert count_hermitian_checks(call) == 0

    @pytest.mark.parametrize("update", [fls_update, sequential_update])
    def test_an_update_of_raw_operands(self, ordered_raw_pair, update):
        R, _ = ordered_raw_pair
        E = random_agreeing_effect(DensityMatrix(R), np.random.default_rng(16)).matrix.copy()
        # the gate checks and bands each operand, one eigvalsh each, and the
        # outer operand's eigh forms its root; the posterior is checked on
        # the bound those spectra give, and not solved
        with spying(hermitian_eigvals, hermitian_eig) as (eigvals, eig):
            update(R, E)
        assert (eigvals.call_count, eig.call_count) == (2, 1)
        assert count_hermitian_checks(lambda: update(R, E)) == 2

    @pytest.mark.parametrize("derive", [
        lambda rho: depolarize(rho, 0.3),
        lambda rho: random_agreeing_effect(rho, np.random.default_rng(17)),
        lambda rho: random_agreeing_effect(rho, np.random.default_rng(17), projector_rank=2),
    ], ids=["depolarize", "random_agreeing_effect", "projector"])
    def test_a_state_or_effect_derived_from_a_warm_prior(self, ordered_raw_pair, derive):
        rho = DensityMatrix(ordered_raw_pair[0])
        rho.eigenvectors
        # the result lies in its band by construction, so it is derived: not
        # checked Hermitian, and its spectrum is left to its first read
        assert count_eigensolves(lambda: derive(rho)) == 0
        assert count_hermitian_checks(lambda: derive(rho)) == 0

    @pytest.mark.parametrize("pair", ["ordered_raw_pair", "rank_deficient_raw_pair"])
    def test_fidelity_reads_the_cached_eigh(self, request, pair):
        rho, sigma = (DensityMatrix(M) for M in request.getfixturevalue(pair))
        rho.eigenvectors, sigma.eigenvectors
        # both supports are read off the cached eighs, and the trace takes
        # singular values: no inner matrix is solved
        assert count_eigensolves(lambda: fidelity(rho, sigma)) == 0
        assert count_eigensolves(lambda: renyi_divergence(sigma, rho, 0.5)) == 0

    @pytest.mark.parametrize("pair", ["ordered_raw_pair", "rank_deficient_raw_pair"])
    def test_warm_order_divergence_gap(self, request, pair):
        rho, sigma = (DensityMatrix(M) for M in request.getfixturevalue(pair))
        order_divergence_gap(rho, sigma)
        assert count_eigensolves(lambda: order_divergence_gap(rho, sigma)) == 0

    def test_kernel_obstruction_counts_on_rho_s_eigh(self, rank_deficient_raw_pair):
        rho, sigma = (DensityMatrix(M) for M in rank_deficient_raw_pair)
        # cold: rho's eigh, which states.rank_of counts, as kernel cuts it
        assert count_eigensolves(lambda: way_below_witness(rho, sigma)) == 1
        assert way_below_witness(rho, sigma).rule == "kernel-obstruction"

    @pytest.mark.parametrize("ordered", [True, False])
    def test_cold_pairs_op(self, ordered_raw_pair, incomparable_raw_pair, ordered):
        """The benchmark's pairs op: two builds, the gap, then the round trip
        (ordered) or the NotBelow refusal (incomparable)."""
        R, S = ordered_raw_pair if ordered else incomparable_raw_pair

        def op():
            rho, sigma = DensityMatrix(R), DensityMatrix(S)
            order_divergence_gap(rho, sigma)
            if ordered:
                fls_update(rho, reconstruct_effect(rho, sigma))
            else:
                with pytest.raises(NotBelow):
                    reconstruct_effect(rho, sigma)

        # builds 2, power(-0.5)'s eigh 1, sandwich 1, and then, at these dims
        # below linalg.SHIFTED_SOLVE_MIN_DIM, the sandwich's eigh for the
        # fails witness (incomparable) 1; the verdict reads the sandwich the
        # max-divergence built, and the posterior (ordered) is not solved
        assert count_eigensolves(op) == (4 if ordered else 5)

    def test_building_a_large_state_solves_nothing(self):
        """From CHOLESKY_MIN_DIM on, a full-rank state is validated by one
        factorization, and its spectrum is solved on its first read."""
        for n in (CHOLESKY_MIN_DIM, 64):
            R = random_state(n, rng=np.random.default_rng(n)).matrix.copy()
            built = []
            assert count_kernel_calls(lambda: built.append(DensityMatrix(R))) == (0, 1)
            rho, = built
            assert "eigenvalues" not in vars(rho)
            assert count_kernel_calls(lambda: rho.eigenvalues) == (1, 0)
            assert count_kernel_calls(lambda: rho.eigenvalues) == (0, 0)

    def test_a_singular_large_state_falls_back_to_its_spectrum(self):
        R = random_state(CHOLESKY_MIN_DIM, rank=3, rng=np.random.default_rng(8)).matrix.copy()
        assert count_kernel_calls(lambda: DensityMatrix(R)) == (1, 1)

    @pytest.mark.parametrize("ordered", [True, False])
    def test_cold_pairs_op_above_the_witness_crossover(self, ordered):
        """pairs_large's op: each build is one factorization, and the order
        reads rho's spectrum off the eigh its inverse square root is formed
        from. The fails witness is one shifted solve at the sandwich's known
        top eigenvalue, so an incomparable pair saves the sandwich's eigh, as
        an ordered pair saves the posterior's solve."""
        rng = np.random.default_rng(15)
        rho = random_state(64, rng=rng)
        if ordered:
            sigma = fls_update(rho, random_agreeing_effect(rho, rng))
        else:
            sigma = random_state(64, rng=rng)
        R, S = rho.matrix.copy(), sigma.matrix.copy()

        def op():
            rho, sigma = DensityMatrix(R), DensityMatrix(S)
            gap, verdict = order_divergence_gap(rho, sigma)
            assert verdict.holds == ordered and (ordered or verdict.fails)
            if ordered:
                fls_update(rho, reconstruct_effect(rho, sigma))
            else:
                with pytest.raises(NotBelow):
                    reconstruct_effect(rho, sigma)

        # rho's eigh, sigma's eigvalsh (its top eigenvalue), the sandwich's
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            assert count_kernel_calls(op) == (3, 2)
        assert solve.call_count == (0 if ordered else 1)


class TestMatrixPredicatesReadTheCache:
    """The matrix orders and the norm and PSD helpers reuse a built state's
    validation and spectrum; only the one-shot order matrix is solved."""

    def test_op_norm_renormalized_order(self, ordered_raw_pair):
        rho, sigma = (DensityMatrix(M) for M in ordered_raw_pair)

        def call():
            return f_renormalized_leq(rho, sigma, "op_norm")

        assert count_eigensolves(call) == 1
        assert count_hermitian_checks(call) == 0

    @pytest.mark.parametrize("ordered", [True, False])
    def test_lev_order_reads_rho_and_sigma_minus_off_the_spectra(self, ordered_raw_pair, ordered):
        R, S = ordered_raw_pair
        rho, sigma = (DensityMatrix(M) for M in ((R, S) if ordered else (S, R)))
        # the order matrix's eigvalsh, rho's eigh, whose rank confirms the
        # cached counts, and the eigh of a fails witness below
        # SHIFTED_SOLVE_MIN_DIM; no eigh of sigma
        with spying(hermitian_eigvals, hermitian_eig) as (eigvals, eig):
            verdict = lev_leq(rho, sigma)
        assert verdict.relation == ("holds" if ordered else "fails")
        assert (eigvals.call_count, eig.call_count) == (1, 1 if ordered else 2)

    @pytest.mark.parametrize("lower,upper,relation,solves", [
        # equal kernels: both states' eighs, escape's block eigh, the order
        # matrix's eigvalsh and its fails witness's eigh
        ([0.5, 0.3, 0.2, 0.0], [0.45, 0.35, 0.2, 0.0], "fails", (1, 4)),
        # grown kernel: both states' eighs and escape's block eigh; the
        # bottom eigenspace and sigma's kernel are slices of those eighs
        ([0.5, 0.3, 0.2, 0.0], [0.6, 0.4, 0.0, 0.0], "holds", (0, 3)),
        # escaping: rho's eigh and escape's block eigh, whose top eigenvector
        # is the witness; sigma's eigh is not needed
        ([0.5, 0.3, 0.2, 0.0], [0.4, 0.3, 0.2, 0.1], "fails", (0, 2)),
        # full rank by the cached counts and rho's eigh: that eigh, then the
        # order matrix's eigvalsh and its fails witness's eigh
        ([0.4, 0.3, 0.2, 0.1], [0.35, 0.3, 0.2, 0.15], "fails", (1, 2)),
    ])
    def test_lev_structural_routes(self, lower, upper, relation, solves):
        U = random_unitary(4, np.random.default_rng(3))
        rho, sigma = (DensityMatrix((U * np.array(d)) @ U.conj().T) for d in (lower, upper))
        with spying(hermitian_eigvals, hermitian_eig) as (eigvals, eig):
            verdict = lev_leq(rho, sigma)
        assert verdict.relation == relation
        assert (eigvals.call_count, eig.call_count) == solves

    @pytest.mark.parametrize("predicate", [primed_leq, lev_leq])
    def test_no_hermitian_check_on_built_states(self, ordered_raw_pair, predicate):
        rho, sigma = (DensityMatrix(M) for M in ordered_raw_pair)
        assert count_hermitian_checks(lambda: predicate(rho, sigma)) == 0

    @pytest.mark.parametrize("helper", [
        operator_norm,
        lambda op: schatten_norm(op, 2),
        is_psd,
    ])
    def test_norm_and_psd_helpers_on_a_warm_state(self, ordered_raw_pair, helper):
        rho = DensityMatrix(ordered_raw_pair[0])
        assert count_eigensolves(lambda: helper(rho)) == 0

    def test_jamiolkowski_check_reads_the_choi_spectrum(self):
        rng = np.random.default_rng(3)
        phi1, phi2, mix_with = (Channel.random(2, 3, 2, rng) for _ in range(3))
        xi_pre, xi_post = Channel.random(2, 2, 2, rng), Channel.random(3, 2, 2, rng)
        # phi1's Choi spectrum, which its construction no longer solved, for
        # cp_psd, and its eigh, whose rank the Kraus count is matched with;
        # then from_choi plus the lazy Kraus recovery. The four channels
        # built from Kraus families inside solve nothing
        assert count_eigensolves(lambda: jamiolkowski_properties_check(
            phi1, phi2, xi_pre, xi_post, mix_with)) == 4


class TestChannelOrderSolves:
    """channel_qpe_leq is one qpe_leq on the cached Choi states."""

    @pytest.mark.parametrize("ordered,solves", [(True, 3), (False, 3)])
    def test_one_order_decision_per_query(self, ordered, solves):
        rng = np.random.default_rng(5)
        phi = Channel.random(3, 2, 2, rng)
        if ordered:
            depolarized = 0.6 * phi.choi.matrix + 0.4 * np.eye(6) / 6
            lower, upper = Channel.from_choi(depolarized, 3, 2), phi
        else:
            lower, upper = phi, Channel.random(3, 2, 2, rng)
        with mock.patch("qpe.channels.qpe_leq", wraps=qpe_leq) as order, \
                mock.patch.object(Channel, "_apply_matrix") as kraus_action:
            # ordered: the full-rank lower Choi state's eigh and the sandwich;
            # fails: the rank-2 lower state's eigh, whose own eigenvalues
            # count its kernel, so the lower state solves no eigvalsh, and
            # the eigh of the upper state on that kernel, whose top vector is
            # the witness. The upper Choi state, built from a Kraus family,
            # solves its eigvalsh here, not at construction
            assert count_eigensolves(lambda: channel_qpe_leq(lower, upper)) == solves
        assert order.call_count == 1
        assert kraus_action.call_count == 0
        assert channel_qpe_leq(lower, upper).holds == ordered


class TestChoiChannelSolves:
    """A channel built from a Choi matrix solves its Choi state once and
    recovers its Kraus family with one more eigh, on the first read only."""

    def test_from_choi_solves_once_and_recovers_kraus_lazily(self):
        J = Channel.random(3, 2, 2, np.random.default_rng(6)).choi.matrix
        assert count_eigensolves(lambda: Channel.from_choi(J, 3, 2)) == 1
        phi = Channel.from_choi(J, 3, 2)
        assert count_eigensolves(lambda: phi.kraus) == 1
        assert count_eigensolves(lambda: phi.kraus) == 0

    def test_a_large_choi_state_is_validated_on_its_spectrum(self):
        """from_choi reads the Choi spectrum, so from CHOLESKY_MIN_DIM on it
        validates on that one eigvalsh and factors nothing."""
        assert 16 >= CHOLESKY_MIN_DIM
        with spying(hermitian_eigvals, hermitian_eig, cholesky_factors) as (eigvals, eig, chol):
            Channel.depolarizing(4, 0.3)
        assert (eigvals.call_count, eig.call_count, chol.call_count) == (1, 0, 0)

    @pytest.mark.parametrize("n, k, rank", [(2, 2, 1), (4, 4, 3)])
    def test_a_kraus_channel_is_built_without_a_solve(self, n, k, rank):
        """A Kraus family's Choi matrix is PSD by construction (Choi's
        theorem), so building the channel solves and factors nothing, at
        Choi dim 4 and at 16, past CHOLESKY_MIN_DIM; the spectrum is left to
        its first read."""
        assert 4 < CHOLESKY_MIN_DIM <= 16
        kraus = Channel.random(n, k, rank, np.random.default_rng(n)).kraus
        built = []
        assert count_kernel_calls(lambda: built.append(Channel(kraus, n, k))) == (0, 0)
        assert "eigenvalues" not in vars(built[0].choi)

    def test_a_channel_checks_its_choi_matrix_hermitian_once(self):
        phi = Channel.random(3, 2, 2, np.random.default_rng(6))
        assert count_hermitian_checks(lambda: Channel.from_choi(phi.choi.matrix, 3, 2)) == 1
        assert count_hermitian_checks(lambda: Channel(phi.kraus, 3, 2)) == 1

    def test_repr_reads_the_choi_spectrum(self):
        J = Channel.random(3, 2, 2, np.random.default_rng(6)).choi.matrix
        phi = Channel.from_choi(J, 3, 2)
        # the Choi eigh, whose rank is the Kraus count, which then reads it
        assert count_eigensolves(lambda: repr(phi)) == 1
        assert repr(phi) == "Channel(in_dim=3, out_dim=2, choi_rank=2)"
        assert len(phi.kraus) == 2

    def test_pure_states_are_derived(self):
        """maximally_entangled and entanglement_fidelity's attaining input are
        projectors onto unit vectors, so they are derived: neither solves the
        pure state's spectrum or checks it Hermitian."""
        assert (count_eigensolves(lambda: maximally_entangled(3)),
                count_hermitian_checks(lambda: maximally_entangled(3))) == (0, 0)
        phi = Channel.random(2, 2, 2, np.random.default_rng(6))
        phi.choi.eigenvectors  # warm: only the Choi state's top eigenvalue is left
        assert (count_eigensolves(lambda: entanglement_fidelity(phi)),
                count_hermitian_checks(lambda: entanglement_fidelity(phi))) == (1, 0)

    def test_completeness_past_the_dropped_weight_bound_recovers_kraus_early(self):
        # three Choi eigenvalues -2e-9: 2 * 6e-9 is past COMPLETENESS_TOL, so
        # from_choi measures the recovered family, which the channel keeps
        t = -8e-9
        J = (1 - t) * Channel.identity(2).choi.matrix + t * np.eye(4) / 4
        assert count_eigensolves(lambda: Channel.from_choi(J, 2, 2)) == 2
        phi = Channel.from_choi(J, 2, 2)
        assert count_eigensolves(lambda: phi.kraus) == 0

    def test_order_of_two_loaded_choi_documents(self, tmp_path):
        upper = Channel.random(3, 2, 2, np.random.default_rng(7))
        lower = Channel.from_choi(0.6 * upper.choi.matrix + 0.4 * np.eye(6) / 6, 3, 2)
        paths = []
        for name, phi in (("lower", lower), ("upper", upper)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(channel_json(phi)))
            paths.append(str(path))

        def op():
            return channel_qpe_leq(*(load_channel(path) for path in paths))

        # two loads, the lower state's eigh and the sandwich
        assert count_eigensolves(op) == 4
        assert op().holds


def _top(M):
    return float(np.linalg.eigvalsh(M)[-1])


def _raw_sandwich(R, S, p=-0.5):
    X = matrix_power(R, p)
    M = X @ S @ X
    return (M + M.conj().T) / 2.0


def _raw_max_divergence(S, R):
    return float(np.log(np.abs(np.linalg.eigvalsh(_raw_sandwich(R, S))).max()))


def _raw_effect(R, S):
    X = matrix_power(R / _top(R), -0.5)
    M = X @ (S / _top(S)) @ X
    M = (M + M.conj().T) / 2.0
    return M / np.abs(np.linalg.eigvalsh(M)).max()


def _raw_renyi(S, R, alpha):
    # the inner matrix compressed to R's support, from numpy's own eigh: S
    # lives there, so it has full rank and no eigenvalue to clamp
    w, V = np.linalg.eigh(R)
    live = w > DEFAULT_CONFIG.rank_cutoff * w[-1]
    X = V[:, live] * w[live] ** ((1.0 - alpha) / (2.0 * alpha))
    M = X.conj().T @ S @ X
    inner = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return float(np.log((inner ** alpha).sum()) / (alpha - 1.0))


def _near_degenerate(rng):
    U = random_unitary(4, rng)
    return DensityMatrix((U * np.array([0.4, 0.4 - 1e-11, 0.15, 0.05])) @ U.conj().T)


PRIORS = {
    "full_rank": lambda rng: random_state(4, rng=rng),
    "rank_deficient": lambda rng: random_state(4, rank=2, rng=rng),
    "near_degenerate": _near_degenerate,
}


@pytest.fixture(params=sorted(PRIORS))
def state_pair(request):
    """A prior and an agreeing update of it, so the target stays inside the
    prior's support and every divergence is finite."""
    rng = np.random.default_rng(2024)
    rho = PRIORS[request.param](rng)
    sigma = fls_update(rho, random_agreeing_effect(rho, rng))
    # fresh objects: nothing cached before the route under test runs
    return DensityMatrix(rho.matrix), DensityMatrix(sigma.matrix)


class TestCachedRoutesMatchRawArrays:
    def test_max_divergence(self, state_pair):
        rho, sigma = state_pair
        assert_allclose(max_divergence(sigma, rho).value,
                        _raw_max_divergence(sigma.matrix, rho.matrix), rtol=DIFF_RTOL)

    def test_reconstruct_effect(self, state_pair):
        rho, sigma = state_pair
        want = _raw_effect(rho.matrix, sigma.matrix)
        got = reconstruct_effect(rho, sigma).matrix
        assert_allclose(got, want, rtol=0, atol=DIFF_RTOL * np.abs(want).max())

    def test_reconstructed_effect_spectrum(self, state_pair):
        # the effect takes the sandwich spectrum over its norm instead of solving
        effect = reconstruct_effect(*state_pair)
        assert_allclose(effect.eigenvalues, np.linalg.eigvalsh(effect.matrix)[::-1],
                        rtol=0, atol=1e-13)
        assert effect.eigenvalues[0] == 1.0

    def test_effect_from_raw_operands_keeps_its_bounds(self):
        # the raw upper operand's -5e-9 lies inside the PSD band, so the gate
        # passes it and stamps it with that band; the pair is ordered, and the
        # effect, banded there on the sandwich spectrum over its norm, is still
        # refused, as rho's 1e-6 amplifies its least eigenvalue past the band
        message = r"^effect not certified positive semidefinite \(lambda_min >= -3\.333e-03\)$"
        with pytest.raises(InvalidState, match=message):
            reconstruct_effect(np.diag([0.5, 1e-6]), np.diag([0.75, -5e-9]))

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_renyi_divergence(self, state_pair, alpha):
        rho, sigma = state_pair
        assert_allclose(renyi_divergence(sigma, rho, alpha).value,
                        _raw_renyi(sigma.matrix, rho.matrix, alpha), rtol=DIFF_RTOL)

    def test_measurement_bound_attains_the_raw_divergence(self, state_pair):
        rho, sigma = state_pair
        assert_allclose(povm_distinguishability_lower_bound(sigma, rho),
                        _raw_max_divergence(sigma.matrix, rho.matrix), rtol=DIFF_RTOL)

    def test_eigenvalues_match_lazy_eigh(self, state_pair):
        for state in state_pair:
            cached = state.eigenvalues.copy()
            V = state.eigenvectors
            assert_allclose(cached, np.linalg.eigh(state.matrix)[0][::-1], atol=1e-12)
            rayleigh = np.einsum("ij,ik,kj->j", V.conj(), state.matrix, V).real
            assert_allclose(cached, rayleigh, atol=1e-12)

    def test_cached_spectrum_is_read_only(self, state_pair):
        rho, _ = state_pair
        for arr in (rho.eigenvalues, rho.eigenvectors):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_support_hands_out_a_read_only_view_of_the_cached_eigh(self):
        # a write through it would move every later query that reads the eigh
        rho = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        w, V = rho.support()
        for arr in (w, V, rho._eigh[0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 100.0
        assert rho._eigh[0][0] == 0.5


MEMO_PAIRS = ["ordered_raw_pair", "incomparable_raw_pair",
              "rank_deficient_raw_pair", "near_equal_raw_pair"]


def _bits(x):
    """Everything a pair query returns, as bytes, so equality is bit for bit."""
    if isinstance(x, OrderVerdict):
        return (x.relation, np.float64(x.slack).tobytes(),
                None if x.witness is None else x.witness.tobytes())
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, HermitianOperator):
        return x.matrix.tobytes()
    if dataclasses.is_dataclass(x):
        # a divergence or a way-below witness: every field, floats as bytes
        return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                     for v in dataclasses.astuple(x))
    return np.float64(x).tobytes()


def _round_trip(rho, sigma):
    try:
        effect = reconstruct_effect(rho, sigma)
    except NotBelow:
        return "NotBelow"
    return _bits(effect), _bits(fls_update(rho, effect))


PAIR_QUERIES = {
    "qpe_leq": lambda rho, sigma: _bits(qpe_leq(rho, sigma)),
    "max_divergence": lambda rho, sigma: _bits(max_divergence(sigma, rho)),
    "order_divergence_gap": lambda rho, sigma: _bits(order_divergence_gap(rho, sigma)),
    "round_trip": _round_trip,
}


class TestPartnerMemo:
    """A state remembers its order verdict, sandwich, max-divergence and
    way-below witness for its recent partners (up to 8,
    oldest dropped first, so at most 8 sandwiches per live state); a memo
    hit is the cold result, bit for bit."""

    @pytest.mark.parametrize("pair", MEMO_PAIRS)
    def test_hits_equal_cold_calls(self, request, pair):
        R, S = request.getfixturevalue(pair)
        rho, sigma = DensityMatrix(R), DensityMatrix(S)
        for _ in range(2):
            for name, query in PAIR_QUERIES.items():
                cold = query(DensityMatrix(R), DensityMatrix(S))
                assert query(rho, sigma) == cold, name

    def test_memoized_verdict_is_shared(self, incomparable_raw_pair):
        rho, sigma = (DensityMatrix(M) for M in incomparable_raw_pair)
        first = qpe_leq(rho, sigma)
        assert count_eigensolves(lambda: qpe_leq(rho, sigma)) == 0
        assert qpe_leq(rho, sigma) is first

    def test_warm_divergences_and_witness_are_the_cold_objects(self):
        rng = np.random.default_rng(8)
        sigma = random_state(3, rng=rng)
        rho = depolarize(sigma, 0.4)
        phi = Channel.random(2, 2, 2, rng)
        psi = Channel.from_choi(0.6 * phi.choi.matrix + 0.4 * np.eye(4) / 4, 2, 2)
        queries = [lambda: max_divergence(sigma, rho),
                   lambda: renyi_divergence(sigma, rho, np.inf),
                   lambda: way_below_witness(rho, sigma),
                   lambda: channel_max_divergence(phi, psi)]
        cold = [query() for query in queries]
        # alpha = inf is the max-divergence and shares its entry
        assert cold[1] is cold[0]
        assert cold[2].certified and np.isfinite(cold[3].value)
        for query, first in zip(queries, cold):
            assert count_eigensolves(query) == 0
            assert query() is first

    def test_other_psd_slack_recomputes(self, incomparable_raw_pair):
        R, S = incomparable_raw_pair
        rho, sigma = DensityMatrix(R), DensityMatrix(S)
        loose = ToleranceConfig(psd_slack=1.0)
        assert qpe_leq(rho, sigma).fails
        # the sandwich is keyed on rank_cutoff only, so the new verdict reads it
        assert count_eigensolves(lambda: qpe_leq(rho, sigma, loose)) == 0
        assert qpe_leq(rho, sigma, loose).holds
        assert _bits(qpe_leq(rho, sigma, loose)) == _bits(
            qpe_leq(DensityMatrix(R), DensityMatrix(S), loose))
        assert qpe_leq(rho, sigma).fails

    def test_other_rank_cutoff_rebuilds_the_sandwich(self):
        rng = np.random.default_rng(4)
        U = random_unitary(4, rng)
        R = (U * np.array([0.6, 0.3, 0.1 - 1e-11, 1e-11])) @ U.conj().T
        S = random_state(4, rng=rng).matrix.copy()
        rho, sigma = DensityMatrix(R), DensityMatrix(S)
        coarse = ToleranceConfig(rank_cutoff=1e-10)
        fine = sandwich(rho, sigma).norm
        # the rebuild is a new sandwich, which solves nothing until read
        assert count_eigensolves(lambda: sandwich(rho, sigma, coarse)) == 0
        assert sandwich(rho, sigma, coarse) is not sandwich(rho, sigma)
        assert sandwich(rho, sigma, coarse) is sandwich(rho, sigma, coarse)
        default = qpe_leq(rho, sigma)
        # the verdict reads rank_cutoff too: at the coarse cutoff rho's 1e-11
        # direction is kernel, sigma escapes along it, and the witness is the
        # top eigenvector of sigma on that kernel, one eigh
        assert count_eigensolves(lambda: qpe_leq(rho, sigma, coarse)) == 1
        escaped = qpe_leq(rho, sigma, coarse)
        assert escaped.slack == -np.inf and np.isfinite(default.slack)
        assert _bits(escaped) == _bits(qpe_leq(DensityMatrix(R), DensityMatrix(S), coarse))
        # the coarse cutoff drops rho's 1e-11 eigenvalue from the inverse
        assert sandwich(rho, sigma, coarse).norm < 1e-3 * fine
        cold = sandwich(DensityMatrix(R), DensityMatrix(S), coarse)
        assert sandwich(rho, sigma, coarse).matrix.tobytes() == cold.matrix.tobytes()
        assert sandwich(rho, sigma).norm == fine

    def test_equal_valued_partner_is_a_miss(self, ordered_raw_pair):
        R, S = ordered_raw_pair
        rho, sigma, twin = DensityMatrix(R), DensityMatrix(S), DensityMatrix(S)
        first = qpe_leq(rho, sigma)
        max_divergence(sigma, rho)
        # the twin's sandwich (power(-0.5) is rho's own eigh, cached), which the
        # max-divergence then reads
        assert count_eigensolves(lambda: qpe_leq(rho, twin)) == 1
        assert count_eigensolves(lambda: max_divergence(twin, rho)) == 0
        assert qpe_leq(rho, twin) is not first
        assert _bits(qpe_leq(rho, twin)) == _bits(first)

    def test_memoized_witness_is_read_only(self, incomparable_raw_pair):
        rho, sigma = (DensityMatrix(M) for M in incomparable_raw_pair)
        for verdict in (qpe_leq(rho, sigma), qpe_leq(rho, sigma)):
            assert verdict.fails
            with pytest.raises(ValueError):
                verdict.witness[0] = 0.0

    @pytest.mark.parametrize("duplicate", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy])
    def test_compared_state_pickles_and_copies(self, incomparable_raw_pair, duplicate):
        rho, sigma = (DensityMatrix(M) for M in incomparable_raw_pair)
        verdict = qpe_leq(rho, sigma)
        max_divergence(sigma, rho)
        twin = duplicate(rho)
        assert len(rho._partners) == 1 and twin._partners == {}
        assert twin.matrix.tobytes() == rho.matrix.tobytes()
        assert _bits(qpe_leq(twin, sigma)) == _bits(verdict)

    def test_compared_chain_stays_collectable(self):
        rng = np.random.default_rng(9)
        chain = [random_state(3, rng=rng)]
        for _ in range(49):
            chain.append(fls_update(chain[-1], random_agreeing_effect(chain[-1], rng)))
        # newest to oldest, so each state's memo names an older partner
        for newer, older in zip(chain[:0:-1], chain[-2::-1]):
            qpe_leq(newer, older)
            order_divergence_gap(newer, older)
            qpe_leq(older, newer)
            reconstruct_effect(older, newer)
        newest = chain[-1]
        refs = [weakref.ref(state) for state in chain[:-1]]
        del chain, newer, older
        gc.collect()
        assert [ref() for ref in refs] == [None] * 49
        assert qpe_leq(newest, newest).holds

    # the _queries results a hit returns as the same object: the verdict,
    # the max-divergence and the way-below witness
    SHARED = (0, 1, 4)

    @staticmethod
    def _prior_and_partners(k, seed=21):
        """A warm dim-4 prior and k agreeing updates of it, each above it."""
        rng = np.random.default_rng(seed)
        R = random_state(4, rng=rng).matrix.copy()
        base = DensityMatrix(R)
        partners = [fls_update(base, random_agreeing_effect(base, rng)) for _ in range(k)]
        rho = DensityMatrix(R)
        # rho's and the partners' own solves (an update's spectrum is solved
        # on first read), so each pair below costs only its own
        rho.power(-0.5)
        for sigma in partners:
            sigma.eigenvalues
        return R, rho, partners

    @staticmethod
    def _queries(rho, sigma):
        """The pair queries remembered on rho: the results and their solves.
        Results 0, 1 and 4 are remembered whole (see SHARED)."""
        results = []

        def run():
            results.extend([qpe_leq(rho, sigma), max_divergence(sigma, rho),
                            order_divergence_gap(rho, sigma), reconstruct_effect(rho, sigma),
                            way_below_witness(rho, sigma)])

        return count_eigensolves(run), results

    @pytest.mark.parametrize("k", [2, PARTNER_MEMO_SIZE])
    def test_round_robin_within_the_cap_is_solved_once(self, k):
        _, rho, partners = self._prior_and_partners(k)
        first = [self._queries(rho, sigma) for sigma in partners]
        assert all(solves > 0 for solves, _ in first)
        again = [self._queries(rho, sigma) for sigma in partners]
        assert [solves for solves, _ in again] == [0] * k
        for (_, cold), (_, warm) in zip(first, again):
            assert all(warm[i] is cold[i] for i in self.SHARED)
            assert [_bits(x) for x in warm] == [_bits(x) for x in cold]

    def test_partner_past_the_cap_drops_the_oldest(self):
        R, rho, partners = self._prior_and_partners(PARTNER_MEMO_SIZE + 2)
        *partners, newcomer = partners
        first = [self._queries(rho, sigma) for sigma in partners]
        cold_solves = [solves for solves, _ in first]
        assert len(rho._partners) == PARTNER_MEMO_SIZE and min(cold_solves) > 0

        def solves(sigma):
            return self._queries(rho, sigma)[0]

        assert solves(partners[-1]) == 0
        solves_back, results = self._queries(rho, partners[0])
        assert solves_back == cold_solves[0]
        # the oldest partner's entries were dropped and are rebuilt
        assert not any(results[i] is first[0][1][i] for i in self.SHARED)
        fresh = self._queries(DensityMatrix(R), DensityMatrix(partners[0].matrix.copy()))[1]
        assert [_bits(x) for x in results] == [_bits(x) for x in fresh]
        # taking the oldest back in dropped the next oldest, and nothing else
        assert solves(partners[1]) == cold_solves[1]
        assert [solves(sigma) for sigma in partners[3:]] == [0] * (PARTNER_MEMO_SIZE - 2)
        # a hit does not make a partner younger: partners[3], read just now,
        # is still the oldest inserted and goes when the newcomer comes in
        solves(newcomer)
        assert solves(partners[0]) == 0
        assert solves(partners[3]) == cold_solves[3]

    def test_long_lived_prior_keeps_no_transient_partner(self):
        rng = np.random.default_rng(22)
        prior = random_state(3, rng=rng)
        refs = []
        for _ in range(1000):
            transient = random_state(3, rng=rng)
            # a dead partner's id is soon reused, and must not read its entries
            cold = qpe_leq(DensityMatrix(prior.matrix.copy()), transient)
            assert _bits(qpe_leq(prior, transient)) == _bits(cold)
            max_divergence(transient, prior)
            assert len(prior._partners) <= PARTNER_MEMO_SIZE
            refs.append(weakref.ref(transient))
        del transient
        gc.collect()
        assert len(prior._partners) == PARTNER_MEMO_SIZE
        assert [ref() for ref in refs] == [None] * 1000


# each remembered query on (lower, upper), with the module and name of the
# module-level function that computes its entry on a miss
HIT_QUERIES = {
    "qpe_leq": (qpe_leq, "qpe.orders", "_qpe_verdict"),
    "sandwich": (sandwich, "qpe.states", "_sandwich"),
    "max_divergence": (lambda lower, upper: max_divergence(upper, lower),
                       "qpe.divergence", "_max_divergence"),
    "way_below": (way_below_witness, "qpe.domain", "_way_below"),
    "channel_qpe_leq": (channel_qpe_leq, "qpe.orders", "_qpe_verdict"),
    "channel_max_divergence": (lambda lower, upper: channel_max_divergence(upper, lower),
                               "qpe.divergence", "_max_divergence"),
}


class TestMemoHits:
    """A remembered query asked again returns the entry it stored and calls
    nothing to compute it; a miss calls the module-level function once."""

    @staticmethod
    def _fresh_pair(query: str):
        rng = np.random.default_rng(21)
        if query.startswith("channel"):
            upper = Channel.random(2, 2, 2, rng)
            return Channel.from_choi(0.6 * upper.choi.matrix + 0.4 * np.eye(4) / 4, 2, 2), upper
        upper = random_state(3, rng=rng)
        return depolarize(upper, 0.4), upper

    @pytest.mark.parametrize("query", sorted(HIT_QUERIES))
    def test_a_hit_calls_no_compute_function(self, query):
        ask, module, name = HIT_QUERIES[query]
        lower, upper = self._fresh_pair(query)
        target = importlib.import_module(module)
        with mock.patch.object(target, name, wraps=getattr(target, name)) as compute:
            first = ask(lower, upper)
            assert compute.call_count == 1
            assert ask(lower, upper) is first
            assert ask(lower, upper) is first
            assert compute.call_count == 1

    @pytest.mark.parametrize("query", sorted(HIT_QUERIES))
    def test_a_hit_calls_no_gate(self, query):
        ask = HIT_QUERIES[query][0]
        lower, upper = self._fresh_pair(query)
        first = ask(lower, upper)
        with spying(operator_pair) as (gate,):
            assert ask(lower, upper) is first
            assert ask(lower, upper) is first
        assert gate.call_count == 0

    def test_a_slot_of_another_partner_is_no_hit(self):
        rng = np.random.default_rng(23)
        rho, other = random_state(3, rng=rng), random_state(3, rng=rng)
        sentinel, cfg = object(), DEFAULT_CONFIG
        # every entry's key as its query asks remembered for it: the keys a
        # warm slot holds once the four queries have run
        keys = [getattr(cfg, f"_{entry}_key") for entry in READS]
        for query in REMEMBERED.values():
            query(rho, other, cfg)
        assert set(keys) == set(rho._partners[id(other)][1])
        for raw, text in ((random_state(3, rng=rng).matrix.copy(), None),
                          (random_state(2, rng=rng).matrix.copy(), "3 vs 2")):
            # a slot under the raw operand's id whose partner is not that operand
            rho._partners[id(raw)] = (weakref.ref(other), dict.fromkeys(keys, sentinel))
            for entry, query in REMEMBERED.items():
                if text is None:
                    result = query(rho, raw, cfg)
                    assert result is not sentinel, entry
                    cold = query(DensityMatrix(rho.matrix.copy()), raw, cfg)
                    assert _bits(result) == _bits(cold), entry
                    continue
                # max_divergence names its first operand, sigma, first
                named = "2 vs 3" if entry == "max_divergence" else text
                with pytest.raises(DimensionMismatch,
                                   match=f"^operand dimensions differ: {named}$"):
                    query(rho, raw, cfg)

    def test_a_full_memo_still_refuses_two_dims(self):
        rng = np.random.default_rng(24)
        rho = random_state(3, rng=rng)
        partners = [random_state(3, rng=rng) for _ in range(PARTNER_MEMO_SIZE)]
        for sigma in partners:
            qpe_leq(rho, sigma)
        held = list(rho._partners)
        assert len(held) == PARTNER_MEMO_SIZE
        small = random_state(2, rng=rng)
        for operand in (small, small.matrix.copy()):
            for entry, query in REMEMBERED.items():
                named = "2 vs 3" if entry == "max_divergence" else "3 vs 2"
                with pytest.raises(DimensionMismatch,
                                   match=f"^operand dimensions differ: {named}$"):
                    query(rho, operand, DEFAULT_CONFIG)
        # a refused pair opens no slot, so it drops no partner
        assert list(rho._partners) == held


# the four remembered entries, each called as (rho, sigma, cfg) with the
# entry remembered on rho for sigma
REMEMBERED = {
    "qpe_leq": qpe_leq,
    "sandwich": sandwich,
    "max_divergence": lambda rho, sigma, cfg: max_divergence(sigma, rho, cfg),
    "way_below": way_below_witness,
}
# the ToleranceConfig fields each entry reads, which its key must name
READS = {
    "qpe_leq": {"psd_slack", "rank_cutoff"},
    "sandwich": {"rank_cutoff"},
    "max_divergence": {"rank_cutoff", "log_base"},
    "way_below": {"psd_slack", "rank_cutoff"},
}
# each field moved on its own, far enough to change an entry that reads it
ONE_FIELD_MOVED = {
    "psd_slack": ToleranceConfig(psd_slack=0.5),
    "cluster_width": ToleranceConfig(cluster_width=0.5),
    "rank_cutoff": ToleranceConfig(rank_cutoff=1e-9),
    "log_base": ToleranceConfig(log_base="two"),
}


@pytest.fixture(scope="module")
def key_pairs():
    """Raw dim-4 (prior, partner) matrices: way-below certified, not_below
    and unknown pairs, and priors of full rank, of rank 3, and with an
    eigenvalue at 1e-10, which counts as kernel only at rank_cutoff 1e-9."""
    rng = np.random.default_rng(31)
    U = random_unitary(4, rng)

    def on_u(w):
        return (U * np.array(w)) @ U.conj().T

    top = random_state(4, rng=rng).matrix.copy()
    while True:
        a, b = random_state(4, rng=rng), random_state(4, rng=rng)
        if qpe_order_oracle(a, b).slack < -1e-3:
            break
    v = np.linalg.eigh(top)[1][:, -1]
    return {
        "mixture_with_bottom": (0.6 * top + 0.1 * np.eye(4), top),
        "incomparable": (a.matrix.copy(), b.matrix.copy()),
        "ordered": (top, 0.6 * top + 0.4 * np.outer(v, v.conj())),
        "near_kernel": (on_u([0.6, 0.3, 0.1 - 1e-10, 1e-10]), b.matrix.copy()),
        # the partner lives on the prior's 1e-10 direction, not on its kernel
        "rank_deficient": (on_u([0.6, 0.4 - 1e-10, 1e-10, 0.0]), on_u([0.3, 0.3, 0.4, 0.0])),
    }


class TestMemoKeys:
    """A warm pair asked under a ToleranceConfig with one field moved gives
    the cold result under that cfg: every remembered entry keys on each field
    it reads. A key that left a field out would hand back the entry computed
    under the default cfg, which differs from the cold result on some pair."""

    def test_pairs_span_the_way_below_verdicts_and_prior_ranks(self, key_pairs):
        witnesses = [way_below_witness(DensityMatrix(R), DensityMatrix(S))
                     for R, S in key_pairs.values()]
        assert {w.verdict for w in witnesses} == {CERTIFIED_BELOW, NOT_BELOW, UNKNOWN}
        # a kernel obstruction needs a rank-deficient prior, an order violation a full-rank one
        assert {w.rule for w in witnesses} >= {"kernel-obstruction", "order-violation"}

    @pytest.mark.parametrize("field", sorted(ONE_FIELD_MOVED))
    @pytest.mark.parametrize("entry", sorted(REMEMBERED))
    def test_warm_entry_under_a_moved_field_is_the_cold_result(self, key_pairs, entry, field):
        query, cfg = REMEMBERED[entry], ONE_FIELD_MOVED[field]
        moved = []
        for name, (R, S) in key_pairs.items():
            rho, sigma = DensityMatrix(R), DensityMatrix(S)
            warm = {e: _bits(q(rho, sigma, DEFAULT_CONFIG)) for e, q in REMEMBERED.items()}
            cold = _bits(query(DensityMatrix(R), DensityMatrix(S), cfg))
            assert _bits(query(rho, sigma, cfg)) == cold, name
            if cold != warm[entry]:
                moved.append(name)
        # the moved field changes the entry on some pair exactly when the
        # entry reads it, so the assertion above can fail for a short key
        assert bool(moved) == (field in READS[entry]), moved


def _keys(cfg):
    """The memo key cfg holds for each remembered entry."""
    return {entry: getattr(cfg, f"_{entry}_key") for entry in READS}


class TestMemoKeyIdentity:
    """A ToleranceConfig builds each entry's key from the values of the
    fields the entry reads: equal values share one key and so one entry, a
    value moved by one ulp gets another key and its own entry, and every way
    of making a config builds or carries the keys of its own fields."""

    def test_equal_tolerances_share_one_key_and_one_entry(self):
        rng = np.random.default_rng(25)
        sigma = random_state(3, rng=rng)
        rho = depolarize(sigma, 0.4)
        cfgs = [ToleranceConfig(psd_slack=zero) for zero in (0, 0.0, -0.0, np.float64(0.0))]
        assert len({cfg._qpe_leq_key for cfg in cfgs}) == 1
        orders = importlib.import_module("qpe.orders")
        with mock.patch.object(orders, "_qpe_verdict", wraps=orders._qpe_verdict) as compute:
            first = qpe_leq(rho, sigma, cfgs[0])
            assert all(qpe_leq(rho, sigma, cfg) is first for cfg in cfgs)
        assert compute.call_count == 1

    @pytest.mark.parametrize("field", ["psd_slack", "cluster_width", "rank_cutoff"])
    def test_a_field_moved_one_ulp_gets_its_own_key(self, key_pairs, field):
        value = getattr(DEFAULT_CONFIG, field)
        moved = dataclasses.replace(DEFAULT_CONFIG, **{field: np.nextafter(value, np.inf)})
        assert getattr(moved, field) != value
        for entry, key in _keys(moved).items():
            assert (key != _keys(DEFAULT_CONFIG)[entry]) == (field in READS[entry]), entry
        R, S = key_pairs["mixture_with_bottom"]
        rho, sigma = DensityMatrix(R), DensityMatrix(S)
        for entry, query in REMEMBERED.items():
            warm = query(rho, sigma, DEFAULT_CONFIG)
            result = query(rho, sigma, moved)
            assert (result is warm) == (field not in READS[entry]), entry
            assert _bits(result) == _bits(query(DensityMatrix(R), DensityMatrix(S), moved)), entry

    def test_copies_carry_the_keys_of_their_own_fields(self):
        rng = np.random.default_rng(26)
        sigma = random_state(3, rng=rng)
        rho = depolarize(sigma, 0.4)
        cfg = ToleranceConfig(psd_slack=1e-7, rank_cutoff=1e-11, log_base="two")
        replaced = dataclasses.replace(cfg, psd_slack=1e-6)
        assert _keys(replaced) == _keys(ToleranceConfig(psd_slack=1e-6, rank_cutoff=1e-11,
                                                        log_base="two"))
        assert _keys(replaced)["qpe_leq"] != _keys(cfg)["qpe_leq"]
        first = qpe_leq(rho, sigma, cfg)
        for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert twin == cfg and _keys(twin) == _keys(cfg)
            assert qpe_leq(rho, sigma, twin) is first

    def test_the_keys_are_no_fields(self):
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == [
            "psd_slack", "cluster_width", "rank_cutoff", "log_base"]
        assert "_key" not in repr(DEFAULT_CONFIG)
