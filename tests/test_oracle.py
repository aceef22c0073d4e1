from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe.channels import Channel, channel_mix, channel_qpe_leq
from qpe.exceptions import BadParameter, DimensionMismatch, InvalidState, NonFiniteInput
from qpe.oracle import (
    ENTROPY_UP_THE_ORDER,
    ORDER_NOT_MAJORIZATION,
    channel_order_oracle,
    counterexample_suite,
    diagonal_order_oracle,
    partial_trace_counterexample,
    psd_probe,
    qpe_order_oracle,
    random_effect_lower_bound,
    shannon_entropy,
)
from qpe.orders import classical_pe_leq, qpe_leq
from qpe.states import random_state

ENTROPY_LOWER = 1.2683991415464448
ENTROPY_UPPER = 1.2794222271544065


class TestPsdProbe:
    def test_detects_a_negative_direction(self):
        result = psd_probe(np.diag([1.0, -0.5]))
        assert result.violated
        assert result.min_quotient <= -0.5 + 1e-12

    def test_silent_on_gram_matrices(self, rng):
        for _ in range(20):
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert not psd_probe(B @ B.conj().T).violated

    def test_coordinate_directions_checked_without_sampling(self):
        assert psd_probe(np.diag([1.0, -2.0]), trials=0).violated

    def test_negative_trials_rejected(self, rng):
        rho, sigma = random_state(2, rng=rng), random_state(2, rng=rng)
        with pytest.raises(BadParameter, match="trials must be nonnegative"):
            psd_probe(np.eye(2), trials=-3)
        with pytest.raises(BadParameter, match="trials must be nonnegative"):
            random_effect_lower_bound(sigma, rho, trials=-1)
        assert random_effect_lower_bound(sigma, rho, trials=0) == -np.inf

    @pytest.mark.parametrize("A", [[[-1.0, np.nan], [np.nan, 1.0]],
                                   [[1.0, np.inf], [np.inf, 1.0]]], ids=["nan", "inf"])
    def test_non_finite_matrix_is_refused(self, A):
        with pytest.raises(NonFiniteInput):
            psd_probe(A)

    def test_non_square_matrix_is_refused(self):
        with pytest.raises(DimensionMismatch):
            psd_probe(np.ones((2, 3)))

    def test_a_state_probes_its_own_matrix(self, rng):
        rho = random_state(3, rng=rng)
        assert psd_probe(rho) == psd_probe(rho.matrix)


class TestDiagonalOracle:
    def test_agrees_with_library_predicate(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x = rng.dirichlet(np.ones(n))
            y = rng.dirichlet(np.ones(n))
            mine = diagonal_order_oracle(x, y)
            library = classical_pe_leq(x, y)
            assert mine.relation == library.relation

    def test_division_margin_and_library_slack_match_scale(self):
        x = np.array([0.5, 0.3, 0.2])
        y = np.array([0.5, 0.4, 0.1])
        margin = diagonal_order_oracle(x, y).slack
        # division route reports min_i (x_i/x_top - y_i/y_top), here at i = 1;
        # the library's slack 1 - x_top y_i / (y_top x_i) is that margin over
        # x_i/x_top at the component its witness names
        lib = classical_pe_leq(x, y)
        i = int(lib.witness.argmax())
        assert i == 1
        assert_allclose(margin, lib.slack * x[i] / x.max(), atol=1e-12)

    def test_tied_peak_gives_exactly_zero_margin(self):
        x, y = ORDER_NOT_MAJORIZATION
        verdict = diagonal_order_oracle(x, y)
        assert verdict.holds
        assert verdict.slack == 0.0

    def test_zero_entry_under_live_entry_fails(self):
        verdict = diagonal_order_oracle([0.7, 0.3, 0.0], [0.6, 0.2, 0.2])
        assert verdict.fails

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            diagonal_order_oracle([0.5, 0.5], [1.0])

    @pytest.mark.parametrize("x, y", [([np.nan, 0.5], [0.5, 0.5]),
                                      ([0.5, 0.5], [np.inf, 0.5])], ids=["nan", "inf"])
    def test_non_finite_entry_is_refused(self, x, y):
        with pytest.raises(NonFiniteInput):
            diagonal_order_oracle(x, y)


CHANNEL_SHAPES = [(2, 2), (2, 3), (3, 2), (4, 4)]
CHAIN_WEIGHTS = (0.0, 0.3, 0.7)


def depolarized_chain(phi: Channel) -> list[Channel]:
    """phi mixed toward the completely depolarizing channel, highest first."""
    n, k = phi.in_dim, phi.out_dim
    bottom = Channel.from_choi(np.eye(n * k) / (n * k), n, k)
    return [channel_mix(phi, bottom, t) for t in CHAIN_WEIGHTS]


def channel_pairs(rng, n: int, k: int, from_choi: bool):
    """Ordered pairs down two depolarized chains, and pairs across them."""
    chains = []
    for _ in range(2):
        chain = depolarized_chain(Channel.random(n, k, 2, rng))
        if from_choi:
            chain = [Channel.from_choi(c.choi.matrix, n, k) for c in chain]
        chains.append(chain)
    ordered = [(lo, hi) for chain in chains
               for i, lo in enumerate(chain) for hi in chain[:i + 1]]
    incomparable = [(a, b) for a in chains[0] for b in chains[1]]
    incomparable += [(b, a) for a, b in incomparable]
    return ordered, incomparable


class TestChannelOrderOracle:
    @pytest.mark.parametrize("n,k", CHANNEL_SHAPES)
    @pytest.mark.parametrize("from_choi", [False, True])
    def test_agrees_with_library_on_decisive_verdicts(self, rng, n, k, from_choi):
        ordered, incomparable = channel_pairs(rng, n, k, from_choi)
        assert all(channel_qpe_leq(lo, hi).holds for lo, hi in ordered)
        assert all(channel_qpe_leq(a, b).fails for a, b in incomparable)
        for phi, psi in ordered + incomparable:
            assert channel_order_oracle(phi, psi).relation == channel_qpe_leq(phi, psi).relation

    @pytest.mark.parametrize("n,k", CHANNEL_SHAPES)
    def test_slack_is_the_choi_slack_over_the_tops(self, rng, n, k):
        phi = Channel.random(n, k, 2, rng)
        psi = Channel.random(n, k, 3, rng)
        tops = phi.choi.eigenvalues[0] * psi.choi.eigenvalues[0]
        assert_allclose(channel_order_oracle(phi, psi).slack,
                        qpe_order_oracle(phi.choi, psi.choi).slack / tops, atol=1e-12)

    def test_dims_must_match(self, rng):
        with pytest.raises(DimensionMismatch):
            channel_order_oracle(Channel.random(2, 2, 2, rng),
                                 Channel.random(2, 3, 2, rng))


class TestChannelOrderIsTheChoiOrder:
    @pytest.mark.parametrize("n,k", CHANNEL_SHAPES)
    def test_verdict_equals_qpe_leq_on_choi_states(self, rng, n, k):
        ordered, incomparable = channel_pairs(rng, n, k, from_choi=False)
        for phi, psi in ordered + incomparable:
            got = channel_qpe_leq(phi, psi)
            want = qpe_leq(phi.choi, psi.choi)
            assert got.relation == want.relation
            assert got.slack == want.slack
            assert (got.witness is None) == (want.witness is None)
            if got.witness is not None:
                assert np.array_equal(got.witness, want.witness)
            assert (got.witness is not None) == got.fails


class TestShannonEntropy:
    def test_frozen_pair(self):
        x, y = ENTROPY_UP_THE_ORDER
        assert_allclose(shannon_entropy(x), ENTROPY_LOWER, atol=1e-14)
        assert_allclose(shannon_entropy(y), ENTROPY_UPPER, atol=1e-14)

    def test_base_two_on_uniform(self):
        assert_allclose(shannon_entropy([0.25] * 4, base="two"), 2.0,
                        atol=1e-14)

    def test_zero_entries_ignored(self):
        assert_allclose(shannon_entropy([0.5, 0.5, 0.0]), np.log(2.0),
                        atol=1e-14)

    @pytest.mark.parametrize("p,error", [([np.nan, 1.0], NonFiniteInput),
                                         ([np.inf, 0.5], NonFiniteInput),
                                         ([-0.5, 1.5], InvalidState)])
    def test_refuses_a_malformed_vector(self, p, error):
        with pytest.raises(error):
            shannon_entropy(p)

    def test_refuses_an_unknown_base(self):
        with pytest.raises(BadParameter, match="log base"):
            shannon_entropy([0.5, 0.5], base="ten")


class TestPartialTraceCounterexample:
    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 9), (3, 0)])
    def test_monotonicity_broken_at_stored_seeds(self, n, seed):
        report = partial_trace_counterexample(n=n, seed=seed)
        assert report.monotone_broken
        assert report.order_verdict.holds
        assert report.order_verdict.slack >= -1e-12
        assert report.marginal_deviation > 0.01
        assert_allclose(np.trace(report.marginal_rho).real, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_needs_a_bipartite_space(self, n):
        with pytest.raises(BadParameter):
            partial_trace_counterexample(n=n)

    def test_target_marginal_is_the_bottom(self):
        report = partial_trace_counterexample(n=2, seed=0)
        target_marg = report.pure_target.reshape(2, 2, 2, 2).trace(
            axis1=1, axis2=3)
        assert_allclose(target_marg, np.eye(2) / 2, atol=1e-12)

    def test_interpolation_weight_respected(self):
        report = partial_trace_counterexample(n=2, t=0.7, seed=0)
        overlap = float(np.trace(report.pure_target @ report.rho).real)
        assert overlap >= 0.7 - 1e-12


class TestCounterexampleSuite:
    def test_every_report_witnessed_and_stable(self):
        for report in counterexample_suite():
            assert report.witnessed, report.name
            assert report.stable, report.name

    def test_entropy_gap_value(self):
        reports = {r.name: r for r in counterexample_suite()}
        gap = reports["entropy-increase-up-the-order"].values["entropy_gap"]
        assert_allclose(gap, ENTROPY_UPPER - ENTROPY_LOWER, atol=1e-14)

    def test_majorization_fails_both_ways_on_first_pair(self):
        reports = {r.name: r for r in counterexample_suite()}
        checks = reports["order-without-majorization"].checks
        assert checks["order_holds"]
        assert not checks["upper_majorizes_lower"]
        assert not checks["lower_majorizes_upper"]
