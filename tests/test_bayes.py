from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe import DensityMatrix, Effect, ToleranceConfig
from qpe.bayes import (
    classical_solve_evidence,
    classical_update,
    fls_update,
    random_agreeing_effect,
    reconstruct_effect,
    sequential_solve_effect,
    sequential_update,
)
from qpe.exceptions import (
    BadParameter,
    DimensionMismatch,
    InvalidState,
    NegativeEigenvalue,
    NonFiniteInput,
    NotBelow,
    PreconditionViolated,
    QpeError,
    SupportViolation,
    ZeroEvidence,
    ZeroProbability,
)
from qpe.linalg import HermitianOperator
from qpe.oracle import measurement_monotone_check, sequential_transitivity_demo
from qpe.orders import classical_pe_leq, qpe_leq
from qpe.states import random_state

PRIOR = np.array([0.5, 0.3, 0.2])
EVIDENCE = np.array([1.0, 0.5, 0.5])
POSTERIOR = np.array([2 / 3, 1 / 5, 2 / 15])

# The effect mapping diag(0.6, 0.4) onto diag(0.8, 0.2), unit norm.
RECONSTRUCTED_DIAG = np.array([1.0, 0.375])


class TestClassicalUpdate:
    def test_frozen_posterior(self):
        assert_allclose(classical_update(PRIOR, EVIDENCE), POSTERIOR, atol=1e-15)

    def test_posterior_is_above_prior(self):
        assert classical_pe_leq(PRIOR, classical_update(PRIOR, EVIDENCE)).holds

    def test_rejects_evidence_outside_unit_interval(self):
        with pytest.raises(BadParameter):
            classical_update(PRIOR, [1.2, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_evidence(self, bad):
        # NaN passes both range comparisons and would give a NaN posterior
        with pytest.raises(NonFiniteInput):
            classical_update([0.5, 0.5], [bad, 1.0])

    def test_zero_overlap_evidence(self):
        with pytest.raises(ZeroEvidence):
            classical_update([1.0, 0.0, 0.0], [0.0, 1.0, 1.0])

    def test_rejects_evidence_of_another_length(self):
        with pytest.raises(DimensionMismatch, match="^prior and evidence differ in length$"):
            classical_update([0.5, 0.5], [1.0, 1.0, 1.0])


class TestClassicalSolveEvidence:
    def test_recovers_normalized_evidence(self):
        p = classical_solve_evidence(PRIOR, POSTERIOR)
        assert_allclose(p, EVIDENCE, atol=1e-12)
        assert p.max() == 1.0

    def test_frozen_uniform_prior_solution(self):
        p = classical_solve_evidence([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2])
        assert_allclose(p, [1.0, 0.6, 0.4], atol=1e-12)

    def test_round_trip(self, rng):
        # evidence must agree with the prior's best guess for the posterior
        # to land above the prior; peak the evidence where the prior peaks
        for _ in range(50):
            x = rng.dirichlet(np.ones(4))
            p = rng.uniform(0.05, 0.95, 4)
            p[np.argmax(x)] = 1.0
            y = classical_update(x, p)
            q = classical_solve_evidence(x, y)
            assert_allclose(classical_update(x, q), y, atol=1e-10)

    def test_unordered_pair_rejected(self):
        with pytest.raises(NotBelow):
            classical_solve_evidence([0.5, 0.3, 0.2], [1 / 11, 6 / 11, 4 / 11])

    def test_support_escape_rejected(self):
        with pytest.raises(SupportViolation):
            classical_solve_evidence([0.7, 0.3, 0.0],
                                     [0.7, 0.3 - 1e-10, 1e-10])


class TestQuantumUpdates:
    def test_state_sandwich_on_commuting_pair(self):
        bot = DensityMatrix.maximally_mixed(2)
        out = fls_update(bot, Effect.from_diag([1.0, 0.5]))
        assert_allclose(out.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_output_sits_above_prior_for_agreeing_evidence(self, rng):
        for _ in range(50):
            rho = random_state(int(rng.integers(2, 5)), rng=rng)
            E = random_agreeing_effect(rho, rng)
            assert qpe_leq(rho, fls_update(rho, E)).holds

    def test_rules_differ_on_noncommuting_input(self):
        rho = DensityMatrix.from_diag([0.7, 0.3])
        plus = Effect(np.full((2, 2), 0.5))
        gap = np.abs(fls_update(rho, plus).matrix
                     - sequential_update(rho, plus).matrix).max()
        assert gap > 0.01

    def test_projective_update_lands_in_range(self):
        rho = DensityMatrix.from_diag([0.7, 0.3])
        plus = Effect(np.full((2, 2), 0.5))
        out = sequential_update(rho, plus)
        assert_allclose(out.matrix, np.full((2, 2), 0.5), atol=1e-12)

    # the half power maps a kernel by kernel_cutoff to zero, so a rank-1
    # operand's conditioning is exact to rounding
    @staticmethod
    def _pure_and_full_rank(n):
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return DensityMatrix.pure(u), random_state(n, rng=rng), rng

    @pytest.mark.parametrize("n", range(2, 9))
    def test_conditioning_a_pure_state_leaves_it(self, n):
        pure, sigma, rng = self._pure_and_full_rank(n)
        post = fls_update(pure, random_agreeing_effect(sigma, rng))
        assert np.abs(post.matrix - pure.matrix).max() <= 1e-13

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_rank_one_projector_lands_on_its_ray(self, n):
        pure, sigma, _ = self._pure_and_full_rank(n)
        post = sequential_update(sigma, Effect(pure.matrix))
        assert np.abs(post.matrix - pure.matrix).max() <= 1e-13

    def test_orthogonal_evidence_rejected(self):
        rho = DensityMatrix.pure([1.0, 0.0])
        with pytest.raises(ZeroProbability):
            fls_update(rho, Effect.from_diag([0.0, 1.0]))
        with pytest.raises(ZeroProbability):
            sequential_update(rho, Effect.from_diag([0.0, 1.0]))


    def test_update_of_validated_operands_is_not_checked_again(self):
        """The posterior of a validated prior and effect is PSD by
        construction and built unchecked, so a tighter cfg on the update
        does not re-check it. Under psd_slack = 0, rounding in a
        rank-deficient prior's kernel leaves many of these 200 posteriors
        (120 with numpy 2.4) with a least eigenvalue below zero, which the
        validating constructor refuses; the update returns each of them,
        bit for bit the posterior under the default cfg. A raw prior is
        checked at the gate: refused if its own spectrum fails the zero
        band, and otherwise answered with the validated prior's posterior."""
        zero = ToleranceConfig(psd_slack=0.0)
        rng = np.random.default_rng(3)
        refused = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            rho = random_state(n, rank=int(rng.integers(1, n)), rng=rng)
            effect = random_agreeing_effect(rho, rng)
            posterior = fls_update(rho, effect, zero).matrix
            assert posterior.tobytes() == fls_update(rho, effect).matrix.tobytes()
            try:
                DensityMatrix(posterior, zero)
            except InvalidState:
                refused += 1
                if rho.eigenvalues[-1] < 0.0:
                    with pytest.raises(NegativeEigenvalue, match="^operator not PSD"):
                        fls_update(rho.matrix, effect, zero)
                else:
                    raw = fls_update(rho.matrix, effect, zero).matrix
                    assert raw.tobytes() == posterior.tobytes()
        # the refusals the update no longer makes
        assert refused > 0


    def test_a_raw_operand_in_the_marginal_band_gets_a_checked_posterior(self):
        """-5e-9 lies in the default band's marginal part, so the gate passes
        it; the small tr(E rho) then magnifies it, and the posterior's
        a-priori bound, the one a validated operand's gets, is -1."""
        rho = DensityMatrix.from_diag([1e-8, 1 - 1e-8])
        message = r"^posterior not certified positive semidefinite \(lambda_min >= -1"
        with pytest.raises(InvalidState, match=message):
            fls_update(rho, np.diag([1.0, -5e-9]))
        with pytest.raises(InvalidState, match=message):
            sequential_update(np.diag([1.0, -5e-9]), Effect.from_diag([1e-8, 1.0]))

    def test_a_validated_operand_in_the_marginal_band_gets_a_checked_posterior(self):
        """The same calls on validated operands: -5e-9 passes the default band
        at construction, and the a-priori bound on the posterior's least
        eigenvalue, lambda_min(inner) outer+ / tr(E rho), is -1, which fails
        it. Built unchecked, each posterior would be about diag(2, -1)."""
        message = r"^posterior not certified positive semidefinite \(lambda_min >= -1"
        with pytest.raises(InvalidState, match=message):
            fls_update(DensityMatrix.from_diag([1e-8, 1 - 1e-8]), Effect(np.diag([1.0, -5e-9])))
        with pytest.warns(UserWarning, match="renormalizing"):
            prior = DensityMatrix(np.diag([1.0, -5e-9]))
        with pytest.raises(InvalidState, match=message):
            sequential_update(prior, Effect.from_diag([1e-8, 1.0]))

    def test_a_validated_posterior_is_banded_where_its_operands_were(self):
        """The band is the inner operand's, not the update's cfg: under
        psd_slack = 0, sequential_update conditions these 200 validated
        rank-deficient priors, whose kernels carry rounding below zero, as it
        does under the default cfg, bit for bit, and each posterior carries
        the band its check used."""
        zero = ToleranceConfig(psd_slack=0.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            rho = random_state(n, rank=int(rng.integers(1, n)), rng=rng)
            effect = random_agreeing_effect(rho, rng)
            posterior = sequential_update(rho, effect, zero)
            assert posterior.matrix.tobytes() == sequential_update(rho, effect).matrix.tobytes()
            assert posterior._validated_under is rho._validated_under
            assert fls_update(rho, effect, zero)._validated_under is effect._validated_under


class TestReconstructEffect:
    def test_frozen_diagonal_reconstruction(self):
        E = reconstruct_effect(DensityMatrix.from_diag([0.6, 0.4]),
                               DensityMatrix.from_diag([0.8, 0.2]))
        assert_allclose(np.diag(E.matrix).real, RECONSTRUCTED_DIAG, atol=1e-12)

    def test_round_trip_reproduces_upper_state(self, make_ordered_pair, rng):
        for _ in range(100):
            rho, sigma = make_ordered_pair(int(rng.integers(2, 5)))
            E = reconstruct_effect(rho, sigma)
            again = fls_update(rho, E)
            assert np.abs(again.matrix - sigma.matrix).max() < 1e-9

    def test_unordered_pair_rejected(self, make_incomparable_pair):
        a, b = make_incomparable_pair(3)
        with pytest.raises(NotBelow):
            reconstruct_effect(a, b)

    def test_an_ordered_rank_deficient_pair_is_banded_where_sigma_was_admitted(self):
        """153 rank-deficient priors, dims 2-5 in turn, each with an agreeing
        update of itself, all answered under the default cfg. Under
        psd_slack = 0 the effect's least eigenvalue, which rounding in rho's
        kernel leaves a few eps below zero, is banded where sigma was admitted,
        so no effect is refused for it; banded at the call's cfg, 67 were.
        59 pairs are not below: their holds slack rounds below zero too."""
        zero = ToleranceConfig(psd_slack=0.0)
        rng = np.random.default_rng(5)
        outcomes = Counter()
        for draw in range(153):
            n = 2 + draw % 4
            rho = random_state(n, rank=int(rng.integers(1, n)), rng=rng)
            sigma = fls_update(rho, random_agreeing_effect(rho, rng))
            effect = reconstruct_effect(rho, sigma)
            try:
                strict = reconstruct_effect(rho, sigma, zero)
            except QpeError as exc:
                outcomes[type(exc).__name__] += 1
                continue
            outcomes["answered"] += 1
            assert strict.matrix.tobytes() == effect.matrix.tobytes()
            assert strict._validated_under is sigma._validated_under
        assert outcomes == {"answered": 94, "NotBelow": 59}


class TestAgreeingEffects:
    def test_shares_a_top_eigenvector(self, rng):
        from qpe.states import subspace_intersects, top_eigenspace

        rho = random_state(4, rng=rng)
        E = random_agreeing_effect(rho, rng)
        assert subspace_intersects(top_eigenspace(E), top_eigenspace(rho))

    def test_projector_variant_is_idempotent(self, rng):
        rho = random_state(4, rng=rng)
        E = random_agreeing_effect(rho, rng, projector_rank=2)
        assert_allclose(E.matrix @ E.matrix, E.matrix, atol=1e-10)

    def test_projector_rank_validated(self, rng):
        rho = random_state(3, rng=rng)
        with pytest.raises(BadParameter):
            random_agreeing_effect(rho, rng, projector_rank=5)

    @pytest.mark.parametrize("low, high", [(-0.1, 0.5), (0.5, 1.1), (0.6, 0.4), (np.nan, 0.5)])
    def test_the_spectrum_range_is_validated(self, rng, low, high):
        # the effect is derived with no check of its spectrum, so a range outside
        # [0, 1] is refused up front
        rho = random_state(3, rng=rng)
        with pytest.raises(BadParameter, match=r"^need 0 <= low <= high <= 1"):
            random_agreeing_effect(rho, rng, low=low, high=high)


class TestMeasurementMonotonicity:
    def test_holds_on_admissible_triples(self, rng, make_ordered_pair):
        for _ in range(50):
            rho, sigma = make_ordered_pair(3)
            E = random_agreeing_effect(sigma, rng)
            assert measurement_monotone_check(rho, sigma, E)

    def test_requires_ordered_pair(self, rng, make_incomparable_pair):
        a, b = make_incomparable_pair(3)
        E = random_agreeing_effect(b, rng)
        with pytest.raises(PreconditionViolated):
            measurement_monotone_check(a, b, E)

    def test_unordered_pair_message_names_the_relation(self, rng):
        lower = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        upper = DensityMatrix.from_diag([0.6, 0.1, 0.3])
        E = random_agreeing_effect(upper, rng)
        with pytest.raises(PreconditionViolated) as caught:
            measurement_monotone_check(lower, upper, E)
        assert str(caught.value) == "lower state not below upper (fails)"

    def test_effect_of_another_dimension_is_refused_by_the_pair_gate(self, make_ordered_pair):
        rho, sigma = make_ordered_pair(2)
        with pytest.raises(DimensionMismatch) as caught:
            measurement_monotone_check(rho, sigma, Effect(np.eye(3)))
        assert str(caught.value) == "operand dimensions differ: 2 vs 3"

    def test_requires_agreeing_evidence(self, rng, make_ordered_pair):
        rho, sigma = make_ordered_pair(3)
        v = sigma.eigenvectors[:, 2]
        low = Effect(np.outer(v, v.conj()))
        with pytest.raises(PreconditionViolated):
            measurement_monotone_check(rho, sigma, low)


def _parity_operands(k, rng):
    """The k-th draw's prior and effect matrices, dims 2-5. Priors cycle
    through full rank, rank-deficient, a marginal negative least eigenvalue
    in -8e-9..-1e-9, and a tiny positive one; one effect in three is given a
    marginal negative eigenvalue. Traces stay 1 to rounding."""
    n = int(rng.integers(2, 6))
    kind = k % 4
    r = n if kind == 0 else int(rng.integers(1, n))
    rho = random_state(n, rank=r, rng=rng)
    w, V = np.linalg.eigh(rho.matrix)
    if kind >= 2:
        low = -rng.uniform(1e-9, 8e-9, n - r) if kind == 2 else 10.0 ** rng.uniform(-14, -9, n - r)
        w[:n - r] = low
        w[-1] -= low.sum()
    effect = random_agreeing_effect(rho, rng)
    we, U = np.linalg.eigh(effect.matrix)
    if k % 3 == 0:
        we[0] = -rng.uniform(1e-9, 8e-9)
    return (V * w) @ V.conj().T, (U * we) @ U.conj().T


def _update_outcome(rule, rho, effect, cfg):
    """The exception's type and message, or the posterior's bytes and band."""
    try:
        posterior = rule(rho, effect, cfg)
    except QpeError as exc:
        return type(exc), str(exc)
    return posterior.matrix.tobytes(), posterior._validated_under


class TestOneUpdateRule:
    def test_raw_and_built_operands_get_one_outcome(self):
        """Past the gate an operand is an operand: each rule, called with a
        raw prior, a raw effect or both, answers as it does on the operands
        built under the same cfg, with the same refusal or the same
        posterior, bit for bit, carrying the same band. Under psd_slack = 0
        the constructors refuse some operands (a negative least eigenvalue,
        an effect's top rounded above 1); the gate refuses a raw prior of
        the first kind too, and there is no built call to match."""
        cfgs = (ToleranceConfig(), ToleranceConfig(rank_cutoff=1e-6, cluster_width=1e-6),
                ToleranceConfig(psd_slack=0.0))
        rng = np.random.default_rng(7)
        draws = [_parity_operands(k, rng) for k in range(200)]
        compared = [0] * len(cfgs)
        for M, E in draws:
            for i, cfg in enumerate(cfgs):
                try:
                    prior, effect = DensityMatrix(M, cfg), Effect(E, cfg)
                except InvalidState:
                    assert cfg.psd_slack == 0.0
                    continue
                R, F = prior.matrix, effect.matrix
                for rule in (fls_update, sequential_update):
                    built = _update_outcome(rule, prior, effect, cfg)
                    for raw in ((R, effect), (prior, F), (R, F)):
                        assert _update_outcome(rule, *raw, cfg) == built
                compared[i] += 1
        assert compared[:2] == [200, 200] and compared[2] > 0


class TestSequentialSolve:
    def test_recovers_the_unique_effect(self, rng):
        for _ in range(20):
            rho = random_state(3, rng=rng)
            E = random_agreeing_effect(rho, rng)
            sigma = sequential_update(rho, E)
            G = sequential_solve_effect(rho, sigma)
            assert np.abs(G.matrix - E.matrix).max() < 1e-8

    def test_disjoint_supports_leave_no_candidate(self):
        # rho^1/2 sigma rho^1/2 vanishes, and so does every factor after it
        with pytest.raises(ZeroProbability, match="^candidate effect vanished$"):
            sequential_solve_effect(DensityMatrix.from_diag([1.0, 0.0]),
                                    DensityMatrix.from_diag([0.0, 1.0]))

    def test_intermediates_are_not_checked_again(self):
        """The middle factor and X X* are PSD by construction, so the call's
        band applies to rho and sigma alone: under psd_slack = 0, these 300
        rank-deficient priors, whose kernels carry rounding below zero, get
        the default cfg's effect, bit for bit, which records the call's cfg."""
        zero = ToleranceConfig(psd_slack=0.0)
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            rho = random_state(n, rank=int(rng.integers(1, n)), rng=rng)
            sigma = sequential_update(rho, random_agreeing_effect(rho, rng))
            effect = sequential_solve_effect(rho, sigma, zero)
            assert effect.matrix.tobytes() == sequential_solve_effect(rho, sigma).matrix.tobytes()
            assert effect._validated_under is zero


class TestTransitivityDemo:
    def test_projective_chains_break_one_step_composability(self, cfg):
        report = sequential_transitivity_demo(cfg, budget=500, seed=1, dim=3)
        assert report.found
        assert report.candidate_overlap < 0.5
        assert report.replay_residual < 1e-8
        replay = sequential_update(
            sequential_update(DensityMatrix(report.rho), Effect(report.first_effect)),
            Effect(report.second_effect),
        )
        assert_allclose(replay.matrix, report.final, atol=1e-10)

    # (dim, seed) -> trials to the first certificate, budget 40
    FIRST_FOUND = {(3, 0): 13, (3, 1): 3, (3, 2): 1, (3, 3): 31, (4, 0): 1, (5, 1): 6}

    @pytest.mark.parametrize("dim, seed", sorted(FIRST_FOUND))
    def test_report_is_the_validating_constructors(self, dim, seed):
        """Builds with _derived (the priors, both updates and the solved
        candidate, its spectrum seeded) give the report that checked builds,
        each spectrum solved afresh, give: bit for bit, on fixed seeds. The
        certificate replays to rounding, as the half power of each projector
        step maps its kernel to zero."""
        def report():
            r = sequential_transitivity_demo(budget=40, seed=seed, dim=dim)
            return (r.found, r.trials, r.message, r.candidate_overlap, r.replay_residual,
                    [m.tobytes() for m in (r.rho, r.first_effect, r.second_effect,
                                           r.intermediate, r.final, r.candidate)])

        derived = report()
        checked = classmethod(lambda cls, A, band, least=0.0, w=None: cls(A))
        with mock.patch.object(HermitianOperator, "_derived", checked):
            assert report() == derived
        assert derived[:2] == (True, self.FIRST_FOUND[dim, seed])
        assert derived[4] <= 1e-12

    def test_qubit_chains_always_compose(self, cfg):
        report = sequential_transitivity_demo(cfg, budget=150, seed=1, dim=2)
        assert not report.found
        assert report.candidate_overlap > 0.99
        assert "NotFound" in report.message
