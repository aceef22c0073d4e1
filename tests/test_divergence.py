from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe import DensityMatrix, Effect
from qpe.config import ToleranceConfig
from qpe.divergence import (
    classical_max_divergence,
    effect_probability,
    max_divergence,
    order_divergence_gap,
    povm_distinguishability_lower_bound,
    renyi_divergence,
    renyi_entropy,
)
from qpe.exceptions import BadAlpha, NegativeEigenvalue
from qpe.linalg import fidelity, random_unitary
from qpe.states import min_entropy, random_state

# log(0.7 / 0.46): the worst likelihood ratio of the stored skewed pair.
MAX_DIV_SKEWED_PAIR = 0.4198538455602639
ENTROPY_LOWER = 1.2683991415464448
ENTROPY_UPPER = 1.2794222271544065

ALPHA_GRID = (0.5, 0.999, 1.0, 1.001, 2.0, 5.0, 10.0)


def full_rank_state(n, rng):
    return random_state(n, rng=rng)


class TestRenyiEntropy:
    def test_uniform_hits_log_dim(self):
        bot = DensityMatrix.maximally_mixed(4)
        for alpha in ALPHA_GRID + (np.inf,):
            assert_allclose(renyi_entropy(bot, alpha), np.log(4.0), atol=1e-12)

    def test_pure_state_is_zero(self):
        pure = DensityMatrix.pure([1.0, 0.0, 0.0])
        for alpha in (0.5, 1.0, 2.0, np.inf):
            assert_allclose(renyi_entropy(pure, alpha), 0.0, atol=1e-12)

    def test_frozen_shannon_values(self):
        lower = DensityMatrix.from_diag(np.array([30, 29, 11, 10]) / 80)
        upper = DensityMatrix.from_diag(np.array([34, 23, 12, 11]) / 80)
        assert_allclose(renyi_entropy(lower, 1.0), ENTROPY_LOWER, atol=1e-12)
        assert_allclose(renyi_entropy(upper, 1.0), ENTROPY_UPPER, atol=1e-12)

    def test_quadratic_order_closed_form(self):
        rho = DensityMatrix.from_diag([0.7, 0.2, 0.1])
        assert_allclose(renyi_entropy(rho, 2.0),
                        -np.log(0.49 + 0.04 + 0.01), atol=1e-12)

    def test_infinite_order_is_min_entropy(self, rng):
        rho = full_rank_state(3, rng)
        assert_allclose(renyi_entropy(rho, np.inf), min_entropy(rho), atol=1e-12)

    def test_decreasing_in_alpha(self, rng):
        rho = full_rank_state(4, rng)
        values = [renyi_entropy(rho, a) for a in ALPHA_GRID]
        assert np.all(np.diff(values) <= 1e-10)

    def test_rejects_nonpositive_order(self, rng):
        with pytest.raises(BadAlpha):
            renyi_entropy(full_rank_state(2, rng), 0.0)

    def test_base_two(self):
        two = ToleranceConfig(log_base="two")
        bot = DensityMatrix.maximally_mixed(4)
        assert_allclose(renyi_entropy(bot, 1.0, two), 2.0, atol=1e-12)


class TestMaxDivergence:
    def test_frozen_skewed_pair(self):
        upper = DensityMatrix.from_diag([0.70, 0.20, 0.10])
        lower = DensityMatrix.from_diag([0.46, 0.46, 0.08])
        assert_allclose(max_divergence(upper, lower).value,
                        MAX_DIV_SKEWED_PAIR, atol=1e-12)

    def test_self_divergence_vanishes(self, rng):
        rho = full_rank_state(3, rng)
        assert_allclose(max_divergence(rho, rho).value, 0.0, atol=1e-10)

    def test_support_escape_is_infinite(self, rng):
        narrow = random_state(3, rank=1, rng=rng)
        wide = full_rank_state(3, rng)
        d = max_divergence(wide, narrow)
        assert d.value == np.inf and d.support_violation

    def test_against_bottom_complements_min_entropy(self, rng):
        sigma = full_rank_state(4, rng)
        bot = DensityMatrix.maximally_mixed(4)
        assert_allclose(max_divergence(sigma, bot).value,
                        np.log(4.0) - min_entropy(sigma), atol=1e-10)

    def test_classical_route_agrees_on_diagonals(self, rng):
        x = rng.dirichlet(np.ones(4))
        y = rng.dirichlet(np.ones(4))
        quantum = max_divergence(DensityMatrix.from_diag(y),
                                 DensityMatrix.from_diag(x)).value
        assert_allclose(classical_max_divergence(y, x), quantum, atol=1e-10)

    def test_classical_support_escape(self):
        assert classical_max_divergence([0.5, 0.5, 0.0], [0.7, 0.3, 0.0]) < np.inf
        assert classical_max_divergence([0.5, 0.3, 0.2], [0.7, 0.3, 0.0]) == np.inf

    def test_classical_route_shares_the_relative_support_rule(self, rng):
        """Entries shrunk to a few rank_cutoffs of the vector's peak, either
        side of the relative kernel cutoff: both routes read the support alike.
        Values are compared relative to max(1, D), as D can sit at 0."""
        pairs = [([0.5, 0.4, 0.1], [0.4, 0.6 - 8e-13, 8e-13])]
        for i in range(300):
            n = 2 + i % 4
            pair = []
            for v in rng.dirichlet(np.ones(n), 2):
                others = np.delete(np.arange(n), v.argmax())
                shrunk = rng.choice(others, size=rng.integers(0, n), replace=False)
                v[shrunk] = v.max() * rng.choice([0.0, 3e-13, 8e-13, 1.3e-12, 5e-12, 1e-6],
                                                 size=shrunk.size)
                pair.append(v / v.sum())
            pairs.append(pair)
        infinite = 0
        for x, y in pairs:
            classical = classical_max_divergence(x, y)
            quantum = max_divergence(DensityMatrix.from_diag(x), DensityMatrix.from_diag(y)).value
            assert np.isinf(classical) == np.isinf(quantum), (x, y, classical, quantum)
            if np.isinf(quantum):
                infinite += 1
            else:
                assert abs(classical - quantum) <= 1e-12 * max(1.0, abs(quantum))
        assert_allclose(classical_max_divergence(*pairs[0]), np.log(0.1 / 8e-13), rtol=1e-9)
        assert 0 < infinite < len(pairs)


class TestSandwichedFamily:
    def test_half_order_is_log_squared_fidelity(self, rng):
        a = full_rank_state(3, rng)
        b = full_rank_state(3, rng)
        f = fidelity(a.matrix, b.matrix)
        assert_allclose(renyi_divergence(a, b, 0.5).value,
                        -np.log(f ** 2), atol=1e-9)

    def test_unit_order_matches_classical_relative_entropy(self, rng):
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        kl = float((x * (np.log(x) - np.log(y))).sum())
        got = renyi_divergence(DensityMatrix.from_diag(x),
                               DensityMatrix.from_diag(y), 1.0).value
        assert_allclose(got, kl, atol=1e-10)

    def test_unit_order_basis_independent(self, rng):
        a = full_rank_state(3, rng)
        b = full_rank_state(3, rng)
        U = random_unitary(3, rng)
        rotated = renyi_divergence(
            DensityMatrix(U @ a.matrix @ U.conj().T),
            DensityMatrix(U @ b.matrix @ U.conj().T), 1.0).value
        assert_allclose(rotated, renyi_divergence(a, b, 1.0).value, atol=1e-9)

    def test_monotone_in_alpha_and_capped_by_max(self, rng):
        for _ in range(20):
            a = full_rank_state(3, rng)
            b = full_rank_state(3, rng)
            values = [renyi_divergence(a, b, al).value for al in ALPHA_GRID]
            top = max_divergence(a, b).value
            assert np.all(np.diff(values) >= -1e-9)
            assert values[-1] <= top + 1e-9

    def test_continuity_at_unit_order(self, rng):
        a = full_rank_state(3, rng)
        b = full_rank_state(3, rng)
        center = renyi_divergence(a, b, 1.0).value
        assert abs(renyi_divergence(a, b, 1.0 - 1e-6).value - center) < 1e-4
        assert abs(renyi_divergence(a, b, 1.0 + 1e-6).value - center) < 1e-4

    def test_large_alpha_approaches_max_divergence(self, rng):
        a = full_rank_state(3, rng)
        b = full_rank_state(3, rng)
        assert abs(renyi_divergence(a, b, 100.0).value
                   - max_divergence(a, b).value) < 1e-2

    def test_support_rule_above_one(self, rng):
        narrow = random_state(3, rank=1, rng=rng)
        wide = full_rank_state(3, rng)
        d = renyi_divergence(wide, narrow, 2.0)
        assert d.value == np.inf and d.support_violation
        assert renyi_divergence(narrow, wide, 2.0).value < np.inf

    def test_disjoint_supports_infinite_below_one(self):
        a = DensityMatrix.from_diag([1.0, 0.0])
        b = DensityMatrix.from_diag([0.0, 1.0])
        assert renyi_divergence(a, b, 0.5).value == np.inf

    def test_asymmetry_of_the_quasi_metric(self):
        a = DensityMatrix.from_diag([0.9, 0.1])
        b = DensityMatrix.from_diag([0.5, 0.5])
        fwd = max_divergence(a, b).value
        back = max_divergence(b, a).value
        assert abs(fwd - back) > 0.1


def _unit(n, rng):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u / np.linalg.norm(u)


def _born(u, rho):
    return np.vdot(u, rho.matrix @ u).real


class TestKernelsAddNothing:
    """Closed forms where an operand has a kernel. The sandwiched trace reads
    singular values on the two supports, so a kernel's rounding eigenvalues
    (about 1e-17) add nothing, where their roots (about 3e-9) would."""

    ATOL = 1e-13
    DIMS = range(2, 9)

    @pytest.mark.parametrize("n", DIMS)
    def test_fidelity_of_a_pure_operand(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            u, v = _unit(n, rng), _unit(n, rng)
            pure_u, pure_v = DensityMatrix.pure(u), DensityMatrix.pure(v)
            sigma = random_state(n, rng=rng)
            assert abs(fidelity(pure_u, pure_v) - abs(np.vdot(u, v))) <= self.ATOL
            assert abs(fidelity(pure_u, sigma) - np.sqrt(_born(u, sigma))) <= self.ATOL
            assert abs(fidelity(sigma, pure_u) - np.sqrt(_born(u, sigma))) <= self.ATOL

    @pytest.mark.parametrize("n", DIMS)
    def test_entropy_of_a_pure_state_is_zero(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            pure = DensityMatrix.pure(_unit(n, rng))
            for alpha in (0.5, 2.0):
                assert abs(renyi_entropy(pure, alpha)) <= self.ATOL

    @pytest.mark.parametrize("n", DIMS)
    def test_half_order_against_a_pure_operand(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            u = _unit(n, rng)
            pure, rho = DensityMatrix.pure(u), random_state(n, rng=rng)
            want = -np.log(_born(u, rho))
            assert abs(renyi_divergence(pure, rho, 0.5).value - want) <= self.ATOL
            assert abs(renyi_divergence(rho, pure, 0.5).value - want) <= self.ATOL

    @pytest.mark.parametrize("n", DIMS)
    def test_half_order_symmetric_with_a_rank_deficient_operand(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            a = random_state(n, rank=int(rng.integers(1, n)), rng=rng)
            b = random_state(n, rank=int(rng.integers(1, n + 1)), rng=rng)
            assert abs(renyi_divergence(a, b, 0.5).value
                       - renyi_divergence(b, a, 0.5).value) <= self.ATOL

    @pytest.mark.parametrize("n", range(2, 6))
    def test_orthogonal_supports_are_flagged_below_one(self, n):
        # neither state is diagonal: the two supports are orthogonal only up
        # to rounding, which the trace's support rule reads as disjoint
        rng = np.random.default_rng(n)
        for _ in range(100):
            U = random_unitary(n, rng)
            k = int(rng.integers(1, n))
            p = np.r_[rng.dirichlet(np.ones(k)), np.zeros(n - k)]
            a = DensityMatrix((U * p) @ U.conj().T)
            b = DensityMatrix((U * (np.r_[np.zeros(k), rng.dirichlet(np.ones(n - k))])) @ U.conj().T)
            d = renyi_divergence(a, b, 0.5)
            assert d.value == np.inf and d.support_violation
            assert fidelity(a, b) == 0.0

    @pytest.mark.parametrize("n", range(2, 6))
    def test_near_orthogonal_pure_states_read_alike_both_ways(self, n):
        # |<u|v>|^2 at or below rank_cutoff (1e-12) is a disjoint pair; above
        # it the fidelity is |<u|v>| to rounding
        rng = np.random.default_rng(n)
        for c, want in ((5e-7, 0.0), (1e-5, 1e-5)):
            U = random_unitary(n, rng)
            u, v = U[:, 0], np.sqrt(1.0 - c * c) * U[:, 1] + c * U[:, 0]
            a, b = DensityMatrix.pure(u), DensityMatrix.pure(v)
            for lhs, rhs in ((a, b), (b, a)):
                assert fidelity(lhs, rhs) == pytest.approx(want, rel=1e-8, abs=0.0)
                d = renyi_divergence(lhs, rhs, 0.5)
                assert d.support_violation == (want == 0.0)
                assert d.value == pytest.approx(-2.0 * np.log(want) if want else np.inf)

    def test_either_operands_rule_flags_a_disjoint_pair(self):
        # sigma weighs 0.1 * 5e-12 on rho's support, under its own cutoff
        # (0.9e-12); rho weighs 5e-12 on sigma's, over its own (1e-12). The
        # value on the supports is sqrt(5e-13), about 7e-7; both orders read 0.
        U = random_unitary(3, np.random.default_rng(5))
        c = np.sqrt(5e-12)
        v2 = c * U[:, 0] + np.sqrt(1.0 - c * c) * U[:, 1]
        rho = DensityMatrix.pure(U[:, 0])
        sigma = DensityMatrix(0.9 * np.outer(U[:, 2], U[:, 2].conj())
                              + 0.1 * np.outer(v2, v2.conj()))
        for lhs, rhs in ((rho, sigma), (sigma, rho)):
            assert fidelity(lhs, rhs) == 0.0
            d = renyi_divergence(lhs, rhs, 0.5)
            assert d.value == np.inf and d.support_violation

    @pytest.mark.parametrize("small, kept", [(1e-13, False), (1e-11, True)])
    def test_eigenvalue_at_the_cutoff(self, small, kept):
        # an eigenvalue at or below kernel_cutoff (1e-12 of the largest) is
        # kernel: its root, sqrt(small / 2), leaves the fidelity
        rho = DensityMatrix.from_diag([1.0 - small, small])
        mixed = DensityMatrix.from_diag([0.5, 0.5])
        want = np.sqrt(0.5) * (np.sqrt(1.0 - small) + (np.sqrt(small) if kept else 0.0))
        for lhs, rhs in ((rho, mixed), (mixed, rho)):
            assert abs(fidelity(lhs, rhs) - want) <= 1e-15
            assert abs(renyi_divergence(lhs, rhs, 0.5).value + 2.0 * np.log(want)) <= self.ATOL

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, np.inf])
    def test_operand_that_is_not_psd_is_refused(self, alpha):
        bad = np.diag([0.75, 0.5, -0.25])
        state = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        for lhs, rhs in ((bad, state), (state, bad)):
            with pytest.raises(NegativeEigenvalue):
                renyi_divergence(lhs, rhs, alpha)
            with pytest.raises(NegativeEigenvalue):
                fidelity(lhs, rhs)
            with pytest.raises(NegativeEigenvalue):
                povm_distinguishability_lower_bound(lhs, rhs)


class TestOrderGap:
    def test_zero_exactly_on_ordered_pairs(self, make_ordered_pair):
        for _ in range(30):
            rho, sigma = make_ordered_pair(3)
            gap, verdict = order_divergence_gap(rho, sigma)
            assert verdict.holds
            assert abs(gap) < 1e-10

    def test_positive_on_unordered_pairs(self, make_incomparable_pair):
        for _ in range(30):
            a, b = make_incomparable_pair(3)
            gap, verdict = order_divergence_gap(a, b)
            assert verdict.fails
            assert gap > 1e-6


class TestMeasurementBound:
    def test_never_exceeds_max_divergence(self, rng):
        for _ in range(20):
            a = full_rank_state(3, rng)
            b = full_rank_state(3, rng)
            bound = povm_distinguishability_lower_bound(a, b)
            assert bound <= max_divergence(a, b).value + 1e-9

    def test_attained_on_full_rank_pairs(self, rng):
        for _ in range(20):
            a = full_rank_state(3, rng)
            b = full_rank_state(3, rng)
            bound = povm_distinguishability_lower_bound(a, b)
            assert_allclose(bound, max_divergence(a, b).value, atol=1e-8)

    def test_exact_on_diagonal_pair_via_basis_projector(self):
        a = DensityMatrix.from_diag([0.7, 0.2, 0.1])
        b = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        assert_allclose(povm_distinguishability_lower_bound(a, b),
                        np.log(0.7 / 0.5), atol=1e-12)

    def test_infinite_when_target_escapes_support(self, rng):
        narrow = random_state(3, rank=2, rng=rng)
        wide = full_rank_state(3, rng)
        assert povm_distinguishability_lower_bound(wide, narrow) == np.inf


class TestEffectProbability:
    def test_born_rule_on_diagonals(self):
        rho = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        E = Effect.from_diag([1.0, 0.5, 0.0])
        assert_allclose(effect_probability(rho, E), 0.65, atol=1e-12)
