from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe import DensityMatrix, ToleranceConfig
from qpe.bayes import classical_solve_evidence
from qpe.config import DEFAULT_CONFIG
from qpe.divergence import (classical_max_divergence, max_divergence, order_divergence_gap,
                            povm_distinguishability_lower_bound, renyi_divergence)
from qpe.domain import way_below_witness
from qpe.exceptions import (BadParameter, DimensionMismatch, InvalidState, NegativeEigenvalue,
                            NonpositiveScalar)
from qpe.linalg import is_psd, random_unitary, rank
from qpe.oracle import qpe_order_oracle
from qpe.orders import (
    SANDWICH_ROUNDING,
    as_probability_vector,
    classical_pe_leq,
    eigenvalue_shadow,
    f_renormalized_leq,
    lev_leq,
    majorizes,
    primed_leq,
    qpe_leq,
)
from qpe.states import (
    bottom_eigenspace_nonzero,
    escape_direction,
    kernel,
    random_state,
    rank_of,
    subspace_intersects,
    top_eigenspace,
)

# Bayes update of (0.5, 0.3, 0.2) by evidence (1, 0.5, 0.5).
POSTERIOR_ABOVE = np.array([2 / 3, 1 / 5, 2 / 15])
# Same prior under evidence (0.1, 1, 1): the peak moves, the order breaks.
POSTERIOR_NOT_ABOVE = np.array([1 / 11, 6 / 11, 4 / 11])
# Pushing the boundary by 1.5e-9 (5e-9 relative to 0.3) lands between the
# holds and fails thresholds.
MARGINAL_UPPER = np.array([0.5, 0.3 + 1.5e-9, 0.2 - 1.5e-9])

PRIMED_NOT_QPE = (np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.1, 0.3]))

# angles (rad) by which sigma's one-dimensional kernel is tilted off rho's,
# from equal kernels past the escape cutoff
KERNEL_TILTS = (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 1e-4, 1e-3)


class TestProbabilityVector:
    def test_clips_tiny_negative(self):
        v = as_probability_vector([1.0 + 1e-13, -1e-13])
        assert v.min() >= 0.0

    def test_rejects_larger_negative(self):
        with pytest.raises(InvalidState):
            as_probability_vector([1.001, -0.001])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidState):
            as_probability_vector([0.5, 0.4])

    def test_rejects_an_empty_vector(self):
        with pytest.raises(InvalidState, match="^empty probability vector$"):
            as_probability_vector([])

    def test_renormalizes_small_drift_with_warning(self):
        with pytest.warns(UserWarning):
            v = as_probability_vector([0.5 + 1e-8, 0.5])
        assert_allclose(v.sum(), 1.0, atol=1e-15)


class TestClassicalOrder:
    def test_posterior_sits_above_prior(self):
        assert classical_pe_leq([0.5, 0.3, 0.2], POSTERIOR_ABOVE).holds

    def test_peak_moving_evidence_breaks_order(self):
        v = classical_pe_leq([0.5, 0.3, 0.2], POSTERIOR_NOT_ABOVE)
        assert v.fails
        assert v.witness is not None and v.witness.sum() == 1.0

    def test_marginal_band(self):
        v = classical_pe_leq([0.5, 0.3, 0.2], MARGINAL_UPPER)
        assert v.marginal
        assert -1e-8 < v.slack < -1e-9

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            classical_pe_leq([0.5, 0.5], [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_same_verdict_and_slack_as_the_diagonal_states(self, rng, n):
        # random pairs, an ordered one (the peak raised) and a support escape
        pairs = [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))) for _ in range(30)]
        x = rng.dirichlet(np.ones(n))
        y = x * np.where(np.arange(n) == x.argmax(), 1.5, 1.0)
        pairs.append((x, y / y.sum()))
        x = rng.dirichlet(np.ones(n))
        x[x.argmin()] = 0.0
        pairs.append((x / x.sum(), rng.dirichlet(np.ones(n))))
        for x, y in pairs:
            got = classical_pe_leq(x, y)
            want = qpe_leq(DensityMatrix.from_diag(x), DensityMatrix.from_diag(y))
            assert got.relation == want.relation
            assert_allclose(got.slack, want.slack, rtol=1e-12, atol=1e-14)

    def test_support_escape_fails_with_infinite_slack(self):
        x, y = [0.7, 0.3, 0.0], [0.7, 0.3 - 1e-10, 1e-10]
        v = classical_pe_leq(x, y)
        assert v.fails and v.slack == -np.inf
        assert v.witness.tolist() == [0.0, 0.0, 1.0]
        w = qpe_leq(DensityMatrix.from_diag(x), DensityMatrix.from_diag(y))
        assert w.fails and w.slack == -np.inf

    @pytest.mark.parametrize("m", [1, 10, 100, 1000])
    def test_tensoring_with_the_uniform_vector_moves_nothing(self, m):
        uniform = np.full(m, 1.0 / m)
        for x, y in ((POSTERIOR_NOT_ABOVE, [0.5, 0.3, 0.2]), ([0.5, 0.3, 0.2], MARGINAL_UPPER),
                     ([0.5, 0.3, 0.2], POSTERIOR_ABOVE)):
            base = classical_pe_leq(x, y)
            lifted = classical_pe_leq(np.kron(x, uniform), np.kron(y, uniform))
            assert lifted.relation == base.relation
            assert_allclose(lifted.slack, base.slack, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("relation", [
        majorizes, classical_max_divergence, classical_solve_evidence])
    def test_every_classical_relation_checks_the_lengths(self, relation):
        with pytest.raises(DimensionMismatch, match="probability vectors differ in length"):
            relation([0.5, 0.5], [0.5, 0.3, 0.2])


class TestQpeOrderLaws:
    def test_reflexive(self, rng):
        rho = random_state(4, rng=rng)
        assert qpe_leq(rho, rho).holds

    def test_antisymmetric_up_to_tolerance(self, rng, make_ordered_pair):
        for _ in range(50):
            rho, sigma = make_ordered_pair(3)
            both = qpe_leq(rho, sigma).holds and qpe_leq(sigma, rho).holds
            if both:
                assert np.abs(rho.matrix - sigma.matrix).max() < 1e-7

    def test_transitive_with_doubled_slack(self, cfg, rng, make_ordered_pair):
        for _ in range(100):
            rho, sigma = make_ordered_pair(int(rng.integers(2, 5)))
            v = sigma.eigenvectors[:, 0]
            s = rng.uniform(0.1, 0.9)
            tau = DensityMatrix((1 - s) * sigma.matrix + s * np.outer(v, v.conj()))
            assert qpe_leq(sigma, tau).holds
            end_to_end = qpe_leq(rho, tau)
            assert end_to_end.slack >= -2.0 * cfg.psd_slack

    def test_bottom_below_everything(self, rng):
        bot = DensityMatrix.maximally_mixed(3)
        for _ in range(20):
            assert qpe_leq(bot, random_state(3, rng=rng)).holds

    def test_only_bottom_below_bottom(self, rng):
        bot = DensityMatrix.maximally_mixed(3)
        rho = random_state(3, rng=rng)
        assert qpe_leq(rho, bot).fails
        assert qpe_leq(bot, bot).holds

    @pytest.mark.parametrize("lower,upper", [
        (np.eye(2) / 2, np.zeros((2, 2))),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.zeros((2, 2)), np.eye(2) / 2),
    ])
    def test_an_operand_with_no_positive_top_eigenvalue_is_rejected(self, lower, upper):
        # the order rescales by each top eigenvalue: none to rescale by
        for call in (qpe_leq, order_divergence_gap):
            with pytest.raises(NonpositiveScalar):
                call(lower, upper)

    @pytest.mark.parametrize("lower,upper", [
        (-np.eye(2), np.eye(2) / 2),
        (np.eye(2) / 2, -np.eye(2)),
    ])
    def test_a_raw_operand_outside_the_psd_band_is_refused(self, lower, upper):
        # the gate refuses it before any rescaling is read
        for call in (qpe_leq, order_divergence_gap):
            with pytest.raises(NegativeEigenvalue,
                               match=r"^operator not PSD \(lambda_min = -1\.000e\+00\)$"):
                call(lower, upper)

    def test_unitary_invariance(self, rng, make_ordered_pair):
        rho, sigma = make_ordered_pair(3)
        U = random_unitary(3, rng)
        rotated = qpe_leq(DensityMatrix(U @ rho.matrix @ U.conj().T),
                          DensityMatrix(U @ sigma.matrix @ U.conj().T))
        assert rotated.holds

    def test_pure_ceiling_needs_top_eigenvector(self, rng):
        rho = random_state(3, rng=rng)
        top = DensityMatrix.pure(rho.eigenvectors[:, 0])
        other = DensityMatrix.pure(rho.eigenvectors[:, 1])
        assert qpe_leq(rho, top).holds
        assert qpe_leq(rho, other).fails

    def test_convex_sandwich(self, rng, make_ordered_pair):
        for _ in range(30):
            rho, sigma = make_ordered_pair(3)
            for t in (0.25, 0.5, 0.75):
                mid = DensityMatrix((1 - t) * rho.matrix + t * sigma.matrix)
                assert qpe_leq(rho, mid).holds
                assert qpe_leq(mid, sigma).holds


class TestQpeStructuralConsequences:
    def test_top_eigenvalue_grows_upward(self, make_ordered_pair):
        for _ in range(50):
            rho, sigma = make_ordered_pair(4)
            assert sigma.eigenvalues[0] >= rho.eigenvalues[0] - 1e-12

    def test_upper_top_eigenspace_contained_in_lower(self, make_ordered_pair):
        for _ in range(50):
            rho, sigma = make_ordered_pair(3)
            assert subspace_intersects(top_eigenspace(sigma), top_eigenspace(rho))

    def test_kernel_grows_upward(self, rng):
        rho = random_state(4, rank=3, rng=rng)
        v = rho.eigenvectors[:, 0]
        for s in (0.3, 0.7):
            sigma = DensityMatrix((1 - s) * rho.matrix + s * np.outer(v, v.conj()))
            assert qpe_leq(rho, sigma).holds
            ker_r = kernel(rho).basis
            ker_s = kernel(sigma).basis
            proj = ker_s @ ker_s.conj().T
            assert np.abs(proj @ ker_r - ker_r).max() < 1e-8

    def test_spectra_inherit_the_order(self, make_ordered_pair):
        for _ in range(50):
            rho, sigma = make_ordered_pair(4)
            assert classical_pe_leq(eigenvalue_shadow(rho),
                                    eigenvalue_shadow(sigma)).holds

    def test_tensor_stability_both_ways(self, rng, make_ordered_pair,
                                        make_incomparable_pair):
        for _ in range(20):
            rho, sigma = make_ordered_pair(2)
            tau = random_state(3, rng=rng)
            lifted = qpe_leq(DensityMatrix(np.kron(rho.matrix, tau.matrix)),
                             DensityMatrix(np.kron(sigma.matrix, tau.matrix)))
            assert lifted.holds
            a, b = make_incomparable_pair(2)
            broken = qpe_leq(DensityMatrix(np.kron(a.matrix, tau.matrix)),
                             DensityMatrix(np.kron(b.matrix, tau.matrix)))
            assert broken.fails


def _near_cutoff_states(seed: int, draws: int):
    """rho = U diag(w) U* at dims 2-5, U Haar, whose least eigenvalue is
    rank_cutoff rho+ (1 + u), u uniform in +-3e-4: eigvalsh and eigh know it
    to about eps rho+, so one may count it as support and the other as
    kernel."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        n = int(rng.integers(2, 6))
        U = random_unitary(n, rng)
        w = np.sort(rng.random(n) + 0.1)[::-1]
        w[-1] = DEFAULT_CONFIG.rank_cutoff * w[0] * (1.0 + rng.uniform(-3e-4, 3e-4))
        w /= w.sum()
        yield DensityMatrix((U * w) @ U.conj().T)


def _escaping_partner(rho):
    """(rho + v v*) / 2 for v the first column of rho's eigh past its support."""
    v = rho.eigenvectors[:, len(rho.support()[0])]
    return DensityMatrix((rho.matrix + np.outer(v, v.conj())) / 2.0)


class TestOneSupportSplit:
    """rho's kernel is cut from the eigh that rho^-1/2 and its support read,
    so a partner that escapes it escapes the support that the sandwich
    inverts on, also where eigvalsh's spectrum counts one more support
    eigenvalue than the eigh's."""

    def test_a_partner_escaping_a_kernel_only_the_eigh_counts_fails(self):
        edge = [rho for rho in _near_cutoff_states(5, 300)
                if rank(rho.eigenvalues) > rank(rho._eigh[0])]
        assert len(edge) >= 5
        for rho in edge:
            assert kernel(rho).dim == rho.dim - len(rho.support()[0])
            sigma = _escaping_partner(rho)
            verdict = qpe_leq(rho, sigma)
            assert verdict.fails and verdict.slack == -np.inf
            assert qpe_order_oracle(rho, sigma).relation == verdict.relation
            assert max_divergence(sigma, rho).value == np.inf
            assert renyi_divergence(sigma, rho, 1.0).value == np.inf
            assert povm_distinguishability_lower_bound(sigma, rho) == np.inf

    def test_no_pair_holds_with_a_positive_slack_or_has_a_negative_max_divergence(self, rng):
        """For a unit v in sigma's top eigenspace, v* (sigma+ rho - rho+ sigma) v
        <= 0, so qpe_leq's slack is never positive in exact arithmetic, and
        tr sigma = tr rho = 1 puts D_inf(sigma || rho) at 0 or above. Both
        hold to 1e-12 on ordinary states; rho^-1/2 amplifies the rounding by
        rho's condition number kappa on its support, about 1 / rank_cutoff
        for a near-cutoff state that keeps its least eigenvalue, so there the
        bound is SANDWICH_ROUNDING kappa (ordered pairs read up to 7e-11)."""
        ordinary = [random_state(int(rng.integers(2, 6)), rng=rng) for _ in range(20)]
        ordinary += [random_state(4, rank=int(rng.integers(1, 4)), rng=rng) for _ in range(10)]
        for rho in ordinary + list(_near_cutoff_states(5, 60)):
            w = rho.support()[0]
            tol = 1e-12 if rho in ordinary else max(1e-12, SANDWICH_ROUNDING * w[0] / w[-1])
            v = rho.eigenvectors[:, 0]
            partners = [DensityMatrix((rho.matrix + np.outer(v, v.conj())) / 2.0),
                        random_state(rho.dim, rng=rng)]
            if len(w) < rho.dim:
                partners.append(_escaping_partner(rho))
            for sigma in partners:
                verdict = qpe_leq(rho, sigma)
                assert not verdict.holds or verdict.slack <= tol
                assert max_divergence(sigma, rho).value >= -tol
                assert order_divergence_gap(rho, sigma)[0] >= np.log(1.0 - tol)


class TestLeastEigenvalueOrder:
    def test_equal_kernels_comparable(self):
        rho = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        assert lev_leq(rho, DensityMatrix.from_diag([0.55, 0.3, 0.15])).holds
        assert lev_leq(rho, DensityMatrix.from_diag([0.45, 0.35, 0.2])).fails

    def test_kernel_growth_needs_bottom_overlap(self):
        rho = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        absorbing = DensityMatrix.from_diag([5 / 8, 3 / 8, 0.0])
        v = lev_leq(rho, absorbing)
        assert v.holds and v.slack == 0.0
        elsewhere = DensityMatrix.from_diag([5 / 8, 0.0, 3 / 8])
        assert lev_leq(rho, elsewhere).fails

    def test_nested_kernels_decide_on_the_bottom_eigenspace(self):
        # rho's kernel e3 lies in sigma's kernel span(e2, e3), which takes in
        # rho's bottom eigenspace e2: below, structurally
        sigma = DensityMatrix.from_diag([1.0, 0.0, 0.0])
        v = lev_leq(DensityMatrix.from_diag([0.6, 0.4, 0.0]), sigma)
        assert v.holds and v.slack == 0.0
        # the same kernels, but rho's bottom eigenspace is e1: the witness is
        # e2, the direction of sigma's kernel on which rho weighs most
        v = lev_leq(DensityMatrix.from_diag([0.4, 0.6, 0.0]), sigma)
        assert v.fails and v.slack == -np.inf
        assert_allclose(np.abs(v.witness), [0.0, 1.0, 0.0], atol=1e-12)

    def test_zero_operands_have_no_least_nonzero_eigenvalue(self):
        # equal (full) kernels, and no support to read rho- or sigma- from
        with pytest.raises(InvalidState, match="^matrix has no nonzero eigenvalues$"):
            lev_leq(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_kernel_shrink_always_fails(self):
        rho = DensityMatrix.from_diag([0.6, 0.4, 0.0])
        sigma = DensityMatrix.from_diag([0.4, 0.3, 0.3])
        assert lev_leq(rho, sigma).fails

    def test_kernels_nest_by_the_escape_rule(self):
        """lev_leq asks qpe_leq's support question: a pair fails structurally
        exactly when sigma escapes rho's support, with the escape direction
        as the witness. From 3e-8 rad up a tilt moves sigma's kernel by more
        than rounding, yet until sigma's weight on rho's kernel passes the
        cutoff, sigma lives on rho's support and the kernels nest."""
        rng = np.random.default_rng(7)
        for draw in range(40):
            d = 3 + draw % 4
            U = random_unitary(d, rng)
            p, q = (np.append(rng.dirichlet(np.ones(d - 1)), 0.0) for _ in range(2))
            rho = DensityMatrix((U * p) @ U.conj().T)
            for theta in KERNEL_TILTS:
                V = U.copy()  # U turned by theta in the plane of its first and last columns
                V[:, 0] = np.cos(theta) * U[:, 0] - np.sin(theta) * U[:, -1]
                V[:, -1] = np.sin(theta) * U[:, 0] + np.cos(theta) * U[:, -1]
                sigma = DensityMatrix((V * q) @ V.conj().T)
                lev, qpe = lev_leq(rho, sigma), qpe_leq(rho, sigma)
                assert (lev.slack == -np.inf) == (qpe.slack == -np.inf), (draw, theta)
                if lev.slack == -np.inf:
                    assert lev.witness.tobytes() == escape_direction(rho, sigma).tobytes()

    def test_both_ends_of_the_support_are_read_off_the_spectra_that_set_it(self):
        """6,000 built pairs with exactly equal or nested kernels, dims 2-5 in
        turn, under rank_cutoff = cluster_width = 0, where a kernel eigenvalue
        is a rounding zero of either sign and the eigvalsh and the eigh can
        split one. rho-, sigma- and both tops are read off the spectra whose
        ranks set the support, so no slack unit is a negative rounding zero:
        read off the eigvalsh at the eigh's rank, 96 raised NonpositiveScalar."""
        cfg = ToleranceConfig(rank_cutoff=0.0, cluster_width=0.0)
        rng = np.random.default_rng(1)
        relations = Counter()
        for draw in range(6000):
            n = 2 + draw % 4
            r = int(rng.integers(1, n))  # rho's rank: a kernel of n - r
            s = int(rng.integers(1, r + 1))  # sigma's: an equal or a larger kernel
            U = random_unitary(n, rng)
            p, q = rng.uniform(0.1, 1.0, r), rng.uniform(0.1, 1.0, s)
            # sigma on rho's support, turned within it, or on a part of it
            W = U[:, :r] @ random_unitary(r, rng) if s == r and rng.integers(2) else U[:, :s]
            rho, sigma = (DensityMatrix((V * (d / d.sum())) @ V.conj().T)
                          for V, d in ((U[:, :r], p), (W, q)))
            relations[lev_leq(rho, sigma, cfg).relation] += 1
        assert set(relations) == {"holds", "fails"}

    def test_one_rank_decides_every_kernel_question(self):
        """2,000 built pairs with exactly equal or nested kernels, dims 2-5 in
        turn, under rank_cutoff = cluster_width = 0, where the eigvalsh and
        the eigh split a rounding zero differently in about one rho of ten.
        rank_of counts the support that kernel cuts, way_below_witness's
        kernel obstruction asks rank_of, and lev_leq fails with slack -inf
        wherever qpe_leq's escape test fires: counted on the eigvalsh, lev_leq
        took its full-rank shortcut past 12 of those escapes."""
        cfg = ToleranceConfig(rank_cutoff=0.0, cluster_width=0.0)
        rng = np.random.default_rng(1)
        seen = Counter()
        for draw in range(2000):
            n = 2 + draw % 4
            r = int(rng.integers(1, n))  # rho's rank: a kernel of n - r
            s = int(rng.integers(1, r + 1))  # sigma's: an equal or a larger kernel
            U = random_unitary(n, rng)
            p, q = rng.uniform(0.1, 1.0, r), rng.uniform(0.1, 1.0, s)
            W = U[:, :r] @ random_unitary(r, rng) if s == r and rng.integers(2) else U[:, :s]
            rho, sigma = (DensityMatrix((V * (d / d.sum())) @ V.conj().T)
                          for V, d in ((U[:, :r], p), (W, q)))
            support = rank_of(rho, cfg)
            assert support == n - kernel(rho, cfg).dim, draw
            obstructed = way_below_witness(rho, sigma, cfg).rule == "kernel-obstruction"
            assert obstructed == (support < n), draw
            escapes = qpe_leq(rho, sigma, cfg).slack == -np.inf
            if escapes:
                assert lev_leq(rho, sigma, cfg).slack == -np.inf, draw
            seen["escape" if escapes else "full rank" if support == n else "nested"] += 1
        # the population has all three cases
        assert min(seen.values()) > 10 and len(seen) == 3, seen

    @pytest.mark.parametrize("lower,upper,kernel_of,axis", [
        # sigma's kernel grew, but not into rho's bottom eigenspace
        ([0.5, 0.3, 0.2], [5 / 8, 0.0, 3 / 8], "upper", 1),
        # the kernel shrank
        ([0.6, 0.4, 0.0], [0.4, 0.3, 0.3], "lower", 2),
        # sigma's kernel grew, but does not hold rho's
        ([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], "lower", 2),
        # kernels of one dimension, in different places
        ([0.6, 0.4, 0.0], [0.6, 0.0, 0.4], "lower", 2),
    ])
    def test_structural_fails_name_an_unshared_kernel_direction(self, rng, lower, upper,
                                                               kernel_of, axis):
        U = random_unitary(3, rng)
        rho, sigma = (DensityMatrix((U * np.array(d)) @ U.conj().T) for d in (lower, upper))
        v = lev_leq(rho, sigma)
        assert v.fails and v.slack == -np.inf
        # the witness spans the kernel direction, and the other state weighs on it
        assert_allclose(abs(np.vdot(U[:, axis], v.witness)), 1.0, atol=1e-9)
        other = rho if kernel_of == "upper" else sigma
        assert float(np.vdot(v.witness, other.matrix @ v.witness).real) > 0.1


class TestRelaxedOrder:
    def test_main_order_implies_relaxed(self, make_ordered_pair):
        for _ in range(50):
            rho, sigma = make_ordered_pair(3)
            assert primed_leq(rho, sigma).holds

    def test_relaxed_does_not_imply_main(self):
        lower = DensityMatrix.from_diag(PRIMED_NOT_QPE[0])
        upper = DensityMatrix.from_diag(PRIMED_NOT_QPE[1])
        assert primed_leq(lower, upper).holds
        v = qpe_leq(lower, upper)
        assert v.fails
        # 1 - rho+ max_i(sigma_i / rho_i) / sigma+ = 1 - 0.5 * 1.5 / 0.6
        assert_allclose(v.slack, -0.25, atol=1e-12)


class TestRenormalizedOrders:
    def test_operator_norm_reproduces_main_order(self, rng, make_ordered_pair,
                                                 make_incomparable_pair):
        for _ in range(20):
            rho, sigma = make_ordered_pair(3)
            assert f_renormalized_leq(rho, sigma, "op_norm").holds
            a, b = make_incomparable_pair(3)
            assert f_renormalized_leq(a, b, "op_norm").fails

    def test_frobenius_renormalization_changes_the_order(self):
        bot = DensityMatrix.maximally_mixed(3)
        skew = DensityMatrix.from_diag([0.7, 0.2, 0.1])
        pure = DensityMatrix.pure([1.0, 0.0, 0.0])
        frob = ("schatten", 2, 1)
        assert qpe_leq(bot, skew).holds
        assert f_renormalized_leq(bot, skew, frob).fails
        assert qpe_leq(skew, pure).holds
        assert f_renormalized_leq(skew, pure, frob).fails

    def test_unknown_functional_rejected(self, rng):
        rho = random_state(2, rng=rng)
        with pytest.raises(BadParameter):
            f_renormalized_leq(rho, rho, "trace")

    def test_nan_schatten_order_rejected(self, rng):
        rho = random_state(2, rng=rng)
        with pytest.raises(BadParameter):
            f_renormalized_leq(rho, rho, ("schatten", np.nan, 1))

    def test_raw_pair_without_a_positive_slack_unit_rejected(self):
        # zero operands pass the PSD gate, but their tops and norms are zero,
        # so max(sigma+, rho+) and f(rho) are too, and no slack has a unit
        zero = np.zeros((2, 2))
        with pytest.raises(NonpositiveScalar,
                           match="^slack unit 0.0 is not positive: the pair's tops are not$"):
            primed_leq(zero, zero)
        with pytest.raises(NonpositiveScalar, match="^functional 'op_norm' returned 0.0$"):
            f_renormalized_leq(zero, zero, "op_norm")


def _near_pair():
    """A state and a traceless nudge of it that keeps its (1, 0) entry.

    In the direction where the gap of tops is negative, primed_leq's
    gap * I term writes -0.0 where the two matrices agree.
    """
    R = random_state(3, rng=np.random.default_rng(0)).matrix
    E = np.array([[1.0, 0.0, 0.5 + 0.5j],
                  [0.0, -2.0, -0.5 + 0.25j],
                  [0.5 - 0.5j, -0.5 - 0.25j, 1.0]])
    return DensityMatrix(R), DensityMatrix(R + 1e-3 * E)


def _signed_zero_pair():
    """Two states whose (1, 0) entries are -0 and +0."""

    def state(diag, zero):
        M = np.diag(diag).astype(complex)
        M[0, 1], M[1, 0] = complex(zero, 0.0), complex(zero, zero)
        M[0, 2], M[2, 0] = 0.03 - 0.02j, 0.03 + 0.02j
        M[1, 2] = M[2, 1] = 0.02
        return DensityMatrix(M)

    return state([0.5, 0.3, 0.2], -0.0), state([0.45, 0.35, 0.2], 0.0)


def _lev_unit(r, s):
    """lev's scale of the pair: max(rho- sigma+, sigma- rho+)."""
    r_min, s_min = bottom_eigenspace_nonzero(r).eigenvalue, bottom_eigenspace_nonzero(s).eigenvalue
    return max(r_min * float(s.eigenvalues[0]), s_min * float(r.eigenvalues[0]))


# each predicate with the matrix it decides, for is_psd to decide as well, and
# the scale of the pair its slack is read in
ORDER_MATRICES = {
    "lev": (lev_leq, lambda r, s: bottom_eigenspace_nonzero(r).eigenvalue * s.matrix
            - bottom_eigenspace_nonzero(s).eigenvalue * r.matrix, _lev_unit),
    "primed": (primed_leq, lambda r, s: (s.eigenvalues[0] - r.eigenvalues[0]) * np.eye(r.dim)
               - (s.matrix - r.matrix),
               lambda r, s: max(float(s.eigenvalues[0]), float(r.eigenvalues[0]))),
    "op_norm": (lambda r, s: f_renormalized_leq(r, s, "op_norm"),
                lambda r, s: s.norm * r.matrix - r.norm * s.matrix,
                lambda r, s: max(s.norm * float(r.eigenvalues[0]),
                                 r.norm * float(s.eigenvalues[0]))),
}


class TestOrderMatrixRoute:
    """The predicates decide on their order matrix exactly as is_psd does,
    with is_psd's least eigenvalue over their unit as the slack.

    Signed zeros in the matrix reach LAPACK, so the route must fold the
    matrix as is_psd does for the results to agree bit for bit.
    """

    @pytest.mark.parametrize("pair", [_near_pair, _signed_zero_pair])
    @pytest.mark.parametrize("name", sorted(ORDER_MATRICES))
    def test_bit_identical_to_is_psd(self, pair, name):
        predicate, order_matrix, unit = ORDER_MATRICES[name]
        a, b = pair()
        for r, s in ((a, b), (b, a)):
            got, want = predicate(r, s), is_psd(order_matrix(r, s))
            assert (got.relation, got.slack) == (want.relation, want.slack / unit(r, s))
            if want.witness is None:
                assert got.witness is None
            else:
                assert got.witness.tobytes() == want.witness.tobytes()


class TestMajorization:
    def test_uniform_is_majorized_by_all(self):
        assert majorizes([0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3])
        assert not majorizes([1 / 3, 1 / 3, 1 / 3], [0.7, 0.2, 0.1])

    def test_order_independent_of_majorization(self):
        lower = [0.46, 0.46, 0.08]
        upper = [0.70, 0.20, 0.10]
        assert classical_pe_leq(lower, upper).holds
        assert not majorizes(upper, lower)
        assert not majorizes(lower, upper)


# under rho, sigma -> c rho (x) I/m, c sigma (x) I/m primed's order matrix
# moves by c/m, lev's by (c/m)^2, and f(sigma) rho - f(rho) sigma by c/m times
# f's own factor, (c m^(1/p - 1))^r for ('schatten', p, r); each slack's unit
# moves alike
SCALE_AUDIT_ORDERS = {
    "lev": lev_leq,
    "primed": primed_leq,
    "op_norm": lambda a, b: f_renormalized_leq(a, b, "op_norm"),
    "schatten 2": lambda a, b: f_renormalized_leq(a, b, ("schatten", 2, 1)),
}
# lev reads both operators' eigenvectors, which _lifted does not seed: their
# eighs at n = 1000 cost about 2 s a pair, so lev is audited up to n = 50
LEV_AUDIT_MAX_DIM = 50
# absolute bound on a dimensionless slack that is zero but for rounding
ZERO_ATOL = 1e-14


def _scale_audit_pairs(d, rng):
    """Raw pairs at dim d: one pulled toward rho's top eigenvector (lev,
    primed and op_norm hold, schatten 2 fails), a random one (every order
    fails), a rank d - 1 pair that shares its kernel (lev decides it on
    its order matrix, with a nonempty kernel), and lev's structural routes:
    sigma's kernel grown to take in rho's bottom eigenvector (holds with
    slack 0), a full-rank sigma escaping rho's kernel (-inf), and the
    reverse, where sigma's kernel misses rho's bottom eigenspace (-inf)."""
    R = random_state(d, rng=rng).matrix
    v = np.linalg.eigh(R)[1][:, -1]
    pulled = 0.7 * R + 0.3 * np.outer(v, v.conj())
    pairs = {"pulled": (R, pulled), "random": (R, random_state(d, rng=rng).matrix)}
    D = random_state(d, d - 1, rng=rng).matrix
    U = np.linalg.eigh(D)[1]  # ascending: D's kernel, then its bottom eigenvector
    P = U[:, 1:] @ U[:, 1:].conj().T  # onto D's support
    X = P @ random_state(d, rng=rng).matrix @ P
    pairs["shared kernel"] = (D, X / X.trace().real)
    Q = U[:, 2:] @ U[:, 2:].conj().T  # onto D's support less its bottom eigenvector
    Y = Q @ random_state(d, rng=rng).matrix @ Q
    pairs["grown"] = (D, Y / Y.trace().real)
    full = random_state(d, rng=rng).matrix
    pairs["escaping"], pairs["escaping back"] = (D, full), (full, D)
    return pairs


def _lifted(X, c, m):
    """c X (x) I/m, with its spectrum, known in closed form, seeded: the
    predicates then solve only their order matrix, also at n = 1000."""
    w = np.repeat(np.linalg.eigvalsh(X)[::-1] * (c / m), m)
    return DensityMatrix._derived(np.kron(c * X, np.eye(m) / m), DEFAULT_CONFIG, w=w)


@pytest.mark.parametrize("d, m, scales", [(3, 1, (1e-8, 1e-6, 1e-3, 7.0, 1e3)),
                                          (5, 10, (1e-8, 1e-6, 1.0, 7.0, 1e3)),
                                          (5, 200, (1e3,))])
def test_matrix_orders_under_tensoring_and_rescaling(d, m, scales):
    """The matrix orders at n = d m = 3, 50 and 1000 (lev up to n = 50): the
    least eigenvalue of the order matrix over a scale of the pair that
    moves with it, their slack, is unmoved by rescaling both operators by
    c > 0 and tensoring both with I/m, and so is the relation, down to
    c = 1e-8 with m = 10. The pulled pair's holding slacks are zeros of the
    order matrix to rounding (at most 6e-16, moving by 3e-15 at n = 1000),
    hence ZERO_ATOL beside rtol 1e-8."""
    rng = np.random.default_rng(d * m)
    for kind, (R, S) in _scale_audit_pairs(d, rng).items():
        for name, order in SCALE_AUDIT_ORDERS.items():
            if name == "lev" and d * m > LEV_AUDIT_MAX_DIM:
                continue
            base = order(R, S)
            for c in scales:
                got = order(_lifted(R, c, m), _lifted(S, c, m))
                case = (kind, name, c, m)
                assert got.relation == base.relation, case
                assert_allclose(got.slack, base.slack, rtol=1e-8, atol=ZERO_ATOL,
                                err_msg=str(case))
