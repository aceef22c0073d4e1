from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe import DensityMatrix, ToleranceConfig
from qpe.channels import Channel, channel_mix
from qpe.domain import (
    CERTIFIED_BELOW,
    NOT_BELOW,
    UNKNOWN,
    depolarize,
    directed_supremum,
    way_below_witness,
)
from qpe.exceptions import (BadParameter, InvalidState, NotAChain, NotConverged,
                            PreconditionViolated)
from qpe.oracle import mixing_monotone_check
from qpe.orders import qpe_leq
from qpe.states import random_state

# Below the upper state in the plain order, but not any mixture of it with
# the bottom, so no certification rule applies.
ORDERED_NOT_MIXTURE = ([0.45, 0.33, 0.22], [0.5, 0.3, 0.2])


MIXING_WEIGHT_CALLERS = {
    "depolarize": lambda t: depolarize(random_state(2, rng=0), t),
    "mixing_monotone_check": lambda t: mixing_monotone_check(*(DensityMatrix(np.eye(2) / 2),) * 3, t),
    "Channel.depolarizing": lambda t: Channel.depolarizing(2, t),
    "channel_mix": lambda t: channel_mix(Channel.identity(2), Channel.identity(2), t),
}


@pytest.mark.parametrize("name", sorted(MIXING_WEIGHT_CALLERS))
@pytest.mark.parametrize("t", [-0.1, 1.5, float("nan")])
def test_a_mixing_weight_outside_the_unit_interval_is_rejected(name, t):
    with pytest.raises(BadParameter, match=r"mixing parameter .* outside \[0, 1\]"):
        MIXING_WEIGHT_CALLERS[name](t)


class TestDepolarize:
    def test_endpoints(self, rng):
        rho = random_state(3, rng=rng)
        assert_allclose(depolarize(rho, 0.0).matrix, rho.matrix)
        assert_allclose(depolarize(rho, 1.0).matrix, np.eye(3) / 3)

    def test_parameter_validated(self, rng):
        rho = random_state(2, rng=rng)
        with pytest.raises(BadParameter):
            depolarize(rho, 1.5)

    def test_a_raw_state_is_held_to_the_trace_rule_before_the_mix(self):
        R = random_state(3, rng=4).matrix
        with pytest.warns(UserWarning, match="renormalizing state with trace off by 5.00e-09"):
            raw = depolarize(R * (1.0 + 5e-9), 0.95)
        with pytest.warns(UserWarning, match="renormalizing"):
            built = depolarize(DensityMatrix(R * (1.0 + 5e-9)), 0.95)
        assert raw.matrix.tobytes() == built.matrix.tobytes()
        # refused as DensityMatrix refuses it, though the mix's trace is off by 5e-7
        with pytest.raises(InvalidState, match=r"^trace 1\.00001\d* is not 1 within 1e-06$"):
            depolarize(R * (1.0 + 1e-5), 0.95)

    def test_the_mix_is_derived_in_the_band_rho_was_admitted_under(self):
        # the least eigenvalue of the mix is at least (1 - t) lambda_min(rho):
        # a kernel that rounds below zero is not refused under psd_slack = 0
        zero = ToleranceConfig(psd_slack=0.0)
        rng = np.random.default_rng(2)
        rho = next(r for r in (random_state(4, rank=2, rng=rng) for _ in range(100))
                   if r.eigenvalues[-1] < 0.0)
        for t in (0.0, 1e-12):
            mixed = depolarize(rho, t, zero)
            assert mixed._validated_under is rho._validated_under
        assert np.array_equal(depolarize(rho, 0.0, zero).matrix, rho.matrix)


class TestWayBelowWitness:
    def test_mixture_certified_with_exact_parameter(self, rng):
        sigma = random_state(3, rng=rng)
        for t in (0.05, 0.3, 1.0):
            wit = way_below_witness(depolarize(sigma, t), sigma)
            assert wit.verdict == CERTIFIED_BELOW
            assert wit.rule == "mixture-with-bottom"
            assert_allclose(wit.t, t, atol=1e-12)
            assert wit.residual < 1e-12

    def test_oversized_mixture_recognized_through_its_inverse(self):
        sigma = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        lam = 1.2
        stretched = DensityMatrix(lam * sigma.matrix
                                  + (1.0 - lam) * np.eye(3) / 3)
        wit = way_below_witness(sigma, stretched)
        assert wit.verdict == CERTIFIED_BELOW
        assert_allclose(wit.t, 1.0 - 1.0 / lam, atol=1e-12)
        assert "1.2" in wit.note

    def test_kernel_obstruction(self, rng):
        deficient = random_state(3, rank=2, rng=rng)
        v = deficient.eigenvectors[:, 0]
        above = DensityMatrix(0.5 * deficient.matrix
                              + 0.5 * np.outer(v, v.conj()))
        assert qpe_leq(deficient, above).holds
        wit = way_below_witness(deficient, above)
        assert wit.verdict == NOT_BELOW
        assert wit.rule == "kernel-obstruction"

    def test_order_violation_refutes(self, make_incomparable_pair):
        a, b = make_incomparable_pair(3)
        wit = way_below_witness(a, b)
        assert wit.verdict == NOT_BELOW
        assert wit.rule == "order-violation"

    def test_ordered_but_not_mixture_is_unknown(self):
        lower = DensityMatrix.from_diag(ORDERED_NOT_MIXTURE[0])
        upper = DensityMatrix.from_diag(ORDERED_NOT_MIXTURE[1])
        assert qpe_leq(lower, upper).holds
        wit = way_below_witness(lower, upper)
        assert wit.verdict == UNKNOWN
        assert wit.rule == "no-rule"

    def test_bottom_target_needs_bottom_approximant(self, rng):
        bot = DensityMatrix.maximally_mixed(3)
        wit = way_below_witness(bot, bot)
        assert wit.verdict == CERTIFIED_BELOW
        assert wit.t == 1.0

    def test_mixture_residual_band_reads_psd_slack(self):
        upper = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        # depolarized by 0.3, then moved 1e-7 off the mixture line
        lower = DensityMatrix(0.7 * upper.matrix + 0.1 * np.eye(3)
                              + 1e-7 * np.diag([0.0, 1.0, -1.0]))
        assert way_below_witness(lower, upper).rule == "no-rule"
        wide = way_below_witness(lower, upper, ToleranceConfig(psd_slack=1e-6))
        assert wide.certified
        assert_allclose(wide.t, 0.3, atol=1e-6)

    def test_bottom_target_band_reads_rank_cutoff(self):
        near_bottom = DensityMatrix(np.eye(3) / 3 + 1e-11 * np.diag([1.0, -1.0, 0.0]))
        assert way_below_witness(near_bottom, near_bottom).rule == "no-rule"
        coarse = ToleranceConfig(rank_cutoff=1e-10)
        wit = way_below_witness(near_bottom, near_bottom, coarse)
        assert wit.certified
        assert wit.t == 1.0

    def test_interpolants_of_certified_approximants_stay_certified(self, rng):
        sigma = random_state(3, rng=rng)
        approx = depolarize(sigma, 0.4)
        assert way_below_witness(approx, sigma).certified
        for t in (0.25, 0.75):
            mid = DensityMatrix((1 - t) * sigma.matrix + t * approx.matrix)
            assert way_below_witness(mid, sigma).certified


class TestDirectedSupremum:
    def test_halving_chain_converges_to_its_generator(self, rng):
        rho = random_state(3, rng=rng)
        chain = [depolarize(rho, 2.0 ** -k) for k in range(37)]
        sup = directed_supremum(chain)
        assert np.abs(sup.matrix - rho.matrix).max() < 1e-10

    def test_single_element_chain(self, rng):
        rho = random_state(3, rng=rng)
        assert directed_supremum([rho]) is rho

    def test_unordered_sequence_rejected(self, rng):
        rho = random_state(3, rng=rng)
        chain = [depolarize(rho, 0.2), depolarize(rho, 0.8)]
        with pytest.raises(NotAChain):
            directed_supremum(chain)

    def test_empty_rejected(self):
        with pytest.raises(NotAChain):
            directed_supremum([])

    def test_unsettled_tail_rejected(self, rng):
        rho = random_state(3, rng=rng)
        chain = [depolarize(rho, 2.0 ** -k) for k in range(6)]
        with pytest.raises(NotConverged):
            directed_supremum(chain)


class TestMixingMonotonicity:
    def test_preserved_along_depolarization_chains(self, rng):
        for _ in range(30):
            sigma = random_state(int(rng.integers(2, 5)), rng=rng)
            t1, t2 = np.sort(rng.uniform(0.05, 0.95, 2))
            rho = depolarize(sigma, t1)
            kappa = depolarize(sigma, t2)
            assert mixing_monotone_check(kappa, rho, sigma, float(rng.uniform(0, 1)))

    def test_rejects_unordered_anchor(self, rng, make_ordered_pair):
        rho, sigma = make_ordered_pair(3)
        loose = random_state(3, rng=rng)
        if not qpe_leq(loose, rho).holds:
            with pytest.raises(PreconditionViolated):
                mixing_monotone_check(loose, rho, sigma, 0.5)

    def test_rejects_unordered_pair(self):
        # the bottom I/3 is below both states, which are not ordered
        bottom = DensityMatrix(np.eye(3) / 3)
        lower = DensityMatrix.from_diag([0.5, 0.3, 0.2])
        upper = DensityMatrix.from_diag([0.6, 0.1, 0.3])
        with pytest.raises(PreconditionViolated) as caught:
            mixing_monotone_check(bottom, lower, upper, 0.5)
        assert str(caught.value) == "pair is not ordered"

    def test_rejects_bad_parameter(self, rng):
        sigma = random_state(3, rng=rng)
        rho = depolarize(sigma, 0.5)
        kappa = depolarize(sigma, 0.9)
        with pytest.raises(BadParameter):
            mixing_monotone_check(kappa, rho, sigma, 1.5)
