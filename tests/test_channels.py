from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from qpe import DensityMatrix, ToleranceConfig
from qpe.channels import (
    COMPLETENESS_TOL,
    Channel,
    channel_compose,
    channel_max_divergence,
    channel_mix,
    channel_qpe_leq,
    channel_tensor,
    entanglement_fidelity,
    extended_output,
    maximally_entangled,
    to_choi,
)
from qpe.divergence import max_divergence
from qpe.exceptions import (
    BadParameter,
    DimensionMismatch,
    NonFiniteInput,
    NonHermitianInput,
    NotCPTP,
    OverflowingInput,
)
from qpe.oracle import channel_order_oracle, choi_form_output, jamiolkowski_properties_check
from qpe.orders import qpe_leq
from qpe.states import random_state

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
DEPHASING_KRAUS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

IDENTITY_CHOI_2 = np.zeros((4, 4))
IDENTITY_CHOI_2[np.ix_([0, 3], [0, 3])] = 0.5


class TestChoiConstruction:
    def test_identity_choi_is_exact(self):
        assert np.array_equal(to_choi([np.eye(2)], 2, 2), IDENTITY_CHOI_2)

    def test_choi_is_a_state_with_flat_input_marginal(self, rng):
        phi = Channel.random(3, 2, 4, rng)
        J = phi.choi
        assert_allclose(np.trace(J.matrix).real, 1.0, atol=1e-12)
        marg = J.matrix.reshape(3, 2, 3, 2).trace(axis1=1, axis2=3)
        assert_allclose(marg, np.eye(3) / 3, atol=1e-10)

    def test_dephasing_choi(self):
        phi = Channel(DEPHASING_KRAUS)
        assert_allclose(phi.choi.matrix, np.diag([0.5, 0.0, 0.0, 0.5]),
                        atol=1e-14)


class TestChannelValidation:
    def test_incomplete_kraus_rejected(self):
        with pytest.raises(NotCPTP):
            Channel([0.5 * np.eye(2)])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            Channel([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
    def test_zero_dimension_kraus_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            Channel([np.zeros(shape)])

    def test_nonpositive_choi_rejected(self):
        J = IDENTITY_CHOI_2.copy()
        J[1, 1] = 0.2
        J[2, 2] = -0.2
        with pytest.raises(NotCPTP):
            Channel.from_choi(J, 2, 2)

    def test_bad_marginal_rejected(self):
        with pytest.raises(NotCPTP):
            Channel.from_choi(np.diag([0.5, 0.5, 0.0, 0.0]), 2, 2)

    def test_non_hermitian_choi_rejected(self):
        J = Channel.depolarizing(2, 0.5).choi.matrix.copy()
        # the Hermitian part (0.1 in both cells) would be a valid channel
        J[0, 1] = 0.2
        with pytest.raises(NonHermitianInput):
            Channel.from_choi(J, 2, 2)

    def test_choi_trace_within_tolerance_is_renormalized(self):
        J = (1 + 5e-9) * Channel.depolarizing(2, 0.5).choi.matrix
        with pytest.warns(UserWarning, match="renormalizing"):
            phi = Channel.from_choi(J, 2, 2)
        assert_allclose(np.trace(phi.choi.matrix).real, 1.0, rtol=0, atol=1e-15)

    def test_choi_trace_beyond_tolerance_rejected(self):
        J = (1 + 1e-7) * Channel.depolarizing(2, 0.5).choi.matrix
        with pytest.raises(NotCPTP):
            Channel.from_choi(J, 2, 2)

    @pytest.mark.parametrize("psd_slack", [1e-9, 1e-3])
    def test_negative_choi_eigenvalue_rejected_whatever_the_slack(self, psd_slack):
        # trace preserving, with three Choi eigenvalues t / 4 = -1e-5
        t = -4e-5
        J = (1 - t) * IDENTITY_CHOI_2 + t * np.eye(4) / 4
        with pytest.raises(NotCPTP):
            Channel.from_choi(J, 2, 2, ToleranceConfig(psd_slack=psd_slack))

    def test_dropped_negative_choi_eigenvalues_must_keep_completeness(self):
        # trace preserving, with three Choi eigenvalues -5e-9: each passes the
        # eigenvalue check, but the Kraus family without them misses
        # completeness by 1.5e-8
        t = -2e-8
        J = (1 - t) * IDENTITY_CHOI_2 + t * np.eye(4) / 4
        with pytest.raises(NotCPTP, match="completeness"):
            Channel.from_choi(J, 2, 2)

    def test_dropped_negative_choi_eigenvalues_that_keep_completeness_accepted(self):
        # three Choi eigenvalues -2e-9: past the n * weight bound (1.2e-8), but
        # the recovered family misses completeness by 6e-9 only
        t = -8e-9
        phi = Channel.from_choi((1 - t) * IDENTITY_CHOI_2 + t * np.eye(4) / 4, 2, 2)
        assert len(phi.kraus) == 1
        total = sum(K.conj().T @ K for K in phi.kraus)
        assert_allclose(total, np.eye(2), rtol=0, atol=COMPLETENESS_TOL)

    def test_weight_below_a_large_rank_cutoff_must_keep_completeness(self):
        J = Channel.depolarizing(2, 1e-6).choi.matrix
        assert len(Channel.from_choi(J, 2, 2).kraus) == 4
        cfg = ToleranceConfig(cluster_width=1e-6, rank_cutoff=1e-6)
        # the three eigenvalues 2.5e-7 fall below the cutoff
        with pytest.raises(NotCPTP, match="completeness"):
            Channel.from_choi(J, 2, 2, cfg)

    def test_recovered_kraus_family_reproduces_the_choi(self, rng):
        for n, k, rank in [(2, 2, 1), (2, 3, 2), (3, 2, 3), (4, 4, 2)]:
            J = Channel.random(n, k, rank, rng).choi.matrix
            phi = Channel.from_choi(J, n, k)
            assert len(phi.kraus) == rank
            assert_allclose(to_choi(phi.kraus, n, k), phi.choi.matrix,
                            rtol=0, atol=1e-12)
            total = sum(K.conj().T @ K for K in phi.kraus)
            assert_allclose(total, np.eye(n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: np.zeros((4, 3)), DimensionMismatch,
         "expected a nonempty square matrix, got shape (4, 3)"),
        (lambda: np.eye(3) / 3, DimensionMismatch,
         "Choi matrix shape (3, 3) does not match dims (2, 2)"),
        (lambda: np.diag([np.nan, 0.5, 0.5, 0.0]), NonFiniteInput,
         "matrix has a NaN or infinite entry"),
        (lambda: np.diag([1.5e308, 0.0, 0.0, 0.0]), OverflowingInput,
         "matrix entry modulus 1.500e+308 exceeds 8.988e+307, past which the "
         "Hermitian fold overflows"),
        (lambda: IDENTITY_CHOI_2 + np.triu(np.full((4, 4), 0.1), 1), NonHermitianInput,
         "matrix deviates from Hermitian by 1.000e-01 (scale 1.000e+00)"),
        # the defect is taken on the trace as given, before the state renormalizes
        (lambda: (1 + 1e-7) * IDENTITY_CHOI_2, NotCPTP, "Kraus completeness defect 1.000e-07"),
        (lambda: (1 + 4e-2) * IDENTITY_CHOI_2 - 4e-2 * np.eye(4) / 4, NotCPTP,
         "Choi matrix is not a state: not positive semidefinite (lambda_min = -1.000e-02)"),
    ])
    def test_rejections_keep_their_type_and_message(self, build, error, message):
        with pytest.raises(error) as info:
            Channel.from_choi(build(), 2, 2)
        assert type(info.value) is error and str(info.value) == message

    def test_random_channel_needs_room_for_an_isometry(self, rng):
        with pytest.raises(BadParameter):
            Channel.random(4, 1, 2, rng)

    @pytest.mark.parametrize("dims", [(0, 2), (2, 0), (-1, 2)])
    def test_random_channel_needs_positive_dims(self, rng, dims):
        with pytest.raises(BadParameter):
            Channel.random(*dims, 1, rng)


# Phi+ and Phi-, the Bell vectors (|00> +- |11>) / sqrt 2
BELL_PLUS, BELL_MINUS = (np.array([1.0, 0.0, 0.0, s]) / np.sqrt(2.0) for s in (1.0, -1.0))


def _choi_with_least_eigenvalue(lam):
    """(1 - lam) |Phi+><Phi+| + lam |Phi-><Phi->: trace 1, input marginal I/2
    exactly as both Bell states give, and spectrum (1 - lam, 0, 0, lam)."""
    return (1.0 - lam) * np.outer(BELL_PLUS, BELL_PLUS) + lam * np.outer(BELL_MINUS, BELL_MINUS)


class TestChoiStateUnderEveryBand:
    """A channel's Choi state is checked by the channel's own rules, whatever
    cfg's PSD band: a Kraus family's is PSD by construction, and from_choi
    holds positivity to COMPLETENESS_TOL. cfg decides only the order and
    the divergence asked of the channels."""

    SLACKS = [0.0, 1e-12, 1e-9, 1e-3]

    @pytest.mark.parametrize("psd_slack", SLACKS)
    def test_kraus_families_build_recover_and_decide(self, psd_slack):
        cfg = ToleranceConfig(psd_slack=psd_slack)
        rng = np.random.default_rng(0)
        for _ in range(10):
            phi = Channel(Channel.random(2, 2, 1, rng).kraus, cfg=cfg)
            rebuilt = Channel.from_choi(phi.choi.matrix, 2, 2, cfg)
            assert len(rebuilt.kraus) == 1
            assert channel_qpe_leq(phi, rebuilt, cfg).holds

    @pytest.mark.parametrize("psd_slack", SLACKS)
    def test_from_choi_holds_positivity_to_completeness_tol(self, psd_slack):
        cfg = ToleranceConfig(psd_slack=psd_slack)
        phi = Channel.from_choi(_choi_with_least_eigenvalue(-5e-9), 2, 2, cfg)
        assert_allclose(phi.choi.eigenvalues[-1], -5e-9, rtol=1e-6)
        assert len(phi.kraus) == 1
        assert channel_qpe_leq(phi, Channel.identity(2, cfg), cfg).holds
        with pytest.raises(NotCPTP) as info:
            Channel.from_choi(_choi_with_least_eigenvalue(-2e-8), 2, 2, cfg)
        assert str(info.value) == ("Choi matrix is not a state: not positive "
                                   "semidefinite (lambda_min = -2.000e-08)")


class TestRepresentationAgreement:
    def test_choi_round_trip(self, rng):
        phi = Channel.random(2, 3, 2, rng)
        back = Channel.from_choi(phi.choi.matrix, 2, 3)
        assert_allclose(back.choi.matrix, phi.choi.matrix, atol=1e-10)

    def test_kraus_and_choi_actions_agree(self, rng):
        for _ in range(10):
            phi = Channel.random(3, 2, 3, rng)
            rho = random_state(3, rng=rng)
            assert_allclose(phi.apply(rho).matrix,
                            choi_form_output(phi, rho).matrix, atol=1e-10)

    @pytest.mark.parametrize("action", [Channel.apply, choi_form_output])
    def test_both_actions_refuse_a_state_of_another_dim(self, action):
        with pytest.raises(DimensionMismatch, match=r"shape \(3, 3\) does not match in_dim 2"):
            action(Channel.identity(2), np.eye(3) / 3)

    def test_extended_action_on_product_input(self, rng):
        phi = Channel.random(2, 2, 2, rng)
        a = random_state(3, rng=rng)
        b = random_state(2, rng=rng)
        prod = DensityMatrix(np.kron(a.matrix, b.matrix))
        out = extended_output(phi, prod, 3)
        assert_allclose(out.matrix, np.kron(a.matrix, phi.apply(b).matrix),
                        atol=1e-10)

    def test_extended_action_on_entangled_input_recovers_choi(self, rng):
        phi = Channel.random(2, 2, 3, rng)
        out = extended_output(phi, maximally_entangled(2), 2)
        assert_allclose(out.matrix, phi.choi.matrix, atol=1e-12)


class TestDepolarizingChannel:
    def test_action_mixes_toward_flat(self, rng):
        rho = random_state(2, rng=rng)
        out = Channel.depolarizing(2, 0.3).apply(rho)
        assert_allclose(out.matrix, 0.7 * rho.matrix + 0.3 * np.eye(2) / 2,
                        atol=1e-10)

    def test_choi_interpolates_to_the_flat_state(self):
        assert_allclose(Channel.depolarizing(2, 1.0).choi.matrix,
                        np.eye(4) / 4, atol=1e-12)
        J = Channel.depolarizing(2, 0.4).choi.matrix
        assert_allclose(J, 0.6 * IDENTITY_CHOI_2 + 0.4 * np.eye(4) / 4,
                        atol=1e-12)

    def test_top_choi_eigenvalue_formula(self):
        for t in (0.0, 0.25, 0.8, 1.0):
            top = Channel.depolarizing(2, t).choi.eigenvalues[0]
            assert_allclose(top, (1 - t) + t / 4, atol=1e-12)


class TestAlgebra:
    def test_compose_matches_pointwise(self, rng):
        f = Channel.random(2, 3, 2, rng)
        g = Channel.random(3, 2, 2, rng)
        rho = random_state(2, rng=rng)
        assert_allclose(channel_compose(g, f).apply(rho).matrix,
                        g.apply(f.apply(rho)).matrix, atol=1e-10)

    def test_tensor_matches_pointwise_on_products(self, rng):
        f = Channel.random(2, 2, 2, rng)
        g = Channel.random(2, 2, 2, rng)
        a = random_state(2, rng=rng)
        b = random_state(2, rng=rng)
        prod = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert_allclose(channel_tensor(f, g).apply(prod).matrix,
                        np.kron(f.apply(a).matrix, g.apply(b).matrix),
                        atol=1e-10)

    def test_mix_is_pointwise_convex(self, rng):
        f = Channel.random(2, 2, 2, rng)
        g = Channel.random(2, 2, 2, rng)
        rho = random_state(2, rng=rng)
        mixed = channel_mix(f, g, 0.3).apply(rho).matrix
        assert_allclose(mixed, 0.7 * f.apply(rho).matrix
                        + 0.3 * g.apply(rho).matrix, atol=1e-10)

    def test_structural_identities_at_noise_level(self, rng):
        for _ in range(5):
            phi1 = Channel.random(2, 2, 2, rng)
            phi2 = Channel.random(2, 3, 2, rng)
            xi_pre = Channel.random(2, 2, 2, rng)
            xi_post = Channel.random(2, 3, 2, rng)
            mix_with = Channel.random(2, 2, 3, rng)
            out = jamiolkowski_properties_check(phi1, phi2, xi_pre, xi_post,
                                                mix_with, t=0.3)
            assert max(out.values()) < 1e-8


# every function that takes two channels of one shape
CHANNEL_PAIR_FUNCTIONS = {
    "channel_qpe_leq": channel_qpe_leq,
    "channel_max_divergence": channel_max_divergence,
    "channel_mix": lambda phi, psi: channel_mix(phi, psi, 0.5),
    "channel_order_oracle": channel_order_oracle,
    "jamiolkowski_properties_check": lambda phi, psi: jamiolkowski_properties_check(
        phi, phi, Channel.identity(phi.in_dim), Channel.identity(phi.out_dim), psi),
}


@pytest.mark.parametrize("build, error, message", [
    (lambda: to_choi([np.eye(2)], 2, 3), DimensionMismatch,
     "Kraus operator shape does not match dims"),
    (lambda: Channel([]), NotCPTP, "empty Kraus family"),
    (lambda: Channel([np.eye(2)], in_dim=3), DimensionMismatch,
     "declared in_dim 3, operators say 2"),
    (lambda: Channel([np.eye(2)], out_dim=3), DimensionMismatch,
     "declared out_dim 3, operators say 2"),
    (lambda: Channel.random(2, 2, 0), BadParameter, "kraus_rank must be at least 1"),
    (lambda: channel_compose(Channel.identity(2), Channel.random(2, 3, 1, rng=0)),
     DimensionMismatch, "inner dimensions do not match"),
    (lambda: extended_output(Channel.identity(2), DensityMatrix.maximally_mixed(3), 2),
     DimensionMismatch, "input dim 3 is not 2 x 2"),
])
def test_shape_refusals_keep_their_type_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("name", sorted(CHANNEL_PAIR_FUNCTIONS))
def test_channels_of_two_shapes_raise_dimension_mismatch(rng, name):
    # 2 -> 3 and 3 -> 2 have Choi states of one dim, 6
    wide, narrow = Channel.random(2, 3, 2, rng), Channel.random(3, 2, 2, rng)
    for pair in ((wide, narrow), (narrow, wide)):
        with pytest.raises(DimensionMismatch, match="channels have different dims"):
            CHANNEL_PAIR_FUNCTIONS[name](*pair)


class TestChannelOrder:
    def test_fully_depolarizing_is_bottom(self, rng):
        bottom = Channel.depolarizing(2, 1.0)
        for _ in range(10):
            phi = Channel.random(2, 2, int(rng.integers(1, 5)), rng)
            assert channel_qpe_leq(bottom, phi).holds

    def test_depolarization_interpolates_below_identity(self):
        ident = Channel.identity(2)
        assert channel_qpe_leq(Channel.depolarizing(2, 0.5), ident).holds
        assert channel_qpe_leq(ident, Channel.depolarizing(2, 0.5)).fails

    def test_dephasing_below_identity_not_conversely(self):
        dephasing = Channel(DEPHASING_KRAUS)
        ident = Channel.identity(2)
        assert channel_qpe_leq(dephasing, ident).holds
        v = channel_qpe_leq(ident, dephasing)
        assert v.fails
        # the dephasing Choi state escapes the identity's (pure) one along
        # (|00> - |11>) / sqrt 2, where it weighs 1/2
        assert v.slack == -np.inf
        escape = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert_allclose(abs(np.vdot(escape, v.witness)), 1.0, atol=1e-12)

    def test_distinct_unitaries_incomparable(self):
        ident = Channel.identity(2)
        flip = Channel.unitary(SIGMA_X)
        assert channel_qpe_leq(ident, flip).fails
        assert channel_qpe_leq(flip, ident).fails

    def test_mixing_toward_bottom_orders_channels(self, rng):
        for _ in range(10):
            phi = Channel.random(2, 2, 2, rng)
            lower = channel_mix(phi, Channel.depolarizing(2, 1.0), 0.4)
            assert channel_qpe_leq(lower, phi).holds

    def test_order_forces_top_eigenvalue_growth(self, rng):
        for _ in range(10):
            phi = Channel.random(2, 2, 2, rng)
            lower = channel_mix(phi, Channel.depolarizing(2, 1.0), 0.3)
            assert lower.choi.eigenvalues[0] <= phi.choi.eigenvalues[0] + 1e-12

    def test_pointwise_dominance_breaks_under_extension(self, rng):
        # every single-system output of the damped channel sits below its
        # input, yet an entangled input escapes; ordering through the Choi
        # state is what survives tensoring
        dep = Channel.depolarizing(2, 0.5)
        for _ in range(20):
            rho = random_state(2, rng=rng)
            assert qpe_leq(dep.apply(rho), rho).holds
        psi = np.array([np.sqrt(0.7), 0.0, 0.0, np.sqrt(0.3)])
        entangled = DensityMatrix.pure(psi)
        out = extended_output(dep, entangled, 2)
        v = qpe_leq(out, entangled)
        assert v.fails
        assert v.slack < -0.01


class TestChannelDivergence:
    def test_matches_extended_route_at_entangled_input(self, rng):
        for _ in range(10):
            phi = Channel.random(2, 2, 4, rng)
            psi = Channel.random(2, 2, int(rng.integers(1, 5)), rng)
            via_choi = channel_max_divergence(psi, phi).value
            m = maximally_entangled(2)
            via_outputs = max_divergence(extended_output(psi, m, 2),
                                         extended_output(phi, m, 2)).value
            assert_allclose(via_choi, via_outputs, atol=1e-8)

    def test_support_violation_against_identity(self):
        d = channel_max_divergence(Channel.depolarizing(2, 0.5),
                                   Channel.identity(2))
        assert d.value == np.inf and d.support_violation
        back = channel_max_divergence(Channel.identity(2),
                                      Channel.depolarizing(2, 0.5))
        assert 0.0 < back.value < np.inf


class TestEntanglementFidelity:
    def test_value_is_top_choi_eigenvalue(self, rng):
        phi = Channel.random(2, 2, 2, rng)
        value, _ = entanglement_fidelity(phi)
        assert_allclose(value, phi.choi.eigenvalues[0], atol=1e-14)

    def test_returned_input_attains_the_value(self, rng):
        m = maximally_entangled(2).matrix
        for _ in range(10):
            phi = Channel.random(2, 2, int(rng.integers(1, 5)), rng)
            value, best = entanglement_fidelity(phi)
            out = extended_output(phi, best, 2)
            overlap = float(np.trace(m @ out.matrix).real)
            assert_allclose(overlap, value, atol=1e-12)

    def test_depolarizing_closed_form(self):
        for t in (0.1, 0.5, 0.9):
            value, _ = entanglement_fidelity(Channel.depolarizing(2, t))
            assert_allclose(value, (1 - t) + t / 4, atol=1e-12)

    def test_rectangular_channel_reports_no_input(self, rng):
        value, best = entanglement_fidelity(Channel.random(2, 3, 2, rng))
        assert best is None and 0.0 < value <= 1.0

    def test_independent_optimizer_agrees(self, rng):
        phi = Channel.random(2, 2, 2, rng)
        value, _ = entanglement_fidelity(phi)
        m = np.eye(2).reshape(-1) / np.sqrt(2)
        rows = [np.kron(np.eye(2), K).conj().T @ m for K in phi.kraus]

        def negative_overlap(x):
            v = x[:4] + 1j * x[4:]
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                return 0.0
            v = v / norm
            return -sum(abs(np.vdot(r, v)) ** 2 for r in rows)

        best = 0.0
        for _ in range(8):
            x0 = rng.standard_normal(8)
            res = minimize(negative_overlap, x0, method="Nelder-Mead",
                           options={"maxiter": 4000, "xatol": 1e-10,
                                    "fatol": 1e-12})
            best = max(best, -res.fun)
        assert best <= value + 1e-6
        assert best >= value - 1e-6
