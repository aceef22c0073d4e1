from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe.config import ToleranceConfig
from qpe.exceptions import (
    BadParameter,
    NegativeEigenvalue,
    NonHermitianInput,
)
from qpe.linalg import (
    as_operator,
    assert_hermitian,
    fidelity,
    is_psd,
    matrix_power,
    operator_norm,
    partial_trace,
    partial_transpose,
    random_unitary,
    schatten_norm,
    spectral_power,
    tensor,
)
from qpe.states import Effect, random_state

FIDELITY_DIAG_PAIR = 0.97566303550217


def random_hermitian(n, rng):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.conj().T) / 2.0


class TestToleranceConfig:
    def test_defaults(self, cfg):
        assert cfg.psd_slack == 1e-9
        assert cfg.cluster_width == 1e-9
        assert cfg.rank_cutoff == 1e-12
        assert cfg.log_base == "natural"

    def test_rejects_negative_slack(self):
        with pytest.raises(BadParameter):
            ToleranceConfig(psd_slack=-1e-9)

    @pytest.mark.parametrize("field", ["psd_slack", "cluster_width", "rank_cutoff"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_tolerances(self, field, value):
        with pytest.raises(BadParameter, match="finite"):
            ToleranceConfig(**{field: value})

    def test_rejects_cluster_below_rank_cutoff(self):
        with pytest.raises(BadParameter):
            ToleranceConfig(cluster_width=1e-13, rank_cutoff=1e-12)

    def test_rejects_unknown_log_base(self):
        with pytest.raises(BadParameter):
            ToleranceConfig(log_base="ten")

    def test_log_scalar_edge_cases(self, cfg):
        assert cfg.log(0.0) == -np.inf
        assert cfg.log(np.inf) == np.inf
        assert_allclose(cfg.log(np.e), 1.0)

    def test_log_base_two(self):
        two = ToleranceConfig(log_base="two")
        assert_allclose(two.log(8.0), 3.0)


class TestHermitianGuard:
    def test_symmetrizes_roundoff(self, rng):
        A = random_hermitian(4, rng)
        noisy = A + 1e-12 * rng.standard_normal((4, 4))
        out = assert_hermitian(noisy)
        assert np.abs(out - out.conj().T).max() == 0.0

    def test_rejects_genuinely_nonhermitian(self):
        with pytest.raises(NonHermitianInput):
            assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEig:
    def test_descending_with_matching_vectors(self, rng):
        A = random_hermitian(5, rng)
        op = as_operator(A)
        w, V = op.eigenvalues, op.eigenvectors
        assert np.all(np.diff(w) <= 1e-12)
        assert_allclose(A @ V, V * w, atol=1e-10)
        assert_allclose(V.conj().T @ V, np.eye(5), atol=1e-10)


class TestNorms:
    def test_operator_norm_matches_two_norm(self, rng):
        A = random_hermitian(5, rng)
        assert_allclose(operator_norm(A), np.linalg.norm(A, 2), atol=1e-10)

    def test_schatten_special_cases(self, rng):
        A = random_hermitian(4, rng)
        sv = np.abs(np.linalg.eigvalsh(A))
        assert_allclose(schatten_norm(A, 1), sv.sum(), atol=1e-10)
        assert_allclose(schatten_norm(A, 2), np.linalg.norm(A, "fro"), atol=1e-10)
        assert_allclose(schatten_norm(A, np.inf), operator_norm(A), atol=1e-12)

    def test_schatten_generic_exponent(self, rng):
        A = random_hermitian(3, rng)
        sv = np.abs(np.linalg.eigvalsh(A))
        assert_allclose(schatten_norm(A, 1.7), (sv ** 1.7).sum() ** (1 / 1.7),
                        atol=1e-10)

    def test_schatten_rejects_p_below_one(self):
        with pytest.raises(BadParameter):
            schatten_norm(np.eye(2), 0.5)


class TestPsdVerdict:
    def test_psd_holds(self, cfg, rng):
        G = rng.standard_normal((4, 4))
        v = is_psd(G @ G.T, cfg)
        assert v.holds and v.witness is None

    def test_tiny_dip_still_holds(self, cfg):
        assert is_psd(np.diag([1.0, -1e-12]), cfg).holds

    def test_between_thresholds_is_marginal(self, cfg):
        assert is_psd(np.diag([1.0, -5e-9]), cfg).marginal

    def test_clear_violation_fails_with_witness(self, cfg):
        v = is_psd(np.diag([1.0, -1e-7]), cfg)
        assert v.fails
        quotient = np.vdot(v.witness, np.diag([1.0, -1e-7]) @ v.witness).real
        assert_allclose(quotient, -1e-7, rtol=1e-6)

    def test_slack_is_least_eigenvalue(self, cfg):
        v = is_psd(np.diag([0.5, -0.125]), cfg)
        assert_allclose(v.slack, -0.125)


class TestMatrixPower:
    def test_generalized_inverse_square_root(self, cfg):
        out = matrix_power(np.diag([0.5, 0.0]), -0.5, cfg)
        assert_allclose(out, np.diag([np.sqrt(2.0), 0.0]), atol=1e-12)

    def test_power_one_is_identity_map(self, cfg, rng):
        G = rng.standard_normal((3, 3))
        A = G @ G.T
        assert_allclose(matrix_power(A, 1.0, cfg), A, atol=1e-10)

    def test_power_zero_is_support_projector(self, cfg):
        P = matrix_power(np.diag([0.7, 0.3, 0.0]), 0.0, cfg)
        assert_allclose(P, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_half_power_squares_back(self, cfg, rng):
        G = rng.standard_normal((4, 2))
        A = G @ G.T
        R = matrix_power(A, 0.5, cfg)
        assert_allclose(R @ R, A, atol=1e-9)

    @pytest.mark.parametrize("p", [0.5, -0.5, -0.25, 2.0])
    def test_spectral_power_matches_scalar_loop(self, cfg, rng, p):
        # reference: the per-eigenvalue loop; vectorized pow may differ by ulps
        w = np.concatenate([np.sort(rng.random(50))[::-1], [1e-14, 0.0, -1e-12]])
        cutoff = cfg.rank_cutoff * w[0]
        want = np.zeros_like(w)
        for i, lam in enumerate(w):
            if lam > cutoff:
                want[i] = lam**p
        got = np.diag(spectral_power(w, np.eye(w.size), p, cfg)).real
        assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)

    def test_rejects_indefinite_input(self, cfg):
        with pytest.raises(NegativeEigenvalue):
            matrix_power(np.diag([1.0, -0.5]), 0.5, cfg)


class TestBipartite:
    def test_tensor_is_kron(self, rng):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((3, 3))
        assert_allclose(tensor(A, B), np.kron(A, B))

    def test_partial_trace_of_product(self, rng):
        A = random_hermitian(2, rng)
        B = random_hermitian(3, rng)
        AB = np.kron(A, B)
        assert_allclose(partial_trace(AB, (2, 3), 2), np.trace(B) * A, atol=1e-12)
        assert_allclose(partial_trace(AB, (2, 3), 1), np.trace(A) * B, atol=1e-12)

    def test_partial_transpose_involution(self, rng):
        A = random_hermitian(6, rng)
        for sub in (1, 2):
            twice = partial_transpose(partial_transpose(A, (2, 3), sub), (2, 3), sub)
            assert_allclose(twice, A)

    def test_partial_transpose_detects_entanglement(self):
        m = np.eye(2).reshape(-1) / np.sqrt(2)
        P = np.outer(m, m)
        flipped = partial_transpose(P, (2, 2), 1)
        w = np.sort(np.linalg.eigvalsh(flipped))
        assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestFidelity:
    def test_frozen_diagonal_pair(self, cfg):
        got = fidelity(np.diag([0.6, 0.4]), np.diag([0.8, 0.2]), cfg)
        assert_allclose(got, FIDELITY_DIAG_PAIR, atol=1e-12)

    def test_self_fidelity_is_one(self, cfg, rng):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = G @ G.conj().T
        rho = rho / np.trace(rho).real
        assert_allclose(fidelity(rho, rho, cfg), 1.0, atol=1e-10)

    def test_symmetric(self, cfg, rng):
        def draw():
            G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            M = G @ G.conj().T
            return M / np.trace(M).real

        a, b = draw(), draw()
        assert_allclose(fidelity(a, b, cfg), fidelity(b, a, cfg), atol=1e-10)


class TestRandomUnitary:
    def test_unitarity(self, rng):
        U = random_unitary(4, rng)
        assert_allclose(U.conj().T @ U, np.eye(4), atol=1e-12)


def _bipartite_state():
    return random_state(4, rng=np.random.default_rng(8))


def _bipartite_effect():
    return Effect(_bipartite_state().matrix / 0.9)


# every helper that takes a square matrix, applied to one operand
SQUARE_MATRIX_HELPERS = {
    "operator_norm": operator_norm,
    "schatten_norm": lambda A: schatten_norm(A, 1.5),
    "is_psd": is_psd,
    "matrix_power": lambda A: matrix_power(A, -0.5),
    "fidelity": lambda A: fidelity(A, A),
    "partial_trace": lambda A: partial_trace(A, (2, 2), 1),
    "partial_transpose": lambda A: partial_transpose(A, (2, 2), 2),
}


class TestHelpersAcceptOperators:
    @pytest.mark.parametrize("make", [_bipartite_state, _bipartite_effect])
    @pytest.mark.parametrize("name", sorted(SQUARE_MATRIX_HELPERS))
    def test_operator_equals_its_matrix(self, make, name):
        helper = SQUARE_MATRIX_HELPERS[name]
        op = make()
        np.testing.assert_array_equal(helper(op), helper(op.matrix.copy()))

    @pytest.mark.parametrize("left", [_bipartite_state, _bipartite_effect])
    @pytest.mark.parametrize("right", [_bipartite_state, _bipartite_effect])
    def test_tensor_of_operators_is_kron_of_matrices(self, left, right):
        a, b = left(), right()
        np.testing.assert_array_equal(tensor(a, b), np.kron(a.matrix, b.matrix))

    def test_tensor_keeps_non_square_factors(self, rng):
        state = _bipartite_state()
        v = rng.standard_normal((3, 1))
        np.testing.assert_array_equal(tensor(state, v), np.kron(state.matrix, v))
        np.testing.assert_array_equal(tensor(v, state), np.kron(v, state.matrix))
