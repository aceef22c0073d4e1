from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe import Channel, DensityMatrix, Effect, qpe_leq
from qpe.config import DEFAULT_CONFIG, ToleranceConfig
from qpe.exceptions import (
    BadParameter,
    DimensionMismatch,
    InvalidState,
    NonFiniteInput,
    NonHermitianInput,
    OverflowingInput,
)
from qpe.linalg import FAILS, FOLD_LIMIT, assert_hermitian, cholesky_factors, random_unitary, relation_of
from qpe.orders import as_probability_vector
from qpe.states import (
    CHOLESKY_MIN_DIM,
    TRACE_REJECT,
    TRACE_WARN,
    bottom_eigenspace_nonzero,
    kernel,
    min_entropy,
    random_state,
    rank_of,
    subspace_intersects,
    top_eigenspace,
    top_eigenvalue,
)
from spies import spying

# finite, but its modulus is past the float range
OVERFLOW_CELL = 1.5e308 * (1 + 1j)


class TestDensityMatrixValidation:
    def test_accepts_and_orders_spectrum(self, rng):
        rho = random_state(4, rng=rng)
        assert np.all(np.diff(rho.eigenvalues) <= 1e-12)
        assert_allclose(rho.eigenvalues.sum(), 1.0, atol=1e-10)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([0.5, 0.4]))

    def test_renormalizes_small_trace_drift_with_warning(self):
        with pytest.warns(UserWarning):
            rho = DensityMatrix(np.diag([0.5 + 1e-7, 0.5]))
        assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-14)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([1.1, -0.1]))

    def test_rejects_nonhermitian(self):
        with pytest.raises(NonHermitianInput):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_matrix_is_write_locked(self, rng):
        rho = random_state(3, rng=rng)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_pure_normalizes_vector(self):
        rho = DensityMatrix.pure([2.0, 0.0])
        assert_allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_pure_refuses_the_zero_vector(self):
        with pytest.raises(BadParameter, match="^cannot build a pure state from the zero vector$"):
            DensityMatrix.pure([0.0, 0.0])

    def test_sqrt_squares_back(self, rng):
        rho = random_state(4, rng=rng)
        half = rho.power(0.5)
        assert_allclose(half @ half, rho.matrix, atol=1e-10)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[0.5, np.nan], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, np.inf]],
        [[0.5, complex(0.0, np.nan)], [0.0, 0.5]],
    ])
    def test_states_and_effects_reject(self, bad):
        with pytest.raises(NonFiniteInput):
            DensityMatrix(bad)
        with pytest.raises(NonFiniteInput):
            Effect(bad)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    def test_non_finite_cell_is_non_finite_input(self, cell):
        bad = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        bad[1, 1] = cell
        assert not np.isfinite(bad).all()
        with pytest.raises(NonFiniteInput):
            DensityMatrix(bad)

    def test_finite_cell_with_overflowing_modulus_is_invalid_state(self):
        # every entry is finite, so this is no NonFiniteInput, though |entry|
        # overflows to inf; the trace check rejects it
        bad = np.array([[complex(1.5e308, 1.5e308), 0.0], [0.0, 0.5]])
        assert np.isfinite(bad).all() and np.abs(bad).max() == np.inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidState):
            DensityMatrix(bad)

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix([[0.5, OVERFLOW_CELL], [np.conj(OVERFLOW_CELL), 0.5]]),
        lambda: Effect(np.diag([1.5e308, 0.5])),
        lambda: qpe_leq(np.diag([1.5e308, 0.5]), DensityMatrix.maximally_mixed(2)),
    ])
    def test_entries_whose_fold_overflows_are_rejected(self, build):
        # used to build with spectrum [nan, nan], and the order read marginal
        with pytest.raises(OverflowingInput, match="Hermitian fold overflows"):
            build()

    def test_entries_below_the_fold_limit_reach_the_state_checks(self):
        cell = 0.5 * FOLD_LIMIT
        with pytest.raises(InvalidState) as info:
            DensityMatrix([[0.5, cell], [cell, 0.5]])
        assert type(info.value) is InvalidState
        assert assert_hermitian(np.diag([FOLD_LIMIT, 0.5]))[0, 0] == FOLD_LIMIT

    def test_order_on_raw_nan_matrix_raises_instead_of_holding(self):
        # a NaN diagonal cell used to read "holds" with slack 0.0 against
        # the maximally mixed state
        with pytest.raises(NonFiniteInput):
            qpe_leq(np.array([[np.nan, 0.0], [0.0, 1.0]]), DensityMatrix.maximally_mixed(2))

    def test_probability_vector_rejects(self):
        with pytest.raises(NonFiniteInput):
            as_probability_vector([np.nan, 1.0])


class TestEffectValidation:
    def test_identity_and_diag(self):
        assert_allclose(Effect.identity(3).matrix, np.eye(3))
        assert_allclose(Effect.from_diag([1.0, 0.25]).matrix, np.diag([1.0, 0.25]))

    def test_rejects_eigenvalue_above_one(self):
        with pytest.raises(InvalidState):
            Effect(np.diag([1.0 + 1e-6, 0.5]))

    def test_accepts_eigenvalue_barely_above_one(self):
        Effect(np.diag([1.0 + 1e-10, 0.5]))

    def test_rejects_negative_part(self):
        with pytest.raises(InvalidState):
            Effect(np.diag([0.5, -1e-6]))


# each band fails past 10 psd_slack times its scale: just past that edge,
# well past it, and at scale 2; the message names the end that failed
BAND_EDGE_REJECTIONS = [
    (lambda: DensityMatrix(np.diag([1.1, -0.1])),
     "not positive semidefinite (lambda_min = -1.000e-01)"),
    (lambda: DensityMatrix(np.diag([1.0 + 1.1e-8, -1.1e-8])),
     "not positive semidefinite (lambda_min = -1.100e-08)"),
    (lambda: Effect(np.diag([1.0 + 1e-6, 0.5])), "effect exceeds identity (slack = -1.000e-06)"),
    (lambda: Effect(np.diag([1.0 + 1.1e-8, 0.5])), "effect exceeds identity (slack = -1.100e-08)"),
    (lambda: Effect(np.diag([3.0, 0.5])), "effect exceeds identity (slack = -2.000e+00)"),
    (lambda: Effect(np.diag([0.5, -1e-6])), "effect not PSD (lambda_min = -1.000e-06)"),
    (lambda: Effect(np.diag([0.5, -1.1e-8])), "effect not PSD (lambda_min = -1.100e-08)"),
    (lambda: Effect(np.diag([-3.0, 0.5])), "effect not PSD (lambda_min = -3.000e+00)"),
]


@pytest.mark.parametrize("build, message", BAND_EDGE_REJECTIONS)
def test_band_edge_rejections_keep_their_messages(build, message):
    with pytest.raises(InvalidState) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("build", [
    lambda: DensityMatrix(np.diag([1.0 + 0.9e-8, -0.9e-8])),
    lambda: Effect(np.diag([1.0 + 0.9e-8, 0.5])),
    lambda: Effect(np.diag([0.5, -0.9e-8])),
])
def test_marginal_band_edges_are_accepted(build):
    build()


def _band_outcome(M, cfg):
    """The spectrum band's decision on M: None to accept, else the message
    of the InvalidState it raises. The trace checks are DensityMatrix's;
    the band is read on eigvalsh's spectrum, which every state below
    CHOLESKY_MIN_DIM, and every state that does not factor, is validated on."""
    H = assert_hermitian(M)
    tr = float(H.trace().real)
    if abs(tr - 1.0) >= TRACE_REJECT:
        return f"trace {tr} is not 1 within {TRACE_REJECT}"
    if abs(tr - 1.0) > TRACE_WARN:
        H = H / tr
    w = np.linalg.eigvalsh(H)[::-1]
    if relation_of(w[-1], w[0], cfg) == FAILS:
        return f"not positive semidefinite (lambda_min = {w[-1]:.3e})"
    return None


def _outcome(build):
    try:
        build()
    except InvalidState as exc:
        return str(exc)
    return None


def _rotated(w, rng):
    """U diag(w) U^dagger for a Haar U: a dense matrix of spectrum w."""
    U = random_unitary(len(w), rng)
    return (U * np.asarray(w, dtype=float)) @ U.conj().T


def _least_at(n, lam, rng):
    """A dense unit-trace matrix whose least eigenvalue is lam."""
    w = rng.uniform(0.5, 1.0, n)
    w[-1] = 0.0
    w *= (1.0 - lam) / w.sum()
    w[-1] = lam
    return _rotated(w, rng)


def _factored_inputs(n, rng):
    """(name, matrix) at dim n: full-rank and rank-deficient states, spectra
    at and about the band's fails edge (10 psd_slack below zero), marginal
    and past it by 10%, far past it, and just above zero, where a
    factorization may or may not complete."""
    edge = -10.0 * DEFAULT_CONFIG.psd_slack
    inputs = [("full rank", random_state(n, rng=rng).matrix)]
    inputs += [(f"rank {r}", random_state(n, rank=r, rng=rng).matrix)
               for r in (1, n // 2, n - 1)]
    for lam in (0.9 * edge, edge, 1.1 * edge, -0.1, -1e-15, 0.0, 1e-17, 1e-15, 1e-12):
        inputs.append((f"least eigenvalue {lam:g}", _least_at(n, lam, rng)))
    inputs.append(("diagonal past the edge",
                   np.diag([1.0 - 1.1 * edge] + [0.0] * (n - 2) + [1.1 * edge])))
    return inputs


class TestFactoredValidation:
    """From CHOLESKY_MIN_DIM on, a state whose matrix factors is accepted
    without its spectrum; every other state goes to the band. So each
    accept or reject, and each message, is the band's."""

    @staticmethod
    def _check(cases, cfg):
        paths = []
        with spying(cholesky_factors) as (factor,):
            for name, build, M in cases:
                before = factor.call_count
                assert _outcome(build) == _band_outcome(M, cfg), name
                paths.append(factor.call_count > before)
        return paths

    @pytest.mark.parametrize("n", [CHOLESKY_MIN_DIM, 13, 16, 25, 32, 64])
    @pytest.mark.parametrize("psd_slack", [1e-9, 2e-9])
    def test_states_decide_as_the_band(self, n, psd_slack):
        rng = np.random.default_rng(n)
        cfg = ToleranceConfig(psd_slack=psd_slack)
        cases = [(name, lambda M=M: DensityMatrix(M, cfg), M)
                 for name, M in _factored_inputs(n, rng)]
        assert all(self._check(cases, cfg))

    def test_a_state_at_256_decides_as_the_band(self):
        rng = np.random.default_rng(256)
        cases = [(name, lambda M=M: DensityMatrix(M), M)
                 for name, M in (("full rank", random_state(256, rng=rng).matrix),
                                 ("rank 200", random_state(256, rank=200, rng=rng).matrix),
                                 ("past the edge", _least_at(256, -1.1e-8, rng)))]
        assert all(self._check(cases, DEFAULT_CONFIG))

    @pytest.mark.parametrize("n, k", [(3, 4), (4, 3), (4, 4)])
    def test_low_kraus_rank_choi_states_decide_as_the_band(self, n, k):
        """Each Choi matrix is factored as a state; the channel built from
        its Kraus family, PSD by construction, accepts it as the band does
        and runs no factorization."""
        rng = np.random.default_rng(n * k)
        cases = []
        low = -(-n // k)  # the least Kraus rank an n -> k channel can have
        for rank in (low, low + 1, n * k):
            phi = Channel.random(n, k, rank, rng)
            J = phi.choi.matrix
            cases.append((f"rank {rank}", lambda J=J: DensityMatrix(J), J))
            cases.append((f"rank {rank} kraus", lambda phi=phi: Channel(phi.kraus, n, k), J))
        paths = self._check(cases, DEFAULT_CONFIG)
        assert all(paths[0::2]) and not any(paths[1::2])

    @pytest.mark.parametrize("n", [CHOLESKY_MIN_DIM, 64])
    def test_without_slack_the_band_decides_alone(self, n):
        """At psd_slack = 0 the fails edge is zero itself, inside the
        factorization's -n^2 eps, so no state is factored: the band rejects
        every state with a negative eigenvalue, rounding included."""
        rng = np.random.default_rng(n)
        cfg = ToleranceConfig(psd_slack=0.0)
        cases = [(name, lambda M=M: DensityMatrix(M, cfg), M)
                 for name, M in _factored_inputs(n, rng)]
        assert not any(self._check(cases, cfg))

    def test_the_factored_route_accepts_and_the_band_rejects(self):
        """Both routes run over the inputs: some states are accepted with
        their spectrum unsolved, and some go to the band and are refused."""
        rng = np.random.default_rng(7)
        unsolved, refused = 0, 0
        for _, M in _factored_inputs(16, rng):
            try:
                rho = DensityMatrix(M)
            except InvalidState:
                refused += 1
            else:
                unsolved += "eigenvalues" not in vars(rho)
        assert unsolved >= 4 and refused >= 2


class TestSpectralStructure:
    def test_top_eigenvalue(self):
        assert_allclose(top_eigenvalue(DensityMatrix.from_diag([0.6, 0.4])), 0.6)

    def test_top_cluster_groups_degenerate_pair(self):
        rho = DensityMatrix.from_diag([0.5, 0.5 - 1e-13, 1e-13])
        assert top_eigenspace(rho).dim == 2

    def test_top_cluster_separates_distinct(self):
        rho = DensityMatrix.from_diag([0.5, 0.4, 0.1])
        assert top_eigenspace(rho).dim == 1

    def test_kernel_and_rank(self, rng):
        rho = random_state(4, rank=2, rng=rng)
        assert kernel(rho).dim == 2
        assert rank_of(rho) == 2

    def test_bottom_nonzero_skips_kernel(self):
        rho = DensityMatrix.from_diag([0.7, 0.3, 0.0])
        bottom = bottom_eigenspace_nonzero(rho)
        assert_allclose(bottom.eigenvalue, 0.3)
        assert bottom.dim == 1

    def test_bottom_nonzero_rejects_zero_matrix(self):
        with pytest.raises(InvalidState):
            bottom_eigenspace_nonzero(np.zeros((2, 2)))

    def test_bottom_nonzero_clusters_on_the_eigh_it_slices(self):
        # at zero width a cluster is the run of equal eigh values ending at
        # the least nonzero one; half the draws have an exactly degenerate
        # support spectrum, which the eigvalsh and the eigh round apart
        zero = ToleranceConfig(rank_cutoff=0.0, cluster_width=0.0)
        rng = np.random.default_rng(2)
        for i in range(4000):
            n = 2 + i % 5
            k = int(rng.integers(1, n + 1))
            if i % 2:
                rho = random_state(n, rank=k, rng=rng)
            else:
                w = np.zeros(n)
                w[:k] = 1.0
                w[:k - int(rng.integers(1, k + 1))] = 2.0
                rho = DensityMatrix(_rotated(w / w.sum(), rng))
            values, vectors = rho._eigh
            r = rank_of(rho, zero)
            bottom = bottom_eigenspace_nonzero(rho, zero)
            assert bottom.dim == np.count_nonzero(values[:r] == values[r - 1]), i
            assert np.array_equal(bottom.basis, vectors[:, r - bottom.dim:r]), i
            assert bottom.eigenvalue == rho.eigenvalues[r - 1]

    def test_min_entropy(self):
        rho = DensityMatrix.from_diag([0.5, 0.25, 0.25])
        assert_allclose(min_entropy(rho), np.log(2.0), atol=1e-12)
        two = ToleranceConfig(log_base="two")
        assert_allclose(min_entropy(rho, two), 1.0, atol=1e-12)


class TestSubspaceIntersects:
    def test_shared_direction_inside_plane(self):
        plane = np.eye(3)[:, :2]
        diag = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        assert subspace_intersects(plane, diag)

    def test_direction_leaning_out_of_plane(self):
        plane = np.eye(3)[:, :2]
        tilted = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        assert not subspace_intersects(plane, tilted)

    def test_orthogonal_lines(self):
        assert not subspace_intersects(np.eye(3)[:, :1], np.eye(3)[:, 2:])

    def test_accepts_eigenspaces(self, rng):
        rho = random_state(3, rng=rng)
        assert subspace_intersects(top_eigenspace(rho), top_eigenspace(rho))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_intersects(np.eye(2), np.eye(3))


class TestRandomState:
    def test_rank_control(self, rng):
        for rank in (1, 2, 3):
            assert rank_of(random_state(3, rank=rank, rng=rng)) == rank

    def test_integer_seed_reproducible(self):
        a = random_state(3, rng=7)
        b = random_state(3, rng=7)
        assert_allclose(a.matrix, b.matrix)

    def test_rejects_bad_rank(self):
        with pytest.raises(BadParameter):
            random_state(2, rank=3)
