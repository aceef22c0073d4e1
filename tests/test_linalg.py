from __future__ import annotations

import ast
import inspect
import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg
from numpy.testing import assert_allclose

from qpe import linalg
from qpe.config import DEFAULT_CONFIG, ToleranceConfig
from qpe.exceptions import (
    BadParameter,
    DimensionMismatch,
    NegativeEigenvalue,
    NonHermitianInput,
)
from qpe.linalg import (
    FAILS,
    HOLDS,
    MARGINAL,
    RAYLEIGH_TOL,
    SHIFTED_SOLVE_MIN_DIM,
    _start_vector,
    as_operator,
    assert_hermitian,
    cholesky_factors,
    extreme_eigenvector,
    fidelity,
    hermitian_eig,
    hermitian_eigvals,
    hermitian_part,
    is_psd,
    matrix_power,
    operator_norm,
    partial_trace,
    partial_transpose,
    psd_verdict,
    random_unitary,
    rank,
    schatten_norm,
    spectral_power,
    tensor,
    vector_norm,
)
from qpe.orders import eigenvalue_shadow
from qpe.states import DensityMatrix, Effect, kernel, kernel_cutoff, rank_of, random_state
from spies import spying

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

    @pytest.mark.parametrize("field", ["psd_slack", "cluster_width", "rank_cutoff"])
    @pytest.mark.parametrize("value", ["1e-9", None, 1e-9 + 0j, True, False,
                                       np.array([1e-9]), np.array(1e-9), np.bool_(True)],
                             ids=repr)
    def test_rejects_tolerances_that_are_not_real_numbers(self, field, value):
        with pytest.raises(BadParameter, match=f"^{field} must be a real number"):
            ToleranceConfig(**{field: value})

    def test_rejects_an_int_too_large_for_a_float(self):
        with pytest.raises(BadParameter, match="finite"):
            ToleranceConfig(psd_slack=10 ** 400)

    @pytest.mark.parametrize("value", [0, -0.0, np.float64(1e-9), np.float32(0.5), np.int64(1)])
    def test_stores_each_tolerance_as_a_float(self, value):
        cfg = ToleranceConfig(psd_slack=value, cluster_width=value, rank_cutoff=value)
        for stored in (cfg.psd_slack, cfg.cluster_width, cfg.rank_cutoff):
            assert type(stored) is float and stored == value
            assert math.copysign(1.0, stored) == 1.0

    def test_rejects_cluster_below_rank_cutoff(self):
        with pytest.raises(BadParameter):
            ToleranceConfig(cluster_width=1e-13, rank_cutoff=1e-12)

    @pytest.mark.parametrize("value", ["ten", None, np.array(["two"])], ids=repr)
    def test_rejects_unknown_log_base(self, value):
        with pytest.raises(BadParameter):
            ToleranceConfig(log_base=value)

    def test_stores_the_log_base_as_a_str(self):
        assert type(ToleranceConfig(log_base=np.str_("two")).log_base) is str

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

    def test_schatten_rejects_nan_order(self):
        with pytest.raises(BadParameter):
            schatten_norm(np.eye(2), np.nan)

    def test_operator_norm_of_the_zero_matrix_is_positive_zero(self):
        assert np.copysign(1.0, operator_norm(np.zeros((3, 3)))) == 1.0


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


class TestExtremeEigenvector:
    """Below SHIFTED_SOLVE_MIN_DIM the vector is eigh's; from it on, one
    shifted solve at the known eigenvalue, checked by its Rayleigh quotient."""

    @staticmethod
    def _calls(fn):
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve, \
                spying(hermitian_eig) as (eigh,):
            out = fn()
        return out, solve.call_count, eigh.call_count

    @pytest.mark.parametrize("n", [2, 5, SHIFTED_SOLVE_MIN_DIM - 1])
    @pytest.mark.parametrize("top", [True, False])
    def test_below_the_crossover_it_is_eighs_vector(self, rng, n, top):
        H = random_hermitian(n, rng)
        w, V = np.linalg.eigh(H)
        col = -1 if top else 0
        assert np.array_equal(extreme_eigenvector(H, w[::-1], top), V[:, col])
        op = as_operator(H)
        assert np.array_equal(extreme_eigenvector(op, op.eigenvalues, top), V[:, col])

    @pytest.mark.parametrize("n", [SHIFTED_SOLVE_MIN_DIM, 40])
    @pytest.mark.parametrize("top", [True, False])
    def test_above_it_one_solve_and_no_eigensolve(self, rng, n, top):
        H = random_hermitian(n, rng)
        w = np.linalg.eigvalsh(H)[::-1]
        u, solves, eighs = self._calls(lambda: extreme_eigenvector(H, w, top))
        assert (solves, eighs) == (1, 0)
        lam = w[0] if top else w[-1]
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
        assert abs(np.vdot(u, H @ u).real - lam) <= RAYLEIGH_TOL * np.abs(w).max()

    def test_an_unsettled_iteration_falls_back_to_eigh(self, rng):
        n = SHIFTED_SOLVE_MIN_DIM
        b = _start_vector(n)
        Q = random_unitary(n, rng)
        # the least eigenvector is orthogonal to the start vector, so one
        # solve leaves the Rayleigh quotient short
        Q[:, 0] -= b * (b @ Q[:, 0]) / (b @ b)
        Q = np.linalg.qr(Q)[0]
        H = hermitian_part((Q * np.linspace(-1.0, 1.0, n)) @ Q.conj().T)
        w = np.linalg.eigvalsh(H)[::-1]
        with mock.patch("qpe.linalg.MAX_SOLVES", 1):
            u, solves, eighs = self._calls(lambda: extreme_eigenvector(H, w, top=False))
        assert (solves, eighs) == (1, 1)
        assert np.array_equal(u, np.linalg.eigh(H)[1][:, 0])


def _kernel_inputs(n, rng):
    """(name, matrix) at dim n: a random state and a random Hermitian matrix,
    and the edge inputs: zero, a rank-1 projector, a diagonal with exact
    zeros, subnormal entries, entries at 1e-300 and entries of modulus up
    to 8e307, whose spectrum can overflow to inf."""
    H = random_hermitian(n, rng)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    diag = np.zeros(n, dtype=complex)
    diag[1::2] = np.linspace(0.5, 1.0, n // 2)
    return [
        ("state", random_state(n, rng=rng).matrix),
        ("hermitian", H),
        ("zero", np.zeros((n, n), dtype=complex)),
        ("projector", np.outer(v, v.conj())),
        ("diagonal with zeros", np.diag(diag)),
        ("subnormal", H * 1e-310),
        ("1e-300", H * 1e-300),
        ("8e307", H / np.abs(H).max() * 8e307),
        ("all 8e307", np.full((n, n), 8e307, dtype=complex)),
    ]


class TestEigensolverKernel:
    """hermitian_eigvals and hermitian_eig return numpy.linalg.eigvalsh's and
    eigh's arrays bit for bit, and raise LinAlgError on a LAPACK failure."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64])
    def test_bit_identical_to_numpy_and_silent(self, rng, n):
        for name, M in _kernel_inputs(n, rng):
            assert np.isfinite(M).all(), name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = hermitian_eigvals(M)
                e, V = hermitian_eig(M)
            w_ref = np.linalg.eigvalsh(M)
            e_ref, V_ref = np.linalg.eigh(M)
            for got, ref in ((w, w_ref), (e, e_ref), (V, V_ref)):
                assert got.dtype == ref.dtype and got.shape == ref.shape, name
                assert got.flags.c_contiguous == ref.flags.c_contiguous, name
                assert np.array_equal(got, ref), name

    def test_a_nan_output_raises_linalgerror(self):
        """A LAPACK failure shows as a NaN-filled output of the gufunc."""
        failing = SimpleNamespace(
            eigvalsh_lo=lambda H, signature: np.full(len(H), np.nan),
            eigh_lo=lambda H, signature: (np.full(len(H), np.nan),
                                          np.full(H.shape, np.nan, dtype=complex)),
        )
        with mock.patch.object(linalg, "_umath_linalg", failing):
            for solve in (hermitian_eigvals, hermitian_eig):
                with pytest.raises(LinAlgError, match="did not converge"):
                    solve(np.eye(3, dtype=complex))

    def test_numpy_ships_the_lapack_gufuncs(self):
        """The kernel calls numpy's private LAPACK gufuncs by name, with the
        complex signature; a numpy that renames or drops them fails here."""
        assert "D->d" in _umath_linalg.eigvalsh_lo.types
        assert "D->dD" in _umath_linalg.eigh_lo.types


def _reference_factors(M) -> bool:
    """numpy.linalg.cholesky's answer: a factor, and a finite one."""
    try:
        L = np.linalg.cholesky(M)
    except LinAlgError:
        return False
    return bool(np.isfinite(L).all())


class TestCholeskyKernel:
    """cholesky_factors answers as numpy.linalg.cholesky succeeds or fails,
    silently, and never for a factor that is not finite."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64])
    def test_agrees_with_numpy_and_is_silent(self, rng, n):
        inputs = _kernel_inputs(n, rng) + [
            # definite at the scales of the edge inputs, so both answers occur
            (f"identity * {scale}", np.eye(n, dtype=complex) * scale)
            for scale in (1.0, 1e-310, 1e-300, 8e307)
        ]
        answers = set()
        for name, M in inputs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = cholesky_factors(M)
            assert got is _reference_factors(M), name
            answers.add(got)
        assert answers == {True, False}

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_a_factor_that_is_not_finite_is_refused(self, entry):
        """A LAPACK failure fills the gufunc's output with NaN; a non-finite
        entry anywhere is refused all the same."""
        def factor(H, signature):
            L = np.linalg.cholesky(H)
            L[-1, 0] = entry
            return L

        with mock.patch.object(linalg, "_umath_linalg", SimpleNamespace(cholesky_lo=factor)):
            assert cholesky_factors(np.eye(3, dtype=complex)) is False

    def test_numpy_ships_the_lapack_gufunc(self):
        assert "D->D" in _umath_linalg.cholesky_lo.types


def _gufunc_calls() -> dict[str, str]:
    """{gufunc name: signature} for each _umath_linalg.<name>(..., signature=...)
    call in linalg's source."""
    calls = {}
    for node in ast.walk(ast.parse(inspect.getsource(linalg))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "_umath_linalg"):
            calls[node.func.attr] = next(k.value.value for k in node.keywords if k.arg == "signature")
    return calls


def test_private_lapack_gufuncs_answer_as_numpy():
    """linalg calls three of numpy's private LAPACK gufuncs by name, with a
    complex signature; numpy does not promise to keep either. On a fixed
    complex 3 x 3 matrix, each as linalg calls it gives numpy.linalg's
    public answer bit for bit, so a numpy that renames, drops or changes
    one fails here."""
    M = np.array([[4.0, 1.0 - 1.0j, 0.5j], [1.0 + 1.0j, 3.0, 0.25], [-0.5j, 0.25, 2.0]])
    public = {"eigvalsh_lo": (np.linalg.eigvalsh(M),), "eigh_lo": tuple(np.linalg.eigh(M)),
              "cholesky_lo": (np.linalg.cholesky(M),)}
    calls = _gufunc_calls()
    assert calls == {"eigvalsh_lo": "D->d", "eigh_lo": "D->dD", "cholesky_lo": "D->D"}
    for name, signature in calls.items():
        got = getattr(_umath_linalg, name)(M, signature=signature)
        got = got if isinstance(got, tuple) else (got,)
        assert len(got) == len(public[name]), name
        for g, ref in zip(got, public[name]):
            assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes(), name


def _descending_spectra(rng):
    """Descending spectra of length 1-6 with signed zeros, tiny and huge
    entries, all-negative and all-positive ones."""
    spectra = [np.array([x]) for x in (0.0, -0.0, 0.5, -0.5, 2.0, -3.0, 1e-300)]
    for _ in range(300):
        n = int(rng.integers(1, 7))
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 4)
        w[rng.random(n) < 0.2] = 0.0
        w[rng.random(n) < 0.2] = -0.0
        if rng.random() < 0.2:
            w = -np.abs(w)
        spectra.append(np.sort(w)[::-1])
    return spectra


def _band_verdict(w, cfg):
    """psd_verdict's band with the scale taken by a pass over |w|."""
    lam_min = float(w[-1])
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if lam_min >= -cfg.psd_slack * scale:
        return HOLDS
    if lam_min < -10.0 * cfg.psd_slack * scale:
        return FAILS
    return MARGINAL


class TestReadOffValuesMatchFullPasses:
    """The per-call checks read values already at hand (the ends of a
    descending spectrum, the entry modulus max, the adjoint once); each
    must equal the full numpy pass it replaced, bit for bit."""

    def test_psd_scale_is_the_magnitude_max(self, rng):
        for w in _descending_spectra(rng):
            ends = max(1.0, float(w[0]), -float(w[-1]))
            assert ends == max(1.0, float(np.abs(w).max(initial=0.0))), w

    @pytest.mark.parametrize("psd_slack", [1e-9, 1e-3, 0.05, 0.3])
    def test_psd_verdict_matches_the_full_pass_band(self, rng, psd_slack):
        cfg = ToleranceConfig(psd_slack=psd_slack)
        spectra = _descending_spectra(rng)
        # put lambda_min on and beside both band edges
        for top in (0.5, 1.0, 3.0, 1e3):
            for k in (1.0, 10.0):
                edge = -k * psd_slack * max(1.0, top)
                for lam in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, -np.inf)):
                    spectra.append(np.array([top, 0.0, lam]))
        for w in spectra:
            verdict = psd_verdict(w, np.diag(w), cfg)
            assert verdict.relation == _band_verdict(w, cfg), w
            assert np.float64(verdict.slack).tobytes() == np.float64(w[-1]).tobytes()

    def test_maximum_is_clip_on_signed_zeros_and_tiny_negatives(self, rng):
        w = np.array([0.7, 1e-300, 0.0, -0.0, -5e-324, -1e-17, -0.25])
        assert np.maximum(w, 0.0).tobytes() == np.clip(w, 0.0, None).tobytes()
        for w in _descending_spectra(rng):
            assert np.maximum(w, 0.0).tobytes() == np.clip(w, 0.0, None).tobytes()

    @pytest.mark.parametrize("diag", [[0.6, 0.4, 0.0, -0.0], [1.0, -1e-17, 0.0, -1e-300]])
    def test_shadow_matches_clip(self, diag):
        rho = DensityMatrix.from_diag(np.abs(diag) / np.abs(diag).sum())
        assert eigenvalue_shadow(rho).tobytes() == np.clip(rho.eigenvalues, 0.0, None).tobytes()

    def test_hermitian_fold_is_hermitian_part(self, rng):
        for n in (1, 2, 3, 5):
            A = random_hermitian(n, rng) + 1e-12 * rng.standard_normal((n, n))
            assert assert_hermitian(A).tobytes() == hermitian_part(A).tobytes()

    def test_full_rank_read_off_the_last_eigenvalue(self, rng):
        for n in (2, 3, 4, 5):
            for rank in range(1, n + 1):
                U = random_unitary(n, rng)
                w = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
                w[rank:] = rng.choice([0.0, 1e-13, 1e-11], n - rank)
                rho = DensityMatrix(hermitian_part((U * (w / w.sum())) @ U.conj().T))
                full = rho.eigenvalues[-1] > kernel_cutoff(rho.eigenvalues)
                assert full == (rank_of(rho) == n) == (kernel(rho).dim == 0)


class TestDotMatchesMatmul:
    """The op path's products call ndarray.dot where they used @; each must
    equal the @ form it replaced bit for bit, and vector_norm must equal
    numpy.linalg.norm, on the eigensolver kernel's inputs (zero, diagonal,
    rank-1, subnormal and 8e307 entries among them)."""

    @staticmethod
    def _equal(got, ref):
        return got.dtype == ref.dtype and np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64])
    def test_spectral_primitives(self, rng, n):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        with np.errstate(all="ignore"):
            for name, M in _kernel_inputs(n, rng):
                op = as_operator(M)
                w, V = op._eigh
                # a column view, as attaining_direction passes, and a contiguous vector
                for y in (op.eigenvectors[:, 0], x):
                    for p in (-0.5, 0.5, 1.0):
                        factor = linalg._spectral_factor(w, p, DEFAULT_CONFIG)
                        assert self._equal(spectral_power(w, V, p), (V * factor) @ V.conj().T), name
                        assert self._equal(op.power_times(p, y), V @ (factor * (V.conj().T @ y))), name

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64])
    def test_sandwich_and_update_products(self, rng, n):
        inputs = [M for _, M in _kernel_inputs(n, rng)]
        with np.errstate(all="ignore"):
            for X, Y in zip(inputs, inputs[1:] + inputs[:1]):
                assert self._equal(X.dot(Y).dot(X), X @ Y @ X)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64])
    def test_vector_norm(self, rng, n):
        with np.errstate(all="ignore"):
            for name, M in _kernel_inputs(n, rng):
                for x in (M[:, 0], M[0], M[:, -1].copy()):
                    got, ref = vector_norm(x), np.linalg.norm(x)
                    assert np.float64(got).tobytes() == np.float64(ref).tobytes(), name


class TestRank:
    """rank counts a descending spectrum's eigenvalues above kernel_cutoff,
    which scales rank_cutoff by the top eigenvalue: at or below it is kernel."""

    @pytest.mark.parametrize("w,want", [
        ([0.0, 0.0, 0.0], 0),  # all kernel
        ([0.0, -1e-17, -2e-16], 0),  # all kernel, with negative rounding
        ([0.5, 0.3, 0.2], 3),  # full rank
        ([1.0, 2e-12], 2),  # full rank, just above the cutoff
        ([0.6, 0.4, 1e-13, -1e-17, -2e-16], 2),  # a tail of negative rounding
        ([1.0, 1e-12, 0.0], 1),  # at the cutoff is kernel
    ])
    def test_counts_the_eigenvalues_above_the_cutoff(self, w, want):
        assert rank(np.array(w)) == want

    def test_reads_cfg_and_the_reversed_view(self):
        w = np.array([0.0, 1e-300, 1.0])[::-1]
        assert rank(w) == 1 and rank(w, ToleranceConfig(rank_cutoff=0.0)) == 2

    def test_support_is_the_prefix_it_counts(self, rng):
        U = random_unitary(4, rng)
        op = as_operator(hermitian_part((U * np.array([0.7, 0.3, 1e-14, -1e-17])) @ U.conj().T))
        w, V = op.support()
        assert len(w) == V.shape[1] == rank(op._eigh[0]) == 2


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


# every helper that takes a raw matrix, and the operator norm of one built
# from it, on a 0x0 input: no eigenvalue to report, so each rejects it
EMPTY_INPUT = {
    "is_psd": is_psd,
    "rank_of": rank_of,
    "kernel": kernel,
    "HermitianOperator.norm": lambda A: as_operator(A).norm,
    "operator_norm": operator_norm,
    "schatten_norm": lambda A: schatten_norm(A, 2),
    "schatten_norm_inf": lambda A: schatten_norm(A, np.inf),
    "matrix_power": lambda A: matrix_power(A, -0.5),
    "DensityMatrix": DensityMatrix,
}


@pytest.mark.parametrize("name", sorted(EMPTY_INPUT))
def test_the_empty_matrix_is_rejected(name):
    with pytest.raises(DimensionMismatch, match="nonempty square matrix"):
        EMPTY_INPUT[name](np.zeros((0, 0)))


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

    @pytest.mark.parametrize("dims, subsystem, error, message", [
        ((2, 2, 1), 1, DimensionMismatch, "need two factor dimensions, got (2, 2, 1)"),
        ((2, 3), 1, DimensionMismatch, "factor dims (2, 3) incompatible with matrix of size 4"),
        ((0, 4), 1, DimensionMismatch, "factor dims (0, 4) incompatible with matrix of size 4"),
        ((2, 2), 3, BadParameter, "subsystem must be 1 or 2, got 3"),
    ])
    def test_partial_trace_refuses_a_bad_factorization(self, dims, subsystem, error, message):
        with pytest.raises(error) as info:
            partial_trace(np.eye(4), dims, subsystem)
        assert type(info.value) is error and str(info.value) == message

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
