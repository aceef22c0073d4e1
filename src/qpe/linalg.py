"""Hermitian matrix calculus: spectra, PSD verdicts, powers, tensor algebra.

hermitian_eigvals and hermitian_eig are the package's one eigensolver
kernel: every Hermitian eigensolve calls LAPACK through them, bit-identical
to numpy.linalg.eigvalsh and eigh, in their ascending order.
cholesky_factors is its one factorization, which validates a large state
without its spectrum.

HermitianOperator is the one route from a matrix to its spectrum: it owns
a Hermitian matrix and solves its spectrum once, on first read, and the
package's states and effects are HermitianOperators. The checks, norms,
powers, fidelity and partial trace and transpose accept a complex ndarray or a
HermitianOperator; the norms, is_psd, matrix_power and fidelity read an
operator's cached spectrum, and solve a raw array's afresh. The package's
one spectral power is HermitianOperator.power, its one rule for which
eigenvalues count as zero kernel_cutoff (HermitianOperator.support keeps the
rest), and operator_pair the one gate of every function that takes two
operators; fidelity solves no eigenproblem of its own. An operator also
remembers the pair queries asked against its recent partners
(HermitianOperator._remember). An operator reports its eigenvalues in
descending order. Positivity checks return a tri-state verdict instead of a
boolean so callers can surface numerically marginal cases; relation_of is
the one holds/marginal/fails band, and extreme_eigenvector finds every
fails witness that is an eigenvector at an eigenvalue already known.

The matrix products of the pair operations (the powers here, the sandwich
and the updates) call ndarray.dot, not @: both run the same BLAS
routine, to the same bits, and at dims 2-5 the matmul ufunc's dispatch
costs more than the product.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import (
    BadParameter,
    DimensionMismatch,
    NegativeEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
    OverflowingInput,
)

HOLDS = "holds"
FAILS = "fails"
MARGINAL = "marginal"
# the outcomes of domain.way_below_witness
CERTIFIED_BELOW = "certified_below"
NOT_BELOW = "not_below"
UNKNOWN = "unknown"

# relative scale for accepting a matrix as Hermitian
HERMITIAN_RTOL = 1e-9
# largest entry modulus whose Hermitian fold (A + A^H) / 2 cannot overflow
FOLD_LIMIT = float(np.finfo(float).max) / 2.0
# partners an operator remembers; the oldest-inserted is dropped past this.
# Bounds the memo to this many sandwiches per live operator (8 MB at dim 256).
PARTNER_MEMO_SIZE = 8

# extreme_eigenvector's inverse iteration, from this dimension on: below it
# one eigh costs no more than the shifted solve and its Rayleigh check. The
# cold incomparable pairs op (two builds, gap, refusal), timed with each
# route forced on one pinned CPU, took 7% longer with the solve at n = 4,
# the same within noise at 8-11, and 3% less at 12, 8% at 16, 16% at 32.
SHIFTED_SOLVE_MIN_DIM = 12
# the shift's distance past the known eigenvalue, per unit of n ||A||:
# beyond eigvalsh's error, so the shifted system stays definite
SHIFT_PER_DIM = 4.0 * float(np.finfo(float).eps)
# largest Rayleigh deficit, relative to ||A||, at which x is taken: about the
# accuracy to which eigvalsh knows the eigenvalue, and 10^4 times finer than
# the default fails band (10 psd_slack)
RAYLEIGH_TOL = 1e-12
MAX_SOLVES = 4


@dataclass(frozen=True)
class OrderVerdict:
    """Tri-state outcome of a positivity or order test.

    slack is the smallest eigenvalue of the tested matrix, except for
    qpe_leq and classical_pe_leq, whose slack is the dimensionless
    1 - rho+ lambda_max(rho^-1/2 sigma rho^-1/2) / sigma+ (-inf when sigma
    escapes rho's support). witness is a unit vector certifying the
    violation and is present exactly when the relation fails.
    """

    relation: str
    slack: float
    witness: np.ndarray | None = None

    @property
    def holds(self) -> bool:
        return self.relation == HOLDS

    @property
    def fails(self) -> bool:
        return self.relation == FAILS

    @property
    def marginal(self) -> bool:
        return self.relation == MARGINAL


def _square(A) -> np.ndarray:
    if isinstance(A, HermitianOperator):
        return A.matrix
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.shape[0]:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {A.shape}")
    return A


def as_square_array(A) -> np.ndarray:
    A = _square(A)
    if not np.isfinite(A).all():
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    return A


def hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2, which is exactly Hermitian in floating point."""
    return (A + A.conj().T) / 2.0


def assert_hermitian(A) -> np.ndarray:
    A = _square(A)
    top = float(np.abs(A).max(initial=0.0))
    if not top <= FOLD_LIMIT:  # also NaN
        as_square_array(A)  # raises on a NaN or inf entry
        raise OverflowingInput(
            f"matrix entry modulus {top:.3e} exceeds {FOLD_LIMIT:.3e}, "
            "past which the Hermitian fold overflows"
        )
    adjoint = A.conj().T
    dev = float(np.abs(A - adjoint).max(initial=0.0))
    scale = max(1.0, top)
    if dev > HERMITIAN_RTOL * scale:
        raise NonHermitianInput(
            f"matrix deviates from Hermitian by {dev:.3e} (scale {scale:.3e})"
        )
    # fold the (tiny) asymmetry away so downstream eigh sees clean input
    return (A + adjoint) / 2.0  # hermitian_part(A)


def relation_of(slack: float, top: float, cfg: ToleranceConfig = DEFAULT_CONFIG) -> str:
    """The holds/marginal/fails band, for a least eigenvalue slack of a
    matrix whose largest eigenvalue is top (so ||.|| is max(top, -slack)).

    holds    if slack >= -psd_slack * max(1, ||.||)
    fails    if slack < -10 * psd_slack * max(1, ||.||)
    marginal in between

    A scalar slack passes itself as top: its scale is max(1, |slack|).
    """
    scale = max(1.0, top, -slack)
    if slack >= -cfg.psd_slack * scale:
        return HOLDS
    if slack < -10.0 * cfg.psd_slack * scale:
        return FAILS
    return MARGINAL


def psd_verdict(w, H, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Tri-state positive-semidefiniteness verdict from a descending spectrum.

    w is the spectrum of the Hermitian matrix H, and it must be in descending
    order: the band (relation_of) reads its two ends. H is only read to find
    the witness of a fails verdict; a caller that raises on fails may pass
    None.
    """
    lam_min = float(w[-1])
    relation = relation_of(lam_min, float(w[0]), cfg)
    if relation == FAILS and H is not None:
        return OrderVerdict(FAILS, lam_min, witness=extreme_eigenvector(H, w, top=False))
    return OrderVerdict(relation, lam_min)


def hermitian_eigvals(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a finite, nonempty complex Hermitian matrix
    H: what numpy.linalg.eigvalsh(H) returns, bit for bit, from the LAPACK
    gufunc it wraps, called once without its wrapper (array conversion, type
    resolution, an errstate context), which at dims 2-5 costs more than the
    solve. One of the package's two eigensolvers, with hermitian_eig.

    The gufunc reports a LAPACK failure by filling its output with NaN (and
    setting the floating-point invalid flag, which numpy warns of); that
    raises LinAlgError here, as it does in numpy.
    """
    w = _umath_linalg.eigvalsh_lo(H, signature="D->d")
    if w[0] != w[0]:
        raise LinAlgError("Eigenvalues did not converge")
    return w


def hermitian_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, V): ascending eigenvalues and unit eigenvectors as columns of a
    finite, nonempty complex Hermitian matrix H, what numpy.linalg.eigh(H)
    returns, bit for bit; see hermitian_eigvals."""
    w, V = _umath_linalg.eigh_lo(H, signature="D->dD")
    if w[0] != w[0]:
        raise LinAlgError("Eigenvalues did not converge")
    return w, V


def cholesky_factors(H: np.ndarray) -> bool:
    """Whether a finite, nonempty complex Hermitian matrix H has a finite
    Cholesky factor L, H = L L^H: numpy.linalg.cholesky's LAPACK gufunc,
    called once without its wrapper, under an errstate that keeps in the
    floating-point flags a failure raises (the gufunc fills a failed
    factor with NaN). The package's one factorization.

    A factorization that runs to completion is backward stable: L L^H is
    H + E with ||E|| at most about n^2 eps ||H|| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3), so True
    certifies that H's least eigenvalue is above -n^2 eps ||H||; False
    certifies nothing (a singular or marginal H fails, PSD or not).
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        L = _umath_linalg.cholesky_lo(H, signature="D->D")
    return bool(np.isfinite(L).all())


def vector_norm(x: np.ndarray) -> float:
    """The Euclidean norm of a 1-D complex vector: numpy.linalg.norm(x), bit
    for bit, by its own formula (the dot products of the real and imaginary
    parts), without its dispatch, which at dims 2-5 costs more than the sum."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _start_vector(n: int) -> np.ndarray:
    """extreme_eigenvector's fixed start: no entry is zero and no sign or
    permutation pattern of the standard basis is orthogonal to it, so the
    structured eigenvectors of diagonal, tensored or real-symmetric inputs
    all have a component along it."""
    return np.sin(np.arange(1.0, n + 1.0))


def extreme_eigenvector(A, w, top: bool = True) -> np.ndarray:
    """A unit eigenvector of the Hermitian A (a matrix or HermitianOperator)
    at its top eigenvalue w[0], or its least w[-1] when top is false, w being
    A's descending spectrum.

    Below SHIFTED_SOLVE_MIN_DIM it is eigh's: a read-only column view of
    A's cached eigenvectors when A is an operator. From there on it is
    inverse iteration at the known eigenvalue (Golub & Van Loan, Matrix
    Computations, 8.2): (A - mu I) x = b solved from _start_vector, with mu
    past that eigenvalue by SHIFT_PER_DIM * n * ||A||, so outside the
    spectrum and the system definite. A start vector nearly orthogonal to
    the eigenvector shows as a Rayleigh quotient short of the eigenvalue by
    more than RAYLEIGH_TOL * ||A||; the next solve starts from x, up to
    MAX_SOLVES, and eigh decides if the quotient still falls short.
    """
    H = _square(A)
    n = H.shape[0]
    if n >= SHIFTED_SOLVE_MIN_DIM:
        lam = float(w[0] if top else w[-1])
        scale = max(abs(float(w[0])), abs(float(w[-1])))
        side = 1.0 if top else -1.0
        shifted = H.copy()
        shifted.flat[:: n + 1] -= lam + side * SHIFT_PER_DIM * n * scale
        x = _start_vector(n)
        for _ in range(MAX_SOLVES):
            x = np.linalg.solve(shifted, x)
            x /= vector_norm(x)
            if side * (lam - np.vdot(x, H @ x).real) <= RAYLEIGH_TOL * scale:
                return x
    if isinstance(A, HermitianOperator):
        # a view: a copy is contiguous, and products with it round otherwise
        return A.eigenvectors[:, 0 if top else -1]
    return hermitian_eig(H)[1][:, -1 if top else 0].copy()


def kernel_cutoff(w: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Eigenvalues of the descending spectrum w at or below this are kernel."""
    return cfg.rank_cutoff * max(abs(float(w[0])), 1e-300)


def _spectral_factor(w, p, cfg: ToleranceConfig) -> np.ndarray:
    """w^p for a descending PSD spectrum w, with the eigenvalues at or below
    kernel_cutoff(w) mapped to zero for every p (generalized inverses)."""
    cutoff = kernel_cutoff(w, cfg)
    if w[-1] > cutoff:  # full rank: no mask to apply
        return w ** p
    live = w > cutoff
    out = np.zeros_like(w)
    out[live] = w[live] ** p
    return out


def spectral_power(w, V, p, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """V diag(w)^p V^dagger for a descending PSD spectrum (w, V), with
    _spectral_factor's kernel rule, so negative powers are generalized inverses."""
    return (V * _spectral_factor(w, p, cfg)).dot(V.conj().T)


class lazy:
    """A read-only attribute computed by the decorated method on first read
    and stored in the instance's __dict__, which shadows this descriptor (it
    has no __set__) from then on; assigning the attribute seeds it.

    functools.cached_property without its lock, which on Python 3.11 is
    one lock for every instance of the class, taken on each first read.
    Without it, two threads racing on one instance's first read both compute
    the value; they store equal values.
    """

    def __init__(self, method):
        self.method = method
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class HermitianOperator:
    """A frozen Hermitian matrix whose spectrum is computed once.

    Takes an exactly Hermitian matrix (as returned by assert_hermitian) and
    owns it. The descending eigenvalues come from one eigvalsh on first read
    (or _derived seeds them); the eigenvectors from one eigh on first use,
    from which power, power_times and support are formed afresh on each call.
    The eigh has its own eigenvalues (_eigh[0]), equal to eigvalsh's to the
    last bits; orders.qpe_leq reads rho's there, so a prior whose
    validation solved nothing is decided on that one decomposition.

    Each operator also remembers what was computed against its recent
    partners, up to PARTNER_MEMO_SIZE of them with the oldest dropped first
    (see _remember), so a pair asked twice is decided once.
    """

    def __init__(self, H: np.ndarray):
        H.setflags(write=False)
        self._matrix = H
        self._partners: dict[int, tuple[weakref.ref, dict]] = {}

    @classmethod
    def _derived(cls, A: np.ndarray, w: np.ndarray | None = None):
        """This type on hermitian_part(A), unchecked, a known spectrum w seeded:
        only for what is PSD (and of unit trace, for a state) as computed."""
        op = cls.__new__(cls)
        HermitianOperator.__init__(op, hermitian_part(A))
        if w is not None:
            w.setflags(write=False)
            op.eigenvalues = w
        return op

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @lazy
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        w = hermitian_eigvals(self._matrix)[::-1]
        w.setflags(write=False)
        return w

    @property
    def norm(self) -> float:
        """Operator norm, the largest eigenvalue magnitude."""
        w = self.eigenvalues
        return max(abs(float(w[0])), abs(float(w[-1])))

    @lazy
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        w, V = hermitian_eig(self._matrix)
        # contiguous, as a pickled copy's is, so products with V round alike
        V = np.ascontiguousarray(V[:, ::-1])
        V.setflags(write=False)
        return w[::-1], V

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unit eigenvectors as columns, matching eigenvalues."""
        return self._eigh[1]

    def power(self, p, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
        """The package's one spectral power of a PSD operator, from its cached
        eigh: the eigenvalues at or below kernel_cutoff map to zero for every
        p, so power(-0.5) is the generalized inverse square root and power(0.5)
        leaves a kernel exactly empty."""
        return spectral_power(*self._eigh, p, cfg)

    def support(self, cfg: ToleranceConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) of the cached eigh above kernel_cutoff, a prefix of the descending
        spectrum; NegativeEigenvalue when the spectrum fails psd_verdict's band."""
        w, V = self._eigh
        if (verdict := psd_verdict(w, None, cfg)).fails:
            raise NegativeEigenvalue(f"operator not PSD (lambda_min = {verdict.slack:.3e})")
        rank = int(np.count_nonzero(w > kernel_cutoff(w, cfg)))
        return w[:rank], V[:, :rank]

    def power_times(self, p, x: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
        """power(p, cfg) @ x from the cached eigenbasis, without forming the power."""
        w, V = self._eigh
        return V.dot(_spectral_factor(w, p, cfg) * V.conj().T.dot(x))

    def _remember(self, partner: HermitianOperator, key, compute, *args):
        """compute(*args), remembered under key for one of the recent partners.
        compute is a module-level function, so a hit builds no closure.

        Up to PARTNER_MEMO_SIZE partners are remembered; a new one past that
        drops the oldest-inserted. A partner is held by weakref and matched
        by identity, so an equal-valued copy does not read this pair's
        entries and a chain of comparisons does not keep old states alive.
        key is a tuple: a tag naming the query, then every input of compute
        other than the pair itself (the cfg fields it reads); compute must
        not return None. The entries, by tag, with the cfg fields keyed and
        the function that computes them:

            qpe_leq          psd_slack, rank_cutoff    orders._qpe_verdict
            sandwich         rank_cutoff               states._sandwich
            max_divergence   rank_cutoff, log_base     divergence._max_divergence
            way_below        psd_slack, rank_cutoff    domain._way_below

        All but the sandwich nest: qpe_leq and max_divergence ask for the
        sandwich and way_below for the verdict of the same pair, and those
        calls find the slot the outer one opened, so they cannot drop it.
        """
        partners, ident = self._partners, id(partner)
        slot = partners.get(ident)
        if slot is None or slot[0]() is not partner:
            if slot is not None:
                del partners[ident]  # a dead partner's reused id: drop its entries
            elif len(partners) >= PARTNER_MEMO_SIZE:
                del partners[next(iter(partners))]
            slot = partners[ident] = (weakref.ref(partner), {})
        value = slot[1].get(key)
        if value is None:
            value = slot[1][key] = compute(*args)
        return value

    def __getstate__(self):
        # a copy or pickle starts with no partners: a weakref cannot be pickled
        return {**self.__dict__, "_partners": {}}

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, top={self.eigenvalues[0]:.6g})"


def as_operator(x) -> HermitianOperator:
    """x itself if it is a state or effect, else a checked raw Hermitian matrix."""
    if isinstance(x, HermitianOperator):
        return x
    return HermitianOperator(assert_hermitian(x))


def operator_pair(a, b) -> tuple[HermitianOperator, HermitianOperator]:
    """Both operands through as_operator, checked to be of one dimension: the
    gate of every function that takes two operators."""
    # as_operator inlined, so a pair of operators costs two isinstance checks
    if not isinstance(a, HermitianOperator):
        a = as_operator(a)
    if not isinstance(b, HermitianOperator):
        b = as_operator(b)
    if len(a._matrix) != len(b._matrix):  # square: the length is the dim
        raise DimensionMismatch(f"operand dimensions differ: {a.dim} vs {b.dim}")
    return a, b


def check_mixing_weight(t: float) -> None:
    """Raise BadParameter unless t is a mixing weight in [0, 1] (NaN is not)."""
    if not 0.0 <= t <= 1.0:
        raise BadParameter(f"mixing parameter {t} outside [0, 1]")


def operator_norm(A) -> float:
    """Largest eigenvalue magnitude of a Hermitian matrix."""
    return as_operator(A).norm


def schatten_norm(A, p) -> float:
    """Schatten p-norm via the eigenvalue magnitudes, p in [1, inf]."""
    if not p >= 1:  # also NaN
        raise BadParameter(f"Schatten norm needs p >= 1, got {p}")
    if p == np.inf:
        return operator_norm(A)
    mags = np.abs(as_operator(A).eigenvalues)
    return float(np.sum(mags**p) ** (1.0 / p))


def is_psd(A, cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Tri-state positive-semidefiniteness verdict on a Hermitian matrix (see psd_verdict)."""
    op = as_operator(A)
    return psd_verdict(op.eigenvalues, op.matrix, cfg)


def matrix_power(A, p, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """as_operator(A).power(p, cfg) for a PSD matrix or operator A, whose
    support's check raises NegativeEigenvalue past the PSD band."""
    op = as_operator(A)
    op.support(cfg)
    return op.power(p, cfg)


def tensor(A, B) -> np.ndarray:
    """Kronecker product of two matrices (not necessarily square), states or effects."""
    A, B = (x.matrix if isinstance(x, HermitianOperator) else np.asarray(x, dtype=complex)
            for x in (A, B))
    return np.kron(A, B)


def _bipartite(A, dims, subsystem):
    """A reshaped to (m, n, m, n), and m and n, with dims and subsystem checked."""
    A = as_square_array(A)
    if len(dims) != 2:
        raise DimensionMismatch(f"need two factor dimensions, got {dims}")
    m, n = int(dims[0]), int(dims[1])
    if m <= 0 or n <= 0 or m * n != A.shape[0]:
        raise DimensionMismatch(
            f"factor dims {dims} incompatible with matrix of size {A.shape[0]}"
        )
    if subsystem not in (1, 2):
        raise BadParameter(f"subsystem must be 1 or 2, got {subsystem}")
    return A.reshape(m, n, m, n), m, n


def partial_trace(A, dims, subsystem: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite matrix.

    dims = (m, n) declares the factorization; subsystem is 1 or 2 and names
    the factor that gets traced out.
    """
    T, _, _ = _bipartite(A, dims, subsystem)
    return np.einsum("ijil->jl" if subsystem == 1 else "ijkj->ik", T)


def partial_transpose(A, dims, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor in place."""
    T, m, n = _bipartite(A, dims, subsystem)
    axes = (2, 1, 0, 3) if subsystem == 1 else (0, 3, 2, 1)
    return T.transpose(axes).reshape(m * n, m * n)


def _sandwiched_trace(rho, sigma, alpha, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """tr (rho^p sigma rho^p)^alpha, p = (1 - alpha) / (2 alpha), for PSD rho and
    sigma: the sum of s^(2 alpha) over the singular values s of rho^p sigma^1/2
    on their supports, diag(w_rho^p) V_rho^H V_sigma diag(w_sigma^1/2). So a
    kernel adds nothing, and a small s is known to about eps s_max, where the
    root of the inner matrix's small eigenvalue is known to about sqrt(eps).
    0 when either operand weighs at most its own kernel_cutoff on the other's
    support (sigma's rule mirrors states.escape_direction's), in either order:
    for states the trace at alpha = 1/2 is then at most sqrt(rank_cutoff)."""
    w_r, V_r = rho.support(cfg)
    w_s, V_s = sigma.support(cfg)
    overlap = V_r.conj().T.dot(V_s)
    weight = np.abs(overlap) ** 2
    if (weight.dot(w_s).sum() <= kernel_cutoff(sigma._eigh[0], cfg)
            or w_r.dot(weight).sum() <= kernel_cutoff(rho._eigh[0], cfg)):
        return 0.0
    factor = w_r[:, None] ** ((1.0 - alpha) / (2.0 * alpha)) * (overlap * np.sqrt(w_s))
    return float((np.linalg.svd(factor, compute_uv=False) ** (2.0 * alpha)).sum())


def fidelity(rho, sigma, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Uhlmann fidelity tr sqrt(rho^1/2 sigma rho^1/2): _sandwiched_trace at 1/2, <= 1."""
    return min(_sandwiched_trace(*operator_pair(rho, sigma), 0.5, cfg), 1.0)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    # fix the phase ambiguity so the distribution is Haar
    return Q * (np.diag(R) / np.abs(np.diag(R)))
