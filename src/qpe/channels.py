"""Quantum channels, their Choi states, and the induced order.

A channel is the state it maps the maximally entangled input to (its
normalized Choi matrix), validated and solved once. The order on channels is
the order on those states; the Kraus family, kept from a Kraus input or
recovered from the Choi eigenvectors on first use, serves the action and
`oracle`, which decides the order independently through complete
positivity of a rescaled difference map.
"""
from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import BadParameter, DimensionMismatch, InvalidState, NotCPTP
from .linalg import (OrderVerdict, as_operator, assert_hermitian, check_mixing_weight,
                     kernel_cutoff, lazy, partial_trace)
from .orders import qpe_leq
from .states import DensityMatrix, rank_of, top_eigenvalue

if TYPE_CHECKING:
    from .divergence import DivergenceValue

COMPLETENESS_TOL = 1e-8


def _vec(M: np.ndarray) -> np.ndarray:
    return np.asarray(M).reshape(-1)


def _kraus_sandwich(ops, X: np.ndarray) -> np.ndarray:
    out = np.zeros((ops[0].shape[0],) * 2, dtype=complex)
    for K in ops:
        out += K @ X @ K.conj().T
    return out


def to_choi(kraus, in_dim: int, out_dim: int) -> np.ndarray:
    """Normalized Choi matrix (1/n) sum_a vec(K_a^T) vec(K_a^T)^dagger."""
    n, k = in_dim, out_dim
    J = np.zeros((n * k, n * k), dtype=complex)
    for K in kraus:
        w = _vec(np.asarray(K, dtype=complex).T)
        if w.size != n * k:
            raise DimensionMismatch("Kraus operator shape does not match dims")
        J += np.outer(w, w.conj())
    return J / n


def _check_complete(ops, n: int) -> None:
    total = sum(K.conj().T @ K for K in ops)
    defect = float(np.abs(total - np.eye(n)).max())
    if defect > COMPLETENESS_TOL:
        raise NotCPTP(f"Kraus completeness defect {defect:.3e}")


class Channel:
    """A completely positive trace-preserving map, held as its Choi state `choi`."""

    def __init__(self, kraus, in_dim: int | None = None,
                 out_dim: int | None = None,
                 cfg: ToleranceConfig = DEFAULT_CONFIG):
        ops = [np.asarray(K, dtype=complex) for K in kraus]
        if not ops:
            raise NotCPTP("empty Kraus family")
        k, n = ops[0].shape
        if k == 0 or n == 0:
            raise DimensionMismatch(f"Kraus operators of shape {(k, n)} act on no space")
        if any(K.shape != (k, n) for K in ops):
            raise DimensionMismatch("Kraus operators have mixed shapes")
        if in_dim is not None and in_dim != n:
            raise DimensionMismatch(f"declared in_dim {in_dim}, operators say {n}")
        if out_dim is not None and out_dim != k:
            raise DimensionMismatch(f"declared out_dim {out_dim}, operators say {k}")
        _check_complete(ops, n)
        # seeds the lazy recovery below
        self.kraus = ops
        self._hold(assert_hermitian(to_choi(ops, n, k)), n, k, cfg)

    def _hold(self, J: np.ndarray, n: int, k: int, cfg: ToleranceConfig,
              factor: bool = True):
        """Store the dims, cfg and the Choi state of J, a matrix that
        assert_hermitian returned: the state's other checks run here."""
        try:
            self.choi = DensityMatrix.__new__(DensityMatrix)._validate(J, cfg, factor)
        except InvalidState as exc:
            raise NotCPTP(f"Choi matrix is not a state: {exc}") from exc
        self.in_dim, self.out_dim, self.cfg = n, k, cfg

    @classmethod
    def from_choi(cls, choi, in_dim: int, out_dim: int,
                  cfg: ToleranceConfig = DEFAULT_CONFIG) -> "Channel":
        """The channel whose normalized Choi matrix is `choi`. Positivity, the
        trace (taken before renormalizing) and the completeness of the Kraus
        family that `kraus` recovers are held to COMPLETENESS_TOL, not cfg."""
        J = assert_hermitian(choi)
        n, k = in_dim, out_dim
        if J.shape != (n * k, n * k):
            raise DimensionMismatch(f"Choi matrix shape {J.shape} does not "
                                    f"match dims ({n}, {k})")
        # n Tr_out J is the completeness sum of any Kraus family of J
        marginal = partial_trace(J, (n, k), 2)
        defect = n * float(np.abs(marginal - np.eye(n) / n).max())
        if defect > COMPLETENESS_TOL:
            raise NotCPTP(f"Kraus completeness defect {defect:.3e}")
        channel = cls.__new__(cls)
        channel._hold(J, n, k, cfg, factor=False)
        w = channel.choi.eigenvalues
        if w[-1] < -COMPLETENESS_TOL * max(w[0], 1.0):
            raise NotCPTP(f"Choi matrix has eigenvalue {w[-1]:.3e}")
        # the recovery drops the eigenvalues at or below rank_cutoff, which
        # moves its completeness sum by at most n times their weight; past
        # that bound, recover the family and measure it
        dropped = n * float(np.abs(w[w <= kernel_cutoff(w, cfg)]).sum())
        if defect + dropped > COMPLETENESS_TOL:
            _check_complete(channel.kraus, n)
        return channel

    @lazy
    def kraus(self) -> list[np.ndarray]:
        """sqrt(n mu) times each Choi eigenvector on its support, as k x n, ascending."""
        n, k = self.in_dim, self.out_dim
        w, V = self.choi.support(self.cfg)
        return [np.sqrt(n * mu) * v.reshape(n, k).T for mu, v in zip(w[::-1], V.T[::-1])]

    @classmethod
    def identity(cls, n: int, cfg: ToleranceConfig = DEFAULT_CONFIG) -> "Channel":
        return cls([np.eye(n)], cfg=cfg)

    @classmethod
    def unitary(cls, U, cfg: ToleranceConfig = DEFAULT_CONFIG) -> "Channel":
        return cls([np.asarray(U, dtype=complex)], cfg=cfg)

    @classmethod
    def depolarizing(cls, n: int, t: float,
                     cfg: ToleranceConfig = DEFAULT_CONFIG) -> "Channel":
        """Mixes the input with I/n: rho -> (1 - t) rho + t I/n."""
        check_mixing_weight(t)
        ident = to_choi([np.eye(n)], n, n)
        flat = np.eye(n * n) / (n * n)
        return cls.from_choi((1.0 - t) * ident + t * flat, n, n, cfg)

    @classmethod
    def random(cls, in_dim: int, out_dim: int, kraus_rank: int,
               rng=None, cfg: ToleranceConfig = DEFAULT_CONFIG) -> "Channel":
        """Haar-style random channel from an isometry into out x rank."""
        if in_dim < 1 or out_dim < 1:
            raise BadParameter(f"channel dims must be positive, got {in_dim} -> {out_dim}")
        if kraus_rank < 1:
            raise BadParameter("kraus_rank must be at least 1")
        if out_dim * kraus_rank < in_dim:
            raise BadParameter(
                f"no isometry from dim {in_dim} into {out_dim} x {kraus_rank}"
            )
        rng = np.random.default_rng(rng)
        G = rng.standard_normal((out_dim * kraus_rank, in_dim)) \
            + 1j * rng.standard_normal((out_dim * kraus_rank, in_dim))
        Q, _ = np.linalg.qr(G)
        kraus = [Q[a * out_dim:(a + 1) * out_dim, :] for a in range(kraus_rank)]
        return cls(kraus, in_dim, out_dim, cfg)

    def _apply_matrix(self, X: np.ndarray) -> np.ndarray:
        """Kraus action on an arbitrary square matrix (no state checks)."""
        X = np.asarray(X, dtype=complex)
        if X.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatch(f"input shape {X.shape} does not match "
                                    f"in_dim {self.in_dim}")
        return _kraus_sandwich(self.kraus, X)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self._apply_matrix(as_operator(rho).matrix), self.cfg)

    def __repr__(self):
        return (f"Channel(in_dim={self.in_dim}, out_dim={self.out_dim}, "
                f"choi_rank={rank_of(self.choi, self.cfg)})")


def _channel_pair(phi: Channel, psi: Channel) -> None:
    """The gate of every function that takes two channels of one shape."""
    if phi.in_dim != psi.in_dim or phi.out_dim != psi.out_dim:
        raise DimensionMismatch("channels have different dims")


def channel_compose(after: Channel, before: Channel,
                    cfg: ToleranceConfig = DEFAULT_CONFIG) -> Channel:
    """The composite running `before` first."""
    if before.out_dim != after.in_dim:
        raise DimensionMismatch("inner dimensions do not match")
    kraus = [A @ B for A in after.kraus for B in before.kraus]
    return Channel(kraus, before.in_dim, after.out_dim, cfg)


def channel_tensor(phi: Channel, psi: Channel,
                   cfg: ToleranceConfig = DEFAULT_CONFIG) -> Channel:
    kraus = [np.kron(K, L) for K in phi.kraus for L in psi.kraus]
    return Channel(kraus, phi.in_dim * psi.in_dim, phi.out_dim * psi.out_dim, cfg)


def channel_mix(phi: Channel, psi: Channel, t: float,
                cfg: ToleranceConfig = DEFAULT_CONFIG) -> Channel:
    """Convex mixture (1 - t) phi + t psi."""
    check_mixing_weight(t)
    _channel_pair(phi, psi)
    kraus = [np.sqrt(1.0 - t) * K for K in phi.kraus]
    kraus += [np.sqrt(t) * L for L in psi.kraus]
    return Channel(kraus, phi.in_dim, phi.out_dim, cfg)


def extended_output(channel: Channel, rho: DensityMatrix, m: int,
                    cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """Output of (id_m x channel) on a bipartite input state."""
    rho = as_operator(rho)
    if rho.dim != m * channel.in_dim:
        raise DimensionMismatch(f"input dim {rho.dim} is not "
                                f"{m} x {channel.in_dim}")
    eye = np.eye(m)
    lifted = [np.kron(eye, K) for K in channel.kraus]
    return DensityMatrix(_kraus_sandwich(lifted, rho.matrix), cfg)


def maximally_entangled(n: int, cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """The rank-one state on n x n with vector sum_i |ii> / sqrt(n)."""
    v = _vec(np.eye(n)) / np.sqrt(n)
    return DensityMatrix.pure(v, cfg)


def channel_qpe_leq(phi: Channel, psi: Channel,
                    cfg: ToleranceConfig = DEFAULT_CONFIG) -> OrderVerdict:
    """Positive-evidence order on channels: the order on their Choi states.

    `oracle.channel_order_oracle` decides the same question from the Kraus
    action alone, for tests and cross-checks.
    """
    _channel_pair(phi, psi)
    return qpe_leq(phi.choi, psi.choi, cfg)


@functools.cache
def _divergence():
    """The divergence module, imported on the first channel_max_divergence
    (the channel order needs none of it) and kept: an import statement there
    cost 1.4 us a call, more than the memo hit it guards. max_divergence is
    read off the module on each call, so a patch of it is seen. import_module,
    as `from . import divergence` asks the package's __getattr__ first, which
    loads all four lazy modules."""
    from importlib import import_module

    return import_module(f"{__package__}.divergence")


def channel_max_divergence(psi: Channel, phi: Channel,
                           cfg: ToleranceConfig = DEFAULT_CONFIG) -> DivergenceValue:
    """Worst-case max-divergence of outputs, equal to that of the Choi states.

    The supremum over (ancilla-extended) inputs is attained at the maximally
    entangled state.
    """
    _channel_pair(phi, psi)
    return _divergence().max_divergence(psi.choi, phi.choi, cfg)


def entanglement_fidelity(channel: Channel,
                          cfg: ToleranceConfig = DEFAULT_CONFIG,
                          ) -> tuple[float, DensityMatrix | None]:
    """Best overlap with the maximally entangled state over extended inputs.

    Equals the top eigenvalue of the Choi state. For square channels the
    attaining input is returned: the top Choi eigenvector with its factors
    swapped and conjugated, as a pure bipartite state.
    """
    value = float(top_eigenvalue(channel.choi))
    n, k = channel.in_dim, channel.out_dim
    if n != k:
        return value, None
    v = channel.choi.eigenvectors[:, 0]
    w = np.conj(v).reshape(n, n).T.reshape(-1)
    return value, DensityMatrix.pure(w, cfg)


def jamiolkowski_properties_check(
    phi1: Channel,
    phi2: Channel,
    xi_pre: Channel,
    xi_post: Channel,
    mix_with: Channel,
    t: float = 0.3,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> dict[str, float]:
    """Residuals for the structural identities of the channel-state map.

    Checks positivity and trace marginals of the Choi state, rank agreement
    with the Kraus family, the permutation identity for tensor products,
    linearity under mixing, and the transformation rule under pre- and
    post-composition. All residuals should sit at numerical noise.
    """
    if xi_pre.in_dim != xi_pre.out_dim or xi_pre.in_dim != phi1.in_dim:
        raise DimensionMismatch("pre-composition channel must be square on "
                                "the input space")
    if xi_post.in_dim != phi1.out_dim:
        raise DimensionMismatch("post-composition channel does not match "
                                "the output space")
    _channel_pair(mix_with, phi1)
    n, k = phi1.in_dim, phi1.out_dim
    J1 = phi1.choi.matrix
    out: dict[str, float] = {}
    out["cp_psd"] = float(max(0.0, -phi1.choi.eigenvalues[-1]))
    out["tp_trace"] = float(abs(J1.trace().real - 1.0))
    marginal = partial_trace(J1, (n, k), 2)
    out["tp_partial"] = float(np.abs(marginal - np.eye(n) / n).max())
    rebuilt = Channel.from_choi(J1, n, k, cfg)
    out["rank_match"] = float(abs(rank_of(phi1.choi, cfg) - len(rebuilt.kraus)))

    big = channel_tensor(phi1, phi2, cfg).choi.matrix
    # kron orders both indices as (n1 k1)(n2 k2); the tensor channel's Choi
    # matrix as (n1 n2)(k1 k2)
    glued = np.kron(J1, phi2.choi.matrix).reshape((n, k, phi2.in_dim, phi2.out_dim) * 2)
    glued = glued.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(big.shape)
    out["tensor_permute"] = float(np.abs(big - glued).max())

    mixed = channel_mix(phi1, mix_with, t, cfg).choi.matrix
    straight = (1.0 - t) * J1 + t * mix_with.choi.matrix
    out["mix_linear"] = float(np.abs(mixed - straight).max())

    sandwiched = channel_compose(xi_post, channel_compose(phi1, xi_pre, cfg), cfg)
    lifted_ops = [np.kron(A.T, B) for A in xi_pre.kraus for B in xi_post.kraus]
    transported = _kraus_sandwich(lifted_ops, J1)
    out["compose_transform"] = float(
        np.abs(sandwiched.choi.matrix - transported).max()
    )
    return out
