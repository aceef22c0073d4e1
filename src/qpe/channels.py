"""Quantum channels, their Choi states, and the induced order.

A channel is the state it maps the maximally entangled input to (its
normalized Choi matrix), checked once by the channel's own rules, not cfg's
band: a Kraus family's is PSD by construction, and from_choi holds a
matrix's positivity to COMPLETENESS_TOL. The order on channels is
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
from .exceptions import BadParameter, DimensionMismatch, NotCPTP
from .linalg import (OrderVerdict, assert_hermitian, check_mixing_weight, lazy, partial_trace,
                     psd_operand, rank)
from .orders import qpe_leq
from .states import DensityMatrix, _unit_trace, rank_of, top_eigenvalue

if TYPE_CHECKING:
    from .divergence import DivergenceValue

COMPLETENESS_TOL = 1e-8


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
        w = np.asarray(K, dtype=complex).T.reshape(-1)
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
        # PSD by construction (Choi's theorem): only the Hermitian check, the
        # one NaN guard (a NaN defect passes _check_complete), and the trace
        J = _unit_trace(assert_hermitian(to_choi(ops, n, k)))
        self.choi = DensityMatrix._derived(J, DEFAULT_CONFIG)
        self.in_dim, self.out_dim, self.cfg = n, k, cfg

    @classmethod
    def from_choi(cls, choi, in_dim: int, out_dim: int,
                  cfg: ToleranceConfig = DEFAULT_CONFIG) -> "Channel":
        """The channel whose normalized Choi matrix is `choi`. Positivity, the
        trace (taken before renormalizing) and the completeness of the Kraus
        family that `kraus` recovers are held to COMPLETENESS_TOL, not cfg;
        cfg's rank_cutoff only sets which eigenvalues that family drops."""
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
        channel.choi = DensityMatrix._derived(_unit_trace(J), DEFAULT_CONFIG)
        channel.in_dim, channel.out_dim, channel.cfg = n, k, cfg
        w = channel.choi.eigenvalues
        if w[-1] < -COMPLETENESS_TOL * max(w[0], 1.0):
            raise NotCPTP("Choi matrix is not a state: not positive semidefinite "
                          f"(lambda_min = {w[-1]:.3e})")
        # the recovery drops the eigenvalues at or below rank_cutoff, moving its
        # completeness sum by at most n times their weight, here on the eigvalsh
        # (an eigh's other split moves that by ~n 1e-17); past it, measure the family
        dropped = n * float(np.abs(w[rank(w, cfg):]).sum())
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
        return DensityMatrix(self._apply_matrix(psd_operand(rho, self.cfg).matrix), self.cfg)

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
    rho = psd_operand(rho, cfg)
    if rho.dim != m * channel.in_dim:
        raise DimensionMismatch(f"input dim {rho.dim} is not "
                                f"{m} x {channel.in_dim}")
    eye = np.eye(m)
    lifted = [np.kron(eye, K) for K in channel.kraus]
    return DensityMatrix(_kraus_sandwich(lifted, rho.matrix), cfg)


def maximally_entangled(n: int, cfg: ToleranceConfig = DEFAULT_CONFIG) -> DensityMatrix:
    """The rank-one state on n x n with vector sum_i |ii> / sqrt(n)."""
    v = np.asarray(np.eye(n).reshape(-1) / np.sqrt(n), dtype=complex)
    v = v / np.linalg.norm(v)  # as DensityMatrix.pure normalizes it, so bit for bit
    return DensityMatrix._derived(np.outer(v, v.conj()), cfg)


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
    swapped and conjugated, as a pure bipartite state built as maximally_entangled's.
    """
    value = float(top_eigenvalue(channel.choi))
    n, k = channel.in_dim, channel.out_dim
    if n != k:
        return value, None
    w = np.conj(channel.choi.eigenvectors[:, 0]).reshape(n, n).T.reshape(-1)
    w = w / np.linalg.norm(w)
    return value, DensityMatrix._derived(np.outer(w, w.conj()), cfg)
