"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy: the library under test only ever receives
the raw complex ndarrays (and, for the CLI workload, JSON documents) built
here. The same seed always yields the same sequence of inputs.

Ordered pairs come from the two constructions the acceptance suite uses: the
image of an agreeing state-sandwich update, or a pull of the state toward
its own top eigenvector. Incomparable pairs are rejection-sampled with a
margin relative to top(rho) * top(sigma), so the margin means the same thing
at dim 2 and at dim 256 (an absolute margin would reject almost every draw
at large dims, where the raw slack itself is ~1e-4).
"""
from __future__ import annotations

import numpy as np

# relative margin: lambda_min(s+ R - r+ S) / (r+ s+) must be below -MARGIN
# in both directions for a pair to count as incomparable
INCOMPARABLE_MARGIN = 1e-2


def hermitize(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().T) / 2.0


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank G G^dagger / tr for a square complex Gaussian G."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = hermitize(G @ G.conj().T)
    return R / np.trace(R).real


def top_eigenvalue(A: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(A)[-1])


def relative_slack(R: np.ndarray, S: np.ndarray, r_top: float, s_top: float) -> float:
    """lambda_min(s+ R - r+ S) / (r+ s+): negative means R is not below S."""
    return float(np.linalg.eigvalsh(s_top * R - r_top * S)[0]) / (r_top * s_top)


def ordered_pair(rng: np.random.Generator, n: int):
    """(R, S, r_top, s_top) with R below S in the positive-evidence order."""
    R = random_state(rng, n)
    w, V = np.linalg.eigh(R)
    v = V[:, -1]
    if rng.random() < 0.5:
        # agreeing update: evidence with eigenvalue 1 on R's top eigenvector
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G[:, 0] = v
        Q, _ = np.linalg.qr(G)
        rest = Q[:, 1:]
        E = np.outer(v, v.conj()) + (rest * rng.uniform(0.05, 0.95, n - 1)) @ rest.conj().T
        half = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
        S = hermitize(half @ E @ half)
    else:
        s = rng.uniform(0.1, 0.9)
        S = hermitize((1.0 - s) * R + s * np.outer(v, v.conj()))
    S = S / np.trace(S).real
    return R, S, float(w[-1]), top_eigenvalue(S)


def incomparable_pair(rng: np.random.Generator, n: int):
    """(R, S, r_top, s_top) failing the order both ways by the relative margin."""
    while True:
        R = random_state(rng, n)
        S = random_state(rng, n)
        r_top, s_top = top_eigenvalue(R), top_eigenvalue(S)
        if (relative_slack(R, S, r_top, s_top) < -INCOMPARABLE_MARGIN
                and relative_slack(S, R, s_top, r_top) < -INCOMPARABLE_MARGIN):
            return R, S, r_top, s_top


def depolarized(S: np.ndarray, t: float) -> np.ndarray:
    n = S.shape[0]
    return (1.0 - t) * S + (t / n) * np.eye(n)


def random_kraus(rng: np.random.Generator, n: int, rank: int) -> list[np.ndarray]:
    """Kraus family of a random channel on dim n, cut from a random isometry."""
    G = rng.standard_normal((n * rank, n)) + 1j * rng.standard_normal((n * rank, n))
    Q, _ = np.linalg.qr(G)
    return [Q[a * n:(a + 1) * n, :] for a in range(rank)]


def depolarized_kraus(kraus: list[np.ndarray], t: float) -> list[np.ndarray]:
    """Kraus family of (1 - t) Phi + t (rho -> tr(rho) I/k)."""
    k, n = kraus[0].shape
    ops = [np.sqrt(1.0 - t) * K for K in kraus]
    for i in range(k):
        for j in range(n):
            unit = np.zeros((k, n), dtype=complex)
            unit[i, j] = np.sqrt(t / k)
            ops.append(unit)
    return ops


def choi_via_output(kraus: list[np.ndarray]) -> np.ndarray:
    """(id x Phi)(|Omega><Omega|) summed Kraus by Kraus, as an independent route."""
    k, n = kraus[0].shape
    omega = np.eye(n).reshape(-1) / np.sqrt(n)
    P = np.outer(omega, omega.conj())
    out = np.zeros((n * k, n * k), dtype=complex)
    for K in kraus:
        L = np.kron(np.eye(n), K)
        out += L @ P @ L.conj().T
    return hermitize(out)


def encode_matrix(M: np.ndarray) -> list:
    """JSON cells as [re, im] pairs; float repr round-trips exactly."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def state_doc(R: np.ndarray) -> dict:
    return {"kind": "state", "dims": [R.shape[0]], "entries": encode_matrix(R)}


def channel_doc(kraus: list[np.ndarray]) -> dict:
    k, n = kraus[0].shape
    return {"kind": "channel", "in_dim": n, "out_dim": k, "repr": "kraus",
            "data": [encode_matrix(K) for K in kraus]}
