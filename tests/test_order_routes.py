"""qpe_leq decides the order on the sandwich; the order matrix is the check.

qpe_leq reads lambda_max of S = rho^-1/2 sigma rho^-1/2, the sandwich the
max-divergence reads, and reports the dimensionless slack
1 - rho+ lambda_max(S) / sigma+. oracle.qpe_order_oracle decides the same
relation on the least eigenvalue of sigma+ rho - rho+ sigma. The verdicts
must agree on the acceptance populations and on priors with an eigenvalue
anywhere from just above the kernel cutoff up to 1e-3 rho+, and every fails
witness u must give u* (sigma+ rho - rho+ sigma) u < 0, computed here in
plain numpy. The slack does not move with the dimension or under tensoring
both states with I/m, where the order matrix's least eigenvalue shrinks.
The order-divergence gap reads the verdict's slack, so it agrees with the
verdict also on near-kernel priors.
"""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qpe import (
    DensityMatrix,
    fls_update,
    order_divergence_gap,
    qpe_leq,
    qpe_order_oracle,
    random_agreeing_effect,
)
from qpe.config import ToleranceConfig
from qpe.linalg import random_unitary
from qpe.states import random_state, sandwich

# the verdict band is 1e-9 wide; a holds verdict means a gap below this
GAP_TOL = 1e-8


def _order_matrix(rho, sigma):
    return sigma.eigenvalues[0] * rho.matrix - rho.eigenvalues[0] * sigma.matrix


def _witness_form(verdict, rho, sigma) -> float:
    u = verdict.witness
    return float(np.vdot(u, _order_matrix(rho, sigma) @ u).real)


def _sandwich_slack(rho, sigma) -> float:
    """The slack off the sandwich, with rho+ read off the eigh that forms
    rho^-1/2, as qpe_leq reads it."""
    return 1.0 - float(rho._eigh[0][0]) * float(sandwich(rho, sigma).eigenvalues[0]) \
        / float(sigma.eigenvalues[0])


def test_acceptance_populations_agree_with_the_order_matrix(make_ordered_pair,
                                                            make_incomparable_pair):
    """Acceptance 04's 10^4 pairs: the same generators, seed and sequence."""
    relations = []
    for i in range(10_000):
        make = make_ordered_pair if i % 2 == 0 else make_incomparable_pair
        rho, sigma = make(2 + i % 4)
        got, want = qpe_leq(rho, sigma), qpe_order_oracle(rho, sigma)
        assert got.relation == want.relation, (i, got.slack, want.slack)
        # decided on the sandwich: the order-matrix fallback is not taken here
        assert got.slack == _sandwich_slack(rho, sigma)
        if got.fails:
            assert _witness_form(got, rho, sigma) < 0.0
        relations.append(got.relation)
    assert relations.count("holds") == relations.count("fails") == 5000


def _near_kernel_prior(n, floor, rng):
    """A full-rank dim-n state whose smallest eigenvalue is floor * rho+."""
    w = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
    w[-1] = floor * w[0]
    U = random_unitary(n, rng)
    return DensityMatrix((U * (w / w.sum())) @ U.conj().T)


def _partners(rho, rng):
    """Ordered partners (agreeing updates, one of them with a second
    eigenvalue of the evidence near 1, and a pull toward the top eigenvector)
    and an incomparable one (a random full-rank state)."""
    n = rho.dim
    v = rho.eigenvectors[:, 0]
    s = rng.uniform(0.1, 0.9)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = G @ G.conj().T
    return {
        "agreeing": fls_update(rho, random_agreeing_effect(rho, rng)),
        "near_boundary": fls_update(rho, random_agreeing_effect(rho, rng, low=1.0 - 1e-3, high=1.0)),
        "pulled_to_top": DensityMatrix((1.0 - s) * rho.matrix + s * np.outer(v, v.conj())),
        "random": DensityMatrix(M / np.trace(M).real),
    }


# kernel_cutoff is 1e-12 rho+, so the sweep starts just above it
FLOORS = np.logspace(np.log10(1.5e-12), -3, 10)


@pytest.mark.parametrize("floor", FLOORS)
def test_near_kernel_priors_agree_with_the_order_matrix(floor):
    rng = np.random.default_rng(int(-np.log10(floor) * 100))
    for trial in range(40):
        rho = _near_kernel_prior(2 + trial % 4, floor, rng)
        for kind, sigma in _partners(rho, rng).items():
            got, want = qpe_leq(rho, sigma), qpe_order_oracle(rho, sigma)
            assert got.relation == want.relation == ("fails" if kind == "random" else "holds"), \
                (kind, got.slack, want.slack)
            if got.fails:
                assert _witness_form(got, rho, sigma) < 0.0


def test_near_kernel_gap_agrees_with_the_verdict():
    """The gap is log(1 - slack) of the verdict it is paired with, so the two
    agree also where the rounding fallback decides: on agreeing updates of
    priors at the kernel cutoff's edge, by evidence whose second eigenvalue
    is near 1, a gap read off the sandwich alone reached 1.5e-5 on holding
    pairs."""
    rng = np.random.default_rng(5)
    for trial in range(400):
        rho = _near_kernel_prior(2 + trial % 4, 1.5e-12, rng)
        sigma = fls_update(rho, random_agreeing_effect(rho, rng, low=1.0 - 1e-3, high=1.0))
        gap, verdict = order_divergence_gap(rho, sigma)
        assert verdict.holds, (trial, verdict.slack)
        assert gap < GAP_TOL, (trial, gap)


def test_an_ill_conditioned_state_is_below_itself():
    """rho^-1/2 rho rho^-1/2 is the identity only up to rounding amplified by
    rho's condition number, here 1e12: the sandwich slack alone reads well
    past the fails edge, and the order-matrix fallback decides."""
    rng = np.random.default_rng(3)
    fell_back = 0
    for _ in range(20):
        rho = _near_kernel_prior(4, 1.5e-12, rng)
        twin = DensityMatrix(rho.matrix)
        fell_back += _sandwich_slack(rho, twin) < -1e-8
        assert qpe_leq(rho, twin).holds
        assert qpe_leq(rho, rho).holds
    assert fell_back >= 10


def _perturbed_uniform(n):
    """sigma = I/n, and rho with its first two diagonal entries scaled by 1 +- 1e-4."""
    sigma = np.full(n, 1.0 / n)
    rho = sigma.copy()
    rho[0] *= 1.0 + 1e-4
    rho[1] *= 1.0 - 1e-4
    return rho / rho.sum(), sigma


# 1 - rho+ max_i(sigma_i / rho_i) / sigma+ for that pair, at every n
PERTURBED_SLACK = 1.0 - (1.0 + 1e-4) / (1.0 - 1e-4)


@pytest.mark.parametrize("n", [3, 50, 1000])
def test_perturbed_uniform_pair_fails_alike_at_every_dimension(n):
    rho, sigma = (DensityMatrix.from_diag(d) for d in _perturbed_uniform(n))
    v = qpe_leq(rho, sigma)
    assert v.fails
    assert_allclose(v.slack, PERTURBED_SLACK, rtol=1e-9)
    assert _witness_form(v, rho, sigma) < 0.0


@pytest.mark.parametrize("m", [1, 10, 100, 300])
def test_tensoring_the_perturbed_pair_with_the_uniform_state_keeps_it_failing(m):
    bottom = np.eye(m) / m
    rho, sigma = (DensityMatrix(np.kron(np.diag(d), bottom)) for d in _perturbed_uniform(3))
    v = qpe_leq(rho, sigma)
    assert v.fails
    assert_allclose(v.slack, PERTURBED_SLACK, rtol=1e-9)
    assert _witness_form(v, rho, sigma) < 0.0


@pytest.mark.parametrize("n", [2, 4, 12, 40])
def test_a_state_is_below_itself_without_slack(n):
    """At psd_slack = 0 a sandwich slack a rounding below zero goes to the
    order matrix, which reads both tops off the eigvalsh spectrum: for a
    state against itself or an equal copy that matrix is zero, so the pair
    holds with slack 0, above the crossover, where rho's validation solves
    nothing, too."""
    cfg = ToleranceConfig(psd_slack=0.0)
    for seed in range(20):
        R = random_state(n, rng=np.random.default_rng(seed)).matrix.copy()
        rho = DensityMatrix(R, cfg)
        for sigma in (rho, DensityMatrix(R, cfg)):
            verdict = qpe_leq(rho, sigma, cfg)
            assert verdict.holds and verdict.slack >= 0.0, (seed, verdict.slack)
