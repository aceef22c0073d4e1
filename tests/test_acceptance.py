"""End-to-end checks of every shipped guarantee, one line of output each.

Every test prints ``ACCEPTANCE n PASS/FAIL`` with the measured margin before
asserting, so a full run reads as a checklist. Populations are built so each
verdict is decisive: ordered pairs come from update images or top-eigenvector
pulls, incomparable pairs from rejection sampling at a clear margin.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from qpe.bayes import (
    fls_update,
    random_agreeing_effect,
    reconstruct_effect,
)
from qpe.channels import (
    Channel,
    channel_max_divergence,
    channel_qpe_leq,
    extended_output,
    maximally_entangled,
    to_choi,
)
from qpe.config import ToleranceConfig
from qpe.divergence import (
    max_divergence,
    order_divergence_gap,
    povm_distinguishability_lower_bound,
    renyi_entropy,
)
from qpe.domain import depolarize, way_below_witness
from qpe.exceptions import NotBelow
from qpe.oracle import (
    ENTROPY_UP_THE_ORDER,
    ORDER_NOT_MAJORIZATION,
    channel_order_oracle,
    jamiolkowski_properties_check,
    measurement_monotone_check,
    mixing_monotone_check,
    partial_trace_counterexample,
    random_effect_lower_bound,
    shannon_entropy,
)
from qpe.orders import majorizes, qpe_leq
from qpe.states import DensityMatrix, min_entropy, random_state

CFG = ToleranceConfig()


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _median_runtime(fn, repeats: int = 201) -> float:
    for _ in range(50):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return float(np.median(samples))


def _agreeing_search_distance(rho: DensityMatrix, sigma: DensityMatrix,
                              rng: np.random.Generator,
                              trials: int = 100) -> float:
    """Closest any admissible agreeing effect's update gets to sigma.

    Agreeing effects are parameterized as a rank-one peak on the prior's top
    eigenvector plus an arbitrary contraction on the orthocomplement; the
    whole trial batch is evaluated in one einsum pass.
    """
    n = rho.dim
    v = rho.eigenvectors[:, 0]
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G[:, 0] = v
    Q, _ = np.linalg.qr(G)
    W = Q[:, 1:]
    q = rng.uniform(0.0, 1.0, size=(trials, n - 1))
    q[0] = 0.0
    q[1] = 1.0
    E = np.einsum("ia,ta,ja->tij", W, q, W.conj())
    E += np.outer(v, v.conj())[None, :, :]
    s = rho.power(0.5)
    S = np.einsum("ij,tjk,kl->til", s, E, s)
    traces = np.einsum("tii->t", S).real
    outs = S / traces[:, None, None]
    dists = np.abs(outs - sigma.matrix[None, :, :]).max(axis=(1, 2))
    return float(dists.min())


def test_criterion_01_order_without_majorization():
    x, y = ORDER_NOT_MAJORIZATION
    rho = DensityMatrix.from_diag(x)
    sigma = DensityMatrix.from_diag(y)
    verdict = qpe_leq(rho, sigma, CFG)
    facts = (verdict.holds and verdict.slack >= -1e-12
             and not majorizes(y, x) and not majorizes(x, y))
    median = _median_runtime(lambda: qpe_leq(rho, sigma, CFG))
    _report(1, facts and median < 1e-3,
            f"order holds (slack {verdict.slack:.1e}) while majorization "
            f"fails both ways; median call {median * 1e6:.0f} us")


def test_criterion_02_entropy_grows_up_the_order():
    x, y = ENTROPY_UP_THE_ORDER
    rho = DensityMatrix.from_diag(x)
    sigma = DensityMatrix.from_diag(y)
    verdict = qpe_leq(rho, sigma, CFG)
    s_low = renyi_entropy(rho, 1.0, CFG)
    s_high = renyi_entropy(sigma, 1.0, CFG)
    direct = (abs(s_low - shannon_entropy(x)) <= 1e-12
              and abs(s_high - shannon_entropy(y)) <= 1e-12)
    facts = verdict.holds and direct and s_low < s_high

    def call():
        qpe_leq(rho, sigma, CFG)
        renyi_entropy(rho, 1.0, CFG)
        renyi_entropy(sigma, 1.0, CFG)

    median = _median_runtime(call)
    _report(2, facts and median < 1e-3,
            f"order holds and entropy rises {s_low:.6f} -> {s_high:.6f}; "
            f"median call {median * 1e6:.0f} us")


def test_criterion_03_effect_reconstruction_round_trip(
        make_ordered_pair, make_incomparable_pair, rng):
    start = perf_counter()
    worst = 0.0
    for i in range(10_000):
        rho, sigma = make_ordered_pair(2 + i % 4)
        back = fls_update(rho, reconstruct_effect(rho, sigma, CFG), CFG)
        worst = max(worst, float(np.abs(back.matrix - sigma.matrix).max()))
    refused = 0
    search_min = np.inf
    for i in range(10_000):
        rho, sigma = make_incomparable_pair(2 + i % 4)
        try:
            reconstruct_effect(rho, sigma, CFG)
        except NotBelow:
            refused += 1
        search_min = min(search_min,
                         _agreeing_search_distance(rho, sigma, rng))
    elapsed = perf_counter() - start
    ok = (worst <= 1e-8 and refused == 10_000 and search_min > 1e-8
          and elapsed < 60.0)
    _report(3, ok,
            f"10^4 round trips reproduce the upper state to {worst:.1e}; "
            f"10^4 incomparable pairs all refused and 100-trial searches "
            f"stay {search_min:.1e} away; {elapsed:.1f} s")


def test_criterion_04_divergence_gap_characterizes_order(
        make_ordered_pair, make_incomparable_pair):
    start = perf_counter()
    min_gap = np.inf
    marginal = 0
    mismatches = 0
    for i in range(10_000):
        dim = 2 + i % 4
        if i % 2 == 0:
            rho, sigma = make_ordered_pair(dim)
        else:
            rho, sigma = make_incomparable_pair(dim)
        gap, verdict = order_divergence_gap(rho, sigma, CFG)
        if verdict.marginal:
            marginal += 1
            continue
        min_gap = min(min_gap, gap)
        if (gap < 1e-8) != verdict.holds:
            mismatches += 1
    elapsed = perf_counter() - start
    ok = (min_gap >= -1e-9 and mismatches == 0 and marginal <= 10
          and elapsed < 60.0)
    _report(4, ok,
            f"gap >= {min_gap:.1e} on 10^4 pairs, zero mismatches in the "
            f"gap<1e-8 <=> holds equivalence, {marginal} marginal excluded; "
            f"{elapsed:.1f} s")


def test_criterion_05_max_divergence_quasi_metric(rng):
    worst_neg = 0.0
    worst_self = 0.0
    min_distinct = np.inf
    worst_triangle = -np.inf
    for i in range(1000):
        dim = 2 + i % 3
        a = random_state(dim, rng=rng)
        b = random_state(dim, rng=rng)
        c = random_state(dim, rng=rng)
        dab = max_divergence(a, b, CFG).value
        dbc = max_divergence(b, c, CFG).value
        dac = max_divergence(a, c, CFG).value
        worst_neg = min(worst_neg, dab, dbc, dac)
        worst_self = max(worst_self, max_divergence(a, a, CFG).value)
        min_distinct = min(min_distinct, dab)
        worst_triangle = max(worst_triangle, dac - dab - dbc)
    x, y = ORDER_NOT_MAJORIZATION
    lo = DensityMatrix.from_diag(x)
    hi = DensityMatrix.from_diag(y)
    asym = abs(max_divergence(hi, lo, CFG).value
               - max_divergence(lo, hi, CFG).value)
    ok = (worst_neg >= -1e-8 and worst_self <= 1e-8 and min_distinct > 1e-8
          and worst_triangle <= 1e-8 and asym > 0.1)
    _report(5, ok,
            f"10^3 triples: self-divergence <= {worst_self:.1e}, triangle "
            f"slack <= {worst_triangle:.1e}, stored pair asymmetry {asym:.3f}")


def test_criterion_06_tensor_equivalence(make_ordered_pair,
                                         make_incomparable_pair):
    mismatches = 0
    worst_top = 0.0
    worst_min_entropy = 0.0
    for i in range(1000):
        dim = 2 if i < 500 else 3
        want = (i % 4 != 1, i % 4 != 2)
        pairs = []
        for w in want:
            if w:
                pairs.append(make_ordered_pair(dim))
            else:
                pairs.append(make_incomparable_pair(dim))
        (r1, s1), (r2, s2) = pairs
        left = qpe_leq(r1, s1, CFG)
        right = qpe_leq(r2, s2, CFG)
        rr = DensityMatrix(np.kron(r1.matrix, r2.matrix), CFG)
        ss = DensityMatrix(np.kron(s1.matrix, s2.matrix), CFG)
        joint = qpe_leq(rr, ss, CFG)
        if joint.holds != (left.holds and right.holds):
            mismatches += 1
        worst_top = max(worst_top, abs(ss.eigenvalues[0]
                                       - s1.eigenvalues[0] * s2.eigenvalues[0]))
        worst_min_entropy = max(
            worst_min_entropy,
            abs(min_entropy(rr, CFG) - min_entropy(r1, CFG)
                - min_entropy(r2, CFG)))
    ok = (mismatches == 0 and worst_top <= 1e-8
          and worst_min_entropy <= 1e-8)
    _report(6, ok,
            f"10^3 instances, both dims: joint verdict always matches the "
            f"conjunction; top-eigenvalue multiplicativity off by "
            f"{worst_top:.1e}")


def test_criterion_07_way_below_witnesses(rng):
    grid = np.linspace(0.01, 1.0, 10)
    certified = 0
    worst_t = 0.0
    for k in range(20):
        sigma = random_state(2 + k % 3, rng=rng)
        for t in grid:
            wit = way_below_witness(depolarize(sigma, float(t), CFG),
                                    sigma, CFG)
            if wit.certified:
                certified += 1
                worst_t = max(worst_t, abs(wit.t - t))
    kernel_hits = 0
    chain_clean = True
    for k in range(20):
        dim = 2 + k % 3
        rho = random_state(dim, rank=dim - 1 if dim > 2 else 1, rng=rng)
        v = rho.eigenvectors[:, 0]
        sigma = DensityMatrix(0.5 * rho.matrix
                              + 0.5 * np.outer(v, v.conj()), CFG)
        wit = way_below_witness(rho, sigma, CFG)
        if wit.verdict == "not_below" and wit.rule == "kernel-obstruction":
            kernel_hits += 1
        for step in range(1, 9):
            if qpe_leq(rho, depolarize(sigma, 1.0 / step, CFG), CFG).holds:
                chain_clean = False
    ok = (certified == 200 and worst_t <= 1e-6 and kernel_hits == 20
          and chain_clean)
    _report(7, ok,
            f"200/200 depolarized states certified (t recovered to "
            f"{worst_t:.1e}); 20/20 rank-deficient states refused, no chain "
            f"element above them")


def test_criterion_08_monotonicity_suite(make_ordered_pair, rng):
    depol_ok = 0
    for i in range(1000):
        rho, sigma = make_ordered_pair(2 + i % 3)
        t = 0.1 * (1 + i % 9)
        if qpe_leq(depolarize(rho, t, CFG), depolarize(sigma, t, CFG),
                   CFG).holds:
            depol_ok += 1
    mixing_ok = 0
    for i in range(1000):
        rho, sigma = make_ordered_pair(2 + i % 3)
        kappa = depolarize(rho, float(rng.uniform(0.1, 1.0)), CFG)
        if mixing_monotone_check(kappa, rho, sigma,
                                 float(rng.uniform(0.0, 1.0)), CFG):
            mixing_ok += 1
    measurement_ok = 0
    for i in range(1000):
        rho, sigma = make_ordered_pair(2 + i % 3)
        effect = random_agreeing_effect(sigma, rng)
        if measurement_monotone_check(rho, sigma, effect, CFG):
            measurement_ok += 1
    trace_broken = 0
    for n in (2, 3):
        for seed in range(10):
            if partial_trace_counterexample(n, seed=seed,
                                            cfg=CFG).monotone_broken:
                trace_broken += 1
    ok = (depol_ok == 1000 and mixing_ok == 1000 and measurement_ok == 1000
          and trace_broken == 20)
    _report(8, ok,
            f"depolarization {depol_ok}/1000, mixing {mixing_ok}/1000, "
            f"measurement {measurement_ok}/1000 preserved the order; "
            f"partial trace broke it at {trace_broken}/20 seeds")


def test_criterion_09_channel_suite(rng):
    start = perf_counter()
    exact = np.zeros((4, 4))
    exact[np.ix_([0, 3], [0, 3])] = 0.5
    identity_exact = np.array_equal(to_choi([np.eye(2)], 2, 2), exact)
    bottom = Channel.depolarizing(2, 1.0)
    bottom_choi = float(np.abs(bottom.choi.matrix - np.eye(4) / 4).max())
    below = 0
    oracle_agrees = 0
    for i in range(100):
        phi = Channel.random(2, 2, 1 + i % 4, rng)
        verdict = channel_qpe_leq(bottom, phi, CFG)
        if verdict.holds:
            below += 1
        if channel_order_oracle(bottom, phi, CFG).relation == verdict.relation:
            oracle_agrees += 1
    worst_route = 0.0
    m = maximally_entangled(2)
    for i in range(100):
        psi = Channel.random(2, 2, 1 + i % 4, rng)
        phi = Channel.random(2, 2, 4, rng)
        via_choi = channel_max_divergence(psi, phi, CFG).value
        via_out = max_divergence(extended_output(psi, m, 2),
                                 extended_output(phi, m, 2), CFG).value
        worst_route = max(worst_route, abs(via_choi - via_out))
    worst_residual = 0.0
    for i in range(100):
        out_dim = 2 + i % 2
        check = jamiolkowski_properties_check(
            Channel.random(2, out_dim, 2, rng),
            Channel.random(2, out_dim, 2, rng),
            Channel.random(2, 2, 2, rng),
            Channel.random(out_dim, 2, 2, rng),
            Channel.random(2, out_dim, 2, rng),
            t=0.3, cfg=CFG)
        worst_residual = max(worst_residual, max(check.values()))
    elapsed = perf_counter() - start
    ok = (identity_exact and bottom_choi <= 1e-12 and below == 100
          and oracle_agrees == 100 and worst_route <= 1e-8 and worst_residual <= 1e-8
          and elapsed < 120.0)
    _report(9, ok,
            f"identity Choi exact, bottom Choi off by {bottom_choi:.1e}, "
            f"bottom below 100/100 channels, matrix-unit oracle agrees on "
            f"{oracle_agrees}/100, divergence routes agree to "
            f"{worst_route:.1e}, structural residuals <= {worst_residual:.1e};"
            f" {elapsed:.1f} s")


def test_criterion_10_measurement_bound_attained(rng):
    worst_excess = -np.inf
    worst_gap = 0.0
    start = perf_counter()
    for i in range(1000):
        dim = 2 + i % 3
        rho = random_state(dim, rng=rng)
        sigma = random_state(dim, rng=rng)
        d = max_divergence(sigma, rho, CFG).value
        bound = povm_distinguishability_lower_bound(sigma, rho, CFG)
        searched = random_effect_lower_bound(sigma, rho, trials=16, seed=i)
        worst_excess = max(worst_excess, bound - d, searched - d)
        worst_gap = max(worst_gap, d - bound)
    elapsed = perf_counter() - start
    ok = worst_excess <= 1e-9 and worst_gap <= 1e-8
    _report(10, ok,
            f"single-measurement bound and 16 random effects never exceed "
            f"the divergence (excess <= {worst_excess:.1e}), the bound "
            f"attains it to {worst_gap:.1e} on 10^3 pairs; {elapsed:.1f} s")
