"""Pins the functions in src/qpe that may build a state or effect with
HermitianOperator._derived.

_derived is the one constructor of what the package computes from operands
a gate or a constructor admitted. It folds its matrix to exactly Hermitian,
records the band the operands were admitted under, and checks one number:
a lower bound on the result's least eigenvalue that the caller already
holds, against that band. It checks no Hermitian tolerance and no trace. So
it may build only a result whose trace (for a state) and positivity follow
from how it was computed, for the reason in each site's comment; a site that
takes outside numbers (a decoded document, a caller's matrix or eigenvalues)
must use the validating constructor (tests/test_validating_sites.py pins
those), and a new call anywhere else fails this test.

states._unit_trace is a state's trace rule alone, on a matrix that
assert_hermitian already returned; a state built on it without the
constructor's PSD check must have its positivity from elsewhere, so
TRACE_ALLOWED pins its callers the same way.
"""
from __future__ import annotations

from collections import Counter

from ast_sites import NameSites, package_sites, sites

ALLOWED = {
    # outer^1/2 inner outer^1/2 / tr: of unit trace by the division, with
    # least eigenvalue at least min(lambda_min(inner), 0) outer+ / tr, banded
    # where inner was admitted (both updates)
    ("bayes", "_conditioned"),
    # the sandwich rho^-1/2 sigma rho^-1/2 over its norm, seeded with the
    # sandwich's spectrum over that norm, whose least eigenvalue is banded
    # where sigma was admitted; the top is 1
    ("bayes", "reconstruct_effect"),
    # the candidate X X^dagger over its norm: PSD by construction, seeded
    # with the candidate's spectrum over that norm, whose top is 1
    ("bayes", "sequential_solve_effect"),
    # v v^dagger plus a spectrum drawn in [low, high], or a projector: the
    # spectrum lies in {1} and [low, high] by construction
    ("bayes", "random_agreeing_effect"),
    # (1 - t) rho + t I/n: of unit trace, with least eigenvalue at least
    # (1 - t) lambda_min(rho), so in rho's band by construction
    ("domain", "depolarize"),
    # G G^dagger + 0.05 I over its trace: the transitivity demo's own draw
    ("oracle", "_random_full_rank"),
    # G G^dagger over its trace: the package's own draw
    ("states", "random_state"),
    # a Kraus family's Choi matrix: PSD by construction (Choi's theorem),
    # through assert_hermitian and the trace rule
    ("channels", "Channel.__init__"),
    # a Choi matrix through assert_hermitian and the trace rule, whose
    # positivity from_choi holds to COMPLETENESS_TOL on the spectrum next
    ("channels", "Channel.from_choi"),
    # the projector onto a vector over its norm: a pure state by construction
    ("channels", "maximally_entangled"),
    ("channels", "entanglement_fidelity"),
}

TRACE_ALLOWED = {
    # the constructor, on assert_hermitian(matrix), before its PSD check
    ("states", "DensityMatrix.__init__"),
    # the two Choi states above
    ("channels", "Channel.__init__"),
    ("channels", "Channel.from_choi"),
    # a raw rho, which psd_operand banded, before depolarize mixes it
    ("domain", "depolarize"),
    # the imports that bind the name in channels and domain
    ("channels", "<module>"),
    ("domain", "<module>"),
}


def test_derived_builds_only_at_allowed_sites():
    assert package_sites(lambda module: NameSites(module, {"_derived"})) == Counter(ALLOWED)


def test_state_trace_rule_alone_only_at_allowed_sites():
    found = package_sites(lambda module: NameSites(module, {"_unit_trace"}))
    assert found == Counter(TRACE_ALLOWED)


def test_guard_sees_calls_and_references():
    source = (
        "def decode_state(obj):\n"
        "    return DensityMatrix._derived(obj)\n"
        "class A:\n"
        "    @classmethod\n"
        "    def _derived(cls, A):\n"
        "        return cls.__new__(cls)\n"
        "    def f(self, x):\n"
        "        build = type(self)._derived if x else None\n"
        "        return build\n"
    )
    assert sites(source, NameSites("m", {"_derived"})) == [("m", "decode_state"), ("m", "A.f")]


def test_guard_sees_plain_names_and_their_imports():
    source = (
        "from .states import _unit_trace as trace_rule\n"
        "def f(H):\n"
        "    return trace_rule(H)\n"
        "def g(H):\n"
        "    return _unit_trace(H)\n"
        "class C:\n"
        "    rule = staticmethod(_unit_trace)\n"
    )
    assert sites(source, NameSites("m", {"_unit_trace"})) == [
        ("m", "<module>"), ("m", "g"), ("m", "C")]
