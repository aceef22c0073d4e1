"""Pins the functions in src/qpe that may call the validating constructors.

DensityMatrix(...) and Effect(...) check outside input: the Hermitian
tolerance, a state's trace rule and the PSD band (and I - E's, for an
effect), and so do the classmethods that build through them
(DensityMatrix.pure, from_diag and maximally_mixed, Effect.identity and
from_diag). What the package computes from admitted operands is built by
HermitianOperator._derived at their band instead (tests/test_derived_sites.py
pins those sites), so a call of a validating constructor or classmethod is
allowed only where the matrix comes from outside, or where only that
constructor can hold the result to a state's rules, for the reason in each
site's comment; a new call anywhere else fails this test.
"""
from __future__ import annotations

import ast

from ast_sites import CallSites, package_sites, sites

NAMES = {"DensityMatrix", "Effect"}
CLASSMETHODS = {
    "DensityMatrix": {"pure", "from_diag", "maximally_mixed"},
    "Effect": {"identity", "from_diag"},
}

ALLOWED = {
    # a decoded document is outside input
    ("serialization", "decode_state"),
    ("serialization", "decode_effect"),
    # the classmethods build from a caller's numbers
    ("states", "DensityMatrix.maximally_mixed"),
    ("states", "DensityMatrix.from_diag"),
    ("states", "DensityMatrix.pure"),
    ("states", "Effect.identity"),
    ("states", "Effect.from_diag"),
    # a Kraus family is trace-preserving to COMPLETENESS_TOL (1e-8), which can
    # move the output's trace past TRACE_WARN (1e-9), and only the constructor
    # renormalizes that; the only a-priori positivity bound, n lambda_min(rho),
    # is n times looser than checking the output
    ("channels", "Channel.apply"),
    ("channels", "extended_output"),
    # the cross-check routes build their states independently of the package
    ("oracle", "choi_form_output"),
    ("oracle", "mixing_monotone_check"),
    ("oracle", "partial_trace_counterexample"),
}


class _Builds(CallSites):
    """CallSites that also records each call of a validating classmethod by
    its class's name (DensityMatrix.pure(...)), which runs the constructor."""

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.attr in CLASSMETHODS.get(f.value.id, ())):
            self.record()
        super().visit_Call(node)


def test_validating_constructors_only_at_allowed_sites():
    assert set(package_sites(lambda module: _Builds(module, NAMES))) == ALLOWED


def test_guard_sees_the_validating_classmethods():
    # the pure states channels once built through the constructor, beside
    # the derived build and a classmethod of another name
    source = (
        "def maximally_entangled(n, cfg):\n"
        "    return DensityMatrix.pure(v, cfg), DensityMatrix._derived(M, cfg)\n"
        "def f(E):\n"
        "    return Effect.identity(2), Effect.from_diag(w), Channel.identity(2)\n"
    )
    assert sites(source, _Builds("m", NAMES)) == [("m", "maximally_entangled"), ("m", "f"), ("m", "f")]


def test_guard_sees_direct_calls_and_cls_in_their_methods():
    source = (
        "def f(x):\n"
        "    return Effect(x), DensityMatrix._derived(x, cfg)\n"
        "class DensityMatrix:\n"
        "    @classmethod\n"
        "    def pure(cls, v):\n"
        "        return cls(v)\n"
        "class Channel:\n"
        "    @classmethod\n"
        "    def identity(cls, n):\n"
        "        return cls(n)\n"
        "build = DensityMatrix\n"
    )
    assert sites(source, CallSites("m", NAMES)) == [("m", "f"), ("m", "DensityMatrix.pure")]
