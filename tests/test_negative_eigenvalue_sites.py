"""Pins NegativeEigenvalue to linalg's two PSD checks of an operator.

A raw operand (a Hermitian array, or a bare HermitianOperator) is refused
past the PSD band by the pair gate's helper, linalg._refuse_raw_non_psd,
which operator_pair and the single-operand entropies call;
HermitianOperator.support refuses a spectrum past it for the powers,
fidelity and a channel's Kraus family, which read its eigh. A state or
effect was validated when built, so no other module checks an operand's
sign again, and none raises NegativeEigenvalue.
"""
from __future__ import annotations

import ast
from collections import Counter

from ast_sites import ScopedVisitor, package_sites, sites

NAME = "NegativeEigenvalue"
ALLOWED = Counter({
    ("linalg", "HermitianOperator.support"): 1,
    ("linalg", "_refuse_raw_non_psd"): 1,
})


class _Sites(ScopedVisitor):
    """Collects (module, qualified name) for each raise of NegativeEigenvalue,
    called or not, by name or as an attribute."""

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if (isinstance(exc, ast.Name) and exc.id == NAME
                or isinstance(exc, ast.Attribute) and exc.attr == NAME):
            self.record()
        self.generic_visit(node)


def test_only_linalg_psd_checks_raise_negative_eigenvalue():
    assert package_sites(_Sites) == ALLOWED


def test_guard_sees_every_form_of_the_raise():
    source = (
        "def f(x):\n"
        "    raise NegativeEigenvalue('no')\n"
        "class C:\n"
        "    def g(self):\n"
        "        raise exceptions.NegativeEigenvalue\n"
        "def h():\n"
        "    raise ValueError('no') from NegativeEigenvalue('no')\n"
        "def k():\n"
        "    raise\n"
    )
    assert sites(source, _Sites("m")) == [("m", "f"), ("m", "C.g")]
