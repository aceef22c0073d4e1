"""Pins NegativeEigenvalue to linalg's one PSD check of a raw operand.

A raw operand (a Hermitian array, or a bare HermitianOperator) is refused
past the PSD band by linalg._refuse_raw_non_psd, which the gates
operator_pair and psd_operand call on its eigvalsh, and matrix_power on
the eigh its power reads. A state or effect was validated when built, so
nothing checks its sign again (HermitianOperator.support is a plain
read), and no other site raises NegativeEigenvalue.
"""
from __future__ import annotations

import ast
from collections import Counter

from ast_sites import ScopedVisitor, package_sites, sites

NAME = "NegativeEigenvalue"
ALLOWED = Counter({("linalg", "_refuse_raw_non_psd"): 1})


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
