"""Pins PreconditionViolated to oracle's claim checks.

A claim check refuses an input that does not meet the claim's hypothesis
(an unordered pair, evidence that does not agree with the upper state) with
PreconditionViolated. The decision modules decide their relations on any
valid input and raise other errors, so no module but oracle raises it.
"""
from __future__ import annotations

import ast
from collections import Counter

from ast_sites import ScopedVisitor, package_sites, sites

NAME = "PreconditionViolated"
ALLOWED = Counter({
    ("oracle", "_order_preserved"): 1,
    ("oracle", "mixing_monotone_check"): 1,
    ("oracle", "measurement_monotone_check"): 1,
})


class _Sites(ScopedVisitor):
    """Collects (module, qualified name) for each raise of PreconditionViolated,
    called or not, by name or as an attribute."""

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if (isinstance(exc, ast.Name) and exc.id == NAME
                or isinstance(exc, ast.Attribute) and exc.attr == NAME):
            self.record()
        self.generic_visit(node)


def test_only_the_claim_checks_raise_precondition_violated():
    assert package_sites(_Sites) == ALLOWED


def test_guard_sees_every_form_of_the_raise():
    source = (
        "def f(x):\n"
        "    raise PreconditionViolated('no')\n"
        "class C:\n"
        "    def g(self):\n"
        "        raise exceptions.PreconditionViolated\n"
        "def h():\n"
        "    raise ValueError('no') from PreconditionViolated('no')\n"
        "def k():\n"
        "    raise\n"
    )
    assert sites(source, _Sites("m")) == [("m", "f"), ("m", "C.g")]
