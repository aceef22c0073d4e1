"""Pins NegativeEigenvalue to linalg's one PSD check of a raw operand.

A raw operand (a Hermitian array, or a bare HermitianOperator) is refused
past the PSD band, and otherwise stamped with the call's cfg, by
linalg._admit_raw, which the gates operator_pair and psd_operand call on its
eigvalsh, and matrix_power on the eigh its power reads. A state or effect
was validated when built, so nothing checks its sign again
(HermitianOperator.support is a plain read), and no other site raises
NegativeEigenvalue.
"""
from __future__ import annotations

from collections import Counter

from ast_sites import RaiseSites, package_sites, sites

NAME = "NegativeEigenvalue"
ALLOWED = Counter({("linalg", "_admit_raw"): 1})


def test_only_linalg_psd_checks_raise_negative_eigenvalue():
    assert package_sites(lambda module: RaiseSites(module, NAME)) == ALLOWED


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
    assert sites(source, RaiseSites("m", NAME)) == [("m", "f"), ("m", "C.g")]
