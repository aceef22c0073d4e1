"""Pins the package's lazily computed attributes on linalg.lazy.

functools.cached_property takes, on Python 3.11, a lock shared by every
instance of the class on each first read, and the dims 2-5 pair op makes
about five such reads; linalg.lazy is the same descriptor without the
lock. No module of src/qpe names cached_property, in an import, a
decorator or an attribute.
"""
from __future__ import annotations

from collections import Counter

from ast_sites import NameSites, package_sites, sites

from qpe.channels import Channel
from qpe.linalg import HermitianOperator, lazy

NAME = "cached_property"


def test_no_cached_property_in_the_package():
    assert package_sites(lambda module: NameSites(module, {NAME})) == Counter()


def test_guard_sees_imports_decorators_and_attributes():
    source = (
        "import functools\n"
        "from functools import cached_property as cp\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def f(self):\n"
        "        return 1\n"
        "    @cached_property\n"
        "    def g(self):\n"
        "        return 2\n"
    )
    assert sites(source, NameSites("m", {NAME})) == [("m", "<module>"), ("m", "A.f"), ("m", "A.g")]


def test_the_cached_attributes_are_lazy():
    for cls, name in ((HermitianOperator, "eigenvalues"), (HermitianOperator, "_eigh"),
                      (Channel, "kraus")):
        assert isinstance(vars(cls)[name], lazy), name


def test_lazy_computes_once_and_an_assigned_value_shadows_it():
    calls = []

    class A:
        @lazy
        def x(self):
            """The doc."""
            calls.append(self)
            return [len(calls)]

    a, b = A(), A()
    assert a.x is a.x and a.x == [1] and calls == [a]
    b.x = "seeded"
    assert b.x == "seeded" and calls == [a]
    assert A.x is vars(A)["x"] and A.x.__doc__ == "The doc."
