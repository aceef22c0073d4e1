"""Pins PreconditionViolated to oracle's claim checks.

A claim check refuses an input that does not meet the claim's hypothesis
(an unordered pair, evidence that does not agree with the upper state) with
PreconditionViolated. The decision modules decide their relations on any
valid input and raise other errors, so no module but oracle raises it.
"""
from __future__ import annotations

from collections import Counter

from ast_sites import RaiseSites, package_sites, sites

NAME = "PreconditionViolated"
ALLOWED = Counter({
    ("oracle", "_order_preserved"): 1,
    ("oracle", "mixing_monotone_check"): 1,
    ("oracle", "measurement_monotone_check"): 1,
})


def test_only_the_claim_checks_raise_precondition_violated():
    assert package_sites(lambda module: RaiseSites(module, NAME)) == ALLOWED


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
    assert sites(source, RaiseSites("m", NAME)) == [("m", "f"), ("m", "C.g")]
