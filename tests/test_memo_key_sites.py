"""Pins the shape of every partner-memo key in src/qpe.

HermitianOperator._remember keeps one table per operator for four kinds of
pair result. Each call site's key must be a tuple literal whose first
element is a string tag no other site uses, followed only by
cfg.<field> for real ToleranceConfig fields: a reused tag would hand one
query another query's result type, and anything but a cfg field could not
be checked against what the computation reads (tests/test_spectrum_cache.py
checks that).
"""
from __future__ import annotations

import ast
import dataclasses
from collections import Counter

from ast_sites import modules
from qpe.config import ToleranceConfig

FIELDS = {f.name for f in dataclasses.fields(ToleranceConfig)}


def _keys(source: str, module: str) -> list[tuple[str, ast.expr]]:
    """(module, key expression) for each _remember(partner, key, compute) call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_remember"):
            key = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "key"), None)
            found.append((module, key))
    return found


def _problems(found) -> list[str]:
    """What is wrong with the keys found, as messages; empty when all is well."""
    problems, tags = [], Counter()
    for module, key in found:
        if not (isinstance(key, ast.Tuple) and key.elts
                and isinstance(key.elts[0], ast.Constant) and isinstance(key.elts[0].value, str)):
            problems.append(f"{module}: key is not a tuple literal led by a string tag")
            continue
        tag = key.elts[0].value
        tags[tag] += 1
        for elt in key.elts[1:]:
            if not (isinstance(elt, ast.Attribute) and isinstance(elt.value, ast.Name)
                    and elt.value.id == "cfg" and elt.attr in FIELDS):
                problems.append(f"{module}: {tag} key holds {ast.unparse(elt)}, "
                                "not a ToleranceConfig field of cfg")
    problems += [f"tag {tag} used at {n} call sites" for tag, n in tags.items() if n > 1]
    return problems


def test_memo_keys_are_tagged_tuples_of_cfg_fields():
    found = [site for module, source in modules() for site in _keys(source, module)]
    assert len(found) == 4
    assert _problems(found) == []


def test_guard_sees_bad_keys():
    source = (
        "def f(rho, sigma, cfg, key):\n"
        "    rho._remember(sigma, ('a', cfg.psd_slack), g)\n"
        "    rho._remember(sigma, ('a', cfg.rank_cutoff), g)\n"
        "    rho._remember(sigma, key, g)\n"
        "    rho._remember(sigma, ('b', cfg.slack), g)\n"
        "    rho._remember(sigma, ('c', tol), g)\n"
        "    rho._remember(sigma, compute=g, key=(cfg.log_base,))\n"
    )
    assert _problems(_keys(source, "m")) == [
        "m: key is not a tuple literal led by a string tag",
        "m: b key holds cfg.slack, not a ToleranceConfig field of cfg",
        "m: c key holds tol, not a ToleranceConfig field of cfg",
        "m: key is not a tuple literal led by a string tag",
        "tag a used at 2 call sites",
    ]
