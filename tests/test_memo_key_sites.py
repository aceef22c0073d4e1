"""Pins the shape of every partner-memo call in src/qpe.

linalg.remembered(a, b, key, compute, cfg) reads and fills the one table per
operator that holds four kinds of pair result, and it is the whole of each
query that uses it. Each call site's key must be a tuple literal whose first
element is a string tag no other site uses, followed only by
cfg.<field> for real ToleranceConfig fields: a reused tag would hand one
query another query's result type, and anything but a cfg field could not
be checked against what the computation reads (tests/test_spectrum_cache.py
checks that). Each site's compute argument must name a function defined at
the top level of its module, not a lambda or a def nested in the caller:
either would build a closure on every call, hits included.
"""
from __future__ import annotations

import ast
import dataclasses
from collections import Counter

from ast_sites import modules
from qpe.config import ToleranceConfig

FIELDS = {f.name for f in dataclasses.fields(ToleranceConfig)}


def _argument(call: ast.Call, position: int, name: str) -> ast.expr | None:
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _bound(scope: ast.AST) -> set[str]:
    """The names a top-level function or class binds anywhere inside it:
    parameters, nested defs and assignment targets."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not scope:
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _calls(source: str, module: str) -> list[tuple[str, ast.expr, ast.expr, bool]]:
    """(module, key expression, compute expression, whether compute names a
    module-level function) for each remembered(a, b, key, compute, cfg)
    call."""
    tree = ast.parse(source)
    functions = {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for scope in tree.body:
        local = _bound(scope)
        for node in ast.walk(scope):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "remembered"):
                compute = _argument(node, 3, "compute")
                top_level = (isinstance(compute, ast.Name) and compute.id in functions
                             and compute.id not in local)
                found.append((module, _argument(node, 2, "key"), compute, top_level))
    return found


def _problems(found) -> list[str]:
    """What is wrong with the calls found, as messages; empty when all is well."""
    problems, tags = [], Counter()
    for module, key, compute, top_level in found:
        if not top_level:
            text = ast.unparse(compute) if compute is not None else "missing"
            problems.append(f"{module}: compute {text} is not a module-level function")
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
    found = [site for module, source in modules() for site in _calls(source, module)]
    assert len(found) == 4
    assert _problems(found) == []


def test_guard_sees_bad_keys():
    source = (
        "def g(rho, sigma, cfg):\n"
        "    return rho\n"
        "def f(rho, sigma, cfg, key):\n"
        "    remembered(rho, sigma, ('a', cfg.psd_slack), g, cfg)\n"
        "    remembered(rho, sigma, ('a', cfg.rank_cutoff), g, cfg)\n"
        "    remembered(rho, sigma, key, g, cfg)\n"
        "    remembered(rho, sigma, ('b', cfg.slack), g, cfg)\n"
        "    remembered(rho, sigma, ('c', tol), g, cfg)\n"
        "    remembered(rho, sigma, compute=g, key=(cfg.log_base,), cfg=cfg)\n"
        "    remembered(rho, sigma, ('d', cfg.log_base), lambda a, b, c: g(a, b, c), cfg)\n"
        "    def h(a, b, c):\n"
        "        return g(a, b, c)\n"
        "    remembered(rho, sigma, ('e', cfg.log_base), h, cfg)\n"
        "    remembered(rho, sigma, ('f', cfg.log_base), undefined, cfg)\n"
        "def shadow(rho, sigma, cfg):\n"
        "    def g(a, b, c):\n"
        "        return a\n"
        "    remembered(rho, sigma, ('g', cfg.log_base), g, cfg)\n"
    )
    assert _problems(_calls(source, "m")) == [
        "m: key is not a tuple literal led by a string tag",
        "m: b key holds cfg.slack, not a ToleranceConfig field of cfg",
        "m: c key holds tol, not a ToleranceConfig field of cfg",
        "m: key is not a tuple literal led by a string tag",
        "m: compute lambda a, b, c: g(a, b, c) is not a module-level function",
        "m: compute h is not a module-level function",
        "m: compute undefined is not a module-level function",
        "m: compute g is not a module-level function",
        "tag a used at 2 call sites",
    ]
