"""Pins the shape of every partner-memo call in src/qpe.

linalg.remembered(a, b, key, compute, cfg) reads and fills the one table per
operator that holds four kinds of pair result, and it is the whole of each
query that uses it. Each call site's key must be cfg._<tag>_key, the key
ToleranceConfig builds for a tag of config.MEMO_READS, and each tag must
have exactly one call site: a key built anywhere else could leave out a
field the computation reads, and a reused tag would hand one query another
query's result type. MEMO_READS must name only real ToleranceConfig fields
and must equal what tests/test_spectrum_cache.py checks each entry reads.
Each site's compute argument must name a function defined at the top level
of its module, not a lambda or a def nested in the caller: either would
build a closure on every call, hits included.
"""
from __future__ import annotations

import ast
import dataclasses
import re
from collections import Counter

from ast_sites import modules
from qpe.config import MEMO_READS, ToleranceConfig
from test_spectrum_cache import READS

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


def _problems(found, table) -> list[str]:
    """What is wrong with the calls found against a table of tags and the
    fields each reads, as messages; empty when all is well."""
    problems, tags = [], Counter(dict.fromkeys(table, 0))
    for tag, reads in table.items():
        problems += [f"tag {tag} reads {name}, not a ToleranceConfig field"
                     for name in reads if name not in FIELDS]
    for module, key, compute, top_level in found:
        if not top_level:
            text = ast.unparse(compute) if compute is not None else "missing"
            problems.append(f"{module}: compute {text} is not a module-level function")
        match = (re.fullmatch(r"_(\w+)_key", key.attr)
                 if isinstance(key, ast.Attribute) and isinstance(key.value, ast.Name)
                 and key.value.id == "cfg" else None)
        if match is None or match[1] not in table:
            text = ast.unparse(key) if key is not None else "missing"
            problems.append(f"{module}: key {text} is not cfg._<tag>_key for a tag of MEMO_READS")
            continue
        tags[match[1]] += 1
    problems += [f"tag {tag} used at {n} call sites" for tag, n in tags.items() if n != 1]
    return problems


def test_memo_keys_are_the_configs_keys_one_site_per_tag():
    found = [site for module, source in modules() for site in _calls(source, module)]
    assert len(found) == 4
    assert _problems(found, MEMO_READS) == []


def test_memo_reads_are_what_each_entry_reads():
    assert {tag: set(reads) for tag, reads in MEMO_READS.items()} == READS


def test_guard_sees_bad_keys():
    source = (
        "def g(rho, sigma, cfg):\n"
        "    return rho\n"
        "def f(rho, sigma, cfg, key):\n"
        "    remembered(rho, sigma, cfg._a_key, g, cfg)\n"
        "    remembered(rho, sigma, cfg._a_key, g, cfg)\n"
        "    remembered(rho, sigma, key, g, cfg)\n"
        "    remembered(rho, sigma, ('b', cfg.psd_slack), g, cfg)\n"
        "    remembered(rho, sigma, other._b_key, g, cfg)\n"
        "    remembered(rho, sigma, cfg._z_key, g, cfg)\n"
        "    remembered(rho, sigma, compute=g, cfg=cfg)\n"
        "    remembered(rho, sigma, cfg._b_key, lambda a, b, c: g(a, b, c), cfg)\n"
        "    def h(a, b, c):\n"
        "        return g(a, b, c)\n"
        "    remembered(rho, sigma, cfg._b_key, h, cfg)\n"
        "    remembered(rho, sigma, cfg._b_key, undefined, cfg)\n"
        "def shadow(rho, sigma, cfg):\n"
        "    def g(a, b, c):\n"
        "        return a\n"
        "    remembered(rho, sigma, cfg._b_key, g, cfg)\n"
    )
    table = {"a": ("psd_slack",), "b": ("rank_cutoff", "slack"), "c": ("log_base",)}
    assert _problems(_calls(source, "m"), table) == [
        "tag b reads slack, not a ToleranceConfig field",
        "m: key key is not cfg._<tag>_key for a tag of MEMO_READS",
        "m: key ('b', cfg.psd_slack) is not cfg._<tag>_key for a tag of MEMO_READS",
        "m: key other._b_key is not cfg._<tag>_key for a tag of MEMO_READS",
        "m: key cfg._z_key is not cfg._<tag>_key for a tag of MEMO_READS",
        "m: key missing is not cfg._<tag>_key for a tag of MEMO_READS",
        "m: compute lambda a, b, c: g(a, b, c) is not a module-level function",
        "m: compute h is not a module-level function",
        "m: compute undefined is not a module-level function",
        "m: compute g is not a module-level function",
        "tag a used at 2 call sites",
        "tag b used at 4 call sites",
        "tag c used at 0 call sites",
    ]
