"""Pins the one place in src/qpe that checks two operators against each
other, and the one that checks two channels.

A function that takes two operators puts them through linalg.operator_pair,
which converts a raw array with as_operator and raises one DimensionMismatch
for a pair of two dimensions by comparing len(x._matrix) of the two
operands, or through linalg.remembered, which gates through operator_pair
on a miss and compares nothing itself. A function that takes two channels
of one shape calls channels._channel_pair.
A comparison of one attribute (dim, shape, in_dim or out_dim), or of the
lengths of two matrices, read off two different objects anywhere else would
be another copy of that rule. The comparisons that remain are not operand
checks: subspace_intersects checks that two subspace bases live in one
space, and jamiolkowski_properties_check that a channel to be composed
before another is square on its input space.
"""
from __future__ import annotations

import ast

from ast_sites import ScopedVisitor, package_sites, sites

DIMENSIONS = {"dim", "shape", "in_dim", "out_dim"}
MATRICES = {"_matrix", "matrix"}
ALLOWED = {
    ("channels", "_channel_pair"),
    ("linalg", "operator_pair"),
    ("oracle", "jamiolkowski_properties_check"),
    ("states", "subspace_intersects"),
}


def _reads(node) -> list[tuple[str, tuple]] | None:
    """(object, path) for each dimension read in node: x.dim, x.shape[0],
    len(x._matrix), or a tuple of them; None when node is not made of such
    reads."""
    if isinstance(node, ast.Tuple):
        parts = [_reads(x) for x in node.elts]
        if not parts or None in parts:
            return None
        return [read for part in parts for read in part]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr in MATRICES):
        return [(ast.dump(node.args[0].value), ("len",))]
    index = ()
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        index, node = (node.slice.value,), node.value
    if isinstance(node, ast.Attribute) and node.attr in DIMENSIONS:
        return [(ast.dump(node.value), (node.attr, *index))]
    return None


class _Sites(ScopedVisitor):
    """Collects (module, qualified function name) for each comparison of the
    same dimension read off two different objects."""

    def visit_Compare(self, node):
        sides = [_reads(x) for x in (node.left, *node.comparators)]
        for left, right in zip(sides, sides[1:]):
            if (left and right and len(left) == len(right)
                    and all(a[1] == b[1] and a[0] != b[0] for a, b in zip(left, right))):
                self.record()
        self.generic_visit(node)


def _sites(source: str, module: str) -> list[tuple[str, str]]:
    return sites(source, _Sites(module))


def test_operand_pairs_are_compared_only_in_the_gates():
    assert set(package_sites(_Sites)) == ALLOWED


def test_guard_sees_every_form_of_a_pair_check():
    source = (
        "def f(rho, sigma):\n"
        "    if rho.dim != sigma.dim: raise DimensionMismatch\n"
        "class C:\n"
        "    def g(self, r, s, phi, psi):\n"
        "        return (r.matrix.shape != s.matrix.shape,\n"
        "                (phi.in_dim, phi.out_dim) != (psi.in_dim, psi.out_dim),\n"
        "                r.shape[0] == s.shape[0])\n"
        "def h(a, b, before, after):\n"
        "    return (a.in_dim != a.out_dim, before.out_dim != after.in_dim,\n"
        "            a.shape != (2, 2), a.dim == 2 * b.dim, a.shape[0] != b.shape[1],\n"
        "            len(a._matrix) == 2, len(a._matrix) != len(a._matrix),\n"
        "            len(a._matrix) != len(b.matrix), len(a) != len(b))\n"
        "def k(a, b):\n"
        "    if not (isinstance(a, H) and len(a._matrix) == len(b._matrix)):\n"
        "        a, b = operator_pair(a, b)\n"
    )
    assert _sites(source, "m") == [("m", "f")] + [("m", "C.g")] * 3 + [("m", "h"), ("m", "k")]
