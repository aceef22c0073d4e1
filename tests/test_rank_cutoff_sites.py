"""Pins the one function in src/qpe that scales rank_cutoff into a cutoff.

Which eigenvalues count as zero decides the support condition of the order,
the generalized inverse, the infinite max-divergence and the Kraus family
recovered from a Choi state. linalg.kernel_cutoff is that rule; a product
with rank_cutoff anywhere else would be a second copy of it. Uses of
rank_cutoff as an absolute threshold (bayes, domain, the memo keys) do not
multiply it and stay allowed.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpe"
ALLOWED = {("linalg", "kernel_cutoff")}


class _Sites(ast.NodeVisitor):
    """Collects (module, qualified function name) for each product with rank_cutoff."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    @staticmethod
    def _is_cutoff(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "rank_cutoff"

    def _check(self, operands):
        if any(self._is_cutoff(x) for x in operands):
            self.found.append((self.module, ".".join(self.scope) or "<module>"))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Mult):
            self._check((node.left, node.right))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.Mult):
            self._check((node.target, node.value))
        self.generic_visit(node)


def _sites(source: str, module: str) -> list[tuple[str, str]]:
    visitor = _Sites(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_rank_cutoff_is_scaled_only_in_kernel_cutoff():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found.update(_sites(path.read_text(), path.stem))
    assert found == Counter(ALLOWED)


def test_guard_sees_products_on_either_side():
    source = (
        "def f(w, cfg):\n"
        "    return cfg.rank_cutoff * w[0]\n"
        "class C:\n"
        "    def g(self, w):\n"
        "        cut = max(w[0], 1e-300) * self.cfg.rank_cutoff\n"
        "        cut *= self.cfg.rank_cutoff\n"
        "        return w <= cfg.rank_cutoff, cfg.rank_cutoff ** 2\n"
    )
    assert _sites(source, "m") == [("m", "f"), ("m", "C.g"), ("m", "C.g")]
