"""Pins the functions in src/qpe that may call a numpy eigensolver.

A matrix reaches its spectrum through linalg.HermitianOperator, which solves
once and caches the result. Each site below is allowed for the reason in its
comment; a new eigensolve anywhere else in the package fails this test.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpe"
EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}

ALLOWED = {
    # the cache: the spectrum validation reads, then the lazy eigenvectors
    ("linalg", "HermitianOperator.__init__"),
    ("linalg", "HermitianOperator._eigh"),
    # the witness vector of a fails verdict
    ("linalg", "psd_verdict"),
    # the one-shot order matrix of the three matrix predicates, and of
    # qpe_leq's fallback when rho^-1/2 would amplify rounding into the band
    ("orders", "_order_verdict"),
    # the partner compressed to rho's kernel: its top eigenvector is the
    # direction a support escape runs along, and a fails witness
    ("states", "heaviest_kernel_direction"),
    # solve afresh on every call: the tests' reference for the cached routes
    ("linalg", "matrix_power"),
    ("linalg", "fidelity"),
    # the one-shot inner matrix, kept so printed values stay bit-identical
    ("divergence", "renyi_divergence"),
}


class _Sites(ast.NodeVisitor):
    """Collects (module, qualified function name) for each eigensolver use."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _record(self):
        self.found.append((self.module, ".".join(self.scope) or "<module>"))

    def visit_Attribute(self, node):
        if node.attr in EIGENSOLVERS:
            self._record()
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if any(alias.name in EIGENSOLVERS for alias in node.names):
            self._record()


def _sites(source: str, module: str) -> list[tuple[str, str]]:
    visitor = _Sites(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_eigensolves_only_at_allowed_sites():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found.update(_sites(path.read_text(), path.stem))
    assert found == Counter(ALLOWED)


def test_guard_sees_calls_aliases_and_imports():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "class A:\n"
        "    def f(self, x):\n"
        "        return np.linalg.eigh(x)\n"
        "def g(x):\n"
        "    solve = np.linalg.eig\n"
        "    return solve(x)\n"
    )
    assert _sites(source, "m") == [("m", "<module>"), ("m", "A.f"), ("m", "g")]
