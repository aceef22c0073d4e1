"""The walk the AST pin tests share: every module of src/qpe, and the
visitors that record each finding under the qualified name of the function
or class it sits in: AttributeSites and NameSites for uses of a name,
RaiseSites for the raises of an exception, and CallSites for the direct calls
of a class."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpe"


def modules() -> list[tuple[str, str]]:
    """(module name, source) for each module of the package, in name order."""
    return [(path.stem, path.read_text()) for path in sorted(SRC.glob("*.py"))]


class ScopedVisitor(ast.NodeVisitor):
    """Tracks the enclosing classes and functions; record() appends
    (module, qualified name) to found, "<module>" at the top level."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def record(self):
        self.found.append((self.module, ".".join(self.scope) or "<module>"))


class AttributeSites(ScopedVisitor):
    """Records each use of an attribute named in names (np.linalg.eigh,
    w.clip) and each import of one of those names."""

    def __init__(self, module: str, names):
        super().__init__(module)
        self.names = names

    def visit_Attribute(self, node):
        if node.attr in self.names:
            self.record()
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if any(alias.name in self.names for alias in node.names):
            self.record()


class NameSites(AttributeSites):
    """AttributeSites that also records each use of a plain name in names:
    a call of it, a reference to it, or a binding of it."""

    def visit_Name(self, node):
        if node.id in self.names:
            self.record()


class RaiseSites(ScopedVisitor):
    """Records each raise of the exception called name, called or not, by
    name or as an attribute; a name given only as the cause (after from) is
    not its raise."""

    def __init__(self, module: str, name: str):
        super().__init__(module)
        self.name = name

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if (isinstance(exc, ast.Name) and exc.id == self.name
                or isinstance(exc, ast.Attribute) and exc.attr == self.name):
            self.record()
        self.generic_visit(node)


class CallSites(ScopedVisitor):
    """Records each direct call of a class named in names (DensityMatrix(...)),
    and each cls(...) in a method of such a class: the calls that run its
    constructor. A call of an attribute (DensityMatrix._derived) is not one."""

    def __init__(self, module: str, names):
        super().__init__(module)
        self.names = names

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and (
                node.func.id in self.names
                or node.func.id == "cls" and self.scope[:1] and self.scope[0] in self.names):
            self.record()
        self.generic_visit(node)


def sites(source: str, visitor: ScopedVisitor) -> list[tuple[str, str]]:
    """What visitor records on source, in source order."""
    visitor.visit(ast.parse(source))
    return visitor.found


def package_sites(make_visitor) -> Counter:
    """How often make_visitor(module) records each site across the package."""
    found = Counter()
    for module, source in modules():
        found.update(sites(source, make_visitor(module)))
    return found
