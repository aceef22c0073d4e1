"""Pins the functions outside linalg that count a support on an eigvalsh.

An operator has two spectra: the cached eigvalsh (HermitianOperator.eigenvalues)
and the eigh's own eigenvalues (_eigh[0]), equal to the last bits, so at a
cutoff they can split an eigenvalue differently. Every kernel question is
asked of the eigh that kernel, support and power cut: states.rank_of counts
it, and orders.qpe_leq, the kernel obstruction of domain.way_below_witness
and the Choi rank that oracle and Channel.__repr__ report read it. So
linalg.rank is called on an eigvalsh spectrum (the attribute itself, or a
name bound from it in the same function) only where nothing is cut:

- divergence.renyi_entropy sums that same spectrum over its own count;
- orders.lev_leq reads the eigvalsh values for rho- and sigma- only when
  rank_of(rho) agrees with both counts;
- Channel.from_choi bounds the weight its Kraus recovery drops on the
  eigvalsh: a split moves that bound by about n 1e-17, against
  COMPLETENESS_TOL = 1e-8.

A new call anywhere else fails this test.
"""
from __future__ import annotations

import ast

from ast_sites import ScopedVisitor, package_sites, sites

ALLOWED = {
    ("divergence", "renyi_entropy"),
    ("orders", "lev_leq"),
    ("channels", "Channel.from_choi"),
}


class _RankOnEigenvalues(ScopedVisitor):
    """Records each call rank(w, ...) whose w is an .eigenvalues attribute or a
    name assigned from one (alone or in a tuple) in the same function."""

    def __init__(self, module: str):
        super().__init__(module)
        self.aliases: list[set[str]] = [set()]

    def _scoped(self, node):
        self.aliases.append(set())
        super()._scoped(node)
        self.aliases.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _is_spectrum(self, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.aliases[-1]
        return isinstance(node, ast.Attribute) and node.attr == "eigenvalues"

    def visit_Assign(self, node):
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if isinstance(name, ast.Name) and self._is_spectrum(value):
                    self.aliases[-1].add(name.id)
        self.generic_visit(node)

    def visit_Call(self, node):
        f = node.func
        called = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if called == "rank" and node.args and self._is_spectrum(node.args[0]):
            self.record()
        self.generic_visit(node)


def test_rank_counts_an_eigvalsh_only_where_nothing_is_cut():
    found = package_sites(_RankOnEigenvalues)
    assert {site for site in found if site[0] != "linalg"} == ALLOWED


def test_guard_sees_attributes_aliases_and_tuples():
    # rank_of and lev_leq's shortcut as they once counted, beside eigh reads
    source = (
        "def rank_of(rho, cfg):\n"
        "    return rank(as_operator(rho).eigenvalues, cfg)\n"
        "def lev_leq(r, s, cfg):\n"
        "    wr, ws = r.eigenvalues, s.eigenvalues\n"
        "    if not rank(wr, cfg) == linalg.rank(ws, cfg) == r.dim:\n"
        "        wr = r._eigh[0]\n"
        "def kernel(rho, cfg):\n"
        "    w, V = rho._eigh\n"
        "    return V[:, rank(w, cfg):], rank(rho._eigh[0], cfg)\n"
        "def other(w, cfg):\n"
        "    return rank(w, cfg)\n"
    )
    assert sites(source, _RankOnEigenvalues("m")) == [
        ("m", "rank_of"), ("m", "lev_leq"), ("m", "lev_leq")]
