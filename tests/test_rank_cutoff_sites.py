"""Pins the one function in src/qpe that scales rank_cutoff into a cutoff,
the few places that compare against it unscaled, and the few that clamp an
array at a bound.

Which eigenvalues count as zero decides the support condition of the order,
the generalized inverse, the infinite max-divergence, the Kraus family
recovered from a Choi state, and the supports that fidelity and the
sandwiched Renyi family sum over (HermitianOperator.support).
linalg.kernel_cutoff is that rule's scale; a product
with rank_cutoff anywhere else would be a second copy of it, and a
comparison against a bare rank_cutoff (directly, through a local name bound
to it, or raised to a power) would be a second, absolute rule. The absolute
thresholds that remain are not supports: bayes._conditioned's floor on a
Born probability and domain._way_below's floor on a squared distance. The
config's own check that cluster_width is at least rank_cutoff is the third
allowed comparison. The memo keys read rank_cutoff without comparing it.

linalg.rank is the one comparison of a spectrum with kernel_cutoff: the
support, the kernel, the full-rank tests and the least eigenvalue on the
support all read its count. The other callers of kernel_cutoff compare a
weight or a probability, not a spectrum: the weight of one operand on the
other's support (linalg._sandwiched_trace, states.escape_direction) and
the entries of a probability vector (orders.classical_pe_leq,
bayes.classical_solve_evidence).

A spectrum clamped at 0 and then kept where it is > 0 would be another
rule, which keeps every rounding eigenvalue and, under a fractional power,
turns one of about 1e-17 into about 3e-9. So np.maximum and np.clip (or a
.clip method) appear only where they clamp a probability, not a rank: the
entries of a probability vector and a state's spectrum read as one
(orders.as_probability_vector, orders.eigenvalue_shadow), and the evidence
of the classical update (bayes.classical_update, classical_solve_evidence).
"""
from __future__ import annotations

import ast
from collections import Counter

from ast_sites import AttributeSites, NameSites, ScopedVisitor, package_sites, sites

ALLOWED = {("linalg", "kernel_cutoff")}
CUTOFF_CALLS = Counter({
    # the spectral split
    ("linalg", "rank"): 1,
    # weights: each operand's on the other's support
    ("linalg", "_sandwiched_trace"): 2,
    ("states", "escape_direction"): 1,
    # probability vectors: x's support, and y's weight off it
    ("orders", "classical_pe_leq"): 2,
    ("bayes", "classical_solve_evidence"): 1,
    # the imports that bind the name for those three
    ("states", "<module>"): 1,
    ("orders", "<module>"): 1,
    ("bayes", "<module>"): 1,
})
ALLOWED_COMPARISONS = {
    ("bayes", "_conditioned"),
    ("domain", "_way_below"),
    ("config", "ToleranceConfig.__post_init__"),
}
CLAMPS = {"maximum", "clip"}
ALLOWED_CLAMPS = {
    ("orders", "as_probability_vector"),
    ("orders", "eigenvalue_shadow"),
    ("bayes", "classical_update"),
    ("bayes", "classical_solve_evidence"),
}


class _Sites(ScopedVisitor):
    """Collects (module, qualified function name) for each product with rank_cutoff."""

    @staticmethod
    def _is_cutoff(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "rank_cutoff"

    def _check(self, operands):
        if any(self._is_cutoff(x) for x in operands):
            self.record()

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Mult):
            self._check((node.left, node.right))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.Mult):
            self._check((node.target, node.value))
        self.generic_visit(node)


class _Comparisons(_Sites):
    """Collects (module, qualified function name) for each comparison with a
    bare rank_cutoff: the attribute itself, a name assigned from it in the
    same function, or either raised to a power."""

    def __init__(self, module: str):
        super().__init__(module)
        self.aliases: list[set[str]] = [set()]

    def _scoped(self, node):
        self.aliases.append(set())
        super()._scoped(node)
        self.aliases.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _is_cutoff(self, node) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return self._is_cutoff(node.left)
        if isinstance(node, ast.Name):
            return node.id in self.aliases[-1]
        return _Sites._is_cutoff(node)

    def visit_Assign(self, node):
        if self._is_cutoff(node.value):
            self.aliases[-1].update(t.id for t in node.targets if isinstance(t, ast.Name))
        self.generic_visit(node)

    def visit_Compare(self, node):
        self._check((node.left, *node.comparators))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        self.generic_visit(node)

    visit_AugAssign = visit_BinOp


def _sites(source: str, module: str, visitor=_Sites) -> list[tuple[str, str]]:
    return sites(source, visitor(module))


def test_rank_cutoff_is_scaled_only_in_kernel_cutoff():
    assert package_sites(_Sites) == Counter(ALLOWED)


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


def test_rank_cutoff_is_compared_bare_only_at_the_absolute_thresholds():
    assert set(package_sites(_Comparisons)) == ALLOWED_COMPARISONS


def test_comparison_guard_sees_aliases_and_powers():
    # an absolute support rule in the form classical_max_divergence once had
    source = (
        "def classical_max_divergence(xv, yv, cfg):\n"
        "    cutoff = cfg.rank_cutoff\n"
        "    if np.any((xv > cutoff) & (yv <= cutoff)):\n"
        "        return np.inf\n"
        "    live = xv > cutoff\n"
        "def g(d, cfg):\n"
        "    return d <= cfg.rank_cutoff ** 2, d <= kernel_cutoff(d, cfg)\n"
        "def h(cutoff, cfg):\n"
        "    return cutoff < 1.0, (cfg.rank_cutoff,)\n"
    )
    assert _sites(source, "m", _Comparisons) == [("m", "classical_max_divergence")] * 3 + [("m", "g")]


def test_only_rank_compares_a_spectrum_with_kernel_cutoff():
    assert package_sites(lambda module: NameSites(module, {"kernel_cutoff"})) == CUTOFF_CALLS


def test_cutoff_call_guard_sees_calls_references_and_imports():
    # the spectrum comparisons the kernel helpers once had, beside rank's own call
    source = (
        "from .linalg import kernel_cutoff, rank\n"
        "def kernel(op, cfg):\n"
        "    return op.eigenvectors[:, op.eigenvalues <= kernel_cutoff(op.eigenvalues, cfg)]\n"
        "class C:\n"
        "    def full(self, w):\n"
        "        cut = linalg.kernel_cutoff\n"
        "        return w[-1] > cut(w), rank(w) == len(w)\n"
    )
    assert sites(source, NameSites("m", {"kernel_cutoff"})) == [
        ("m", "<module>"), ("m", "kernel"), ("m", "C.full")]


def test_arrays_are_clamped_only_where_a_probability_is():
    assert set(package_sites(lambda module: AttributeSites(module, CLAMPS))) == ALLOWED_CLAMPS


def test_clamp_guard_sees_the_spectrum_clamp():
    # the rule the scalar spectral sums once had, beside an import and a method
    source = (
        "from numpy import clip\n"
        "def fidelity(w):\n"
        "    w = np.maximum(w, 0.0)\n"
        "    return np.sqrt(w[w > 0]).sum()\n"
        "class C:\n"
        "    def g(self, w):\n"
        "        return w.clip(0.0, None), max(w[0], 1e-300)\n"
    )
    assert sites(source, AttributeSites("m", CLAMPS)) == [
        ("m", "<module>"), ("m", "fidelity"), ("m", "C.g")]
