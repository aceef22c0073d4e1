"""Pins the functions in src/qpe that may solve a Hermitian eigenproblem or
a linear system.

Every Hermitian eigensolve goes through the eigensolver kernel,
linalg.hermitian_eigvals and hermitian_eig, and only the kernel and the
Cholesky kernel, linalg.cholesky_factors, call numpy's LAPACK gufuncs
(numpy.linalg._umath_linalg); no module calls a
numpy.linalg eigensolver. A matrix reaches its spectrum through
linalg.HermitianOperator, which solves once and caches the result. Each
kernel caller below is allowed for the reason in its comment; a new one
anywhere else in the package fails this test. fidelity and the sandwiched
Renyi divergences are not among them: they read the two operands' cached
eighs (HermitianOperator.support) and take singular values of a product of
them, with no inner matrix to solve. A linear solve or inverse is allowed
only in linalg.extreme_eigenvector's inverse iteration.
"""
from __future__ import annotations

from collections import Counter

from ast_sites import AttributeSites as _Sites, NameSites, package_sites, sites

EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}
KERNEL = {"hermitian_eigvals", "hermitian_eig"}
LINEAR_SOLVERS = {"solve", "inv"}

ALLOWED = {
    # the cache: the spectrum, solved on first read (validation reads it at
    # once), then the lazy eigenvectors, which also give a sandwich's fails
    # witness below linalg.SHIFTED_SOLVE_MIN_DIM
    ("linalg", "HermitianOperator.eigenvalues"),
    ("linalg", "HermitianOperator._eigh"),
    # the witness vector of a fails verdict on a one-shot matrix (an order
    # matrix that orders._order_verdict bands over a unit of the pair) below
    # linalg.SHIFTED_SOLVE_MIN_DIM, and on any matrix whose inverse
    # iteration did not settle
    ("linalg", "extreme_eigenvector"),
    # the one-shot order matrix of the three matrix predicates, each over
    # its unit of the pair, and of qpe_leq's fallback (unit 1) when
    # rho^-1/2 would amplify rounding into the band
    ("orders", "_order_verdict"),
    # the partner compressed to rho's kernel: its top eigenvector is the
    # direction a support escape runs along, and a fails witness
    ("states", "heaviest_kernel_direction"),
}


# the one witness primitive: inverse iteration at a known eigenvalue
ALLOWED_LINEAR_SOLVES = {("linalg", "extreme_eigenvector")}

# the import, and one gufunc call in each kernel function: the two
# eigensolvers and the factorization that validates a large state
LAPACK_GUFUNCS = {"_umath_linalg"}
ALLOWED_GUFUNC_SITES = {
    ("linalg", "<module>"),
    ("linalg", "hermitian_eigvals"),
    ("linalg", "hermitian_eig"),
    ("linalg", "cholesky_factors"),
}


class _KernelCalls(NameSites):
    """Each use of a kernel function. An import under its own name only
    binds it, and its uses are seen; an import that renames it is a use."""

    def __init__(self, module: str):
        super().__init__(module, KERNEL)

    def visit_ImportFrom(self, node):
        if any(alias.name in self.names and alias.asname not in (None, alias.name)
               for alias in node.names):
            self.record()


class _GufuncSites(NameSites):
    """Each use of the gufunc module, an import of it or from it included."""

    def __init__(self, module: str):
        super().__init__(module, LAPACK_GUFUNCS)

    def visit_Import(self, node):
        if any(set(alias.name.split(".")) & self.names for alias in node.names):
            self.record()

    def visit_ImportFrom(self, node):
        if set((node.module or "").split(".")) & self.names:
            self.record()
        else:
            super().visit_ImportFrom(node)


def _sites(source: str, module: str, names=EIGENSOLVERS) -> list[tuple[str, str]]:
    return sites(source, _Sites(module, names))


def _package_sites(names) -> Counter:
    return package_sites(lambda module: _Sites(module, names))


def test_eigensolves_only_at_allowed_sites():
    assert package_sites(_KernelCalls) == Counter(ALLOWED)


def test_no_numpy_eigensolver_outside_the_kernel():
    assert _package_sites(EIGENSOLVERS) == Counter()


def test_only_the_kernel_calls_the_lapack_gufuncs():
    assert package_sites(_GufuncSites) == Counter(ALLOWED_GUFUNC_SITES)


def test_linear_solves_only_in_the_witness_primitive():
    assert _package_sites(LINEAR_SOLVERS) == Counter(ALLOWED_LINEAR_SOLVES)


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


def test_kernel_guard_sees_calls_aliases_and_renaming_imports():
    source = (
        "from .linalg import hermitian_eig, hermitian_eigvals\n"
        "from .linalg import hermitian_eig as solve\n"
        "from . import linalg\n"
        "def hermitian_eigvals(H):\n"
        "    return H\n"
        "class A:\n"
        "    def f(self, x):\n"
        "        return hermitian_eig(x)[0]\n"
        "def g(x):\n"
        "    spectrum = hermitian_eigvals\n"
        "    return spectrum(x)\n"
        "def h(x):\n"
        "    return linalg.hermitian_eigvals(x)\n"
    )
    assert sites(source, _KernelCalls("m")) == [
        ("m", "<module>"), ("m", "A.f"), ("m", "g"), ("m", "h")]


def test_gufunc_guard_sees_every_import_form():
    source = (
        "from numpy.linalg import _umath_linalg\n"
        "import numpy.linalg._umath_linalg as lapack\n"
        "from numpy.linalg._umath_linalg import eigh_lo\n"
        "def f(H):\n"
        "    return _umath_linalg.eigh_lo(H)\n"
        "def g(H):\n"
        "    return np.linalg._umath_linalg.eigvalsh_lo(H)\n"
    )
    assert sites(source, _GufuncSites("m")) == [
        ("m", "<module>"), ("m", "<module>"), ("m", "<module>"), ("m", "f"), ("m", "g")]


def test_linear_solve_guard_sees_calls_aliases_and_imports():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import inv\n"
        "def f(a, b):\n"
        "    return np.linalg.solve(a, b)\n"
        "def g(a):\n"
        "    invert = np.linalg.inv\n"
        "    return invert(a) @ a\n"
    )
    assert _sites(source, "m", LINEAR_SOLVERS) == [("m", "<module>"), ("m", "f"), ("m", "g")]
