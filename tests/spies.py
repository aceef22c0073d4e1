"""Call counters on the package's own functions.

A module that does ``from .linalg import hermitian_eig`` binds its own name,
so a counter patched only where the function is defined misses its calls;
spying patches every binding in the package.
"""
from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock


@contextmanager
def spying(*fns):
    """One Mock(wraps=fn) per fn, patched under every name a qpe module binds
    fn to; yields the mocks in the order of fns."""
    spies = [mock.Mock(wraps=fn) for fn in fns]
    with ExitStack() as stack:
        for name, mod in list(sys.modules.items()):
            if name != "qpe" and not name.startswith("qpe."):
                continue
            for attr, value in list(vars(mod).items()):
                for fn, spy in zip(fns, spies):
                    if value is fn:
                        stack.enter_context(mock.patch.object(mod, attr, spy))
        yield spies
