"""In-memory span tracer for the layers of the qpe package.

install() wraps every public function of each qpe module under every name
it is bound to (``from .linalg import is_psd`` binds a separate name in each
importing module, so patching only the defining module would miss most
calls), the constructors of DensityMatrix, Effect and Channel, and the
numpy eigensolvers ``eigh``, ``eigvalsh`` and ``svd`` as the floor layer.
Wrappers only record while an op is open (``begin_op``/``end_op``); input
generation and output checks run untraced.

A span is (name id, parent span index, start ns, end ns, op index). Spans
are kept in a flat int64 array up to SPAN_CAP spans (``span_table``);
per-name call counts, inclusive and self times, and inclusive time per
(caller, callee) pair are aggregated for every call regardless of the cap.
"""
from __future__ import annotations

import gc
import inspect
import sys
import weakref
from array import array
from time import perf_counter_ns

LAYERS = ("linalg", "states", "orders", "bayes", "divergence", "domain",
          "channels", "serialization", "cli")
CONSTRUCTORS = (("states", "DensityMatrix"), ("states", "Effect"),
                ("channels", "Channel"))
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")
SPAN_FIELDS = ("name", "parent", "start_ns", "end_ns", "op")
SPAN_CAP = 100_000

# frame slots: name id, start ns, ns covered by children, span index,
# first argument is a built state's matrix
_NAME, _START, _CHILD, _SPAN, _ON_STATE = range(5)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.pair_ns: dict[tuple[int, int], int] = {}
        self.spans = array("q")
        self.spans_dropped = 0
        self.stack: list[list] = []
        self.active = False
        self.op = -1
        self.ops = 0
        self.op_ns = 0
        self.orphan_eigensolves = 0
        self.recomputed_spectra = 0
        self._op_start = 0
        self._matrices: dict[int, weakref.ref] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- op scope -----------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.active = True
        self._op_start = perf_counter_ns()

    def end_op(self) -> None:
        self.op_ns += perf_counter_ns() - self._op_start
        self.active = False
        self.ops += 1
        self.stack.clear()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _is_state_matrix(self, a) -> bool:
        ref = self._matrices.get(id(a))
        return ref is not None and ref() is a

    def _register_state(self, obj) -> None:
        a = getattr(obj, "_matrix", None)
        if a is None:
            return
        key = id(a)
        matrices = self._matrices
        matrices[key] = weakref.ref(a, lambda _r: matrices.pop(key, None))

    def _enter(self, nid: int, on_state: bool) -> list:
        stack = self.stack
        parent = stack[-1][_SPAN] if stack else -1
        spans = self.spans
        index = len(spans) // 5
        if index < SPAN_CAP:
            spans.extend((nid, parent, 0, 0, self.op))
        else:
            index = -1
            self.spans_dropped += 1
        frame = [nid, 0, 0, index, on_state]
        stack.append(frame)
        frame[_START] = perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        nid = frame[_NAME]
        dur = end - frame[_START]
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - frame[_CHILD]
        if frame[_SPAN] >= 0:
            base = frame[_SPAN] * 5
            self.spans[base + 2] = frame[_START]
            self.spans[base + 3] = end
        if stack:
            caller = stack[-1]
            caller[_CHILD] += dur
            key = (caller[_NAME], nid)
            self.pair_ns[key] = self.pair_ns.get(key, 0) + dur

    def _library_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            on_state = bool(args) and tracer._is_state_matrix(args[0])
            frame = tracer._enter(nid, on_state)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _constructor_wrapper(self, name: str, init):
        nid = self._name_id(name)
        tracer = self

        def traced_init(obj, *args, **kwargs):
            if tracer.active:
                frame = tracer._enter(nid, False)
                try:
                    init(obj, *args, **kwargs)
                finally:
                    tracer._exit(frame)
            else:
                init(obj, *args, **kwargs)
            tracer._register_state(obj)

        return traced_init

    def _numpy_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        def traced(a, *args, **kwargs):
            if not tracer.active:
                return fn(a, *args, **kwargs)
            stack = tracer.stack
            if not stack:
                tracer.orphan_eigensolves += 1
            elif stack[-1][_ON_STATE] or tracer._is_state_matrix(a):
                tracer.recomputed_spectra += 1
            frame = tracer._enter(nid, False)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy as np

        modules = {layer: sys.modules[f"qpe.{layer}"] for layer in LAYERS
                   if f"qpe.{layer}" in sys.modules}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not fname.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._library_wrapper(f"{layer}.{fname}", fn)
        # every module of the package, the package itself included, may hold
        # its own binding of a wrapped function
        holders = [m for name, m in sys.modules.items()
                   if (name == "qpe" or name.startswith("qpe.")) and m is not None]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(mod, attr, wrapped[id(value)])
        state_types = []
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "__init__",
                        self._constructor_wrapper(f"{layer}.{cls_name}", cls.__init__))
            if layer == "states":
                state_types.append(cls)
        # states built before install (set-up pools) count as built too
        state_types = tuple(state_types)
        for obj in gc.get_objects():
            if isinstance(obj, state_types):
                self._register_state(obj)
        for fname in EIGENSOLVERS:
            self._patch(np.linalg, fname,
                        self._numpy_wrapper(f"numpy.{fname}", getattr(np.linalg, fname)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates keyed by span name, JSON-ready and mergeable."""
        return {
            "ops": self.ops,
            "op_ns": self.op_ns,
            "orphan_eigensolves": self.orphan_eigensolves,
            "recomputed_spectra": self.recomputed_spectra,
            "spans_dropped": self.spans_dropped,
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "total_ns": {n: t for n, t, c in zip(self.names, self.total_ns, self.calls) if c},
            "self_ns": {n: t for n, t, c in zip(self.names, self.self_ns, self.calls) if c},
            "pair_ns": {f"{self.names[a]}>{self.names[b]}": t
                        for (a, b), t in self.pair_ns.items()},
        }

    def span_table(self) -> dict:
        return {"names": self.names, "fields": list(SPAN_FIELDS),
                "spans": self.spans.tolist()}


def merge(summaries: list[dict]) -> dict:
    """Sum the aggregates of several tracers (one per CLI process)."""
    out: dict = {}
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, dict):
                into = out.setdefault(key, {})
                for name, v in value.items():
                    into[name] = into.get(name, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out
