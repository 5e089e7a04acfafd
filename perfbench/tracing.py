"""In-memory spans recorded from the benchmark's own wrappers.

``Tracer.install`` swaps each layer's public function for a wrapper
that records a span (name, start, end, parent) around the call, and
``uninstall`` puts the original back, so untraced rounds run the
library untouched.  The library itself is not changed: the wrappers
replace module and class attributes of the loaded ``repro`` modules.

Times come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC, a clock shared by all processes; spans written by a
child process (see ``clichild.py``) therefore line up with the
parent's.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager


# (span name, module, class or None, attribute) of every wrapped public
# function: a method when a class is named, else a module function,
# wrapped wherever a ``repro`` module holds it.
LAYER_TARGETS = (
    ("api.route", "repro.api.router", None, "route_backend"),
    ("api.cache_get", "repro.api.cache", "ResultCache", "get"),
    ("api.cache_put", "repro.api.cache", "ResultCache", "put"),
    ("api.envelope_json", "repro.api.result", "Result", "to_json"),
    ("api.validate", "repro.core.covering", "Covering", "covers"),
    ("engine.search", "repro.core.engine", "SolverEngine", "min_covering"),
    ("engine.search", "repro.core.engine", "SolverEngine", "min_covering_instance"),
    ("improve.greedy", "repro.core.engine", "SolverEngine", "greedy_cover"),
    ("improve.local_search", "repro.core.improve", None, "improve_covering"),
    ("closed_form.construct", "repro.core.construction", None, "optimal_covering"),
    ("sat.cnf_build", "repro.sat.cnf", None, "build_covering_cnf"),
    ("sat.cnf_build", "repro.sat.cnf", None, "attach_walk_layers"),
    ("sat.cdcl_solve", "repro.sat.cdcl", "Cdcl", "solve"),
    ("sat.cdcl_solve", "repro.sat.engines", "PysatSolver", "solve"),
    ("dispatch.batch", "repro.dispatch", None, "dispatch_batch"),
)


class Tracer:
    """Spans kept in memory; ``returns`` keeps what wrapped calls named
    in ``keep_returns`` gave back (the dispatch reports)."""

    def __init__(self, keep_returns: tuple[str, ...] = ()) -> None:
        self.spans: list[dict] = []
        self.returns: list[object] = []
        self.keep_returns = keep_returns
        self.tag: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        # A span opened on a transport thread has no stack of its own:
        # it belongs to the operation the main thread has open.
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = {"id": len(self.spans), "name": name, "parent": parent, **self.tag}
            self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name)
        span.update(attrs)
        outer, self._root = self._root, span["id"]
        try:
            yield span
        finally:
            self._root = outer
            self._close(span)

    def add_foreign(self, spans: list[dict], parent: int) -> None:
        """Adopt spans recorded by a child process under ``parent``."""
        with self._lock:
            base = len(self.spans)
            for span in spans:
                own = span["parent"]
                self.spans.append(
                    {
                        **span,
                        **self.tag,
                        "id": base + span["id"],
                        "parent": parent if own is None else base + own,
                    }
                )

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        keep = name in self.keep_returns

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                self.returns.append(result)
            return result

        return traced

    def install(self, *, loaded_only: bool = False) -> None:
        """Wrap every target; with ``loaded_only``, only those whose
        module is already imported (so tracing imports nothing)."""
        for name, module_name, cls, attr in LAYER_TARGETS:
            if module_name not in sys.modules:
                if loaded_only:
                    continue
                importlib.import_module(module_name)
            module = sys.modules[module_name]
            if cls is not None:
                owner = getattr(module, cls)
                original = owner.__dict__[attr]
                homes = [(owner, attr)]
            else:
                original = getattr(module, attr)
                homes = [
                    (holder, key)
                    for holder in list(sys.modules.values())
                    if getattr(holder, "__name__", "").startswith("repro")
                    for key, value in list(vars(holder).items())
                    if value is original
                ]
            wrapper = self._wrapper(name, original)
            for holder, key in homes:
                self._patched.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Each finished span with its self time: its duration minus the
    part covered by its child spans."""
    child: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] = child.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return [
        (span, span["end"] - span["start"] - child.get(span["id"], 0.0))
        for span in spans
    ]
