"""Span tracer for the benchmark's traced run.

The tracer wraps every public module-level function of finsite's layer
modules and records one span per call: name, start, end and the index of
the enclosing span. Modules that import a function by name (``topology``
holds its own ``all_sieves``, ``pullback_sieve`` and ``check_axioms``
references; ``torsion`` and ``typen`` hold sieve functions) keep a second
binding, so installing rebinds every alias found in any ``finsite`` module
and ``uninstall`` puts each original back. The wrappers are built once,
so the worker can install the tracer around each task alone and keep its
answer checks, which call finsite too, out of the spans.

A few hot methods are counted without spans, because a span per call would
dominate what they cost. Spans stay in memory until ``write`` dumps them;
``summarize`` derives per-function calls, inclusive and self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array
from contextlib import contextmanager

PACKAGE = "finsite"
LAYERS = ("linalg", "fincat", "sieves", "topology", "modrep", "torsion",
          "sheaves", "typen", "cli")

# (module, class, method): counted per call, no span
COUNT_ONLY = (("fincat", "FiniteCategory", "compose"),)

SMALL_RREF_CELLS = 64


class RrefStats:
    """Size distribution of the matrices handed to linalg.rref."""

    def __init__(self) -> None:
        self.calls_by_field: dict[str, int] = {}
        self.cells = 0
        self.small = 0
        self.max_cells = 0
        self.max_shape = (0, 0)

    def __call__(self, args, kwargs, result) -> None:
        field = args[0] if args else kwargs["field"]
        mat = args[1] if len(args) > 1 else kwargs["a"]
        label = field.label()
        self.calls_by_field[label] = self.calls_by_field.get(label, 0) + 1
        cells = mat.rows * mat.cols
        self.cells += cells
        if cells <= SMALL_RREF_CELLS:
            self.small += 1
        if cells > self.max_cells:
            self.max_cells = cells
            self.max_shape = (mat.rows, mat.cols)


class Tracer:
    """Collects spans around finsite's public functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.method_calls: dict[str, list[int]] = {}
        self.rref = RrefStats()
        self.rules_emitted = 0
        self._undo: list[tuple[object, str, object]] = []
        self._replacements: (
            list[tuple[object, str, object, object]] | None) = None

    # -- recording ---------------------------------------------------------

    def _intern(self, qual: str) -> int:
        nid = self._name_ids.get(qual)
        if nid is None:
            nid = self._name_ids[qual] = len(self.names)
            self.names.append(qual)
        return nid

    def record(self, qual: str, start: int, end: int, parent: int) -> int:
        """Append a finished span; returns its index."""
        self.name.append(self._intern(qual))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    @contextmanager
    def span(self, qual: str):
        """A span opened by the benchmark itself, e.g. around one task."""
        idx = self.record(qual, time.perf_counter_ns(), 0, self._stack[-1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, qual: str, fn, probe=None):
        nid = self._intern(qual)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    def _count_emitted(self, args, kwargs, result) -> None:
        self.rules_emitted += len(result)

    # -- installing --------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, replacement) the tracer sets:
        each alias of a wrapped function in any finsite module, and the
        counted methods. Built once, so installing again is cheap."""
        probes = {"linalg.rref": self.rref,
                  "topology.enumerate_topologies": self._count_emitted}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (name.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self._wrap(qual, obj, probes.get(qual)))
        out = []
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    out.append((mod, key, val, hit[1]))
        for layer, cls_name, meth in COUNT_ONLY:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            cell = self.method_calls.setdefault(f"{layer}.{meth}", [0])
            out.append((cls, meth, original, _counting(original, cell)))
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        if self._replacements is None:
            self._replacements = self._bindings()
        for owner, key, original, replacement in self._replacements:
            self._undo.append((owner, key, original))
            setattr(owner, key, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        n = len(self.name)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n):
            d = end[i] - start[i]
            k = name[i]
            calls[k] += 1
            incl[k] += d
            own[k] += d - child_ns[i]
        return {self.names[k]: {"calls": calls[k], "incl_s": incl[k] / 1e9,
                                "self_s": own[k] / 1e9}
                for k in range(len(self.names)) if calls[k]}

    def child_calls(self, parent_qual: str, child_qual: str) -> int:
        """Spans named child_qual whose direct parent is named parent_qual."""
        pid = self._name_ids.get(parent_qual)
        cid = self._name_ids.get(child_qual)
        if pid is None or cid is None:
            return 0
        name, parent = self.name, self.parent
        return sum(1 for i in range(len(name))
                   if name[i] == cid and parent[i] >= 0
                   and name[parent[i]] == pid)

    def write(self, path: str) -> None:
        """Dump every span, gzipped, as tab-separated name, start_ns,
        end_ns and parent (-1 for a root)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(f"{names[self.name[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\t{self.parent[i]}\n")


def _counting(original, cell: list[int]):
    @functools.wraps(original)
    def counted(*args, **kwargs):
        cell[0] += 1
        return original(*args, **kwargs)
    return counted
