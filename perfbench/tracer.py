"""Per-layer tracing from outside the package.

The tracer wraps every public function of lcmkit's modules, plus a few
methods named below, in every lcmkit namespace that binds them.  Each call
becomes one span (id, parent id, label, start, end) kept in memory; self
time is a span's duration minus the time its child spans cover.  The layers
are the package's modules, so the label of a wrapped name is
``<module>.<name>`` of the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "complexes", "linalg", "cm", "squarefree", "posets", "sweeps")

# Methods wrapped on their class (module, class, method).
METHODS = (
    ("complexes", "SimplicialComplex", "from_facets"),
    ("complexes", "SimplicialComplex", "skeleton"),
    ("squarefree", "SquarefreeModule", "validate_over"),
)

# Names reported one by one; every other public function only counts
# towards its module's self-time rollup.
REPORTED = {
    "cli": ("main",),
    "complexes": ("parse_facet_file", "from_facets", "skeleton", "format_facet_file"),
    "linalg": ("homology_dims_of_facets", "faces_by_card"),
    "cm": ("is_cohen_macaulay", "l_cm_threshold", "is_l_cm", "max_l", "hochster_betti"),
    "squarefree": ("koszul_betti", "validate_over", "delete_variables", "is_module_cm",
                   "is_module_l_cm", "from_complex", "module_skeleton"),
    "posets": ("delete_atoms", "order_complex", "face_ring_module",
               "poset_l_cm_threshold", "is_poset_cm"),
    "sweeps": ("sweep_skeleton", "sweep_routes"),
}

HOMOLOGY = "linalg.homology_dims_of_facets"
FACES_BY_CARD = "linalg.faces_by_card"
# Self time of the homology entry point is split by field; the workloads use these.
FIELD_TAGS = {0: "q", 2: "gf2", 3: "gf3"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {name: "s" if ".self_s" in name else "count" for name in Tracer().metrics()}
    units["trace.overhead_ratio"] = "ratio"
    return units


def _field_tag(args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs.get("fieldspec")
    char = getattr(spec, "characteristic", None)
    return FIELD_TAGS.get(char, f"p{char}")


def _boundary_nnz(by_card) -> int:
    # a face of cardinality k has k boundary entries
    return sum(k * len(level) for k, level in enumerate(by_card))


class Tracer:
    """Wraps lcmkit's public functions while installed; use one per process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.homology_keys: set = set()
        self.boundary_nnz = 0
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack: list[list] = [[-1, 0.0]]  # [span id, time covered by children]
        self._restore: list[tuple[object, str, object]] = []
        self._wrapped: set[str] = set()

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, label: str):
        """A span opened by the benchmark itself, e.g. one request."""
        frame = [next(self._ids), 0.0]
        parent = self._stack[-1]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            parent[1] += t1 - t0
            self.spans.append((frame[0], parent[0], label, t0, t1))

    def _wrap(self, fn, label: str):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        homology = label == HOMOLOGY
        faces = label == FACES_BY_CARD

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                calls[label] += 1
                key = label
                if homology:
                    tag = _field_tag(args, kwargs)
                    key = f"{label}.{tag}"
                    self.homology_keys.add((args[0] if args else kwargs.get("facet_masks"), tag))
                self_s[key] += t1 - t0 - frame[1]
                spans.append((frame[0], parent[0], key, t0, t1))
            if faces:
                self.boundary_nnz += _boundary_nnz(result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"lcmkit.{layer}")
            except ModuleNotFoundError:
                continue
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "lcmkit" or name.startswith("lcmkit."))]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{name}")
                self._wrapped.add(f"{layer}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._restore.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            label = f"{layer}.{meth}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, label))
            else:
                patched = self._wrap(raw, label)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, patched)
            self._wrapped.add(label)
        # a reported name that the package no longer has is reported, not fatal
        self.missing = [f"{layer}.{name}" for layer, names in REPORTED.items()
                        for name in names if f"{layer}.{name}" not in self._wrapped]

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, without the overhead
        ratio, which needs an untraced run; a missing name reads 0."""
        out: dict[str, float] = {}
        for layer, names in REPORTED.items():
            for name in names:
                label = f"{layer}.{name}"
                out[f"{label}.calls"] = self.calls.get(label, 0)
                if label == HOMOLOGY:
                    out[f"{label}.distinct_keys"] = len(self.homology_keys)
                    for tag in FIELD_TAGS.values():
                        out[f"{label}.self_s.{tag}"] = self.self_s.get(f"{label}.{tag}", 0.0)
                else:
                    out[f"{label}.self_s"] = self.self_s.get(label, 0.0)
        out["linalg.boundary_nnz"] = self.boundary_nnz
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer
            )
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as JSON lines: id, parent id (-1 for none), label, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, label, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, label, round(t0, 9), round(t1, 9)]) + "\n")
