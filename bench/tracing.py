"""Per-layer tracing from outside the package.

The layers are the package's modules.  :class:`Tracer` wraps every public
function of each layer module (plus ``WeightVector.from_components``) and
puts the wrapper in every ``unionbounds`` namespace that holds the
original, so calls made through ``bounds_new.select_dp``,
``weights.lnew3`` or ``cli.compare_all`` all pass through it.  Source
files are left as they are; :meth:`Tracer.uninstall` puts the originals
back.

Each wrapped call is one span.  The tracer keeps, in memory:

* per function: calls, inclusive seconds, and self seconds (inclusive
  minus the time spent in wrapped callees of any layer);
* per layer: seconds with at least one of its functions on the call
  stack (nested calls into the same layer are not counted twice), and
  self seconds (the sum of its functions' self seconds);
* per caller -> callee edge: calls and inclusive seconds.

Calls count only between ``record(True)`` and ``record(False)``.
Generator functions are left unwrapped, since timing them would only
time the creation of the generator.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType
from typing import Any, Callable

PACKAGE = "unionbounds"
LAYERS = ("cli", "weights", "bounds_new", "subset_opt", "linalg",
          "bounds_classic", "space")
# Public methods wrapped besides module-level functions: (layer, class, name).
METHODS = (("space", "WeightVector", "from_components"),)

ROOT = "<benchmark>"


class Tracer:
    """Wrap the layer functions; collect calls and times while installed."""

    def __init__(self) -> None:
        self.functions: dict[str, list[float]] = {}  # name -> [calls, incl, self]
        self.layers: dict[str, list[float]] = {}     # layer -> [depth, incl]
        self.edges: dict[tuple[str, str], list[float]] = {}
        self._stack: list[list[Any]] = []            # [name, child seconds]
        self._undo: list[Callable[[], None]] = []
        self._recording = [False]  # calls made while False pass straight through

    def record(self, on: bool) -> None:
        """Count calls only while on, so work between timed cases (input
        generation, checks) stays out of the figures."""
        self._recording[0] = on

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if isinstance(m, ModuleType)
                      and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, func in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__
                        or inspect.isgeneratorfunction(func)):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, func)
                self._patch_references(namespaces, func, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[attr]
            wrapped = self._wrap(f"{layer}.{cls_name}.{attr}", layer,
                                 original.__func__)
            setattr(cls, attr, classmethod(wrapped))
            self._undo.append(functools.partial(setattr, cls, attr, original))

    def _patch_references(self, namespaces: list[ModuleType], func: Callable,
                          wrapper: Callable) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is func:
                    setattr(ns, attr, wrapper)
                    self._undo.append(functools.partial(setattr, ns, attr, func))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- the wrapper --------------------------------------------------

    def _wrap(self, name: str, layer: str, func: Callable) -> Callable:
        stat = self.functions.setdefault(name, [0, 0.0, 0.0])
        layer_stat = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        edges = self.edges
        recording = self._recording
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recording[0]:
                return func(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            layer_stat[0] += 1
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                layer_stat[0] -= 1
                if layer_stat[0] == 0:
                    layer_stat[1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                parent = stack[-1][0] if stack else ROOT
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((parent, name))
                if edge is None:
                    edges[(parent, name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed

        return traced

    # -- results ------------------------------------------------------

    def function(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) of one wrapped function."""
        calls, incl, own = self.functions[name]
        return int(calls), incl, own

    def layer_seconds(self, layer: str) -> float:
        return self.layers[layer][1]

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for n, s in self.functions.items() if n.startswith(prefix))

    def dump(self) -> dict[str, Any]:
        """Everything collected, in a JSON-ready form."""
        return {
            "functions": {n: {"calls": int(s[0]), "s": s[1], "self_s": s[2]}
                          for n, s in sorted(self.functions.items()) if s[0]},
            "layers": {layer: {"s": self.layer_seconds(layer),
                               "self_s": self.layer_self_seconds(layer)}
                       for layer in LAYERS},
            "edges": [{"caller": a, "callee": b, "calls": int(e[0]), "s": e[1]}
                      for (a, b), e in sorted(self.edges.items())],
        }
