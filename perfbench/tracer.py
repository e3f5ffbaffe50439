"""Layer-boundary tracer for matphi, installed from outside the package.

A layer is one matphi module. The tracer wraps each matphi function where
another module (or an importer such as the benchmark) imported it, and
wraps the methods of each layer's classes; the defining module's own
globals stay untouched, so calls between helpers of one layer are not
traced. A call entering the layer already on top of the span stack opens
no new span. ``numpy.linalg`` is wrapped as the ``lapack`` pseudo-layer,
counting calls and the matrices each call processed.

Spans are aggregated in memory as they close: per layer the number of
boundary calls, the self time (span duration minus the time covered by
child spans) and the calls that raised. Time outside every span is the
harness's own. A hook whose target no longer exists is reported in
``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

import numpy as np

LAYERS = (
    "linalg",
    "frechet",
    "phifun",
    "models",
    "entropy",
    "concentration",
    "fourier",
    "holevo",
    "sampling",
    "suites",
)
# Modules that call into the layers without being layers themselves.
IMPORTERS = ("cli", "formats", "report")
LAPACK = ("eigh", "eigvalsh", "svd", "inv")
# Divided-difference table entries per boundary call: d**order.
DD_ORDER = {
    "frechet_derivative": 2,
    "frechet_second": 3,
    "superoperator_of_derivative": 2,
    "frechet_norm": 2,
    "dd1_table": 2,
    "dd2_table": 3,
}
OUTCOME_GENERATORS = ("iter_joint", "iter_minus")
OBJECTIVE = "_lsi_objective"


class _Layer:
    __slots__ = ("calls", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0


class Tracer:
    """Install with ``install(importers)``, remove with ``uninstall()``."""

    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS + ("lapack",)}
        self.lapack_calls = {name: 0 for name in LAPACK}
        self.lapack_matrices = {name: 0 for name in LAPACK}
        self.counts = {"models.outcomes": 0, "fourier.objective_evals": 0, "frechet.dd_entries": 0}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [layer, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        self.root_s = 0.0  # wall time inside top-level spans

    # ------------------------------------------------------------ spans
    def _span(self, layer: str, fn, on_call=None):
        stack = self._stack
        stats = self.layers[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration

        return wrapper

    def _counted_generator(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- patching
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _boundary(self, fn):
        """The span wrapper of a matphi function, shared by all importers."""
        key = id(fn)
        if key not in self._wrapped:
            layer = fn.__module__.rsplit(".", 1)[-1]
            on_call = None
            order = DD_ORDER.get(fn.__name__) if layer == "frechet" else None
            if order is not None:
                on_call = self._dd_counter(order)
            self._wrapped[key] = self._span(layer, fn, on_call)
        return self._wrapped[key]

    def _dd_counter(self, order: int):
        counts = self.counts

        def count(args, kwargs):
            for arg in args[1:]:
                shape = np.shape(arg)
                if shape:
                    counts["frechet.dd_entries"] += shape[-1] ** order
                    return

        return count

    @staticmethod
    def _layer_named(module_name: str | None) -> str | None:
        """The layer a module is, if it is one."""
        if not (module_name or "").startswith("matphi."):
            return None
        layer = module_name.rsplit(".", 1)[-1]
        return layer if layer in LAYERS else None

    def _patch_importer(self, module: types.ModuleType) -> None:
        own = self._layer_named(module.__name__)
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj):
                layer = self._layer_named(obj.__module__)
                if layer is not None and layer != own:
                    self._set(module, name, self._boundary(obj))
            elif isinstance(obj, types.ModuleType):
                layer = self._layer_named(obj.__name__)
                if layer is not None and layer != own:
                    self._set(module, name, self._proxy(obj))

    def _proxy(self, module: types.ModuleType) -> types.ModuleType:
        """A stand-in for ``from . import layer`` whose functions are
        wrapped; the real module and its globals are left alone."""
        proxy = types.ModuleType(module.__name__)
        own = module.__name__
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == own:
                obj = self._boundary(obj)
            setattr(proxy, name, obj)
        return proxy

    def _patch_classes(self, module: types.ModuleType) -> set[str]:
        """Wrap the methods of the module's classes; returns the names of
        the outcome generators found."""
        layer = module.__name__.rsplit(".", 1)[-1]
        generators = set()
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for name, attr in list(vars(cls).items()):
                if name.startswith("__") and name != "__post_init__":
                    continue
                if name in OUTCOME_GENERATORS:
                    generators.add(name)
                    self._set(cls, name, self._counted_generator("models.outcomes", attr))
                elif isinstance(attr, classmethod):
                    self._set(cls, name, classmethod(self._span(layer, attr.__func__)))
                elif isinstance(attr, staticmethod):
                    self._set(cls, name, staticmethod(self._span(layer, attr.__func__)))
                elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                    self._set(cls, name, self._span(layer, attr))
        return generators

    def _patch_lapack(self) -> None:
        for name in LAPACK:
            fn = getattr(np.linalg, name, None)
            if fn is None:
                self.missing.append(f"numpy.linalg.{name}")
                continue
            self._set(np.linalg, name, self._span("lapack", fn, self._lapack_counter(name)))

    def _lapack_counter(self, name: str):
        calls = self.lapack_calls
        matrices = self.lapack_matrices

        def count(args, kwargs):
            calls[name] += 1
            shape = np.shape(args[0]) if args else ()
            matrices[name] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1

        return count

    def install(self, importers=()) -> "Tracer":
        """Wrap the layer boundaries of every matphi module and of each
        module in ``importers`` (the benchmark's own)."""
        modules = {}
        for name in LAYERS + IMPORTERS:
            try:
                modules[name] = importlib.import_module(f"matphi.{name}")
            except ImportError:
                self.missing.append(f"matphi.{name}")
        generators = set()
        for name in LAYERS:
            if name in modules:
                generators |= self._patch_classes(modules[name])
        self.missing += [f"models.{name}" for name in OUTCOME_GENERATORS if name not in generators]
        for module in list(modules.values()) + list(importers):
            self._patch_importer(module)
        self._note_missing_dd_targets(modules.get("frechet"))
        self._patch_objective(modules.get("fourier"))
        self._patch_lapack()
        return self

    def _note_missing_dd_targets(self, frechet) -> None:
        for name in DD_ORDER:
            if frechet is None or not hasattr(frechet, name):
                self.missing.append(f"frechet.{name}")

    def _patch_objective(self, fourier) -> None:
        if fourier is None or not inspect.isfunction(getattr(fourier, OBJECTIVE, None)):
            self.missing.append(f"fourier.{OBJECTIVE}")
            return
        objective = getattr(fourier, OBJECTIVE)
        self._set(fourier, OBJECTIVE, self._counted("fourier.objective_evals", objective))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
