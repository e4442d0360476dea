"""Per-layer spans and counters, installed from outside the package.

The tracer rebinds the public functions of every ``conecert`` module (and a
few hot methods) to wrappers, at every module that imported them, so calls
made through ``from .solid import leq`` are seen too.  A span records its
wall time and subtracts it from the enclosing span, so each layer gets a self
time.  ``Vec.__init__`` is only counted, never spanned: it runs so often that
a span would dominate what it measures.  Everything is restored on
:meth:`Tracer.uninstall`; the untraced run calls :func:`assert_pristine` to
prove that no wrapper is left behind.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

MARK = "_conecert_bench_wrapper"

ORDER_PREDICATES = ("leq", "lt", "in_cone", "in_interior")
BOUND_FUNCTIONS = ("apriori_bound", "apost_forward_bound", "apost_backward_bound")
CERTIFY_FUNCTIONS = BOUND_FUNCTIONS + (
    "verify_step_contraction",
    "estimate_lambda",
    "check_domain_condition",
    "residual_check",
)
# Methods spanned besides module-level public functions: Vec arithmetic and
# the metric methods every engine iteration goes through.
METHODS = {
    "solid": {"Vec": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")},
    "metrics": {
        cls: ("validate_point", "distance", "norm")
        for cls in ("WeightedConeMetric", "DiscreteConeMetric", "PlusConeMetric")
    },
}


def package_modules():
    """The package and each of its submodules, imported."""
    pkg = importlib.import_module("conecert")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"conecert.{info.name}"))
    return mods


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
            yield name, obj


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.iterations = Counter()
        self.axiom_checks = 0
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def span(self, key: str, fn, post=None):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                self_s[key] += dt - child
                total_s[key] += dt
                calls[key] += 1
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(args, result)
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_run_picard(self, fn):
        """run_picard with the problem's map spanned and iterations counted.

        The map is swapped on the problem object for the duration of the
        call and put back afterwards, so the program does no extra work.
        """

        def run(p, *args, **kwargs):
            original = p.map_fn
            object.__setattr__(p, "map_fn", self.span("map.map", original))
            try:
                result = fn(p, *args, **kwargs)
            except Exception as exc:
                self._count_iterations("picard", getattr(exc, "trace", None))
                raise
            finally:
                object.__setattr__(p, "map_fn", original)
            self._count_iterations("picard", getattr(result, "trace", None))
            return result

        return self.span("picard.run_picard", run)

    def _count_iterations(self, layer: str, trace) -> None:
        if trace is not None:
            self.iterations[layer] += len(trace.iterates) - 1

    def _post_solve_roots(self, args, result):
        self._count_iterations("roots", getattr(result, "trace", None))

    def _post_run_all(self, args, result):
        self.axiom_checks += sum(r.checks for r in result)

    # -- install / uninstall --------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        mods = package_modules()
        replaced = {}
        for mod in mods:
            layer = _layer(mod.__name__)
            for name, fn in _public_functions(mod):
                key = f"{layer}.{name}"
                if key == "picard.run_picard":
                    replaced[fn] = self._traced_run_picard(fn)
                elif key == "roots.solve_roots":
                    replaced[fn] = self.span(key, fn, self._post_solve_roots)
                elif key == "axioms.run_all":
                    replaced[fn] = self.span(key, fn, self._post_run_all)
                else:
                    replaced[fn] = self.span(key, fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if cls is not None and meth in cls.__dict__:
                        self._set(cls, meth, self.span(f"{layer}.{meth}", cls.__dict__[meth]))
            vec = getattr(mod, "Vec", None) if layer == "solid" else None
            if vec is not None:
                self._set(vec, "__init__", self.count("solid.vec_init", vec.__dict__["__init__"]))
        # Rebind at every module that holds a reference, not just the definer.
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, name, replaced[obj])
        # Frozen bundles of functions captured at import time (and used as
        # default arguments) would otherwise keep calling the originals.
        bundles = {}
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                    swap = {
                        f.name: replaced[getattr(obj, f.name)]
                        for f in dataclasses.fields(obj)
                        if inspect.isfunction(getattr(obj, f.name)) and getattr(obj, f.name) in replaced
                    }
                    if swap:
                        bundles[id(obj)] = dataclasses.replace(obj, **swap)
                        self._set(mod, name, bundles[id(obj)])
        for fn in replaced:
            if fn.__defaults__ and any(id(d) in bundles for d in fn.__defaults__):
                self._set(fn, "__defaults__", tuple(bundles.get(id(d), d) for d in fn.__defaults__))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)


def assert_pristine() -> None:
    """Raise if any tracer wrapper is still bound anywhere in the package."""
    for mod in package_modules():
        owners = [mod] + [c for c in vars(mod).values() if isinstance(c, type) and c.__module__ == mod.__name__]
        for owner in owners:
            for name, obj in vars(owner).items():
                if getattr(obj, MARK, False):
                    raise RuntimeError(f"tracer wrapper left on {owner.__name__}.{name}")
                if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                    for f in dataclasses.fields(obj):
                        if getattr(getattr(obj, f.name), MARK, False):
                            raise RuntimeError(f"tracer wrapper left in {mod.__name__}.{name}")
            for fn in vars(owner).values():
                for d in getattr(fn, "__defaults__", None) or ():
                    if dataclasses.is_dataclass(d) and not isinstance(d, type):
                        for f in dataclasses.fields(d):
                            if getattr(getattr(d, f.name), MARK, False):
                                raise RuntimeError(f"tracer wrapper left in defaults of {fn.__name__}")
