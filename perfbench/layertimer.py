"""Host self time per ``repro`` layer, for the benchmark's traced run.

:class:`LayerTimer` wraps the public entry points of each layer — public
functions and public methods of public classes defined in the layer's
modules — and keeps a stack of open calls.  A call's *self time* is its
duration minus the time of the entry calls nested inside it, so the self
times of all layers add up to the time spent inside outermost entry
calls; the rest of the timed wall is ``unattributed``.  Generator entry
points (simulation processes and the ``yield from`` chains under them)
are timed per resume, so a suspended process costs nothing while it
waits on simulated time.

Two slices are also timed inclusively: ``simnet.payload_size`` (wire
serialization) and the kernel payload functions handed out by
:class:`repro.simcuda.kernels.KernelRegistry` (real numpy work).

Wrappers exist only between :meth:`LayerTimer.install` and
:meth:`LayerTimer.uninstall`; ``uninstall`` restores every patched
attribute and then scans the package to prove no wrapper is left.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["LAYERS", "SLICES", "LayerTimer", "layer_of"]

#: layer name -> module prefixes; the first match wins, so the core
#: sub-layers come before the rest of ``repro.core``
LAYERS = (
    ("core.guest", ("repro.core.guest",)),
    ("core.api_server", ("repro.core.api_server",)),
    ("core.monitor", ("repro.core.monitor", "repro.core.scheduler")),
    ("core.decode", ("repro.core.decode",)),
    ("core.other", ("repro.core",)),
    ("sim", ("repro.sim",)),
    ("simnet", ("repro.simnet",)),
    ("simcuda", ("repro.simcuda",)),
    ("obs", ("repro.obs",)),
    ("faas", ("repro.faas",)),
    ("mllib", ("repro.mllib",)),
    ("workloads", ("repro.workloads",)),
)

#: inclusive slices: metric name -> qualified name of the timed callable
SLICES = {
    "simnet.serialization_s": "repro.simnet.serialization.payload_size",
    "simcuda.payload_s": "repro.simcuda.kernels.KernelDef.payload",
}

#: entry points whose positional arguments the traced run keeps, for
#: counts that only the arguments carry (bytes downloaded per object)
RECORD_ARGS = frozenset({"repro.faas.storage.ObjectStore.download"})

_MARK = "__perfbench_wrapped__"


def layer_of(module_name: str):
    """The layer a module belongs to, or None."""
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if module_name == prefix or module_name.startswith(prefix + "."):
                return layer
    return None


class LayerTimer:
    """Self-time accounting over a stack of open entry calls."""

    def __init__(self):
        # live accumulators, written by the wrappers
        self._self_s: dict[str, float] = defaultdict(float)
        self._slice_s: dict[str, float] = defaultdict(float)
        self._calls: Counter = Counter()
        self._args: dict[str, list] = defaultdict(list)
        self._outer_s = 0.0
        self._stack: list = []
        self._slice_depth: Counter = Counter()
        self._patches: list = []
        self._kernel_defs: dict = {}
        # the window closed by stop(): what the accessors below report
        #: layer -> self time
        self.self_s: dict[str, float] = {}
        #: slice metric -> inclusive time of its outermost calls
        self.slice_s: dict[str, float] = {}
        #: entry-point key -> calls
        self.calls: Counter = Counter()
        #: key in RECORD_ARGS -> positional argument tuples of each call
        self.args_seen: dict[str, list] = {}
        #: time inside outermost entry calls
        self.outer_s = 0.0
        #: wall of the timed window
        self.wall_s = 0.0

    # -- accounting ------------------------------------------------------
    def enter(self, layer: str, tag=None) -> None:
        if tag is not None:
            self._slice_depth[tag] += 1
        self._stack.append([layer, perf_counter(), 0.0, tag])

    def exit(self) -> None:
        end = perf_counter()
        layer, start, child, tag = self._stack.pop()
        elapsed = end - start
        self._self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self._outer_s += elapsed
        if tag is not None:
            self._slice_depth[tag] -= 1
            if not self._slice_depth[tag]:
                self._slice_s[tag] += elapsed

    def timed_generator(self, gen, layer: str):
        """Proxy ``gen``, timing each resume as one call into ``layer``."""
        proxy = self._drive(gen, layer)
        proxy.__name__ = gen.__name__
        proxy.__qualname__ = gen.__qualname__
        return proxy

    def _drive(self, gen, layer):
        enter, exit_ = self.enter, self.exit
        value = error = None
        while True:
            enter(layer)
            try:
                out = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                exit_()
                return stop.value
            except BaseException:
                exit_()
                raise
            exit_()
            error = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel: forward it
                value, error = None, exc

    def reset(self) -> None:
        """Open a window: zero the live accumulators.  Generator proxies
        created before keep running and are timed inside the window."""
        if self._stack:
            raise RuntimeError(f"reset with {len(self._stack)} open calls")
        self._self_s.clear()
        self._slice_s.clear()
        self._calls.clear()
        for seen in self._args.values():
            seen.clear()
        self._outer_s = 0.0

    def stop(self, wall_s: float) -> None:
        """Close the window of ``wall_s`` seconds opened by :meth:`reset`;
        calls made afterwards (result checks) are not reported."""
        if self._stack:
            raise RuntimeError(f"stop with {len(self._stack)} open calls")
        self.self_s = dict(self._self_s)
        self.slice_s = dict(self._slice_s)
        self.calls = Counter(self._calls)
        self.args_seen = {key: list(seen) for key, seen in self._args.items()}
        self.outer_s = self._outer_s
        self.wall_s = wall_s

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - self.outer_s

    def balance_error(self) -> float:
        """|sum of self times + unattributed - wall|: zero up to rounding
        when every entry was closed exactly once."""
        return abs(sum(self.self_s.values()) + self.unattributed_s - self.wall_s)

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn, layer: str, key: str, tag=None):
        """A timed stand-in for ``fn`` counting its calls under ``key``."""
        calls = self._calls
        seen = self._args[key] if key in RECORD_ARGS else None
        if inspect.isgeneratorfunction(fn):
            timed = self.timed_generator

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                if seen is not None:
                    seen.append(args)
                return timed(fn(*args, **kwargs), layer)
        else:
            enter, exit_ = self.enter, self.exit

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[key] += 1
                if seen is not None:
                    seen.append(args)
                enter(layer, tag)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> int:
        """Wrap every layer's public entry points; returns how many."""
        if self._patches:
            raise RuntimeError("already installed")
        modules = _layer_modules()
        originals: dict[int, object] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    key = f"{module.__name__}.{name}"
                    tag = _slice_of(key)
                    originals[id(obj)] = (obj, self.wrap(obj, layer, key, tag))
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer, module.__name__)
        # module-level functions: patch every module holding a reference
        # (``from x import f`` copies), so every call site is timed
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])
        return len(self._patches)

    def _wrap_class(self, cls, layer, module_name):
        from repro.simcuda.kernels import KernelRegistry

        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{module_name}.{cls.__qualname__}.{name}"
            if isinstance(raw, (staticmethod, classmethod)):
                if inspect.isfunction(raw.__func__):
                    self._patch(cls, name, type(raw)(
                        self.wrap(raw.__func__, layer, key)))
            elif inspect.isfunction(raw):
                fn = raw
                if cls is KernelRegistry and name == "get":
                    fn = self._kernel_get(raw)
                self._patch(cls, name, self.wrap(fn, layer, key))

    def _kernel_get(self, get):
        """``KernelRegistry.get`` handing out defs whose payload is timed."""
        cache = self._kernel_defs
        tag = "simcuda.payload_s"
        key = SLICES[tag]

        def timed_get(registry, name):
            kernel = get(registry, name)
            if kernel.payload is None:
                return kernel
            timed = cache.get(id(kernel))
            if timed is None or timed[0] is not kernel:
                payload = self.wrap(kernel.payload, "simcuda", key, tag)
                timed = (kernel, dataclasses.replace(kernel, payload=payload))
                cache[id(kernel)] = timed
            return timed[1]

        functools.update_wrapper(timed_get, get)
        return timed_get

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, then prove none is left."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        restored = self._patches
        self._patches = []
        self._kernel_defs.clear()
        for owner, name, original in restored:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")
        left = find_wrappers()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left[:5]}")


def _slice_of(key: str):
    for metric, target in SLICES.items():
        if target == key:
            return metric
    return None


def _repro_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and m is not None]


def _layer_modules() -> list:
    """Every module of every layer, imported so none is missed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of(info.name):
            importlib.import_module(info.name)
    return [m for m in _repro_modules() if layer_of(m.__name__)]


def _is_wrapper(value) -> bool:
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    return callable(value) and hasattr(value, _MARK)


def find_wrappers() -> list[str]:
    """Qualified names of benchmark wrappers still reachable in ``repro``."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append(f"{module.__name__}.{name}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, raw in list(vars(value).items()):
                    if _is_wrapper(raw):
                        found.append(f"{module.__name__}.{value.__qualname__}.{attr}")
    return found
