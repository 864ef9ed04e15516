"""Per-layer spans and counters, installed into ptree at run time.

Nothing under src/ is edited. `install_spans` replaces each public
function of a layer module with a timing wrapper at every module binding
that holds it (the defining module, modules that imported it by name, and
the package), and wraps public methods, properties and a few dunders at
the class. A span's self time is its duration minus the time covered by
the spans it encloses. Spans are aggregated in memory and read out when
the run ends.

`install_fraction_counter` wraps the arithmetic dunders of
fractions.Fraction instead. It runs in a pass of its own so its cost never
lands in a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
from collections import Counter
from enum import Enum
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable

LAYERS = (
    "paths", "dists", "trees", "measures", "expectation",
    "intervals", "encoding", "bernoulli", "specio", "cli",
)
_DUNDERS = ("__init__", "__call__", "__eq__", "__hash__", "__contains__")
_FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__",
)

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def undo(self) -> None:
        for owner, name, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._undo.clear()


class Tracer:
    """Calls per function, self time per layer, and random bits drawn."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.bits = 0
        self._stack: list[list[float]] = []

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def _span(self, layer: str, fn: Callable, args, kwargs):
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self.self_s[layer] += duration - frame[0]
            if stack:
                stack[-1][0] += duration

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        span = self._span
        calls = self.calls

        if inspect.isgeneratorfunction(fn):
            # each resumption of the generator is a span of its own
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = span(layer, next, (it,), {})
                    except StopIteration:
                        return
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            return span(layer, fn, args, kwargs)

        return traced


def _modules():
    import ptree

    layers = {name: importlib.import_module(f"ptree.{name}") for name in LAYERS}
    holders = [ptree] + [m for _, m in sorted(vars(ptree).items())
                         if inspect.ismodule(m) and m.__name__.startswith("ptree.")]
    return layers, holders


def _wrap_member(tracer: Tracer, layer: str, name: str, member: Any):
    if isinstance(member, property) and member.fget is not None:
        return property(tracer.wrap(layer, name, member.fget), member.fset, member.fdel, member.__doc__)
    if isinstance(member, classmethod):
        return classmethod(tracer.wrap(layer, name, member.__func__))
    if isinstance(member, staticmethod):
        return staticmethod(tracer.wrap(layer, name, member.__func__))
    if inspect.isfunction(member):
        return tracer.wrap(layer, name, member)
    return None


def install_spans(tracer: Tracer) -> Patches:
    """Wrap every layer's public functions and methods, and count random bits."""
    patches = Patches()
    layers, holders = _modules()
    for layer, module in layers.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = tracer.wrap(layer, f"{layer}.{name}", obj)
                for holder in holders:
                    for bound, value in list(vars(holder).items()):
                        if value is obj:
                            patches.set(holder, bound, wrapped)
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    wrapped = _wrap_member(tracer, layer, f"{layer}.{name}.{attr}", member)
                    if wrapped is not None:
                        patches.set(obj, attr, wrapped)

    getrandbits = random.Random.getrandbits

    def counted_getrandbits(self, k):
        tracer.bits += k
        return getrandbits(self, k)

    patches.set(random.Random, "getrandbits", counted_getrandbits)
    return patches


class FractionCounter:
    """Arithmetic operations on Fractions and the largest bit-length produced."""

    def __init__(self) -> None:
        self.ops = 0
        self.max_bits = 0

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args):
            result = fn(*args)
            self.ops += 1
            if isinstance(result, Fraction):
                bits = max(result.numerator.bit_length(), result.denominator.bit_length())
                if bits > self.max_bits:
                    self.max_bits = bits
            return result

        return counted


def install_fraction_counter(counter: FractionCounter) -> Patches:
    patches = Patches()
    for name in _FRACTION_OPS:
        patches.set(Fraction, name, counter.wrap(getattr(Fraction, name)))
    return patches
