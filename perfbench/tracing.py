"""Spans recorded from outside the program, and the arithmetic on them.

A :class:`Tracer` replaces public callables with wrappers at run time.  Each
call through a wrapper appends one span ``[name, start, end, parent, cell]``
to an in-memory list: ``parent`` is the index of the enclosing span (-1 at
top level) and ``cell`` is the id the caller set for the current unit of
work, shared by every span inside it.  Names are ``<layer>.<qualname>``.

Because modules import names with ``from .x import y``, a function is
replaced in every namespace that holds it, not only where it is defined.
Methods are replaced on their class, which every holder shares.
:meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType

NAME, START, END, PARENT, CELL = range(5)

_WRAPPED_DUNDERS = ("__init__", "__call__")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.cell = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a fresh span list; call between units of work, not inside one."""
        self.spans = []
        self._stack.clear()

    def wrapper(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.cell]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def wrap_attr(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced version."""
        self._set(owner, attr, self.wrapper(name, getattr(owner, attr)))

    def wrap_module(self, module: ModuleType, layer: str,
                    namespaces: list[ModuleType]) -> None:
        """Trace the public functions and classes that ``module`` defines.

        A function is replaced in each of ``namespaces`` that holds it.
        """
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                self._wrap_class(obj, f"{layer}.{obj.__name__}")
            elif inspect.isfunction(obj):
                traced = self.wrapper(f"{layer}.{obj.__name__}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, key, traced)

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrapper(name, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrapper(name, member))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_self_times(spans) -> dict[str, float]:
    """Total self time per layer; the layers partition the top-level spans."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span[NAME])
        out[layer] = out.get(layer, 0.0) + own
    return out


def outermost_totals(spans, groups: dict[str, set[str]]) -> dict[str, tuple[int, float]]:
    """(calls, inclusive seconds) per group of span names.

    A span counts for a group only when no enclosing span belongs to the same
    group, so a group's time is never counted twice (for instance
    ``matrix_power`` delegating to ``PsdOperator.power``).
    """
    keys = list(groups)
    bits: dict[str, int] = {}
    for i, key in enumerate(keys):
        for name in groups[key]:
            bits[name] = bits.get(name, 0) | (1 << i)
    counts = [0] * len(keys)
    totals = [0.0] * len(keys)
    inside = [0] * len(spans)
    for idx, span in enumerate(spans):
        parent = span[PARENT]
        enclosing = inside[parent] if parent >= 0 else 0
        mine = bits.get(span[NAME], 0)
        inside[idx] = enclosing | mine
        new = mine & ~enclosing
        i = 0
        while new:
            if new & 1:
                counts[i] += 1
                totals[i] += span[END] - span[START]
            new >>= 1
            i += 1
    return {key: (counts[i], totals[i]) for i, key in enumerate(keys)}


def top_level_seconds(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
