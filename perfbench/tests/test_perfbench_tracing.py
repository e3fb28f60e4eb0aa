"""Span arithmetic and run-time wrapping, on synthetic spans and a toy module."""

import types

import pytest

from tracing import (
    CELL,
    END,
    NAME,
    PARENT,
    START,
    Tracer,
    layer_self_times,
    outermost_totals,
    self_times,
    top_level_seconds,
)

# a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
SPANS = [
    ["x.a", 0.0, 10.0, -1, 0],
    ["y.b", 1.0, 4.0, 0, 0],
    ["x.c", 2.0, 3.0, 1, 0],
    ["y.d", 5.0, 9.0, 0, 0],
    ["x.a", 11.0, 12.0, -1, 1],
]


def test_self_time_is_duration_minus_children():
    assert self_times(SPANS) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_self_times_partition_top_level_time():
    by_layer = layer_self_times(SPANS)
    assert by_layer == {"x": 5.0, "y": 6.0}
    assert sum(by_layer.values()) == top_level_seconds(SPANS) == 11.0


def test_outermost_totals_count_nested_group_members_once():
    got = outermost_totals(SPANS, {
        "ac": {"x.a", "x.c"},      # c sits inside a: counted once
        "bc": {"y.b", "x.c"},      # c sits inside b
        "c": {"x.c"},
        "none": {"z.q"},
    })
    assert got == {"ac": (2, 11.0), "bc": (1, 3.0), "c": (1, 1.0), "none": (0, 0.0)}


def _toy_modules():
    lib = types.ModuleType("lib")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) * 2\n"
        "def boom():\n"
        "    raise ValueError('boom')\n"
        "class Box:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    def get(self):\n"
        "        return inner(self.v)\n"
        "    @classmethod\n"
        "    def make(cls, v):\n"
        "        return cls(v)\n"
        "    def _private(self):\n"
        "        return 0\n",
        lib.__dict__)
    for obj in (lib.inner, lib.outer, lib.boom, lib.Box):
        obj.__module__ = "lib"
    user = types.ModuleType("user")
    user.inner = lib.inner          # as after "from lib import inner"
    return lib, user


def test_wrappers_cover_every_namespace_and_uninstall_restores():
    lib, user = _toy_modules()
    originals = (lib.inner, lib.outer, user.inner, lib.Box.__dict__["get"])
    tracer = Tracer()
    tracer.wrap_module(lib, "lib", [lib, user])
    assert user.inner is lib.inner and user.inner is not originals[0]

    tracer.cell = 3
    assert lib.outer(1) == 4
    assert user.inner(1) == 2
    assert lib.Box.make(5).get() == 6
    names = [s[NAME] for s in tracer.spans]
    assert names == ["lib.outer", "lib.inner", "lib.inner",
                     "lib.Box.make", "lib.Box.__init__", "lib.Box.get", "lib.inner"]
    parents = [s[PARENT] for s in tracer.spans]
    assert parents == [-1, 0, -1, -1, 3, -1, 5]
    assert all(s[CELL] == 3 for s in tracer.spans)
    assert all(s[END] >= s[START] for s in tracer.spans)
    assert "_private" not in {n.rsplit(".", 1)[-1] for n in names}

    tracer.uninstall()
    assert (lib.inner, lib.outer, user.inner, lib.Box.__dict__["get"]) == originals


def test_span_closes_when_the_call_raises():
    lib, user = _toy_modules()
    tracer = Tracer()
    tracer.wrap_module(lib, "lib", [lib, user])
    try:
        with pytest.raises(ValueError):
            lib.boom()
        assert lib.inner(0) == 1
    finally:
        tracer.uninstall()
    assert [s[PARENT] for s in tracer.spans] == [-1, -1]
    assert tracer.spans[0][END] > 0.0
