import types

import pytest

from perfbench.tracer import Span, Tracer, children, covered, outermost


def _tree():
    # root [0, 10) holds a [1, 4) and b [5, 9); a holds c [2, 3); b holds d [6, 8)
    return [
        Span("x.root", 0.0, 10.0, -1),
        Span("x.a", 1.0, 4.0, 0),
        Span("y.c", 2.0, 3.0, 1),
        Span("x.b", 5.0, 9.0, 0),
        Span("y.d", 6.0, 8.0, 3),
    ]


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = _tree()
    kids = children(spans)
    selfs = [s.duration - covered(spans, kids, i, lambda c: True) for i, s in enumerate(spans)]
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])
    assert sum(selfs) == pytest.approx(spans[0].duration)


def test_covered_stops_at_the_topmost_matching_descendants():
    spans = _tree()
    kids = children(spans)
    assert covered(spans, kids, 0, lambda s: s.layer == "y") == pytest.approx(3.0)
    assert covered(spans, kids, 0, lambda s: s.name in ("x.a", "y.c")) == pytest.approx(3.0)
    assert covered(spans, kids, 2, lambda s: True) == 0.0


def test_outermost_skips_spans_nested_in_a_match():
    spans = _tree()
    assert outermost(spans, lambda s: s.layer == "x") == [0]
    assert outermost(spans, lambda s: s.layer == "y") == [2, 4]


def _modules():
    lib = types.ModuleType("pkg.lib")

    def leaf(n):
        return n + 1

    def outer(n):
        return lib.leaf(n) * 2

    def _private(n):
        return n

    for fn in (leaf, outer, _private):
        fn.__module__ = lib.__name__
        setattr(lib, fn.__name__, fn)
    user = types.ModuleType("pkg.user")
    user.leaf = leaf  # what ``from .lib import leaf`` leaves behind
    return lib, user


def test_tracer_wraps_aliases_records_parents_and_restores():
    lib, user = _modules()
    originals = (lib.leaf, lib.outer, lib._private, user.leaf)
    probes = {"lib.leaf": lambda args, result: {"n": args["n"], "result": result}}
    with Tracer([lib, user], probes) as tr:
        assert lib.outer(1) == 4
        assert user.leaf(5) == 6
        assert lib._private(3) == 3
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("lib.outer", -1), ("lib.leaf", 0), ("lib.leaf", -1)
    ]
    assert tr.spans[2].attrs == {"n": 5, "result": 6}
    assert all(s.end >= s.start for s in tr.spans)
    assert (lib.leaf, lib.outer, lib._private, user.leaf) == originals


def test_tracer_closes_the_span_of_a_call_that_raises():
    lib, user = _modules()
    with Tracer([lib, user]) as tr:
        with pytest.raises(TypeError):
            lib.leaf("a")
        lib.leaf(1)
    assert [s.parent for s in tr.spans] == [-1, -1]
