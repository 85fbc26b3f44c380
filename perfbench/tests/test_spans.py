import types

import pytest

from spans import Tracer, ancestors, self_times


def test_self_time_subtracts_children_not_grandchildren():
    spans = [("root", 0.0, 10.0, -1, None),
             ("child", 1.0, 4.0, 0, None),
             ("grandchild", 2.0, 3.0, 1, None),
             ("child", 5.0, 6.0, 0, None)]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1, None),
             ("a", 1.0, 5.0, 0, None),
             ("b", 4.0, 7.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)


def test_ancestors_innermost_first():
    spans = [("a", 0, 3, -1, None), ("b", 0, 2, 0, None), ("c", 0, 1, 1, None)]
    assert list(ancestors(spans, 2)) == ["b", "a"]


def _fake_module():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_wrappers_record_nested_spans_and_uninstall():
    mod = _fake_module()
    originals = dict(vars(mod))
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(mod, "inner", "m.inner", note=lambda a, k, r: r)
    tracer.wrap(mod, "outer", "m.outer")
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert vars(mod) == originals
    spans = tracer.finished_spans()
    assert [(s[0], s[3], s[4]) for s in spans] == [("m.outer", -1, None), ("m.inner", 0, 2)]
    assert spans[0][1] < spans[1][1] < spans[1][2] < spans[0][2]


def test_a_raising_call_still_closes_its_span():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(mod, "boom", "m.boom")
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    tracer.uninstall()
    assert [s[0] for s in tracer.finished_spans()] == ["m.boom"]
