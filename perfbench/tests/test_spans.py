"""Self-time arithmetic and span recording."""

import pytest

from spans import Span, Tracer, covered_ns, layer_totals, load_chrome, \
    self_times


def span(id, parent, start, end, name="x", acc=False):
    return Span(id, parent, id, name, start, end, 0, acc)


def test_nested_children_are_subtracted_once():
    spans = [span(1, None, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60),
             span(4, 2, 12, 20)]
    own = self_times(spans)
    assert own == {1: 70, 2: 12, 3: 10, 4: 8}


def test_overlapping_children_count_their_union():
    # Two children on other threads overlap each other: 20..60 is
    # covered once, not 70 ns worth.
    spans = [span(1, None, 0, 100), span(2, 1, 20, 50), span(3, 1, 30, 60)]
    assert self_times(spans)[1] == 60


def test_children_are_clipped_to_the_parent():
    spans = [span(1, None, 0, 100), span(2, 1, 90, 150), span(3, 1, -20, 5)]
    assert self_times(spans)[1] == 85
    assert covered_ns(0, 100, [(90, 150), (-20, 5)]) == 15


def test_accumulating_child_subtracts_busy_time():
    spans = [span(1, None, 0, 100), span(2, 1, 10, 40, acc=True),
             span(3, 2, 15, 20)]
    own = self_times(spans)
    assert own[1] == 70 and own[2] == 25 and own[3] == 5


def test_layer_totals_sum_self_time_by_name():
    spans = [span(1, None, 0, 1000, "a"), span(2, 1, 0, 400, "b"),
             span(3, None, 2000, 2600, "b")]
    assert layer_totals(spans) == pytest.approx({"a": 600e-9, "b": 1000e-9})


def test_tracer_records_parents_request_ids_and_counts(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2,
                        lambda args, kwargs, result: {"n": result})
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(3) == 12
    assert outer(1) == 4
    first, a, b, second, c, d = tracer.spans
    assert (a.parent, b.parent, c.parent) == (first.id, first.id, second.id)
    assert {a.rid, b.rid} == {first.id} and c.rid == second.id
    assert a.attrs == {"n": 6}
    assert first.start <= a.start <= a.end <= b.start <= b.end <= first.end

    path = tmp_path / "t.json"
    tracer.write(str(path), {"k": 1})
    loaded, other = load_chrome(str(path))
    assert other == {"k": 1}
    assert [(s.id, s.parent, s.rid, s.name) for s in loaded] == \
        [(s.id, s.parent, s.rid, s.name) for s in tracer.spans]
    assert loaded[1].attrs == {"n": 6}
    assert abs(loaded[0].duration - first.duration) <= 1


def test_generator_spans_charge_only_resumes():
    tracer = Tracer()

    def produce():
        yield 1
        yield 2

    traced = tracer.wrap("gen", produce)
    assert list(traced()) == [1, 2]
    (gen,) = tracer.spans
    assert gen.acc and gen.parent is None and gen.duration >= 0
