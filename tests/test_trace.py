import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmopt.trace import (
    EventKind,
    Trace,
    TraceError,
    WorkloadSpec,
    parse_trace,
    parse_workload_spec,
    serialize_trace,
    synth_workload,
    trace_stats,
)

from conftest import live_bytes_after_each_event


def test_parse_minimal_trace():
    t = parse_trace("1 A 32 4096\n1 F 0 4096")
    assert len(t) == 2
    assert t.stats.distinct_sizes == (32,)
    assert t.events[1].size == 32  # free size resolved from the alloc


def test_parse_comments_and_blank_lines():
    t = parse_trace("# header\n\n1 A 8 0\n\n# mid\n1 F 0 0\n")
    assert len(t) == 2


def test_free_without_alloc_is_an_error():
    with pytest.raises(TraceError) as err:
        parse_trace("1 F 0 0")
    assert err.value.line == 1


def test_duplicate_live_object_id():
    with pytest.raises(TraceError) as err:
        parse_trace("7 A 8 0\n7 A 8 0\n")
    assert err.value.line == 2


def test_free_carries_zero_or_its_alloc_size():
    assert parse_trace("1 A 8 0\n1 F 8 0\n") == parse_trace("1 A 8 0\n1 F 0 0\n")
    for size in (999, -5):
        with pytest.raises(TraceError) as err:
            parse_trace(f"1 A 8 0\n1 F {size} 0\n")
        assert err.value.line == 2


def test_object_id_reusable_after_free():
    t = parse_trace("1 A 8 0\n1 F 0 0\n1 A 16 0\n1 F 0 0\n")
    assert t.stats.distinct_sizes == (8, 16)


def test_malformed_line_reports_line_number():
    with pytest.raises(TraceError) as err:
        parse_trace("1 A 8 0\nnot a line\n")
    assert err.value.line == 2
    with pytest.raises(TraceError) as err:
        parse_trace("1 X 8 0")
    assert err.value.line == 1
    with pytest.raises(TraceError) as err:
        parse_trace("-1 A 8 0")  # negative object id
    assert err.value.line == 1
    with pytest.raises(TraceError):
        parse_trace("1 A zero 0")
    with pytest.raises(TraceError):
        parse_trace("1 A 0 0")  # below minimum size


def test_serialize_empty_trace():
    assert serialize_trace(Trace(())) == ""


def test_serialize_two_event_trace_exact_lines():
    text = "1 A 32 4096\n1 F 0 4096\n"
    assert serialize_trace(parse_trace(text)) == text


def test_round_trip_generated_trace():
    spec = WorkloadSpec(events=1000, live_cap=50, sizes=(8, 32, 100), seed=123)
    t = synth_workload(spec)
    assert parse_trace(serialize_trace(t)) == t


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_round_trip_property(seed):
    spec = WorkloadSpec(events=200, live_cap=9, size_range=(1, 4000), seed=seed)
    t = synth_workload(spec)
    assert parse_trace(serialize_trace(t)) == t


def test_synth_is_deterministic():
    spec = WorkloadSpec(events=10, live_cap=5, sizes=(32,), seed=7)
    a = synth_workload(spec)
    b = synth_workload(spec)
    assert a == b
    assert all(ev.size == 32 for ev in a.events)


def test_synth_seed_argument_overrides_spec():
    spec = WorkloadSpec(events=100, live_cap=5, sizes=(8, 16), seed=7)
    assert synth_workload(spec, 7) == synth_workload(spec)
    assert synth_workload(spec, 8) != synth_workload(spec)


def test_synth_respects_cap_and_frees_everything():
    spec = WorkloadSpec(events=2000, live_cap=3, size_range=(8, 64), seed=5)
    t = synth_workload(spec)
    live = set()
    for ev in t.events:
        if ev.kind is EventKind.ALLOC:
            live.add(ev.object_id)
            assert len(live) <= 3
        else:
            live.remove(ev.object_id)
    assert not live


def test_synth_distinct_size_recount():
    spec = WorkloadSpec(events=100_000, live_cap=64, size_range=(8, 200_000), seed=17)
    t = synth_workload(spec)
    recount = {ev.size for ev in t.events if ev.kind is EventKind.ALLOC}
    assert t.stats.distinct_sizes == tuple(sorted(recount))


def test_stats_simple_sum_of_simultaneous():
    t = parse_trace("1 A 8 0\n2 A 16 0\n1 F 0 0\n2 F 0 0\n")
    assert t.stats.max_live_bytes == 24


def test_stats_max_live_matches_replay_oracle():
    spec = WorkloadSpec(events=10_000, live_cap=40, sizes=(8, 100, 4096), seed=3)
    t = synth_workload(spec)
    assert trace_stats(t).max_live_bytes == max(live_bytes_after_each_event(t))


def test_prefix_liveness_property():
    spec = WorkloadSpec(events=500, live_cap=7, sizes=(8,), seed=21)
    t = synth_workload(spec)
    live = 0
    for ev in t.events:
        live += 1 if ev.kind is EventKind.ALLOC else -1
        assert live >= 0


def test_infeasible_specs():
    with pytest.raises(ValueError):
        WorkloadSpec(events=10, live_cap=0, sizes=(8,))
    with pytest.raises(ValueError):
        WorkloadSpec(events=11, live_cap=5, sizes=(8,))  # odd
    with pytest.raises(ValueError):
        WorkloadSpec(events=10, live_cap=5, sizes=())
    with pytest.raises(ValueError):
        WorkloadSpec(events=10, live_cap=5, sizes=(8,), size_range=(8, 16))
    with pytest.raises(ValueError):
        WorkloadSpec(events=10, live_cap=5, sizes=(8, 16), weights=(1.0,))


def test_workload_spec_file_round_trip():
    spec = parse_workload_spec(
        """
        # demo workload
        sizes = 32,64
        weights = 3,1
        events = 40
        live_cap = 6
        seed = 11
        alloc_ratio = 0.6
        """
    )
    assert spec.sizes == (32, 64)
    assert spec.weights == (3.0, 1.0)
    assert spec.events == 40 and spec.live_cap == 6 and spec.seed == 11
    ranged = parse_workload_spec("sizes = 8..200\nevents = 10\nlive_cap = 2\n")
    assert ranged.size_range == (8, 200)
    with pytest.raises(TraceError, match="'sizes'"):
        parse_workload_spec("events = 10\nlive_cap = 2\n")  # sizes missing


@pytest.mark.parametrize(
    "text, line",
    [
        ("sizes = 8,x\nevents = 10\nlive_cap = 2\n", 1),
        ("sizes = 8\n# odd\nevents = 11\nlive_cap = 2\n", 3),
        ("sizes = 8,16\nweights = 1,y\nevents = 10\nlive_cap = 2\n", 2),
        ("sizes = 8,16\nevents = 10\nlive_cap = 2\nweights = 1\n", 4),
        ("sizes = 8\nevents = 10\nlive_cap = 2\nalloc_ratio = 1\n", 4),
        ("sizes = 8\nevents = 10\nlive_cap = 2\naloc_ratio = 0.9\n", 4),  # unknown key
        ("sizes = 8\nsizes = 16\nevents = 10\nlive_cap = 2\n", 2),  # repeated key
        ("sizes = 8,16,24\nweights = -1,2,3\nevents = 10\nlive_cap = 2\n", 2),
        ("sizes = 8,16\nweights = 0,0\nevents = 10\nlive_cap = 2\n", 2),
        ("sizes = 8,16\nweights = nan,1\nevents = 10\nlive_cap = 2\n", 2),
        ("sizes = 8,16\nweights = inf,1\nevents = 10\nlive_cap = 2\n", 2),
    ],
)
def test_workload_spec_errors_name_the_line(text, line):
    with pytest.raises(TraceError) as info:
        parse_workload_spec(text)
    assert info.value.line == line


def test_zero_weights_are_allowed_while_one_is_positive():
    spec = parse_workload_spec("sizes = 8,16\nweights = 0,1\nevents = 10\nlive_cap = 2\n")
    sizes = {ev.size for ev in synth_workload(spec).events}
    assert sizes == {16}
