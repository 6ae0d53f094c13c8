"""Tests for trace parsing, validation and iteration (repro.surf.trace)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TraceError
from repro.surf.trace import Trace, TraceKind


class TestConstruction:
    def test_simple_trace(self):
        trace = Trace([(0.0, 1.0), (10.0, 0.5)])
        assert len(trace.events) == 2
        assert trace.period is None

    def test_non_monotonic_times_rejected(self):
        with pytest.raises(ValueError):
            Trace([(5.0, 1.0), (1.0, 0.5)])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Trace([(-1.0, 1.0)])

    def test_period_must_exceed_last_event(self):
        with pytest.raises(ValueError):
            Trace([(0.0, 1.0), (10.0, 0.5)], period=10.0)

    def test_periodic_trace_needs_events(self):
        with pytest.raises(ValueError):
            Trace([], period=5.0)

    # A NaN date compares false with everything: it would head SURF's
    # trace heap and no later event of the trace would ever fire.
    @pytest.mark.parametrize("events", [
        [(0.0, 1.0), (math.nan, 1.0), (5.0, 0.0)],
        [(math.nan, 1.0)],
        [(0.0, 1.0), (math.nan, 0.0)],
    ])
    def test_nan_event_time_rejected_naming_the_trace(self, events):
        with pytest.raises(ValueError, match="'a-state'.*NaN"):
            Trace(events, name="a-state")

    def test_nan_period_rejected_naming_the_trace(self):
        with pytest.raises(ValueError, match="'a-load'.*nan"):
            Trace([(0.0, 1.0), (1.0, 0.5)], period=math.nan, name="a-load")


class TestParsing:
    def test_parse_basic_format(self):
        trace = Trace.parse("0.0 1.0\n5.5 0.25\n")
        assert len(trace.events) == 2
        assert trace.events[1].time == 5.5
        assert trace.events[1].value == 0.25

    def test_parse_periodicity_and_comments(self):
        text = "# generated trace\nPERIODICITY 12\n0 1\n6 0.5\n"
        trace = Trace.parse(text)
        assert trace.period == 12.0
        assert len(trace.events) == 2

    def test_parse_loopafter_alias(self):
        trace = Trace.parse("LOOPAFTER 4\n0 1\n")
        assert trace.period == 4.0

    @pytest.mark.parametrize("text, line", [
        ("0 1 extra\n", "line 1 '0 1 extra'"),
        ("0 1\nPERIODICITY\n", "line 2 'PERIODICITY'"),
        ("# header\n0 x\n", "line 2 '0 x'"),
        ("0 1\nLOOPAFTER\n", "line 2 'LOOPAFTER'"),
        ("0 1\n\n5\n", "line 3 '5'"),
        ("PERIODICITY ten\n0 1\n", "line 1 'PERIODICITY ten'"),
        ("x 1\n", "line 1 'x 1'"),
    ], ids=["extra-field", "periodicity-without-value", "not-a-number",
            "loopafter-without-value", "date-without-value",
            "periodicity-not-a-number", "date-not-a-number"])
    def test_parse_bad_line_raises(self, text, line):
        """The error names the trace and the line, whatever is wrong."""
        with pytest.raises(ValueError, match=f"'a.trace'.*{line}"):
            Trace.parse(text, name="a.trace")

    @pytest.mark.parametrize("text", ["0 1\nnan 1\n5 0\n",
                                      "PERIODICITY nan\n0 1\n"])
    def test_parse_rejects_nan_dates(self, text):
        with pytest.raises(ValueError, match="'a.trace'"):
            Trace.parse(text, name="a.trace")


def drain(iterator):
    """Every event left in a finite trace's iterator."""
    events = []
    while (nxt := iterator.next_event()) is not None:
        events.append(nxt)
    return events


class TestIterator:
    def test_finite_iteration(self):
        trace = Trace([(1.0, 0.5), (2.0, 1.0)])
        assert drain(trace.iter_from(0.0)) == [(1.0, 0.5), (2.0, 1.0)]

    def test_iteration_from_offset_skips_past_events(self):
        trace = Trace([(1.0, 0.5), (2.0, 1.0), (3.0, 0.0)])
        assert drain(trace.iter_from(1.5)) == [(2.0, 1.0), (3.0, 0.0)]

    def test_periodic_iteration_is_infinite(self):
        trace = Trace([(0.0, 1.0), (5.0, 0.5)], period=10.0)
        iterator = trace.iter_from(0.0)
        dates = [iterator.next_event()[0] for _ in range(6)]
        assert dates == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]


class TestIteratorFastForward:
    """`iter_from(start)` jumps whole cycles in O(1), not O(start/period)."""

    def test_huge_start_yields_correct_events(self):
        # With the event-by-event fast-forward this would replay 1e8
        # cycles; the arithmetic jump makes it instant.  Period 10.0 and
        # integer event times keep every expected date fp-exact.
        trace = Trace([(0.0, 1.0), (5.0, 0.5)], period=10.0)
        iterator = trace.iter_from(1e9)
        assert iterator.next_event() == (1e9, 1.0)
        assert iterator.next_event() == (1e9 + 5.0, 0.5)
        assert iterator.next_event() == (1e9 + 10.0, 1.0)

    def test_jump_lands_within_two_cycles_of_start(self):
        trace = Trace([(0.0, 1.0), (5.0, 0.5)], period=10.0)
        iterator = trace.iter_from(1e9)
        # The arithmetic jump leaves at most the one-cycle safety slack
        # plus the current cycle for the loop to walk.
        assert iterator._cycle_offset >= 1e9 - 2 * 10.0

    def test_start_inside_first_cycle_unaffected(self):
        trace = Trace([(0.0, 1.0), (5.0, 0.5)], period=10.0)
        iterator = trace.iter_from(7.0)
        assert iterator.next_event() == (10.0, 1.0)

    def test_finite_trace_huge_start_is_exhausted(self):
        trace = Trace([(1.0, 0.5), (2.0, 1.0)])
        assert trace.iter_from(1e9).next_event() is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                          st.floats(min_value=0, max_value=1.0)),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=99))
def test_property_fast_forward_matches_naive_skip(pairs, cycles, tenths):
    """Jumping to `start` equals iterating from 0 and discarding < start.

    Period 10.0 with integer event times makes the naive repeated
    addition of the period fp-exact, so the comparison is `==`, not
    approx — the jump must be *semantically identical* to the old loop.
    """
    pairs = sorted(pairs, key=lambda p: p[0])
    trace = Trace(pairs, period=10.0)
    start = cycles * 10.0 + tenths / 10.0
    naive = trace.iter_from(0.0)
    first = naive.next_event()
    while first[0] < start:
        first = naive.next_event()
    jumped = trace.iter_from(start)
    assert jumped.next_event() == first
    for _ in range(4):
        assert jumped.next_event() == naive.next_event()


class TestAvailabilityValidation:
    """Bad scaling factors fail at load, naming the trace (satellite fix)."""

    def test_validate_accepts_boundaries_and_chains(self):
        trace = Trace([(0.0, 0.0), (1.0, 1.0)], name="ok")
        assert trace.validate_availability() is trace

    def test_value_above_one_rejected_with_context(self):
        trace = Trace([(0.0, 1.0), (3.0, 1.5)], name="overload")
        with pytest.raises(TraceError) as err:
            trace.validate_availability()
        message = str(err.value)
        assert "overload" in message
        assert "1.5" in message
        assert "t=3.0" in message

    def test_negative_value_rejected(self):
        with pytest.raises(TraceError):
            Trace([(0.0, -0.1)], name="neg").validate_availability()

    def test_nan_value_rejected(self):
        with pytest.raises(TraceError):
            Trace([(0.0, float("nan"))], name="nan").validate_availability()

    def test_platform_add_host_validates_at_declaration(self):
        from repro.platform import Platform
        platform = Platform()
        bad = Trace([(0.0, 2.0)], name="cpu-load")
        with pytest.raises(TraceError, match="cpu-load"):
            platform.add_host("h", 1e9, availability_trace=bad)

    def test_platform_add_link_validates_at_declaration(self):
        from repro.platform import Platform
        platform = Platform()
        bad = Trace([(0.0, -1.0)], name="bw")
        with pytest.raises(TraceError, match="bw"):
            platform.add_link("l", 1e6, bandwidth_trace=bad)

    def test_state_trace_values_unconstrained(self):
        # State traces are boolean-ish (0 = off, else on): values outside
        # [0, 1] are legal and must not be caught by availability checks.
        from repro.platform import Platform
        platform = Platform()
        platform.add_host("h", 1e9,
                          state_trace=Trace([(1.0, 0.0), (2.0, 7.0)]))

    def test_register_resource_traces_validates(self):
        from repro.surf.engine import SurfEngine
        engine = SurfEngine()
        bad = Trace([(0.0, 1.2)], name="direct")
        cpu = engine.cpu_model.add_cpu("h", speed=1e9,
                                       availability_trace=bad)
        with pytest.raises(TraceError, match="direct"):
            engine.register_resource_traces(cpu)


def finish_date(trace, flops):
    """Date a ``flops`` execution on a 1 Gflop/s CPU under ``trace`` ends."""
    from repro.surf.engine import SurfEngine
    engine = SurfEngine()
    cpu = engine.cpu_model.add_cpu("h", speed=1e9, availability_trace=trace)
    engine.register_resource_traces(cpu)
    action = engine.cpu_model.execute(cpu, flops)
    while True:     # a periodic trace keeps the engine busy forever
        if action in engine.step().completed:
            return engine.clock


class TestTraceDrivesAvailability:
    """A trace's value at a date is the CPU's availability at that date."""

    def test_nominal_speed_before_the_first_event(self):
        # 2 s at full speed (2 Gflop), then 1 Gflop at 0.5 Gflop/s.
        assert finish_date(Trace([(2.0, 0.5)]), 3e9) == pytest.approx(4.0)

    def test_last_value_holds_after_the_last_event(self):
        assert finish_date(Trace([(0.0, 0.25)]), 1e9) == pytest.approx(4.0)

    def test_periodic_trace_wraps(self):
        # [0, 5) full: 5 Gflop; [5, 10) half: 2.5 Gflop; then full again.
        trace = Trace([(0.0, 1.0), (5.0, 0.5)], period=10.0)
        assert finish_date(trace, 10e9) == pytest.approx(12.5)


class TestRegisterIdempotency:
    """Registering a resource's traces twice schedules them once."""

    def test_double_register_fires_events_once(self):
        from repro.surf.engine import SurfEngine
        engine = SurfEngine()
        trace = Trace([(0.0, 1.0), (1.0, 0.5)], name="load")
        cpu = engine.cpu_model.add_cpu("h", speed=1e9,
                                       availability_trace=trace)
        engine.register_resource_traces(cpu)
        engine.register_resource_traces(cpu)
        assert len(engine._trace_heap) == 1
        engine.cpu_model.execute(cpu, 2e9)
        # 1 s at full speed, then 1e9 flops left at 5e8 flop/s.  A doubled
        # registration would not change the dates here, but it *would*
        # double every heap pop — the heap length above is the real guard;
        # this run proves the single registration still drives the dip.
        while engine.step() is not None:
            pass
        assert engine.clock == pytest.approx(3.0)

    def test_failed_validation_allows_retry_after_fix(self):
        # A rejected registration must not poison the idempotency set:
        # the same resource with a corrected trace registers fine.
        from repro.surf.engine import SurfEngine
        engine = SurfEngine()
        bad = Trace([(0.0, 2.0)], name="bad")
        cpu = engine.cpu_model.add_cpu("h", speed=1e9,
                                       availability_trace=bad)
        with pytest.raises(TraceError):
            engine.register_resource_traces(cpu)
        cpu.availability_trace = Trace([(0.0, 0.5)], name="fixed")
        engine.register_resource_traces(cpu)
        assert len(engine._trace_heap) == 1


class TestTraceKind:
    def test_kinds(self):
        assert TraceKind.AVAILABILITY.value == "availability"
        assert TraceKind.STATE.value == "state"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=9.0),
                          st.floats(min_value=0, max_value=1.0)),
                min_size=1, max_size=10),
       st.integers(min_value=0, max_value=35))
def test_property_periodic_iterator_dates_increase(pairs, probes):
    """A periodic trace iterator yields strictly increasing dates forever."""
    pairs = sorted(pairs, key=lambda p: p[0])
    trace = Trace(pairs, period=10.0)
    iterator = trace.iter_from(0.0)
    previous = -1.0
    for _ in range(probes + 1):
        date, _ = iterator.next_event()
        assert date >= previous
        previous = date
