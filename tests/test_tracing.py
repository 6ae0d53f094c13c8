"""Tests for the tracing layer: recorder, Gantt-chart totals, ASCII
export."""

import pytest

from repro import Recorder
from repro.platform import Platform
from repro.s4u import Engine
from repro.tracing import Interval, render_ascii_gantt


class TestRecorder:
    def test_record_and_query(self):
        recorder = Recorder()
        recorder.record_interval("h1", "compute", 0.0, 2.0, "job")
        recorder.record_interval("h1", "comm-send", 2.0, 3.0, "msg")
        recorder.record_interval("h2", "compute", 1.0, 4.0, "job2")
        assert recorder.rows() == ["h1", "h2"]
        assert [i.label for i in recorder.by_row("h1")] == ["job", "msg"]
        assert recorder.makespan() == pytest.approx(4.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(row="h", category="c", start=2.0, end=1.0)

    def test_empty_recorder_has_no_makespan(self):
        assert Recorder().makespan() == 0.0

    def test_rows_are_sorted_and_by_row_orders_by_start(self):
        recorder = Recorder()
        recorder.record_interval("zeta", "compute", 5.0, 6.0, "late")
        recorder.record_interval("alpha", "compute", 0.0, 1.0)
        recorder.record_interval("zeta", "comm-recv", 1.0, 2.0, "early")
        assert recorder.rows() == ["alpha", "zeta"]
        assert [i.label for i in recorder.by_row("zeta")] == ["early", "late"]
        assert recorder.by_row("ghost") == []


class TestGanttChart:
    def _simulate(self):
        platform = Platform("p")
        platform.add_host("client", 1e8)
        platform.add_host("server", 1e8)
        platform.add_link("net", 1e6, 0.001)
        platform.connect("client", "server", "net")
        recorder = Recorder()
        engine = Engine(platform, recorder=recorder)

        def client(actor):
            yield actor.engine.mailbox("server-inbox").put("request", size=2e6)
            yield actor.execute(2e8)
            yield actor.engine.mailbox("client-inbox").get()

        def server(actor):
            yield actor.engine.mailbox("server-inbox").get()
            yield actor.execute(3e8)
            yield actor.engine.mailbox("client-inbox").put("reply", size=1e5)

        engine.add_actor("client", "client", client)
        engine.add_actor("server", "server", server)
        engine.run()
        return recorder

    def test_simulation_records_compute_and_comm_intervals(self):
        summary = self._simulate().summary()
        assert summary["client"]["compute"] == pytest.approx(2.0)
        assert summary["server"]["compute"] == pytest.approx(3.0)
        assert summary["client"]["comm"] > 0
        assert summary["server"]["comm"] > 0
        # busy + idle == horizon for each row
        for totals in summary.values():
            assert totals["idle"] >= 0

    def test_overlapping_comms_counted(self):
        recorder = Recorder()
        recorder.record_interval("a", "comm-send", 0.0, 2.0)
        recorder.record_interval("b", "comm-send", 1.0, 3.0)
        recorder.record_interval("c", "comm-send", 5.0, 6.0)
        assert recorder.overlapping_comms() == 1

    def test_rows_follow_recorder_name_order(self):
        recorder = Recorder()
        recorder.record_interval("zeta", "compute", 0.0, 1.0)
        recorder.record_interval("alpha", "compute", 2.0, 3.0)
        recorder.record_interval("mid", "comm-send", 1.0, 2.0)
        assert list(recorder.summary()) == ["alpha", "mid", "zeta"]
        art = render_ascii_gantt(recorder, width=12).splitlines()
        assert [line.split()[0] for line in art[:-1]] == [
            "alpha", "mid", "zeta"]

    def test_summary_sums_each_row_in_start_order(self):
        """Compute and comm totals add a row's durations in ``by_row``
        order; idle time counts overlapping busy intervals once."""
        recorder = Recorder()
        for end in (0.3, 0.2, 0.1):
            recorder.record_interval("h", "compute", 0.0, end)
        recorder.record_interval("h", "comm-send", 0.5, 0.9)
        recorder.record_interval("g", "comm-recv", 0.0, 1.0)
        totals = recorder.summary()["h"]
        # the recording order would give another double
        assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        assert totals["compute"] == (0.1 + 0.2) + 0.3
        assert totals["comm"] == 0.9 - 0.5
        assert totals["idle"] == 1.0 - ((0.3 - 0.0) + (0.9 - 0.5))

    def test_record_maps_each_activity_kind_to_its_rows(self):
        """An exec lands on its host's row, a comm on its sender's and its
        receiver's rows."""
        recorder = self._simulate()
        assert [(i.row, i.category) for i in recorder.intervals
                if i.label == "comm"] == [
            ("client", "comm-send"), ("server", "comm-recv"),
            ("server", "comm-send"), ("client", "comm-recv")]
        assert sorted(i.row for i in recorder.intervals
                      if i.category == "compute") == ["client", "server"]

    def test_an_activity_that_never_started_is_not_recorded(self):
        platform = Platform("p")
        platform.add_host("h", 1e8)
        recorder = Recorder()
        engine = Engine(platform, recorder=recorder)

        def poster(actor):
            comm = yield actor.engine.mailbox("nobody").put_async("x",
                                                                  size=1.0)
            comm.cancel()

        engine.add_actor("poster", "h", poster)
        engine.run()
        assert recorder.intervals == []


class TestExports:
    def test_ascii_gantt_renders_rows_and_marks(self):
        recorder = Recorder()
        recorder.record_interval("alpha", "compute", 0.0, 5.0)
        recorder.record_interval("alpha", "comm-send", 5.0, 10.0)
        recorder.record_interval("beta", "comm-recv", 0.0, 10.0)
        art = render_ascii_gantt(recorder, width=20)
        lines = art.splitlines()
        assert lines[0].startswith("alpha")
        assert "#" in lines[0] and "-" in lines[0]
        assert "-" in lines[1]
        assert "#" not in lines[1]

    def test_ascii_gantt_empty_recorder(self):
        assert render_ascii_gantt(Recorder()) == ""
