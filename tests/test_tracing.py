"""Tests for the tracing layer: recorder, Gantt chart, ASCII export."""

import pytest

from repro import Recorder, GanttChart
from repro.platform import Platform
from repro.s4u import Engine
from repro.tracing import render_ascii_gantt
from repro.tracing.recorder import Interval


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
        recorder = self._simulate()
        chart = GanttChart(recorder)
        summary = chart.summary()
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
        chart = GanttChart(recorder)
        assert chart.overlapping_comms() == 1

    def test_rows_follow_recorder_name_order(self):
        recorder = Recorder()
        recorder.record_interval("zeta", "compute", 0.0, 1.0)
        recorder.record_interval("alpha", "compute", 2.0, 3.0)
        recorder.record_interval("mid", "comm-send", 1.0, 2.0)
        chart = GanttChart(recorder)
        assert [row.name for row in chart.rows] == ["alpha", "mid", "zeta"]
        assert chart.rows[0].intervals == recorder.by_row("alpha")


class TestExports:
    def test_ascii_gantt_renders_rows_and_marks(self):
        recorder = Recorder()
        recorder.record_interval("alpha", "compute", 0.0, 5.0)
        recorder.record_interval("alpha", "comm-send", 5.0, 10.0)
        recorder.record_interval("beta", "comm-recv", 0.0, 10.0)
        chart = GanttChart(recorder)
        art = render_ascii_gantt(chart, width=20)
        lines = art.splitlines()
        assert lines[0].startswith("alpha")
        assert "#" in lines[0] and "-" in lines[0]
        assert "-" in lines[1]
        assert "#" not in lines[1]

    def test_ascii_gantt_empty_recorder(self):
        chart = GanttChart(Recorder())
        assert render_ascii_gantt(chart) == ""
