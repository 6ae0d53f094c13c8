"""Tracing and visualisation: recording what happened, building Gantt charts.

The paper's Gantt-chart figure ("Dark portions denote computations, light
portions denote communications") is regenerated from the
:class:`~repro.tracing.recorder.Recorder` attached to an MSG environment:
every completed computation and communication is recorded as an interval on
its host's row, and :class:`~repro.tracing.gantt.GanttChart` turns those
intervals into a printable/exportable chart.
"""

from repro.tracing.recorder import Interval, Recorder
from repro.tracing.gantt import GanttChart
from repro.tracing.export import render_ascii_gantt

__all__ = ["Interval", "Recorder", "GanttChart", "render_ascii_gantt"]
