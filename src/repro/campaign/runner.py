"""Multi-process campaign driver: seed × config grids over forked workers.

One campaign = one ``run_fn`` applied to a list of :class:`ExperimentSpec`
(seed, config) points.  :func:`run_campaign` executes the grid either

* **cold** — ``run_fn(seed, config)`` builds its own engine per run, or
* **forked** — every run starts from one warmed ``engine.snapshot()``
  blob: the worker calls :meth:`Engine.restore` and hands the resumed
  engine to ``run_fn(engine, seed, config)``, so the common prefix
  (platform realization + warm-up phase) is paid once instead of once
  per run.

Process discipline: every run gets its own ``fork``-context process and
pipe, at most ``workers`` of them alive at once, and results land in grid
order (the result of a campaign is a pure function of ``run_fn`` and the
grid, independent of ``workers``).  A run whose process dies without
replying, or outlives the optional ``run_timeout`` watchdog, is retried
once in a fresh process; a second loss fails the campaign.  The snapshot
blob and ``run_fn`` reach each run process by fork inheritance, never by
pickle, so ``run_fn`` may be a closure and the blob is shared
copy-on-write.

Results are plain per-run metric dicts (numbers, or nested dicts of
numbers — ``solver_stats()`` / ``kernel_stats()`` drop in directly);
:func:`summarize` flattens them and reduces each metric across runs to
``{min, median, p95, max, mean, n}``.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.exceptions import SimGridError
from repro.kernel.collector import paused_collector

__all__ = [
    "CampaignError",
    "CampaignResult",
    "ExperimentSpec",
    "default_campaign_workers",
    "grid",
    "run_campaign",
    "summarize",
]


class CampaignError(SimGridError):
    """One or more experiments of a campaign raised; the campaign's result
    would be incomplete, so the whole campaign fails with the collected
    tracebacks instead of silently dropping runs."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of a campaign grid.

    ``config`` is an arbitrary mapping handed verbatim to ``run_fn``
    (``None`` for config-less sweeps); ``label`` tags the run in reports,
    defaulting to the config's own ``"label"`` key when present.
    """

    seed: int
    config: Optional[Mapping[str, Any]] = None
    label: str = ""


def grid(seeds: Iterable[int],
         configs: Optional[Sequence[Optional[Mapping[str, Any]]]] = None,
         ) -> List[ExperimentSpec]:
    """Cross ``seeds`` with ``configs`` into a flat list of specs.

    The grid is ordered config-major (all seeds of config 0, then all
    seeds of config 1, ...), and that order is the canonical run order of
    the campaign: serial and parallel execution both report results in
    grid order.
    """
    config_list: List[Optional[Mapping[str, Any]]] = (
        list(configs) if configs is not None else [None])
    if not config_list:
        raise ValueError("configs must not be an empty sequence")
    specs: List[ExperimentSpec] = []
    for index, config in enumerate(config_list):
        label = ""
        if isinstance(config, Mapping) and "label" in config:
            label = str(config["label"])
        elif len(config_list) > 1:
            label = f"cfg{index}"
        for seed in seeds:
            specs.append(ExperimentSpec(int(seed), config, label))
    if not specs:
        raise ValueError("the seed iterable produced no experiments")
    return specs


def default_campaign_workers() -> int:
    """Worker count from ``REPRO_CAMPAIGN_WORKERS``.

    Unset, empty or ``0`` is serial; ``auto`` is ``cpu_count - 1``.
    """
    raw = os.environ.get("REPRO_CAMPAIGN_WORKERS", "0").strip().lower()
    if raw == "auto":
        return max(0, (os.cpu_count() or 1) - 1)
    try:
        workers = int(raw)
    except ValueError:
        return 0
    return max(0, workers)


# ------------------------------------------------------------------------------
# aggregation
# ------------------------------------------------------------------------------
def _flatten(metrics: Mapping[str, Any], prefix: str,
             out: Dict[str, float]) -> None:
    for key in metrics:
        value = metrics[key]
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            _flatten(value, name + ".", out)
        elif isinstance(value, bool):
            out[name] = float(value)
        elif isinstance(value, (int, float)):
            out[name] = float(value)
        # non-numeric leaves (labels, lists...) are identity, not metrics


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation) of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(metric_dicts: Sequence[Mapping[str, Any]]
              ) -> Dict[str, Dict[str, float]]:
    """Reduce per-run metric dicts to per-metric distribution summaries.

    Nested dicts flatten with dotted keys (``kernel.updates``); each
    metric present in at least one run maps to ``{min, median, p95, max,
    mean, n}`` where ``n`` counts the runs reporting it.
    """
    series: Dict[str, List[float]] = {}
    for metrics in metric_dicts:
        flat: Dict[str, float] = {}
        _flatten(metrics, "", flat)
        for name, value in flat.items():
            series.setdefault(name, []).append(value)
    summary: Dict[str, Dict[str, float]] = {}
    for name in sorted(series):
        values = sorted(series[name])
        summary[name] = {
            "min": values[0],
            "median": _percentile(values, 0.5),
            "p95": _percentile(values, 0.95),
            "max": values[-1],
            "mean": sum(values) / len(values),
            "n": len(values),
        }
    return summary


# ------------------------------------------------------------------------------
# execution
# ------------------------------------------------------------------------------
def _execute_one(run_fn: Callable[..., Mapping[str, Any]],
                 spec: ExperimentSpec,
                 snapshot: Optional[bytes]) -> Mapping[str, Any]:
    if snapshot is None:
        metrics = run_fn(spec.seed, spec.config)
    else:
        from repro.s4u.engine import Engine
        metrics = run_fn(Engine.restore(snapshot), spec.seed, spec.config)
    if not isinstance(metrics, Mapping):
        raise TypeError(
            f"run_fn must return a metrics mapping, got "
            f"{type(metrics).__name__} for seed={spec.seed}")
    return metrics


def _worker_main(conn, run_fn, spec: ExperimentSpec,
                 snapshot: Optional[bytes]) -> None:
    """Run-process body: execute one run, send ``(status, payload)`` once.

    Errors travel as formatted tracebacks rather than killing the
    process, so the parent tells an experiment that raised from a process
    that died.
    """
    try:
        with paused_collector():
            try:
                reply = ("ok", dict(_execute_one(run_fn, spec, snapshot)))
            except BaseException:
                reply = ("error", traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # parent gone; stop quietly
                return
            except Exception:
                conn.send(("error", f"seed={spec.seed}: result not "
                           "picklable:\n" + traceback.format_exc()))
    finally:
        conn.close()


def _run_forked(ctx, run_fn, specs: List[ExperimentSpec],
                snapshot: Optional[bytes], workers: int,
                run_timeout: Optional[float],
                results: List[Optional[Mapping[str, Any]]],
                errors: Dict[int, str]) -> Tuple[int, int, int]:
    """Run every spec in its own process forked from ``ctx``, ``workers``
    at a time.

    A run is lost when its process dies without replying or outlives
    ``run_timeout`` from its own start; a lost run goes back to the end
    of the queue once, and a second loss is recorded in ``errors``.
    Returns ``(deaths, timeouts, retries)``.
    """
    from multiprocessing.connection import wait

    # (index, why the previous attempt was lost, or None on a first try)
    queue = deque((index, None) for index in range(len(specs)))
    running: Dict[Any, Tuple[int, Optional[str], Any, float]] = {}
    deaths = timeouts = retries = 0
    try:
        while queue or running:
            while queue and len(running) < workers:
                index, lost_before = queue.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main, daemon=True,
                    args=(child_conn, run_fn, specs[index], snapshot))
                proc.start()
                child_conn.close()
                running[parent_conn] = (index, lost_before, proc,
                                        time.monotonic())
            budget = None
            if run_timeout is not None:
                oldest = min(start for *_, start in running.values())
                budget = max(0.0, oldest + run_timeout - time.monotonic())
            ready = wait(list(running), budget)
            now = time.monotonic()
            for conn in list(running):
                index, lost_before, proc, start = running[conn]
                lost = None
                if conn in ready:
                    try:
                        status, payload = conn.recv()
                    except (EOFError, OSError):
                        deaths += 1
                        lost = "its process died without replying"
                    else:
                        if status == "ok":
                            results[index] = payload
                        else:
                            errors[index] = payload
                elif run_timeout is not None and now - start >= run_timeout:
                    timeouts += 1
                    lost = f"hung past the {run_timeout}s watchdog"
                    proc.kill()
                else:
                    continue
                del running[conn]
                conn.close()
                proc.join()
                if lost is None:
                    continue
                if lost_before is None:
                    retries += 1
                    queue.append((index, lost))
                else:
                    errors[index] = (f"seed={specs[index].seed}: run lost "
                                     f"twice — {lost_before}, then {lost}")
    finally:
        for conn, (_, _, proc, _) in running.items():
            conn.close()
            proc.kill()
            proc.join()
    return deaths, timeouts, retries


def run_campaign(run_fn: Callable[..., Mapping[str, Any]],
                 experiments: Iterable[Union[int, ExperimentSpec]], *,
                 workers: Optional[int] = None,
                 snapshot: Optional[bytes] = None,
                 run_timeout: Optional[float] = None) -> "CampaignResult":
    """Run every experiment, in-process or each in its own forked process.

    Parameters
    ----------
    run_fn:
        ``run_fn(seed, config) -> metrics`` without a snapshot, or
        ``run_fn(engine, seed, config) -> metrics`` with one — the engine
        is freshly restored from the blob for each run.
        Must be deterministic in its arguments: the campaign result is
        then independent of ``workers``.
    experiments:
        :class:`ExperimentSpec` items (see :func:`grid`); bare ints are
        promoted to config-less specs.
    workers:
        Most run processes alive at once; ``None`` reads
        :func:`default_campaign_workers`, ``0`` runs serially in-process.
        Forking requires the POSIX ``fork`` start method; where that is
        unavailable the campaign silently runs serially.
    snapshot:
        Warmed-engine blob from :meth:`Engine.snapshot`; enables the
        fork-per-run mode described above.
    run_timeout:
        Per-run wall-clock watchdog in seconds, counted from that run's
        own start; ``None`` disables it.  Only meaningful with
        ``workers >= 1``: a run past the budget is declared hung and its
        process killed.

    With ``workers >= 1`` a run whose process dies without replying, or
    hangs, is retried once in a fresh process; a run lost twice fails the
    campaign.  Raises :class:`CampaignError` if any experiment raised or
    was lost twice (after all others finished), so a result always covers
    the full grid.

    Each run executes with Python's cyclic collector paused and ends in
    one ``gc.collect(0)`` (:func:`~repro.kernel.collector.paused_collector`):
    serially, the pause spans the run *and* its :meth:`Engine.restore`, so
    the young pass frees that run's engine — and any cyclic garbage its
    actor bodies created — while its objects are still generation 0,
    before the next run starts; a forked run pauses its whole process and
    leaves the parent's collector as it was.  A caller that paused the
    collector itself keeps it paused: the runner then makes no pass.
    """
    specs: List[ExperimentSpec] = [
        spec if isinstance(spec, ExperimentSpec) else ExperimentSpec(int(spec))
        for spec in experiments]
    if not specs:
        raise ValueError("run_campaign needs at least one experiment")
    if workers is None:
        workers = default_campaign_workers()
    workers = min(int(workers), len(specs))
    if workers >= 1:
        # Imported for a pool only: a serial campaign never loads it.
        import multiprocessing
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            workers = 0

    results: List[Optional[Mapping[str, Any]]] = [None] * len(specs)
    errors: Dict[int, str] = {}
    fallbacks = timeouts = retries = 0
    if workers >= 1:
        fallbacks, timeouts, retries = _run_forked(
            ctx, run_fn, specs, snapshot, workers, run_timeout, results,
            errors)
    else:
        for index, spec in enumerate(specs):
            with paused_collector():
                try:
                    results[index] = dict(
                        _execute_one(run_fn, spec, snapshot))
                except Exception:
                    errors[index] = traceback.format_exc()
    if errors:
        first = min(errors)
        raise CampaignError(
            f"{len(errors)}/{len(specs)} experiments failed; first failure "
            f"(seed={specs[first].seed}, label={specs[first].label!r}):\n"
            f"{errors[first]}")
    runs = [
        {"seed": spec.seed, "label": spec.label, "metrics": results[index]}
        for index, spec in enumerate(specs)]
    return CampaignResult(specs=specs, runs=runs, workers=workers,
                          forked=snapshot is not None, fallbacks=fallbacks,
                          timeouts=timeouts, retries=retries)


@dataclass
class CampaignResult:
    """The outcome of one :func:`run_campaign` call, in grid order."""

    specs: List[ExperimentSpec]
    runs: List[Dict[str, Any]]
    workers: int
    forked: bool
    #: Runs whose process died without replying, watchdog firings (runs
    #: declared hung), and runs re-executed after either loss.
    fallbacks: int = 0
    timeouts: int = 0
    retries: int = 0

    def metrics(self) -> List[Mapping[str, Any]]:
        """The raw per-run metric dicts, in grid order."""
        return [run["metrics"] for run in self.runs]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-metric distribution summaries (see :func:`summarize`)."""
        return summarize(self.metrics())

    def to_report(self, scenario: str = "campaign") -> Dict[str, Any]:
        """BENCH-style JSON document: identity, summaries, per-run rows."""
        return {
            "schema": "repro-campaign/1",
            "scenario": scenario,
            "runs": len(self.runs),
            "workers": self.workers,
            "forked": self.forked,
            "fallbacks": self.fallbacks,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "metrics": self.summary(),
            "per_run": self.runs,
        }

    def write_json(self, path: str, scenario: str = "campaign") -> None:
        """Write :meth:`to_report` to ``path`` (pretty-printed, trailing \\n)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_report(scenario), handle, indent=2,
                      sort_keys=False)
            handle.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CampaignResult(runs={len(self.runs)}, workers={self.workers},"
                f" forked={self.forked}, fallbacks={self.fallbacks},"
                f" timeouts={self.timeouts}, retries={self.retries})")
