"""Multi-process campaign driver: seed × config grids over forked workers.

One campaign = one ``run_fn`` applied to a list of :class:`ExperimentSpec`
(seed, config) points.  :func:`run_campaign` executes the grid either

* **cold** — ``run_fn(seed, config)`` builds its own engine per run, or
* **forked** — every run starts from one warmed ``engine.snapshot()``
  blob: the worker calls :meth:`Engine.restore` and hands the resumed
  engine to ``run_fn(engine, seed, config)``, so the common prefix
  (platform realization + warm-up phase) is paid once instead of once
  per run.

Process discipline: ``fork``-context workers over pipes, static
round-robin task assignment (deterministic — the result of a campaign is
a pure function of ``run_fn`` and the grid, independent of ``workers``),
and any worker death degrades that worker's share to serial execution in
the parent instead of failing the campaign.  The snapshot blob and
``run_fn`` travel to the workers by fork inheritance, never by pickle,
so ``run_fn`` may be a closure and the blob is shared copy-on-write.

Results are plain per-run metric dicts (numbers, or nested dicts of
numbers — ``solver_stats()`` / ``kernel_stats()`` drop in directly);
:func:`summarize` flattens them and reduces each metric across runs to
``{min, median, p95, max, mean, n}``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.exceptions import SimGridError

__all__ = [
    "CampaignError",
    "CampaignResult",
    "ExperimentSpec",
    "default_campaign_workers",
    "default_run_timeout",
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


def _worker_main(conn, run_fn, tasks: List[Tuple[int, ExperimentSpec]],
                 snapshot: Optional[bytes]) -> None:
    """Worker body: execute an assigned share, stream (index, status, payload).

    Every task answers exactly once — errors travel as formatted
    tracebacks rather than killing the worker, so one failed experiment
    does not discard its siblings' results.
    """
    try:
        for index, spec in tasks:
            try:
                payload: Any = dict(_execute_one(run_fn, spec, snapshot))
                reply = (index, "ok", payload)
            except BaseException:
                reply = (index, "error", traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # parent gone; stop quietly
                return
            except Exception:
                conn.send((index, "error",
                           f"seed={spec.seed}: result not picklable:\n"
                           + traceback.format_exc()))
    finally:
        conn.close()


def _run_parallel(run_fn, tasks: List[Tuple[int, ExperimentSpec]],
                  snapshot: Optional[bytes], workers: int,
                  results: List[Optional[Mapping[str, Any]]],
                  errors: Dict[int, str],
                  run_timeout: Optional[float] = None
                  ) -> Tuple[int, int, List[int]]:
    """Fan ``tasks`` (global-index, spec pairs) over fork workers.

    Tasks are assigned round-robin *before* starting (static, so the
    assignment is deterministic); a worker that dies mid-share simply
    leaves its unanswered tasks for the caller to recover.

    ``run_timeout`` (wall-clock seconds) arms a per-run watchdog: workers
    answer their share in task order, so when no reply arrives within the
    timeout the share's first unanswered task is the hung one — the
    worker is terminated and the share's remainder is left for recovery.

    Returns ``(deaths, timeouts, lost)``: worker-death count, watchdog
    firings, and the task indices left unanswered.
    """
    ctx = multiprocessing.get_context("fork")
    shares: List[List[Tuple[int, ExperimentSpec]]] = [
        [] for _ in range(workers)]
    for position, task in enumerate(tasks):
        shares[position % workers].append(task)
    procs = []
    for share in shares:
        if not share:
            continue
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, run_fn, share, snapshot),
                           daemon=True)
        proc.start()
        child_conn.close()
        procs.append((parent_conn, proc, share))
    deaths = 0
    timeouts = 0
    lost: List[int] = []
    for parent_conn, proc, share in procs:
        answered = 0
        hung = False
        try:
            while answered < len(share):
                if run_timeout is not None and not parent_conn.poll(
                        run_timeout):
                    hung = True
                    timeouts += 1
                    break
                index, status, payload = parent_conn.recv()
                answered += 1
                if status == "ok":
                    results[index] = payload
                else:
                    errors[index] = payload
        except (EOFError, OSError):
            deaths += 1  # leftover tasks recovered by the caller
        finally:
            parent_conn.close()
        if hung:
            proc.terminate()
        proc.join(timeout=30.0)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join()
        for index, _spec in share:
            if results[index] is None and index not in errors:
                lost.append(index)
    return deaths, timeouts, lost


def default_run_timeout() -> Optional[float]:
    """Per-run watchdog from ``REPRO_CAMPAIGN_RUN_TIMEOUT`` (seconds).

    Unset, empty, unparsable or non-positive all disable the watchdog —
    it is strictly opt-in, since a legitimate long run is
    indistinguishable from a hang without a budget from the caller.
    """
    raw = os.environ.get("REPRO_CAMPAIGN_RUN_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def run_campaign(run_fn: Callable[..., Mapping[str, Any]],
                 experiments: Iterable[Union[int, ExperimentSpec]], *,
                 workers: Optional[int] = None,
                 snapshot: Optional[bytes] = None,
                 run_timeout: Optional[float] = None) -> "CampaignResult":
    """Run every experiment, in-process or over forked workers.

    Parameters
    ----------
    run_fn:
        ``run_fn(seed, config) -> metrics`` without a snapshot, or
        ``run_fn(engine, seed, config) -> metrics`` with one — the engine
        is freshly restored from the blob for each run and closed after.
        Must be deterministic in its arguments: the campaign result is
        then independent of ``workers``.
    experiments:
        :class:`ExperimentSpec` items (see :func:`grid`); bare ints are
        promoted to config-less specs.
    workers:
        Worker process count; ``None`` reads
        :func:`default_campaign_workers`, ``0`` runs serially in-process.
        Forking requires the POSIX ``fork`` start method; where that is
        unavailable the campaign silently runs serially.
    snapshot:
        Warmed-engine blob from :meth:`Engine.snapshot`; enables the
        fork-per-run mode described above.
    run_timeout:
        Per-run wall-clock watchdog in seconds (``None`` reads
        ``REPRO_CAMPAIGN_RUN_TIMEOUT``; unset/non-positive disables it).
        Only meaningful with ``workers >= 1``: a run that produces no
        reply within the budget is declared hung, its worker is
        terminated, and the run is retried once in a fresh single-task
        worker (as are runs lost to a worker death).  A run hung or lost
        twice fails the campaign — after the rest of the grid completed.

    Raises :class:`CampaignError` if any experiment raised (after all
    others finished), so a result always covers the full grid.
    """
    specs: List[ExperimentSpec] = [
        spec if isinstance(spec, ExperimentSpec) else ExperimentSpec(int(spec))
        for spec in experiments]
    if not specs:
        raise ValueError("run_campaign needs at least one experiment")
    if workers is None:
        workers = default_campaign_workers()
    workers = min(int(workers), len(specs))
    if run_timeout is None:
        run_timeout = default_run_timeout()
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        workers = 0

    results: List[Optional[Mapping[str, Any]]] = [None] * len(specs)
    errors: Dict[int, str] = {}
    fallbacks = 0
    timeouts = 0
    retries = 0
    if workers >= 1:
        fallbacks, timeouts, lost = _run_parallel(
            run_fn, list(enumerate(specs)), snapshot, workers, results,
            errors, run_timeout)
        if lost and run_timeout is not None:
            # One bounded retry, each lost run alone in a fresh worker
            # (single-task shares), still under the watchdog.
            retries = len(lost)
            _, late_timeouts, still_lost = _run_parallel(
                run_fn, [(index, specs[index]) for index in lost],
                snapshot, len(lost), results, errors, run_timeout)
            timeouts += late_timeouts
            for index in still_lost:
                errors[index] = (
                    f"seed={specs[index].seed}: run lost twice — hung past "
                    f"the {run_timeout}s watchdog or its worker died, on "
                    f"both the original attempt and the retry")
    for index, spec in enumerate(specs):  # serial mode + death leftovers
        if results[index] is None and index not in errors:
            if workers >= 1:
                retries += 1
            try:
                results[index] = dict(_execute_one(run_fn, spec, snapshot))
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
    fallbacks: int = 0
    #: Watchdog firings (runs declared hung) and runs re-executed after
    #: being lost to a hang or a worker death.
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
