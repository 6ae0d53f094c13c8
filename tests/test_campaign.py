"""Campaign driver: grids, pool discipline, snapshot fanout.

The runner's contract: the result of a campaign is a pure function of
``run_fn`` and the grid — bit-identical whether it ran serially or one
forked process per run, and whether or not a run had to be retried after
its process died or hung.
With a snapshot attached, forked runs must match a cold per-seed loop
exactly.
"""

import gc
import os
import random
import subprocess
import sys
import weakref

import pytest

import repro
from gc_probe import (collected_per_pass, collector_paused_by_caller,
                      recorded_passes)
from repro import s4u
from repro.campaign import (
    CampaignError,
    ExperimentSpec,
    default_campaign_workers,
    grid,
    run_campaign,
)
from repro.platform import make_star
from repro.s4u import FailureInjector


# ---------------------------------------------------------------------------
# grid (a pure function)
# ---------------------------------------------------------------------------

class TestGrid:
    def test_config_major_order_and_labels(self):
        specs = grid([1, 2], [{"label": "a", "x": 1}, {"x": 2}])
        assert [(s.seed, s.label) for s in specs] == [
            (1, "a"), (2, "a"), (1, "cfg1"), (2, "cfg1")]
        assert specs[0].config == {"label": "a", "x": 1}

    def test_single_unlabelled_config_gets_empty_label(self):
        specs = grid([7], [{"x": 1}])
        assert specs[0].label == ""

    def test_seed_iterator_is_crossed_with_every_config(self):
        # A generator is consumed once: the second config used to get no
        # seed at all.
        specs = grid((seed for seed in range(3)), [{"a": 1}, {"b": 2}])
        assert specs == grid(range(3), [{"a": 1}, {"b": 2}])
        assert [s.seed for s in specs] == [0, 1, 2, 0, 1, 2]

    def test_no_configs_means_config_none(self):
        specs = grid(range(3))
        assert len(specs) == 3
        assert all(s.config is None for s in specs)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            grid([])
        with pytest.raises(ValueError):
            grid([1], [])


class TestWorkerDefaults:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "3")
        assert default_campaign_workers() == 3
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "0")
        assert default_campaign_workers() == 0
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "auto")
        assert default_campaign_workers() == max(0, (os.cpu_count() or 1) - 1)
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "nonsense")
        assert default_campaign_workers() == 0

    def test_ignores_the_removed_repro_parallel(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_PARALLEL", "8")
        assert default_campaign_workers() == 0


# ---------------------------------------------------------------------------
# execution: serial ≡ parallel
# ---------------------------------------------------------------------------

def _simulate(seed, config):
    """A tiny but real simulation: dates depend on seed via churn."""
    rounds = (config or {}).get("rounds", 2)
    engine = s4u.Engine(make_star(num_hosts=3, host_speed=1e9,
                                  link_bandwidth=1e7, link_latency=1e-4))

    def worker(actor, index):
        for _ in range(rounds):
            yield actor.execute(4e6 * (index + 1))

    for index in range(3):
        engine.add_actor(f"w{index}", f"leaf-{index}", worker, index)
    injector = FailureInjector(engine, seed=seed,
                               hosts=["leaf-1", "leaf-2"],
                               mtbf=0.005, mean_downtime=0.01,
                               max_failures=3).start()
    final = engine.run()
    return {"simulated_time_s": final, "failures": injector.failures}


class TestRunCampaign:
    def test_serial_runs_whole_grid_in_order(self):
        specs = grid(range(4), [{"rounds": 2}, {"label": "long", "rounds": 3}])
        result = run_campaign(_simulate, specs, workers=0)
        assert len(result.runs) == 8
        assert [r["seed"] for r in result.runs] == [0, 1, 2, 3] * 2
        assert [r["label"] for r in result.runs][:4] == ["cfg0"] * 4
        assert all(r["metrics"]["simulated_time_s"] > 0 for r in result.runs)

    def test_bare_int_experiments_promote_to_specs(self):
        result = run_campaign(_simulate, [1, 2], workers=0)
        assert result.specs == [ExperimentSpec(1), ExperimentSpec(2)]

    def test_parallel_equals_serial_bit_identically(self):
        specs = grid(range(6))
        serial = run_campaign(_simulate, specs, workers=0)
        parallel = run_campaign(_simulate, specs, workers=3)
        assert parallel.metrics() == serial.metrics()
        assert parallel.workers == 3 and serial.workers == 0

    def test_run_killing_every_process_fails_by_seed(self, tmp_path):
        parent_pid = os.getpid()

        def lethal(seed, config):
            if seed == 2:
                if os.getpid() == parent_pid:
                    (tmp_path / "ran-in-parent").write_text("x")
                else:
                    os._exit(3)  # kill whichever run process it lands in
            (tmp_path / f"done-{seed}").write_text("ok")
            return {"value": seed * 2.0}

        with pytest.raises(CampaignError, match="run lost twice") as excinfo:
            run_campaign(lethal, grid(range(6)), workers=2)
        assert "seed=2" in str(excinfo.value)
        assert not (tmp_path / "ran-in-parent").exists()
        for seed in (0, 1, 3, 4, 5):
            assert (tmp_path / f"done-{seed}").exists()

    def test_experiment_error_fails_the_campaign(self):
        def boom(seed, config):
            if seed == 3:
                raise RuntimeError("exploded on purpose")
            return {"value": float(seed)}

        for workers in (0, 2):
            with pytest.raises(CampaignError, match="seed=3") as excinfo:
                run_campaign(boom, grid(range(5)), workers=workers)
            assert "exploded on purpose" in str(excinfo.value)

    def test_run_fn_must_return_a_mapping(self):
        with pytest.raises(CampaignError, match="metrics mapping"):
            run_campaign(lambda seed, config: 42.0, [1], workers=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(_simulate, [], workers=0)

    def test_serial_campaign_loads_neither_multiprocessing_nor_xml(self):
        # A fresh interpreter: this one already imported both.  The pool
        # imports multiprocessing when it forks, the loader the XML parser
        # when it reads XML; importing the package and running serially
        # loads neither.
        code = (
            "import sys\n"
            "import repro, repro.campaign, repro.replay\n"
            "result = repro.campaign.run_campaign(\n"
            "    lambda seed, config: {'seed': seed}, [1, 2], workers=0)\n"
            "assert result.workers == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0]\n"
            "             in ('multiprocessing', 'xml')))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("REPRO_CAMPAIGN_WORKERS", None)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# per-run watchdog: hung runs time out, get retried, then fail loudly
# ---------------------------------------------------------------------------

class TestRunWatchdog:
    def test_hung_run_times_out_and_retries_elsewhere(self, tmp_path):
        import time
        parent_pid = os.getpid()
        sentinel = tmp_path / "hung-once"

        def sticky(seed, config):
            if seed == 2 and os.getpid() != parent_pid \
                    and not sentinel.exists():
                sentinel.write_text("hanging")   # hang the first attempt only
                time.sleep(60.0)
            return {"value": seed * 2.0}

        result = run_campaign(sticky, grid(range(4)), workers=2,
                              run_timeout=1.0)
        # The watchdog fired once, the run was retried in a fresh worker,
        # and the grid still completed bit-identically.
        assert result.timeouts == 1
        assert result.retries == 1
        assert result.fallbacks == 0
        assert [r["metrics"]["value"] for r in result.runs] == [
            0.0, 2.0, 4.0, 6.0]

    def test_worker_death_retried_in_fresh_worker(self, tmp_path):
        parent_pid = os.getpid()
        sentinel = tmp_path / "died-once"

        def fragile(seed, config):
            if seed == 2 and os.getpid() != parent_pid \
                    and not sentinel.exists():
                sentinel.write_text("dying")
                os._exit(1)                      # kill the worker, no reply
            return {"value": seed * 2.0}

        # With a watchdog armed, a death-lost run is retried in a fresh
        # worker process instead of degrading the share to serial.
        result = run_campaign(fragile, grid(range(4)), workers=2,
                              run_timeout=5.0)
        assert result.fallbacks == 1
        assert result.timeouts == 0
        assert result.retries == 1
        assert [r["metrics"]["value"] for r in result.runs] == [
            0.0, 2.0, 4.0, 6.0]

    def test_permanently_hung_run_fails_after_grid_completes(self, tmp_path):
        import time
        parent_pid = os.getpid()

        def stuck(seed, config):
            if seed == 1:
                if os.getpid() == parent_pid:    # never hang the parent
                    raise RuntimeError("ran in parent unexpectedly")
                time.sleep(60.0)
            (tmp_path / f"done-{seed}").write_text("ok")
            return {"value": float(seed)}

        with pytest.raises(CampaignError, match="run lost twice") as excinfo:
            run_campaign(stuck, grid(range(4)), workers=2, run_timeout=0.75)
        assert "seed=1" in str(excinfo.value)
        # Both attempts hung past the watchdog, but the rest of the grid
        # finished before the campaign failed.
        for seed in (0, 2, 3):
            assert (tmp_path / f"done-{seed}").exists()

    @pytest.mark.parametrize("run_timeout", [None, 30.0])
    def test_one_death_retries_one_run_within_the_worker_cap(
            self, tmp_path, run_timeout):
        import time
        parent_pid = os.getpid()
        alive = tmp_path / "alive"
        peaks = tmp_path / "peaks"
        alive.mkdir()
        peaks.mkdir()
        sentinel = tmp_path / "died-once"

        def fragile(seed, config):
            marker = alive / str(os.getpid())
            marker.write_text("")
            (peaks / f"{seed}-{os.getpid()}").write_text(
                str(len(list(alive.iterdir()))))
            time.sleep(0.02)
            marker.unlink()
            if seed == 0 and os.getpid() != parent_pid \
                    and not sentinel.exists():
                sentinel.write_text("dying")
                os._exit(1)
            return {"value": seed * 2.0}

        result = run_campaign(fragile, grid(range(16)), workers=2,
                              run_timeout=run_timeout)
        assert result.fallbacks == 1
        assert result.retries == 1
        assert result.timeouts == 0
        assert [r["metrics"]["value"] for r in result.runs] == [
            seed * 2.0 for seed in range(16)]
        assert max(int(peak.read_text()) for peak in peaks.iterdir()) <= 2

    @pytest.mark.parametrize("run_timeout", [None, 30.0])
    def test_every_run_dying_once_still_completes(self, tmp_path,
                                                  run_timeout):
        parent_pid = os.getpid()

        def fragile(seed, config):
            sentinel = tmp_path / f"died-{seed}"
            if os.getpid() != parent_pid and not sentinel.exists():
                sentinel.write_text("dying")
                os._exit(1)
            return {"value": seed * 2.0}

        result = run_campaign(fragile, grid(range(8)), workers=2,
                              run_timeout=run_timeout)
        assert result.retries == 8
        assert result.fallbacks == 8
        assert result.timeouts == 0
        assert [r["metrics"]["value"] for r in result.runs] == [
            seed * 2.0 for seed in range(8)]

    def test_no_timeout_means_no_watchdog_fields_move(self):
        result = run_campaign(_simulate, grid(range(3)), workers=2)
        assert result.timeouts == 0 and result.retries == 0


# ---------------------------------------------------------------------------
# snapshot fanout
# ---------------------------------------------------------------------------

def _warm_engine():
    engine = s4u.Engine(make_star(num_hosts=3, host_speed=1e9,
                                  link_bandwidth=1e7, link_latency=1e-4))

    def warm(actor, index):
        yield actor.execute(1e7)

    for index in range(3):
        engine.add_actor(f"warm{index}", f"leaf-{index}", warm, index)
    engine.run()
    return engine


def _warm_blob():
    engine = _warm_engine()
    blob = engine.snapshot()
    engine.close()
    return blob, engine.now


def _measured_phase(engine, seed, config):
    rounds = (config or {}).get("rounds", 2)

    def worker(actor, index):
        for _ in range(rounds):
            yield actor.execute(4e6 * (index + 1))

    for index in range(3):
        engine.add_actor(f"w{index}", f"leaf-{index}", worker, index)
    injector = FailureInjector(engine, seed=seed,
                               hosts=["leaf-1", "leaf-2"],
                               mtbf=0.005, mean_downtime=0.01,
                               max_failures=3).start()
    final = engine.run()
    return {"simulated_time_s": final, "failures": injector.failures}


FANOUT_HOSTS = 24
ROUNDS_CONFIGS = [{"rounds": 2}, {"label": "x", "rounds": 3}]
FLOPS_CONFIGS = [{"label": "light", "flops": 4e6},
                 {"label": "heavy", "flops": 1.2e7}]


def _exchange(engine, rounds, flops, tag, rng=None):
    """``rounds`` jobs per leaf, each result gathered on the center host;
    ``rng`` scales every job, making dates a pure function of the seed."""
    def worker(actor, index):
        sink = engine.mailbox(tag)
        scale = 1.0 if rng is None else rng.uniform(0.5, 1.5)
        for round_no in range(rounds):
            yield actor.execute(flops * scale * (1 + (index + round_no) % 3))
            comm = yield sink.put_async(index, size=1e4)
            yield comm.wait()

    def master(actor):
        sink = engine.mailbox(tag)
        for _ in range(rounds * FANOUT_HOSTS):
            yield sink.get()

    engine.add_actor(f"{tag}-master", "center", master)
    for index in range(FANOUT_HOSTS):
        engine.add_actor(f"{tag}-w{index}", f"leaf-{index}", worker, index)
    engine.run()


def _fanout_warm_engine():
    """A 24-leaf star after a 12-round warm-up exchange."""
    engine = s4u.Engine(make_star(num_hosts=FANOUT_HOSTS, host_speed=1e9,
                                  link_bandwidth=125e6, link_latency=1e-4))
    _exchange(engine, 12, 5e6, "warm")
    return engine


def _fanout_measured_phase(engine, seed, config):
    _exchange(engine, 3, config["flops"], f"measured-{seed}",
              rng=random.Random(seed))
    return {"simulated_time_s": engine.now}


class TestSnapshotFanout:
    # ``campaign_fanout`` is 16 seeds x 2 configs over a warm prefix
    # long enough that the blob carries a real engine, serially and over
    # two workers.
    @pytest.mark.parametrize(
        "warm_engine, measured_phase, seeds, configs, workers", [
            pytest.param(_warm_engine, _measured_phase, 5, ROUNDS_CONFIGS,
                         2, id="5-seeds"),
            pytest.param(_fanout_warm_engine, _fanout_measured_phase, 16,
                         FLOPS_CONFIGS, 0, id="campaign_fanout-serial"),
            pytest.param(_fanout_warm_engine, _fanout_measured_phase, 16,
                         FLOPS_CONFIGS, 2, id="campaign_fanout-2-workers"),
        ])
    def test_forked_campaign_equals_cold_replays(
            self, warm_engine, measured_phase, seeds, configs, workers):
        engine = warm_engine()
        warm_date = engine.now
        blob = engine.snapshot()
        engine.close()
        specs = grid(range(seeds), configs)
        forked = run_campaign(measured_phase, specs, workers=workers,
                              snapshot=blob)

        def cold_replay(seed, config):
            # Rebuild the world and replay the warm prefix in every run.
            engine = warm_engine()
            try:
                return measured_phase(engine, seed, config)
            finally:
                engine.close()

        cold = run_campaign(cold_replay, specs, workers=workers)
        assert forked.metrics() == cold.metrics()
        assert all(m["simulated_time_s"] > warm_date for m in cold.metrics())

    def test_forked_serial_equals_forked_parallel(self):
        blob, _ = _warm_blob()
        specs = grid(range(4))
        serial = run_campaign(_measured_phase, specs, workers=0,
                              snapshot=blob)
        parallel = run_campaign(_measured_phase, specs, workers=2,
                                snapshot=blob)
        assert serial.metrics() == parallel.metrics()


# ---------------------------------------------------------------------------
# the collector: paused for each run, one young pass after it
# ---------------------------------------------------------------------------

class TestCollectorPolicy:
    def test_serial_snapshot_campaign_makes_one_young_pass_per_run(self):
        """The runner closes every restored engine, so reference counting
        frees it: each run's one young pass has nothing left to collect."""
        blob, _ = _warm_blob()
        with collected_per_pass() as passes:
            run_campaign(_measured_phase, grid(range(4)), workers=0,
                         snapshot=blob)
        assert passes == [(0, 0)] * 4

    @pytest.mark.parametrize("forked", [True, False],
                             ids=["snapshot", "cold"])
    def test_each_run_engine_is_freed_before_the_next_starts(self, forked):
        refs, alive_at_start = [], []

        def measured(engine, seed, config):
            alive_at_start.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(engine))
            return _measured_phase(engine, seed, config)

        def cold(seed, config):
            engine = s4u.Engine(make_star(num_hosts=3, host_speed=1e9,
                                          link_bandwidth=1e7,
                                          link_latency=1e-4))
            return measured(engine, seed, config)

        blob = _warm_blob()[0] if forked else None
        gc.collect()
        run_campaign(measured if forked else cold, grid(range(4)),
                     workers=0, snapshot=blob)
        assert alive_at_start == [0, 0, 0, 0]
        assert all(ref() is None for ref in refs)
        assert gc.collect() == 0

    def test_forked_run_pauses_its_own_process_only(self):
        def probe(seed, config):
            return {"collector_enabled": gc.isenabled()}

        result = run_campaign(probe, [1, 2], workers=1)
        assert gc.isenabled()
        assert [m["collector_enabled"] for m in result.metrics()] == [
            False, False]

    def test_caller_paused_collector_is_left_alone(self):
        blob, _ = _warm_blob()
        with recorded_passes() as passes, collector_paused_by_caller():
            run_campaign(_measured_phase, grid(range(3)), workers=0,
                         snapshot=blob)
            assert not gc.isenabled()
            assert passes == []
            # The restored engines were closed: nothing waits for a pass.
            assert gc.collect() == 0
