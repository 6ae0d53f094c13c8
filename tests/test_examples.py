"""Integration tests: every shipped example runs and produces sane output."""

import importlib.util
import os

import pytest

from examples.smpi_matmul import parallel_mat_mult
from repro.platform import make_cluster
from repro.smpi import SmpiWorld

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_and_matches_expected_duration(self, capsys):
        module = load_example("quickstart")
        final_time = module.main()
        captured = capsys.readouterr().out
        assert "received 'Ack'" in captured
        # 3.2 MB at 1.25 MB/s (+1 ms) + 30 MFlop at 100 MFlop/s + 10 KB ack
        assert 2.8 < final_time < 3.0


class TestGrasPingpong:
    def test_simulation_mode(self, capsys):
        module = load_example("gras_pingpong")
        final = module.run_simulation()
        assert final > 1.0          # the client sleeps 1 s before pinging
        assert "ping-pong completed" in capsys.readouterr().out

    def test_simulation_is_reproducible(self):
        """The server's work is charged from the record measured once:
        a second simulation in the same process ends on the same date."""
        module = load_example("gras_pingpong")
        assert module.run_simulation().hex() == module.run_simulation().hex()

    def test_real_mode(self, capsys):
        module = load_example("gras_pingpong")
        module.run_real_life()
        assert "real-world run completed" in capsys.readouterr().out


class TestParallelMatMult:
    @pytest.mark.parametrize("num_ranks, k", [(3, 64), (6, 4)],
                             ids=["k-not-divisible", "more-ranks-than-k"])
    def test_any_rank_count_runs_every_broadcast(self, num_ranks, k):
        """K need not be a multiple of the rank count, nor at least as
        large: every rank takes part in all K broadcasts and returns."""
        finished = []

        def program(mpi):
            parallel_mat_mult(mpi, M=8, N=8, K=k)
            finished.append(mpi.COMM_WORLD.rank)

        world = SmpiWorld(make_cluster(num_hosts=num_ranks),
                          num_ranks=num_ranks)
        world.bench_record["dgemm-step"] = 2.0 ** -17
        assert world.run(program) > 0
        assert sorted(finished) == list(range(num_ranks))


class TestSmpiMatmul:
    def test_main_prints_the_same_lines_twice(self, capsys):
        """Both platforms are simulated from one GEMM measurement, so a
        second run in the same process prints the same times."""
        module = load_example("smpi_matmul")
        module.main()
        first = capsys.readouterr().out
        module.main()
        assert capsys.readouterr().out == first
        assert "simulated time" in first


class TestP2pFilesharing:
    def test_downloads_complete_despite_failure(self, capsys):
        module = load_example("p2p_filesharing")
        module.main()
        out = capsys.readouterr().out
        assert out.count("download complete") == 2
        assert "switching" in out          # the failed seed was abandoned


class TestFailureChurn:
    def test_fleet_survives_and_reports(self, capsys):
        module = load_example("failure_churn")
        outcome = module.run(seed=42)
        out = capsys.readouterr().out
        assert outcome["received"] == module.RESULTS_TARGET
        assert outcome["failures"] > 0
        assert outcome["restarts"] > 0
        assert "DOWN" in out and "back up" in out
        assert "all 400 results collected" in out


class TestSupervisedPipeline:
    def test_loss_free_pipeline_under_churn(self, capsys):
        module = load_example("supervised_pipeline")
        outcome = module.run(seed=42)
        out = capsys.readouterr().out
        # Loss-free despite real churn, with every ft primitive visible.
        assert outcome["delivered"] == module.NUM_ITEMS == 40
        assert outcome["failures"] == 5
        assert outcome["worker_restarts"] >= 1
        assert outcome["suspects"] >= 1
        assert outcome["send_retries"] + outcome["resubmissions"] >= 1
        assert "detector: suspect" in out and "detector: alive" in out
        assert "pipeline done: 40/40 items" in out

    def test_printed_output_replays_bit_identically(self, capsys):
        module = load_example("supervised_pipeline")
        outcome = module.run(seed=42)
        first = capsys.readouterr().out
        assert module.run(seed=42) == outcome
        assert capsys.readouterr().out == first


class TestAmokMonitoring:
    def test_two_sites_inferred(self, capsys):
        module = load_example("amok_monitoring")
        module.main()
        out = capsys.readouterr().out
        assert "site 0:" in out and "site 1:" in out
        assert "wide area" in out
