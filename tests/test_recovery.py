"""Recovery policies: chunked checkpointing under seeded churn."""

import pytest

from repro.replay import compare_recovery_policies, run_recovery_experiment

CALM = {"mtbf": 1e6, "max_failures": 1}     # first failure far beyond the run


class TestRecoveryExperiment:
    def test_calm_run_completes_without_waste(self):
        metrics = run_recovery_experiment(seed=1, config={**CALM,
                                                          "policy": "periodic"})
        assert metrics["completed"] == 4
        assert metrics["failures"] == 0
        assert metrics["wasted_flops"] == 0.0
        # 7 intermediate checkpoints per worker (the final chunk banks free)
        assert metrics["checkpoints"] == 4 * 7
        # 4e9 work + 7 * 5e7 checkpoint cost at 1e9 flop/s
        assert metrics["makespan"] == pytest.approx(4.35)

    def test_event_policy_skips_checkpoints_when_calm(self):
        metrics = run_recovery_experiment(seed=1, config={**CALM,
                                                          "policy": "event"})
        assert metrics["completed"] == 4
        assert metrics["checkpoints"] == 0
        assert metrics["makespan"] == pytest.approx(4.0)

    def test_churny_run_recovers_and_accounts_waste(self):
        # Seed 4 is a run where a worker dies after completing a chunk it
        # had not banked yet (waste is accounted at chunk granularity, so
        # a kill in the *middle* of a chunk legitimately counts zero).
        metrics = run_recovery_experiment(seed=4, config={"policy": "periodic"})
        assert metrics["completed"] == 4
        assert metrics["kills"] >= metrics["failures"] > 0
        # Progress is banked every chunk, so waste is bounded by one
        # chunk plus one checkpoint's worth per kill.
        assert metrics["wasted_flops"] > 0.0
        assert metrics["wasted_flops"] <= metrics["kills"] * 5.5e8

    def test_event_policy_wastes_at_least_as_much_per_seed(self):
        for seed in (1, 4, 6):
            periodic = run_recovery_experiment(
                seed=seed, config={"policy": "periodic"})
            event = run_recovery_experiment(
                seed=seed, config={"policy": "event"})
            assert event["completed"] == periodic["completed"] == 4
            assert event["wasted_flops"] >= periodic["wasted_flops"]
            assert event["checkpoints"] < periodic["checkpoints"]

    def test_same_seed_same_metrics(self):
        first = run_recovery_experiment(seed=9, config={"policy": "event"})
        second = run_recovery_experiment(seed=9, config={"policy": "event"})
        assert first == second

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            run_recovery_experiment(seed=1, config={**CALM,
                                                    "policy": "hopeful"})


class TestCompareRecoveryPolicies:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_compare_over_seeds(self, workers):
        report = compare_recovery_policies([1, 2, 3], workers=workers)
        summary = report["summary"]
        assert set(summary) == {"periodic", "event"}
        for policy in summary:
            assert summary[policy]["completed"]["n"] == 3
            assert summary[policy]["completed"]["min"] >= 1
        assert summary["periodic"]["checkpoints"]["min"] > 0
        # Under churn the lazy policy re-does more work per kill.
        assert (summary["event"]["wasted_flops"]["mean"]
                >= summary["periodic"]["wasted_flops"]["mean"])

    def test_forked_matches_serial(self):
        serial = compare_recovery_policies([4, 5], workers=0)
        forked = compare_recovery_policies([4, 5], workers=2)
        assert forked["summary"] == serial["summary"]
        assert forked["forked"] or not serial["forked"]
