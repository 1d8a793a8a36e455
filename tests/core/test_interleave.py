"""The five interleaving schemes (Figure 16) and the interference sim."""

import pytest

from repro.cluster import P3DN_24XLARGE
from repro.core.interleave import InterferenceExperiment, SchemeRuns, run_scheme
from repro.training import GPT2_40B

# Module-scoped results: each scheme simulated once, asserted many times.
ITERS, WARMUP = 4, 5


@pytest.fixture(scope="module")
def results_40b():
    return {
        scheme: run_scheme(
            GPT2_40B, P3DN_24XLARGE, 16, scheme,
            num_iterations=ITERS, warmup_iterations=WARMUP,
        )
        for scheme in ("baseline", "blocking", "naive", "no_pipeline", "gemini", "whole")
    }


class TestFigure16Shape:
    def test_baseline_matches_plan(self, results_40b):
        result = results_40b["baseline"]
        assert result.mean_iteration_time == pytest.approx(
            result.baseline_iteration_time, rel=1e-6
        )

    def test_blocking_adds_roughly_ten_percent(self, results_40b):
        # Paper: "the iteration time with Blocking is 10.1% higher".
        overhead = results_40b["blocking"].overhead_fraction
        assert 0.06 <= overhead <= 0.16

    def test_naive_interleave_goes_oom(self, results_40b):
        # Paper: naive needs >2 GB of GPU buffer -> OOM.
        result = results_40b["naive"]
        assert result.oom
        assert result.required_buffer_bytes > result.available_buffer_bytes

    def test_whole_checkpoint_goes_oom(self, results_40b):
        # Figure 5b: shipping the whole shard GPU-resident always OOMs.
        result = results_40b["whole"]
        assert result.oom
        shard = 40.534e9 * 12 / 16
        assert result.required_buffer_bytes == pytest.approx(shard, rel=0.01)

    def test_no_pipeline_slower_than_gemini(self, results_40b):
        # Paper: interleave-without-pipeline worsens iteration time (~3.5%),
        # GEMINI matches baseline.
        no_pipeline = results_40b["no_pipeline"]
        gemini = results_40b["gemini"]
        assert no_pipeline.mean_iteration_time > gemini.mean_iteration_time
        assert no_pipeline.overhead_fraction > 0.005

    def test_gemini_has_no_overhead(self, results_40b):
        assert abs(results_40b["gemini"].overhead_fraction) < 0.005

    def test_ordering_blocking_worst_among_running(self, results_40b):
        running = {
            name: result.mean_iteration_time
            for name, result in results_40b.items()
            if not result.oom
        }
        assert running["blocking"] == max(running.values())


class TestCheckpointDelivery:
    def test_gemini_checkpoints_every_iteration(self, results_40b):
        cycles = results_40b["gemini"].checkpoint_cycles
        assert len(cycles) == ITERS
        shard = 40.534e9 * 12 / 16
        for cycle in cycles:
            assert cycle.bytes_sent == pytest.approx(shard, rel=0.01)
            assert cycle.done_at is not None

    def test_gemini_checkpoint_fits_idle_time(self, results_40b):
        result = results_40b["gemini"]
        assert result.mean_checkpoint_network_time < result.idle_time_without_ckpt

    def test_idle_time_shrinks_by_checkpoint_traffic(self, results_40b):
        result = results_40b["gemini"]
        assert result.idle_time_with_ckpt == pytest.approx(
            result.idle_time_without_ckpt - result.mean_checkpoint_network_time,
            rel=1e-6,
        )

    def test_oom_result_has_no_iterations(self, results_40b):
        with pytest.raises(RuntimeError, match="OOM"):
            _ = results_40b["naive"].mean_iteration_time


class TestExperimentConfig:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            InterferenceExperiment(GPT2_40B, P3DN_24XLARGE, 16, scheme="bogus")

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ValueError):
            InterferenceExperiment(GPT2_40B, P3DN_24XLARGE, 16, num_replicas=0)

    def test_three_replicas_send_double_traffic(self):
        result = run_scheme(
            GPT2_40B, P3DN_24XLARGE, 16, "gemini",
            num_iterations=2, warmup_iterations=3, num_replicas=3,
        )
        shard = 40.534e9 * 12 / 16
        assert result.checkpoint_cycles[0].bytes_sent == pytest.approx(
            2 * shard, rel=0.01
        )

    def test_generous_gpu_buffer_lets_naive_run(self):
        result = run_scheme(
            GPT2_40B, P3DN_24XLARGE, 16, "naive",
            num_iterations=2, warmup_iterations=3,
            available_gpu_buffer_per_gpu=8e9,
        )
        assert not result.oom
        assert result.iteration_times


class TestSchemeRuns:
    """One table simulates each distinct profile and run once, exactly."""

    def test_repeated_run_is_the_same_result(self):
        runs = SchemeRuns()
        first = runs.run(GPT2_40B, P3DN_24XLARGE, 16, "gemini", 2, 3)
        assert runs.run(GPT2_40B, P3DN_24XLARGE, 16, "gemini", 2, 3) is first
        assert runs.run(GPT2_40B, P3DN_24XLARGE, 16, "gemini", 3, 3) is not first

    def test_schemes_of_one_workload_share_its_profile(self):
        runs = SchemeRuns()
        baseline = runs.run(GPT2_40B, P3DN_24XLARGE, 16, "baseline", 2, 3)
        gemini = runs.run(GPT2_40B, P3DN_24XLARGE, 16, "gemini", 2, 3)
        longer_warmup = runs.run(GPT2_40B, P3DN_24XLARGE, 16, "gemini", 2, 4)
        assert gemini.profile is baseline.profile
        assert longer_warmup.profile is not baseline.profile

    def test_shared_profile_gives_the_one_shot_result(self):
        runs = SchemeRuns()
        runs.run(GPT2_40B, P3DN_24XLARGE, 16, "baseline", 2, 3)
        for scheme in ("no_pipeline", "naive"):
            shared = runs.run(GPT2_40B, P3DN_24XLARGE, 16, scheme, 2, 3)
            fresh = run_scheme(
                GPT2_40B, P3DN_24XLARGE, 16, scheme,
                num_iterations=2, warmup_iterations=3,
            )
            assert shared == fresh

    def test_tables_share_nothing(self):
        first = SchemeRuns().run(GPT2_40B, P3DN_24XLARGE, 16, "baseline", 2, 3)
        second = SchemeRuns().run(GPT2_40B, P3DN_24XLARGE, 16, "baseline", 2, 3)
        assert first is not second
        assert first.profile is not second.profile
