"""Chaos scenarios, grids, presets, and the campaign report."""

import dataclasses
import json

import pytest

from repro.chaos import (
    CAMPAIGN_PRESETS,
    CampaignReport,
    ChaosScenario,
    chaos_grid,
    run_campaign,
)


class TestChaosScenario:
    def test_dict_round_trip_preserves_hash(self, make_scenario):
        scenario = make_scenario(
            degradations=("straggler", "bandwidth"),
            degradation_events_per_day=4.0,
            policy_kwargs={"num_replicas": 2},
        )
        clone = ChaosScenario.from_dict(scenario.to_dict())
        assert clone == scenario
        assert clone.scenario_hash() == scenario.scenario_hash()

    def test_hash_is_sensitive_to_the_spec(self, make_scenario):
        base = make_scenario()
        assert base.scenario_hash() != make_scenario(seeds=(0, 1)).scenario_hash()
        assert (
            base.scenario_hash()
            != make_scenario(failure_model="adversarial").scenario_hash()
        )
        assert base.scenario_hash() != make_scenario(sanitize=True).scenario_hash()

    def test_degradations_normalized(self, make_scenario):
        scenario = make_scenario(
            degradations=("straggler", "bandwidth", "straggler"),
            degradation_events_per_day=4.0,
        )
        assert scenario.degradations == ("bandwidth", "straggler")

    def test_validation_errors(self, make_scenario):
        with pytest.raises(ValueError):
            make_scenario(failure_model="byzantine")
        with pytest.raises(ValueError):
            make_scenario(degradations=("gamma-rays",), degradation_events_per_day=1.0)
        with pytest.raises(ValueError):
            make_scenario(degradations=("straggler",))  # no rate
        with pytest.raises(ValueError):
            make_scenario(seeds=())
        with pytest.raises(ValueError):
            make_scenario(domain_size=99)
        with pytest.raises(ValueError):
            ChaosScenario.from_dict({"name": "x", "policy": "gemini", "nope": 1})

    def test_validate_resolves_names(self, make_scenario):
        make_scenario().validate()
        with pytest.raises(ValueError):
            make_scenario(policy="no-such-policy").validate()

    def test_cluster_defaults_omitted_for_hash_stability(self, make_scenario):
        # Pre-catalog chaos scenarios keep their hashes: the new fields
        # only enter the canonical form when set off-default.
        payload = make_scenario().to_dict()
        assert "cluster" not in payload
        assert "domain_source" not in payload

    def test_topology_mode_round_trips_and_rehashes(self, make_scenario):
        scenario = make_scenario(
            cluster="a3mega-rack4x4", domain_source="topology"
        )
        scenario.validate()
        payload = scenario.to_dict()
        assert payload["cluster"] == "a3mega-rack4x4"
        assert payload["domain_source"] == "topology"
        clone = ChaosScenario.from_dict(payload)
        assert clone == scenario
        assert clone.scenario_hash() == scenario.scenario_hash()
        assert scenario.scenario_hash() != make_scenario().scenario_hash()

    def test_topology_mode_validation(self, make_scenario):
        with pytest.raises(ValueError, match="cluster"):
            make_scenario(domain_source="topology")  # no cluster named
        with pytest.raises(ValueError, match="correlated"):
            make_scenario(
                cluster="a3mega-rack4x4",
                domain_source="topology",
                failure_model="poisson",
            )
        with pytest.raises(ValueError, match="non-flat"):
            make_scenario(
                cluster="p4d-flat16", domain_source="topology"
            ).validate()
        with pytest.raises(ValueError, match="disagrees"):
            make_scenario(
                cluster="a3mega-rack4x4", num_machines=8
            ).validate()


class TestGridAndPresets:
    def test_grid_is_policies_times_models(self):
        scenarios = chaos_grid(
            policies=("gemini", "strawman"), models=("correlated", "poisson")
        )
        assert len(scenarios) == 4
        assert {s.name for s in scenarios} == {
            "gemini-correlated",
            "gemini-poisson",
            "strawman-correlated",
            "strawman-poisson",
        }

    def test_presets_build_valid_scenarios(self):
        for name, preset in CAMPAIGN_PRESETS.items():
            scenarios = chaos_grid(**preset)
            assert scenarios, name
            for scenario in scenarios:
                scenario.validate()

    @pytest.mark.parametrize(
        "cell", [cell["name"] for cell in CAMPAIGN_PRESETS["fleet"]["extra_cells"]]
    )
    def test_fleet_preset_cells_recover_cleanly(self, cell):
        (scenario,) = [
            scenario
            for scenario in chaos_grid(**CAMPAIGN_PRESETS["fleet"])
            if scenario.name == cell
        ]
        row = dataclasses.replace(scenario, seeds=(0,), horizon_days=0.05).run()
        assert row["total_recoveries"] >= 1
        assert row["violation_count"] == 0, row["violations"]

    def test_nightly_is_wider_than_ci(self):
        assert len(chaos_grid(**CAMPAIGN_PRESETS["nightly"])) > len(
            chaos_grid(**CAMPAIGN_PRESETS["ci"])
        )

    def test_extra_cells_ride_the_grid(self):
        scenarios = chaos_grid(
            policies=("gemini",),
            models=("correlated",),
            extra_cells=(
                {
                    "name": "special",
                    "policy": "gemini",
                    "failure_model": "adversarial",
                },
            ),
        )
        assert [s.name for s in scenarios] == ["gemini-correlated", "special"]

    def test_ci_preset_includes_rack_failure_cell(self):
        scenarios = chaos_grid(**CAMPAIGN_PRESETS["ci"])
        rack = [s for s in scenarios if s.name == "gemini-rack-failure"]
        assert len(rack) == 1
        cell = rack[0]
        assert cell.cluster == "a3mega-rack4x4"
        assert cell.domain_source == "topology"
        assert cell.failure_model == "correlated"
        cell.validate()


class TestRunCampaign:
    def small_grid(self, **overrides):
        base = dict(
            policies=("gemini",),
            models=("correlated", "adversarial"),
            seeds=(0,),
            num_machines=16,
            events_per_day=16.0,
            horizon_days=0.05,
        )
        base.update(overrides)
        return chaos_grid(**base)

    def test_campaign_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        report_a = run_campaign(self.small_grid(), out=str(out_a))
        report_b = run_campaign(
            self.small_grid(), workers=2, out=str(out_b)
        )
        assert out_a.read_bytes() == out_b.read_bytes()
        assert report_a.rows == report_b.rows
        assert report_a.ok
        assert report_a.total_violations == 0

    def test_cache_reuses_rows(self, tmp_path):
        cache = tmp_path / "cache"
        grid = self.small_grid(models=("correlated",))
        first = run_campaign(grid, cache_dir=str(cache))
        assert list(cache.glob("*.json"))
        second = run_campaign(grid, cache_dir=str(cache))
        assert first.rows == second.rows

    def test_report_shape(self):
        report = run_campaign(self.small_grid())
        assert {row["scenario"] for row in report.rows} == {
            "gemini-correlated",
            "gemini-adversarial",
        }
        for row in report.rows:
            assert row["total_failures"] > 0
            assert row["total_recoveries"] > 0
            assert row["audited_plans"] > 0
            assert 0.0 < row["mean_ratio"] <= 1.0
        summary = report.policy_summary()
        assert len(summary) == 1
        assert summary[0]["policy"] == "gemini"
        assert summary[0]["scenarios"] == 2
        assert summary[0]["recoveries"] == sum(
            row["total_recoveries"] for row in report.rows
        )
        # Canonical JSON round-trips.
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["total_violations"] == 0
        rendered = report.render()
        assert "chaos campaign" in rendered
        assert "0 violations" in rendered


class TestCampaignReport:
    ROW = {
        "scenario": "s",
        "policy": "p",
        "failure_model": "correlated",
        "mean_ratio": 0.9,
        "total_failures": 3,
        "total_recoveries": 3,
        "cpu_recoveries": 2,
        "persistent_fallbacks": 1,
        "degradations_injected": 0,
        "violation_count": 1,
        "violations": [
            {"time": 1.0, "invariant": "job-state", "message": "x", "seed": 0}
        ],
    }

    def test_violations_fail_the_report(self):
        report = CampaignReport(rows=[dict(self.ROW)])
        assert not report.ok
        assert report.total_violations == 1
        tagged = report.violations()
        assert tagged[0]["scenario"] == "s"
        assert "INVARIANT VIOLATIONS" in report.render()
