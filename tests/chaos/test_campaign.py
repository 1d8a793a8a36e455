"""Chaos scenarios, grids, presets, and the campaign report."""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos import (
    CAMPAIGN_PRESETS,
    CampaignReport,
    ChaosScenario,
    chaos_grid,
    run_campaign,
)
from repro.experiments import Scenario, SweepRunner

#: sha256 of each fleet cell's canonical row at seed 0 over 0.05 days;
#: any change to a recovery, ratio or audit count moves it.
FLEET_ROW_SHA256 = {
    "gemini-fleet1k-rack": "8ff1dda92bb1df3456c375941e785609d775fdd5afa139f4e7eb2d7ffd3e2e65",
    "gemini-fleet1k-degraded": "21d17e59edd034b196485924d560411e40e8db67de4efd092b01642b6dff3f58",
    "tiercheck-fleet1k-rack": "2064ff112bf63d129dae660c0bb876f77d47cf53ccc64ece9d087407b11c55b2",
    "reft-fleet1k-rack": "6e0dc0cff65302a2f10fdd94b3cb55d6385bf9c4c7963b39c4e0f3b9452afbe7",
}


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

    def test_sweep_and_campaign_points_never_share_a_row(
        self, make_scenario, tmp_path
    ):
        campaign = make_scenario(horizon_days=0.02)
        fields = {f.name: getattr(campaign, f.name) for f in dataclasses.fields(campaign)}
        sweep = Scenario(**fields)
        assert sweep.scenario_hash() != campaign.scenario_hash()
        cache = str(tmp_path / "cache")
        (sweep_row,) = SweepRunner([sweep], cache_dir=cache).run()
        (campaign_row,) = SweepRunner([campaign], cache_dir=cache).run()
        assert "violation_count" not in sweep_row
        assert campaign_row["hash"] == campaign.scenario_hash()
        assert campaign_row["violation_count"] == 0
        assert SweepRunner([sweep], cache_dir=cache).run() == [sweep_row]
        assert SweepRunner([campaign], cache_dir=cache).run() == [campaign_row]


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
        text = json.dumps(row, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FLEET_ROW_SHA256[cell]

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

    def test_ci_preset_agents_cell_audits_clean(self):
        (cell,) = [
            s
            for s in chaos_grid(**CAMPAIGN_PRESETS["ci"])
            if s.name == "gemini-agents-correlated"
        ]
        assert cell.policy_options()["use_agents"] is True
        row = dataclasses.replace(cell, seeds=(0,)).run()
        assert row["total_recoveries"] >= 1
        assert row["violation_count"] == 0, row["violations"]


class TestRunCampaign:
    def small_grid(self, **overrides):
        base = dict(
            policies=("gemini",),
            models=("correlated", "adversarial"),
            seeds=(0,),
            num_machines=16,
            failures_per_day=16.0,
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
