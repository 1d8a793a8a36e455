"""Scenario dataclass: canonicalization, hashing, round-trips, execution."""

import pytest

from repro.experiments import Scenario
from repro.units import gbps


def make(**overrides):
    base = dict(name="s", policy="gemini", failures_per_day=4.0)
    base.update(overrides)
    return Scenario(**base)


class TestCanonicalization:
    def test_policy_kwargs_dict_normalized_to_sorted_tuple(self):
        from_dict = make(policy_kwargs={"b": 2, "a": 1})
        from_pairs = make(policy_kwargs=(("b", 2), ("a", 1)))
        assert from_dict.policy_kwargs == (("a", 1), ("b", 2))
        assert from_dict == from_pairs
        assert from_dict.scenario_hash() == from_pairs.scenario_hash()

    def test_scenario_is_hashable(self):
        assert len({make(), make(), make(failures_per_day=2.0)}) == 2

    def test_hash_differs_on_any_field(self):
        base = make()
        assert base.scenario_hash() != make(policy="strawman").scenario_hash()
        assert base.scenario_hash() != make(seeds=(0,)).scenario_hash()
        assert base.scenario_hash() != make(num_machines=8).scenario_hash()

    def test_round_trip_through_dict(self):
        scenario = make(policy_kwargs={"num_replicas": 3}, seeds=(5, 6))
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.scenario_hash() == scenario.scenario_hash()

    def test_hash_computed_once_per_instance(self, monkeypatch):
        # The sweep layer calls scenario_hash() at every cache/sort/dedup
        # site; the canonical-JSON round-trip must run only once.
        scenario = Scenario(name="memo", policy="gemini")
        calls = []
        real = Scenario.to_dict

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(Scenario, "to_dict", counting)
        first = scenario.scenario_hash()
        for _ in range(5):
            assert scenario.scenario_hash() == first
        assert len(calls) == 1

    def test_memoized_hash_matches_fresh_instance(self):
        scenario = Scenario(name="memo", policy="gemini")
        scenario.scenario_hash()
        twin = Scenario.from_dict(scenario.to_dict())
        assert twin.scenario_hash() == scenario.scenario_hash()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"name": "x", "policy": "gemini", "bogus": 1})


class TestValidation:
    @pytest.mark.parametrize(
        "field,value,needle",
        [
            ("num_machines", 0, "got 0"),
            ("failures_per_day", -1.0, "got -1.0"),
            ("software_fraction", 1.5, "got 1.5"),
            ("horizon_days", 0.0, "got 0.0"),
            ("num_standby", -2, "got -2"),
        ],
    )
    def test_messages_name_offending_value(self, field, value, needle):
        with pytest.raises(ValueError, match=needle):
            make(**{field: value})

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            make(seeds=())

    def test_validate_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'nope'"):
            make(policy="nope").validate()

    def test_validate_rejects_unknown_model(self):
        with pytest.raises(KeyError):
            make(model="GPT-9 1T").validate()


class TestClusterField:
    def test_default_omitted_from_dict_for_hash_stability(self):
        # Pre-catalog scenarios must keep their hashes: the empty default
        # never appears in the canonical form.
        assert "cluster" not in make().to_dict()

    def test_set_cluster_round_trips_and_rehashes(self):
        scenario = make(cluster="a3mega-rack4x4", num_machines=16)
        assert scenario.to_dict()["cluster"] == "a3mega-rack4x4"
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.scenario_hash() == scenario.scenario_hash()
        assert scenario.scenario_hash() != make(num_machines=16).scenario_hash()

    def test_validate_rejects_unknown_cluster(self):
        with pytest.raises(KeyError, match="no-such"):
            make(cluster="no-such").validate()

    def test_validate_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="num_machines"):
            make(cluster="a3mega-rack4x4", num_machines=8).validate()

    def test_run_row_names_the_cluster(self):
        scenario = make(
            cluster="a3mega-rack4x4",
            num_machines=16,
            horizon_days=0.02,
            seeds=(0,),
        )
        row = scenario.run()
        assert row["cluster"] == "a3mega-rack4x4"
        assert "cluster" not in make(horizon_days=0.02, seeds=(0,)).run()


class TestExecution:
    def test_run_is_deterministic_and_self_describing(self):
        scenario = make(
            failures_per_day=8.0, horizon_days=0.05, seeds=(0, 1), num_standby=1
        )
        first = scenario.run()
        second = scenario.run()
        assert first == second
        assert first["hash"] == scenario.scenario_hash()
        assert first["seeds"] == [0, 1]
        assert len(first["ratios"]) == 2
        assert first["min_ratio"] <= first["mean_ratio"] <= first["max_ratio"]

    def test_defaults_to_lightweight_detection(self):
        options = make().policy_options()
        assert options["use_agents"] is False
        explicit = make(policy_kwargs={"use_agents": True}).policy_options()
        assert explicit["use_agents"] is True

    @pytest.mark.parametrize("policy", ["highfreq", "gemini"])
    def test_persistent_bandwidth_reaches_the_store(self, policy):
        # The policy's cadence and the kernel's PersistentStore must read
        # the same pipe, or a highfreq cadence is sized for a faster store.
        bandwidth = gbps(10)
        system, _ = make(
            policy=policy, policy_kwargs={"persistent_bandwidth": bandwidth}
        ).build_system(0)
        assert system.persistent.aggregate_bandwidth == bandwidth
        if policy == "highfreq":
            assert system.policy.persistent_bandwidth == bandwidth
        else:
            assert system.policy.config.persistent_bandwidth == bandwidth
        default, _ = make(policy=policy).build_system(0)
        assert default.persistent.aggregate_bandwidth == gbps(20)


class TestCanonicalDigests:
    """Literal digests of the sweep grids people cache against.

    Fields added to :class:`Scenario` enter the canonical form only off
    their defaults, so these digests (and every sweep cache keyed on
    them) must never move.
    """

    FIG15_FLAT = {
        "gemini-r2": "3c01761a54689d11",
        "gemini-r4": "6defefaf94c5f2e0",
        "highfreq-r2": "3098d15f1f64a533",
        "highfreq-r4": "79d56b30f0abb59b",
        "strawman-r2": "4222e4023dbd4839",
        "strawman-r4": "01881f3e7d9a94fc",
    }
    FIG15_RACK = {
        "gemini-r2-a3mega-rack4x4": "da6c50ed312f9097",
        "gemini-r4-a3mega-rack4x4": "51ad8f20bdb02c69",
        "highfreq-r2-a3mega-rack4x4": "2973abbaea0cc295",
        "highfreq-r4-a3mega-rack4x4": "4f85e720793986b0",
        "strawman-r2-a3mega-rack4x4": "297276e3e649e45f",
        "strawman-r4-a3mega-rack4x4": "a08fd95a6fecafbf",
    }
    #: the 7 policies x {2, 8}/day x 2-day cells of the policy_sweep bench.
    POLICY_SWEEP = {
        "gemini-r2": "499517c1e510b61d",
        "gemini-r8": "6e3384d35533d2be",
        "highfreq-r2": "955c389b2bbd50c8",
        "highfreq-r8": "6e441b040b55d4b2",
        "strawman-r2": "715c828d5768cb69",
        "strawman-r8": "f6f39ed7532f9081",
        "checkmate-r2": "0e78d3ae7a7f907f",
        "checkmate-r8": "d8a74965fbed9467",
        "tiercheck-r2": "97a25e4d71179d56",
        "tiercheck-r8": "51d51ac28cd07cda",
        "sparse_moe-r2": "8f64a5ab07025a06",
        "sparse_moe-r8": "c54ea45a5e1ed2a9",
        "reft-r2": "3ce22623acef83e2",
        "reft-r8": "ba89a563139fe004",
    }

    @staticmethod
    def digests(grid):
        return {scenario.name: scenario.scenario_hash() for scenario in grid}

    def test_default_fig15_grid(self):
        from repro.experiments import fig15_grid

        assert self.digests(fig15_grid()) == self.FIG15_FLAT

    def test_fig15_grid_with_cluster_axis(self):
        from repro.experiments import fig15_grid

        grid = fig15_grid(clusters=("", "a3mega-rack4x4"))
        assert self.digests(grid) == {**self.FIG15_FLAT, **self.FIG15_RACK}

    def test_policy_sweep_cells(self):
        grid = [
            Scenario(
                name=f"{policy}-r{rate:g}",
                policy=policy,
                failures_per_day=rate,
                horizon_days=2.0,
                seeds=(0, 1, 2),
            )
            for policy in (
                "gemini", "highfreq", "strawman", "checkmate",
                "tiercheck", "sparse_moe", "reft",
            )
            for rate in (2.0, 8.0)
        ]
        assert self.digests(grid) == self.POLICY_SWEEP
