"""Scenario synthesis: topology, applications, requests, schedules."""

from __future__ import annotations

import math
import random

import pytest

from fogpart.model import Topology, USER
from fogpart.scenario import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    Schedule,
    generate_applications,
    generate_scenario,
    generate_topology,
    generate_users,
)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.device_count == 100
        assert cfg.gateway_count == 25

    def test_gateways_must_be_fewer_than_devices(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(device_count=10, gateway_count=10)

    def test_negative_gateway_count_rejected(self):
        with pytest.raises(ConfigError, match="gateway_count must be non-negative"):
            ScenarioConfig(device_count=10, gateway_count=-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "change",
        [
            lambda v: {"horizon_s": v},
            lambda v: {"latency_ms": v},
            lambda v: {"cloud_factor": v},
            lambda v: {"mem_range": (10.0, v)},
            lambda v: {"deadline_range_ms": (v, 50000.0)},
            lambda v: {"device_count": v},
        ],
    )
    def test_non_finite_float_rejected(self, change, value):
        with pytest.raises(ConfigError, match="must be finite"):
            ScenarioConfig(**change(value))

    @pytest.mark.parametrize(
        "change", [{"device_count": 10.5}, {"gateway_count": 2.0}, {"cores_range": (10, 25.0)}]
    )
    def test_float_in_integer_field_rejected(self, change):
        with pytest.raises(ConfigError, match="must be an integer"):
            ScenarioConfig(**change)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": "x"},
            {"seed": None},
            {"seed": True},
            {"device_count": False},
            {"cores_range": ("10", "25")},
            {"service_count_range": (2, None)},
        ],
    )
    def test_non_integer_in_integer_field_rejected(self, change):
        with pytest.raises(ConfigError, match=f"{next(iter(change))} must be an integer"):
            ScenarioConfig(**change)

    @pytest.mark.parametrize(
        "change",
        [
            {"horizon_s": "10"},
            {"latency_ms": None},
            {"cloud_factor": True},
            {"mem_range": (10.0, "25")},
            {"deadline_range_ms": (False, 50000.0)},
        ],
    )
    def test_non_number_in_float_field_rejected(self, change):
        with pytest.raises(ConfigError, match=f"{next(iter(change))} must be a number"):
            ScenarioConfig(**change)

    def test_int_in_float_field_accepted(self):
        assert ScenarioConfig(horizon_s=10, mem_range=(10, 25)).horizon_s == 10

    @pytest.mark.parametrize("value", ["no", "false", 1, 0, 1.0, None])
    def test_non_bool_in_bool_field_rejected(self, value):
        with pytest.raises(ConfigError, match="deadline_mode must be true or false"):
            ScenarioConfig(deadline_mode=value)

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(mem_range=(25.0, 10.0))

    def test_presets(self):
        cfg = ScenarioConfig().with_scale("MEDIUM")
        assert (cfg.app_count, cfg.user_count, cfg.deadline_mode) == (20, 65, False)
        cfg = ScenarioConfig().with_scale("D-LARGE")
        assert (cfg.app_count, cfg.user_count, cfg.deadline_mode) == (30, 98, True)
        with pytest.raises(ConfigError):
            ScenarioConfig().with_scale("HUGE")

    def test_derived_config_is_checked(self):
        cfg = ScenarioConfig()
        message = "^gateway_count must be smaller than device_count$"
        with pytest.raises(ConfigError, match=message):
            cfg.replace(gateway_count=cfg.device_count)
        # NamedTuple's _replace skips the checks; with_scale must not carry its result on
        unchecked = cfg._replace(gateway_count=cfg.device_count)
        with pytest.raises(ConfigError, match=message):
            unchecked.with_scale("SMALL")


class TestTopology:
    def test_counts(self):
        cfg = ScenarioConfig(seed=1)
        devices, links, gateways, cloud_id = generate_topology(cfg)
        assert len(devices) == 101  # 100 fog + 1 cloud
        assert len(gateways) == 25
        assert cloud_id == 100
        assert len(links) == (100 - 2) * 2 + 1  # BA(100, 2) edges + cloud uplink

    def test_star_center_hosts_cloud_and_leaves_are_gateways(self):
        # in a star the hub maximizes betweenness and leaves minimize it
        cfg = ScenarioConfig(device_count=9, gateway_count=5, ba_attachment=1, seed=3)
        devices, links, gateways, cloud_id = generate_topology(cfg)
        topo = Topology(devices, links)
        degree = {d.id: 0 for d in devices}
        for link in links:
            degree[link.a] += 1
            degree[link.b] += 1
        hub = max((d for d in degree if d != cloud_id), key=lambda d: degree[d])
        if degree[hub] == len(devices) - 2:  # a true star (hub linked to every leaf)
            assert hub not in gateways
            assert len(topo.shortest_hop_path(hub, cloud_id)) == 1

    def test_resources_within_ranges(self):
        cfg = ScenarioConfig(seed=2)
        devices, _, _, cloud_id = generate_topology(cfg)
        for d in devices:
            if d.id == cloud_id:
                continue
            assert cfg.cores_range[0] <= d.cores <= cfg.cores_range[1]
            assert cfg.cpu_speed_range[0] <= d.cpu_speed <= cfg.cpu_speed_range[1]
            assert cfg.mem_range[0] <= d.mem <= cfg.mem_range[1]
            assert cfg.storage_range[0] <= d.storage <= cfg.storage_range[1]

    def test_cloud_capacity_scaled(self):
        cfg = ScenarioConfig(seed=2)
        devices, _, _, cloud_id = generate_topology(cfg)
        cloud = next(d for d in devices if d.id == cloud_id)
        assert cloud.cores == 250
        assert cloud.mem == 250.0

    def test_connected(self):
        cfg = ScenarioConfig(seed=4)
        devices, links, _, _ = generate_topology(cfg)
        topo = Topology(devices, links)
        assert all(topo.shortest_hop_path(0, d.id) is not None for d in devices)

    def test_same_seed_same_topology(self):
        cfg = ScenarioConfig(seed=5)
        a = generate_topology(cfg)
        b = generate_topology(cfg)
        assert [(d.cpu_speed, d.mem, d.storage) for d in a[0]] == [
            (d.cpu_speed, d.mem, d.storage) for d in b[0]
        ]
        assert [(l.a, l.b) for l in a[1]] == [(l.a, l.b) for l in b[1]]
        assert a[2] == b[2]


class TestApplications:
    def test_service_counts_in_range(self):
        cfg = ScenarioConfig(seed=6)
        apps = generate_applications(cfg.replace(app_count=200))
        for app in apps:
            assert 2 <= len(app.services) <= 10

    def test_single_entry_and_acyclic_by_construction(self):
        cfg = ScenarioConfig(seed=7)
        for app in generate_applications(cfg.replace(app_count=100)):
            entries = [m for m in app.messages if m.source == USER]
            assert len(entries) == 1
            assert len(app.topological_order()) == len(app.services)

    def test_demands_within_ranges(self):
        cfg = ScenarioConfig(seed=8)
        for app in generate_applications(cfg.replace(app_count=100)):
            assert cfg.deadline_range_ms[0] <= app.deadline <= cfg.deadline_range_ms[1]
            for s in app.services:
                assert cfg.workload_range[0] <= s.workload <= cfg.workload_range[1]
                assert cfg.service_mem_range[0] <= s.mem_demand <= cfg.service_mem_range[1]
            for m in app.messages:
                assert (
                    cfg.message_size_range_kb[0] * 1000
                    <= m.size
                    <= cfg.message_size_range_kb[1] * 1000
                )

    def test_same_seed_same_apps(self):
        cfg = ScenarioConfig(seed=9)
        a = generate_applications(cfg.replace(app_count=20))
        b = generate_applications(cfg.replace(app_count=20))
        assert [x.deadline for x in a] == [x.deadline for x in b]
        assert [tuple(m.size for m in x.messages) for x in a] == [
            tuple(m.size for m in x.messages) for x in b
        ]


class TestUsers:
    def test_one_shot_mode(self):
        cfg = ScenarioConfig(seed=10).with_scale("SMALL")
        requests, schedule = generate_users(cfg, gateways=[0, 1, 2])
        assert [r.request_id for r in requests] == list(range(29))
        assert len(schedule) == 29
        assert all(t == 0.0 for t, _ in schedule)

    def test_deadline_mode_tick_count(self):
        cfg = ScenarioConfig(seed=11).with_scale("D-SMALL")
        requests, schedule = generate_users(cfg, gateways=[0, 1])
        per_user = math.floor(cfg.horizon_s / cfg.request_period_s)
        assert per_user == 1284
        assert len(schedule) == per_user * 29

    def test_users_pinned_to_gateways(self):
        cfg = ScenarioConfig(seed=12)
        gateways = [3, 7, 9]
        requests, _ = generate_users(cfg, gateways)
        assert all(r.gateway in gateways for r in requests)

    def test_same_seed_same_schedule(self):
        cfg = ScenarioConfig(seed=13).with_scale("D-SMALL")
        a = generate_users(cfg, [0, 1, 2])
        b = generate_users(cfg, [0, 1, 2])
        assert a == b


class TestScheduleOrdered:
    @pytest.mark.parametrize(
        "times, ordered",
        [
            ([], True),
            ([3.0], True),
            ([0.0, 1, 1.0, 2.5], True),
            ([1.0, 0.0], False),
            ([0.0, 2.0, 1.0, 3.0], False),
            # a NaN breaks the order wherever it stands next to another time
            ([math.nan], True),
            ([math.nan, 1.0], False),
            ([0.0, math.nan, 1.0], False),
            ([0.0, 1.0, math.nan], False),
        ],
    )
    def test_ordered_is_set_from_the_times(self, times, ordered):
        assert Schedule(times, tuple(range(len(times)))).ordered is ordered


class TestScenario:
    def test_instances_carry_users(self):
        # a user is one request, so an instance carries the user's gateway
        sc = generate_scenario(ScenarioConfig(seed=14).with_scale("SMALL"))
        instances = sc.instances()
        assert len(instances) == len(sc.requests) == 29
        templates = sc.app_by_id()
        for inst, req in zip(instances, sc.requests):
            assert inst.id == req.request_id
            assert inst.gateway == req.gateway
            assert templates[req.app_id].gateway is None
            assert inst.deadline == templates[req.app_id].deadline

    def test_sampled_values_within_ranges_bulk(self):
        # broad sweep across the whole sampled surface
        cfg = ScenarioConfig(seed=15, app_count=100, user_count=50)
        sc = generate_scenario(cfg)
        values = 0
        for app in sc.apps:
            for s in app.services:
                assert 20.0 <= s.workload <= 60.0
                assert 1.0 <= s.mem_demand <= 6.0
                assert 1.0 <= s.storage_demand <= 6.0
                values += 3
        for d in sc.devices[:-1]:
            assert 20.0 <= d.cpu_speed <= 60.0
            values += 1
        assert values > 1000
