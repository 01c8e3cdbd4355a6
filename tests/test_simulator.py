"""Event-driven execution and failure injection."""

from __future__ import annotations

import pytest

from fogpart.model import (
    Application,
    Device,
    Message,
    NetworkLink,
    PlacementPlan,
    Service,
    USER,
    User,
)
from fogpart.scenario import AppRequest, Scenario, ScenarioConfig
from fogpart import simulator
from fogpart.simulator import FAULTY, FAILED_DEPENDENCY, MISSED, RELIABLE, SATISFIED


def tiny_scenario(deadline=50000.0, horizon=60.0, period=1.0, n_devices=4):
    cfg = ScenarioConfig(
        device_count=max(4, n_devices),
        gateway_count=1,
        app_count=1,
        user_count=2,
        horizon_s=horizon,
        request_period_s=period,
        deadline_mode=True,
        seed=0,
    )
    devices = [Device(i, 10, 20.0, 100.0, 100.0) for i in range(n_devices)]
    links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(n_devices - 1)]
    app = Application(
        0,
        [Service(0, 20.0, 1.0, 1.0), Service(1, 20.0, 1.0, 1.0)],
        [Message(USER, 0, 1_500_000.0), Message(0, 1, 1_500_000.0)],
        deadline,
    )
    users = [User(0, gateway=0), User(1, gateway=0)]
    requests = [AppRequest(0, 0, 0), AppRequest(1, 1, 0)]
    schedule = []
    t = period
    while t <= horizon:
        schedule.append((t, 0))
        schedule.append((t, 1))
        t += period
    return Scenario(
        config=cfg,
        devices=devices,
        links=links,
        gateways=(0,),
        cloud_id=n_devices - 1,
        apps=[app],
        users=users,
        requests=requests,
        schedule=schedule,
    )


def full_plans(scenario, host=1):
    return {
        req.request_id: PlacementPlan(assignment={0: host, 1: host})
        for req in scenario.requests
    }


class TestReliableRun:
    def test_all_satisfied_when_under_deadline(self):
        sc = tiny_scenario()
        result = simulator.run(sc, full_plans(sc), mode=RELIABLE)
        assert result.outcomes
        assert all(o.status == SATISFIED for o in result.outcomes)

    def test_all_missed_when_deadline_tight(self):
        sc = tiny_scenario(deadline=500.0)
        result = simulator.run(sc, full_plans(sc), mode=RELIABLE)
        assert all(o.status == MISSED for o in result.outcomes)

    def test_unplaced_service_is_failed_dependency(self):
        sc = tiny_scenario()
        plans = {rid: PlacementPlan(assignment={0: 1, 1: None}) for rid in (0, 1)}
        result = simulator.run(sc, plans, mode=RELIABLE)
        assert all(o.status == FAILED_DEPENDENCY for o in result.outcomes)

    def test_empty_schedule_empty_result(self):
        sc = tiny_scenario()
        sc.schedule = []
        result = simulator.run(sc, full_plans(sc), mode=RELIABLE)
        assert result.outcomes == []

    def test_zero_horizon_empty_series(self):
        sc = tiny_scenario()
        result = simulator.run(sc, full_plans(sc), mode=RELIABLE, horizon_s=0.0)
        assert result.outcomes == []


class TestFaultyRun:
    def test_all_fog_devices_dead_by_horizon(self):
        sc = tiny_scenario(horizon=60.0, period=1.0)
        result = simulator.run(
            sc, full_plans(sc), mode=FAULTY, failure_period_s=10.0, seed=0
        )
        fog = [d.id for d in sc.devices if d.id != sc.cloud_id]
        assert len(result.deaths) == len(fog)
        assert {d for _, d in result.deaths} == set(fog)

    def test_requests_fail_after_host_death(self):
        sc = tiny_scenario(horizon=60.0, period=1.0)
        plans = full_plans(sc, host=1)
        result = simulator.run(sc, plans, mode=FAULTY, failure_period_s=10.0, seed=0)
        death_time = next(t for t, d in result.deaths if d == 1)
        late = [o for o in result.outcomes if o.time_s > death_time]
        assert late
        assert all(o.status == FAILED_DEPENDENCY for o in late)

    def test_gateway_death_fails_its_users(self):
        sc = tiny_scenario(horizon=60.0, period=1.0)
        plans = full_plans(sc, host=2)
        result = simulator.run(sc, plans, mode=FAULTY, failure_period_s=5.0, seed=0)
        death_time = next(t for t, d in result.deaths if d == 0)  # gateway is device 0
        late = [o for o in result.outcomes if o.time_s > death_time]
        assert late
        assert all(o.status == FAILED_DEPENDENCY for o in late)

    def test_injection_counts_accumulate(self):
        sc = tiny_scenario(horizon=25.0, period=1.0)
        result = simulator.run(
            sc, full_plans(sc), mode=FAULTY, failure_period_s=10.0, seed=0
        )
        assert len(result.deaths) == 2  # t = 10, 20

    def test_deterministic(self):
        sc = tiny_scenario(horizon=40.0)
        a = simulator.run(sc, full_plans(sc), mode=FAULTY, failure_period_s=5.0, seed=3)
        b = simulator.run(sc, full_plans(sc), mode=FAULTY, failure_period_s=5.0, seed=3)
        assert [(o.time_s, o.request_id, o.status) for o in a.outcomes] == [
            (o.time_s, o.request_id, o.status) for o in b.outcomes
        ]
        assert a.deaths == b.deaths

    def test_every_request_classified_once(self):
        sc = tiny_scenario(horizon=30.0, period=1.0)
        result = simulator.run(sc, full_plans(sc), mode=FAULTY, failure_period_s=7.0, seed=1)
        assert len(result.outcomes) == len([t for t, _ in sc.schedule if t <= 30.0])
        assert all(o.status in (SATISFIED, MISSED, FAILED_DEPENDENCY) for o in result.outcomes)

