"""Request replay, failure injection, and the per-epoch classification contract."""

from __future__ import annotations

import itertools
import json
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_request_series, per_request_tally, schedule_of
from fogpart.model import (
    Application,
    Device,
    Message,
    NetworkLink,
    PlacementPlan,
    Service,
    UnreachableError,
    USER,
    response_times,
)
from fogpart.metrics import cumulative_series
from fogpart.scenario import AppRequest, Scenario, ScenarioConfig, Schedule
from fogpart import simulator
from fogpart.serialize import scenario_from_dict, scenario_to_dict
from fogpart.simulator import FAULTY, FAILED_DEPENDENCY, MISSED, RELIABLE, SATISFIED, RequestOutcome


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
    requests = [AppRequest(0, app_id=0, gateway=0), AppRequest(1, app_id=0, gateway=0)]
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
        cloud_id=n_devices - 1,
        apps=[app],
        requests=requests,
        schedule=schedule_of(schedule),
    )


def with_horizon(scenario, horizon):
    """``scenario`` with its config's horizon replaced, the one horizon ``run`` reads."""
    sc = scenario
    return Scenario(sc.config.replace(horizon_s=horizon), sc.devices, sc.links, sc.cloud_id, sc.apps, sc.requests, sc.schedule)


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
        sc.schedule = Schedule()
        result = simulator.run(sc, full_plans(sc), mode=RELIABLE)
        assert list(result.outcomes) == []
        assert not result.outcomes

    def test_zero_horizon_empty_series(self):
        sc = tiny_scenario()
        result = simulator.run(with_horizon(sc, 0.0), full_plans(sc), mode=RELIABLE)
        assert list(result.outcomes) == []


class TestPlansChecked:
    """Plans come from a file, so ``run`` rejects those its scenario cannot replay."""

    @pytest.mark.parametrize(
        "plans, reason",
        [
            ({0: PlacementPlan(assignment={0: 1})}, "assigns services"),
            ({0: PlacementPlan(assignment={0: 1, 1: 99999})}, "on device 99999"),
            ({7: PlacementPlan(assignment={0: 1, 1: 1})}, "no such request"),
        ],
        ids=["omits_a_service", "unknown_device", "unknown_request"],
    )
    def test_rejected_naming_the_request(self, plans, reason):
        (request_id,) = plans
        with pytest.raises(ValueError, match=f"plan of request {request_id}.*{reason}"):
            simulator.run(tiny_scenario(), plans, mode=RELIABLE)


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


    def test_request_at_host_death_time_fails(self):
        # the gateway hosts both services, so only its own death matters
        sc = tiny_scenario(horizon=60.0, period=1.0)
        result = simulator.run(
            sc, full_plans(sc, host=0), mode=FAULTY, failure_period_s=10.0, seed=0
        )
        death_time = next(t for t, d in result.deaths if d == 0)
        before = [o.status for o in result.outcomes if o.time_s == death_time - 1.0]
        at = [o.status for o in result.outcomes if o.time_s == death_time]
        assert before == [SATISFIED, SATISFIED]
        assert at == [FAILED_DEPENDENCY, FAILED_DEPENDENCY]

    def test_nonpositive_failure_period_rejected(self):
        sc = tiny_scenario()
        with pytest.raises(ValueError):
            simulator.run(sc, full_plans(sc), mode=FAULTY, failure_period_s=0.0)


class TestScheduleOrder:
    def test_unsorted_schedule_runs_in_stable_time_order(self):
        sc = tiny_scenario(horizon=3.0)
        sc.schedule = schedule_of([(3.0, 1), (1.0, 1), (4.0, 0), (3.0, 0), (1.0, 0), (2.0, 1)])
        result = simulator.run(sc, full_plans(sc), mode=RELIABLE)
        assert [(o.time_s, o.request_id) for o in result.outcomes] == [
            (1.0, 1), (1.0, 0), (2.0, 1), (3.0, 1), (3.0, 0)
        ]


def oracle_run(scenario, plans, mode, horizon, period, seed):
    """Every request classified from scratch against the deaths up to its time."""
    deaths = []
    if mode == FAULTY:
        victims = sorted(d.id for d in scenario.devices if d.id != scenario.cloud_id)
        random.Random(f"{seed}:failures").shuffle(victims)
        t = period
        for victim in victims:
            if t > horizon:
                break
            deaths.append((t, victim))
            t += period
    topology = scenario.topology()
    gateways = {req.request_id: req.gateway for req in scenario.requests}
    apps = {app.id: app for app in scenario.instances()}
    schedule = list(scenario.schedule)
    order = sorted(range(len(schedule)), key=lambda i: (schedule[i][0], i))
    rows = []
    for i in order:
        t, rid = schedule[i]
        if t > horizon:
            continue
        dead = frozenset(victim for death_t, victim in deaths if death_t <= t)
        app, plan = apps.get(rid), plans.get(rid)
        status, rt = FAILED_DEPENDENCY, None
        hosts = [] if plan is None else list(plan.assignment.values())
        if app is not None and hosts and all(h is not None and h not in dead for h in hosts):
            try:
                _, rt, _ = response_times(app, plan.assignment, topology, gateways[rid], dead)
                status = SATISFIED if rt < app.deadline else MISSED
            except UnreachableError:
                pass
        rows.append((t, rid, status, rt))
    return rows, deaths


@st.composite
def simulations(draw):
    """Small, often disconnected topologies, partial plans and shuffled schedules."""
    n = draw(st.integers(2, 7))
    devices = [Device(i, 10, draw(st.sampled_from([10.0, 20.0, 40.0])), 25.0, 25.0) for i in range(n)]
    pairs = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    links = [NetworkLink(a, b, 75000.0, draw(st.floats(1.0, 10.0))) for a, b in pairs]
    templates = []
    for app_id in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        templates.append(Application(
            app_id,
            [Service(s, 20.0, 1.0, 1.0) for s in range(k)],
            [Message(USER, 0, 1_500_000.0)] + [Message(s - 1, s, 1_500_000.0) for s in range(1, k)],
            draw(st.floats(500.0, 4000.0)),
        ))
    n_users = draw(st.integers(1, 3))
    requests = [
        AppRequest(u, draw(st.integers(0, len(templates) - 1)), draw(st.integers(0, n - 1)))
        for u in range(n_users)
    ]
    plans = {}
    for req in requests:
        if draw(st.integers(0, 9)) == 0:
            continue  # no plan at all
        services = templates[req.app_id].services
        # -1 leaves a service unplaced
        hosts = [draw(st.integers(-1, n - 1)) for _ in services]
        plans[req.request_id] = PlacementPlan(
            assignment={s.id: (None if h < 0 else h) for s, h in zip(services, hosts)}
        )
    ticks = st.integers(0, 12).map(float)
    schedule = schedule_of(draw(st.lists(st.tuples(ticks, st.integers(0, n_users - 1)), max_size=40)))
    cfg = ScenarioConfig(device_count=4, gateway_count=1, app_count=1, user_count=1, seed=0)
    scenario = Scenario(
        config=cfg,
        devices=devices,
        links=links,
        cloud_id=n - 1,
        apps=templates,
        requests=requests,
        schedule=schedule,
    )
    return (
        scenario,
        plans,
        draw(st.sampled_from([RELIABLE, FAULTY])),
        draw(st.integers(0, 14).map(float)),
        draw(st.integers(1, 4).map(float)),  # failure periods land on request ticks
        draw(st.integers(0, 3)),
    )


class TestEpochClassificationOracle:
    @settings(max_examples=200, deadline=None)
    @given(simulations())
    def test_run_matches_from_scratch_oracle(self, case):
        scenario, plans, mode, horizon, period, seed = case
        result = simulator.run(
            with_horizon(scenario, horizon), plans, mode=mode, failure_period_s=period, seed=seed
        )
        rows, deaths = oracle_run(scenario, plans, mode, horizon, period, seed)
        assert [(o.time_s, o.request_id, o.status, o.rt_ms) for o in result.outcomes] == rows
        assert result.deaths == deaths


@st.composite
def relay_simulations(draw):
    """Faulty runs on 8-16 device meshes: a death every tick, every request every tick.

    Each gateway and its hosts are distinct devices, so most routes cross
    relays, and a verdict carried across deaths is wrong unless a relay's
    death is checked as well as its endpoints'.
    """
    n = draw(st.integers(8, 16))
    devices = [Device(i, 10, 20.0, 25.0, 25.0) for i in range(n)]
    # each device links to 1-3 earlier ones: connected, with detours of equal and longer hops
    edges = {
        (j, i)
        for i in range(1, n)
        for j in draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=min(i, 3)))
    }
    links = [NetworkLink(a, b, 75000.0, draw(st.floats(1.0, 10.0))) for a, b in sorted(edges)]
    templates = []
    for app_id in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        templates.append(Application(
            app_id,
            [Service(s, 20.0, 1.0, 1.0) for s in range(k)],
            [Message(USER, 0, 1_500_000.0)] + [Message(s - 1, s, 1_500_000.0) for s in range(1, k)],
            draw(st.floats(1000.0, 3500.0)),
        ))
    requests, plans = [], {}
    for u in range(draw(st.integers(1, 3))):
        gateway = draw(st.integers(0, n - 1))
        req = AppRequest(u, draw(st.integers(0, len(templates) - 1)), gateway)
        requests.append(req)
        plans[u] = PlacementPlan(assignment={
            s.id: (gateway + draw(st.integers(1, n - 1))) % n
            for s in templates[req.app_id].services
        })
    horizon = draw(st.integers(4, n))
    schedule = schedule_of([(float(t), req.request_id) for t in range(horizon + 1) for req in requests])
    cfg = ScenarioConfig(device_count=4, gateway_count=1, app_count=1, user_count=1, seed=0)
    scenario = Scenario(
        config=cfg,
        devices=devices,
        links=links,
        cloud_id=n - 1,
        apps=templates,
        requests=requests,
        schedule=schedule,
    )
    return scenario, plans, FAULTY, float(horizon), 1.0, draw(st.integers(0, 50))


class TestRelayDeathOracle:
    @settings(max_examples=100, deadline=None)
    @given(relay_simulations())
    def test_run_matches_from_scratch_oracle(self, case):
        scenario, plans, mode, horizon, period, seed = case
        result = simulator.run(
            with_horizon(scenario, horizon), plans, mode=mode, failure_period_s=period, seed=seed
        )
        rows, deaths = oracle_run(scenario, plans, mode, horizon, period, seed)
        assert [(o.time_s, o.request_id, o.status, o.rt_ms) for o in result.outcomes] == rows
        assert result.deaths == deaths


#: repeated times, some ints and some floats, a few equal as numbers (2 and 2.0)
mixed_times = st.integers(0, 6) | st.integers(0, 12).map(lambda k: k / 2)


class TestReplayPaths:
    """A schedule read from ``scenario.json`` replays as the stable time sort of its rows.

    Shuffled rows take the sorting path of ``simulator.run`` and rows drawn
    in time order take the other. Int times stay ints in the read schedule;
    each tick reports its time as a float.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(mixed_times, st.integers(0, 1)), max_size=30),
        st.booleans(),
        st.sampled_from([RELIABLE, FAULTY]),
        st.integers(0, 3),
    )
    def test_read_schedule_replays_as_its_stable_time_sort(self, rows, presorted, mode, seed):
        if presorted:
            rows = sorted(rows, key=itemgetter(0))
        sc = tiny_scenario(horizon=6.0, n_devices=5)
        sc.schedule = schedule_of(rows)
        read = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
        assert [(type(t), t, rid) for t, rid in read.schedule] == [(type(t), t, rid) for t, rid in rows]

        def replay(scenario):
            plans = full_plans(scenario, host=3)
            result = simulator.run(scenario, plans, mode=mode, failure_period_s=2.0, seed=seed)
            return [(type(o.time_s), *o) for o in result.outcomes]

        sc.schedule = schedule_of(sorted(rows, key=itemgetter(0)))
        assert replay(read) == replay(sc)
        oracle, _ = oracle_run(sc, full_plans(sc, host=3), mode, 6.0, 2.0, seed)
        assert [o[1:] for o in replay(read)] == oracle


class TestTickSeries:
    """The per-tick series and tally against the per-request ones over the oracle's records.

    ``simulations`` draws unsorted schedules with repeated times, requests
    repeated within a tick, ticks that omit requests, and deaths at tick
    times; ``relay_simulations`` repeats every request every tick, so
    consecutive ticks share their ids and a stale verdict map would show.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(simulations(), relay_simulations()))
    def test_series_and_tally_match_per_request_reference(self, case):
        scenario, plans, mode, horizon, period, seed = case
        result = simulator.run(
            with_horizon(scenario, horizon), plans, mode=mode, failure_period_s=period, seed=seed
        )
        rows, _ = oracle_run(scenario, plans, mode, horizon, period, seed)
        outcomes = [RequestOutcome(*row) for row in rows]
        ticks = result.outcomes.ticks
        assert cumulative_series(ticks) == (per_request_series(outcomes), per_request_tally(outcomes))
        assert len(result.outcomes) == sum(1 for t, _ in scenario.schedule if t <= horizon)
        assert bool(result.outcomes) == bool(rows)


def diamond_scenario():
    """Gateway 0 reaches host 3 over relay 1 (fast) or relay 2 (slow), both two hops.

    BFS scans 0's neighbours in order, so the route runs over relay 1.
    Device 4, the cloud, hangs off the host and never dies.
    """
    devices = [Device(i, 10, 20.0, 100.0, 100.0) for i in range(5)]
    links = [
        NetworkLink(0, 1, 75000.0, 1.0),
        NetworkLink(0, 2, 75000.0, 5.0),
        NetworkLink(1, 3, 75000.0, 1.0),
        NetworkLink(2, 3, 75000.0, 5.0),
        NetworkLink(3, 4, 75000.0, 1.0),
    ]
    app = Application(0, [Service(0, 20.0, 1.0, 1.0)], [Message(USER, 0, 1_500_000.0)], 50000.0)
    cfg = ScenarioConfig(device_count=4, gateway_count=1, app_count=1, user_count=1, seed=0)
    return Scenario(
        config=cfg,
        devices=devices,
        links=links,
        cloud_id=4,
        apps=[app],
        requests=[AppRequest(0, app_id=0, gateway=0)],
        schedule=schedule_of([(1.0, 0), (3.0, 0)]),
    )


class TestRelayDeath:
    @pytest.mark.parametrize("victim, rerouted", [(2, False), (1, True)], ids=["idle_relay", "route_relay"])
    def test_verdict_follows_the_route_it_used(self, victim, rerouted):
        sc = diamond_scenario()
        # the one death, at t = 2 between the two requests, kills ``victim``
        seed = next(
            s for s in range(100) if simulator.failure_deaths([0, 1, 2, 3], s, 2.0, 3.0)[0][1] == victim
        )
        plans = {0: PlacementPlan(assignment={0: 3})}
        result = simulator.run(with_horizon(sc, 3.0), plans, mode=FAULTY, failure_period_s=2.0, seed=seed)
        assert result.deaths == [(2.0, victim)]
        before, after = result.outcomes
        assert (before.status, after.status) == (SATISFIED, SATISFIED)
        (app,) = sc.instances()
        _, expected, _ = response_times(app, {0: 3}, sc.topology(), 0, frozenset({victim}))
        assert after.rt_ms == expected
        assert (after.rt_ms != before.rt_ms) == rerouted
