"""Fitness, feature-partition selection, service placement, and baselines."""

from __future__ import annotations

import math
import operator
import random
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogpart.model import (
    Application,
    Device,
    Message,
    NetworkLink,
    PlacementPlan,
    Service,
    Topology,
    USER,
    execution_time,
    transmission_time,
)
from fogpart.multilayer import Layer
from fogpart.partitioner import (
    FeaturePartitionSet,
    FeatureTriplet,
    PartitionSet,
)
from fogpart.placement import (
    STRATEGIES,
    Residual,
    app_tables,
    demand_similarity,
    normalization_ranges,
    place_service,
    rank_feature_partitions,
    run_placement,
    sort_applications,
)

RANGES = {"cpu": (20.0, 60.0), "mem": (1.0, 25.0), "storage": (1.0, 25.0)}


def transmission_from(topology, gateway, did, size):
    """T of a ``size``-byte message along the route from ``gateway`` to ``did``; inf if none."""
    path = topology.shortest_hop_path(gateway, did)
    return math.inf if path is None else transmission_time(path, size)


def fitness(fp_id, service, fps, topology, gateway, size, alpha, beta, ranges):
    """Oracle: alpha * best member similarity + beta / (1 + nearest device T).

    Scores one feature partition on its own, from the definition. T is
    ``transmission_time`` of a ``size``-byte message over the
    ``shortest_hop_path`` from ``gateway`` to a device; when no device of
    the partition is reachable the proximity term is dropped. Placement
    splits this score, taking the proximity term from ``app_tables`` once
    per application.
    """
    max_sim = max(
        demand_similarity(fps.features[node], service, ranges)
        for node in fps.feature_partitions[fp_id]
    )
    t_min = min(
        (transmission_from(topology, gateway, did, size) for did in fps.device_index[fp_id]),
        default=math.inf,
    )
    if math.isinf(t_min):
        return alpha * max_sim
    return alpha * max_sim + beta / (1.0 + t_min)


def full_capacity(devices):
    """Residual records of devices nothing has been placed on yet."""
    return {did: Residual(d.cores, d.mem, d.storage) for did, d in devices.items()}


def residuals(records):
    return [(left.cores, left.mem, left.storage) for left in records.values()]


def hosted(plans, apps):
    """The services each device hosts under ``plans``, keyed by device id, in commit order.

    ``run_placement`` fills its plans in the order it commits services.
    """
    by_id = {app.id: app for app in apps}
    services: dict[int, list[Service]] = {}
    for app_id, plan in plans.items():
        for sid, did in plan.assignment.items():
            if did is not None:
                services.setdefault(did, []).append(by_id[app_id].service(sid))
    return services


def left_over(device, services):
    """(cores, mem, storage) a run leaves of ``device`` after committing ``services`` in order."""
    return (
        device.cores - len(services),
        reduce(operator.sub, (s.mem_demand for s in services), device.mem),
        reduce(operator.sub, (s.storage_demand for s in services), device.storage),
    )


class TestDemandSimilarity:
    def test_identical_triplets_score_one(self):
        f = FeatureTriplet(30.0, 5.0, 5.0)
        s = Service(0, 30.0, 5.0, 5.0)
        assert demand_similarity(f, s, RANGES) == pytest.approx(1.0)

    def test_opposite_extremes_score_zero(self):
        f = FeatureTriplet(20.0, 1.0, 1.0)
        s = Service(0, 60.0, 25.0, 25.0)
        assert demand_similarity(f, s, RANGES) == pytest.approx(0.0, abs=1e-12)

    def test_one_dimension_spread(self):
        f = FeatureTriplet(20.0, 5.0, 5.0)
        s = Service(0, 60.0, 5.0, 5.0)
        assert demand_similarity(f, s, RANGES) == pytest.approx(1.0 - 1.0 / math.sqrt(3.0))

    def test_degenerate_dimension_skipped(self):
        ranges = {"cpu": (30.0, 30.0), "mem": (1.0, 25.0), "storage": (1.0, 25.0)}
        f = FeatureTriplet(30.0, 5.0, 5.0)
        s = Service(0, 55.0, 5.0, 5.0)
        assert demand_similarity(f, s, ranges) == pytest.approx(1.0)


def line_context(core_counts=(10, 10, 10, 10)):
    """Chain 0-1-2-3 with gateway 0; partitions {0,1} and {2,3} in every layer."""
    devices = {
        i: Device(i, core_counts[i], 20.0 + 10.0 * i, 100.0, 100.0) for i in range(4)
    }
    links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(3)]
    network = PartitionSet(
        Layer.NETWORK,
        {0: 0, 1: 0, 2: 1, 3: 1},
        {0: frozenset({0, 1}), 1: frozenset({2, 3})},
        0.0,
    )
    members = {
        (Layer.CPU, 0): frozenset({0, 1}),
        (Layer.CPU, 1): frozenset({2, 3}),
        (Layer.MEM, 0): frozenset({0, 1}),
        (Layer.MEM, 1): frozenset({2, 3}),
    }
    features = {
        node: FeatureTriplet(
            sum(devices[d].cpu_speed for d in devs) / len(devs),
            sum(devices[d].mem for d in devs) / len(devs),
            sum(devices[d].storage for d in devs) / len(devs),
        )
        for node, devs in members.items()
    }
    fps = FeaturePartitionSet(
        feature_partitions={
            0: frozenset({(Layer.CPU, 0), (Layer.MEM, 0)}),
            1: frozenset({(Layer.CPU, 1), (Layer.MEM, 1)}),
        },
        device_index={0: frozenset({0, 1}), 1: frozenset({2, 3})},
        features=features,
        modularity=0.0,
    )
    return SimpleNamespace(
        devices=devices,
        links=links,
        topology=Topology(devices.values(), links),
        network=network,
        fps=fps,
    )


def place_on_line(ctx, apps, alpha=0.5, beta=0.5):
    """One multilayer run over the line context's devices and partitions."""
    return run_placement(
        apps, ctx.topology, "multilayer",
        feature_partitions=ctx.fps, network=ctx.network, alpha=alpha, beta=beta,
    )


def app_of(services, deadline=50000.0, size=1_500_000.0, app_id=0):
    messages = [Message(USER, services[0].id, size)]
    for a, b in zip(services, services[1:]):
        messages.append(Message(a.id, b.id, size))
    return Application(app_id, services, messages, deadline, gateway=0)


class TestFitness:
    def test_perfect_similarity_and_colocation(self):
        ctx = line_context()
        # service demand equal to FP0's feature; the gateway itself hosts it
        feature = ctx.fps.features[(Layer.CPU, 0)]
        s = Service(0, feature.avg_cpu, feature.avg_mem, feature.avg_storage)
        ranges = {
            "cpu": (feature.avg_cpu, 60.0),
            "mem": (feature.avg_mem, 200.0),
            "storage": (feature.avg_storage, 200.0),
        }
        value = fitness(0, s, ctx.fps, ctx.topology, 0, 1.0, 0.5, 0.5, ranges)
        assert value == pytest.approx(1.0)

    def test_twenty_five_ms_proximity_term(self):
        ctx = line_context()
        feature = ctx.fps.features[(Layer.CPU, 1)]
        s = Service(0, feature.avg_cpu, feature.avg_mem, feature.avg_storage)
        ranges = {
            "cpu": (20.0, max(60.0, feature.avg_cpu)),
            "mem": (1.0, 200.0),
            "storage": (1.0, 200.0),
        }
        # nearest FP1 device is two hops away; use a size that makes T = 25 ms per hop
        value = fitness(1, s, ctx.fps, ctx.topology, 0, 1_500_000.0, 0.5, 0.5, ranges)
        assert value == pytest.approx(0.5 + 0.5 / 51.0)

    def test_one_hop_proximity_value(self):
        # perfect similarity with the nearest partition device one hop away:
        # 0.5 * 1 + 0.5 / (1 + 25 ms) = 0.5 + 0.5/26
        ctx = line_context()
        feature = ctx.fps.features[(Layer.CPU, 0)]
        s = Service(0, feature.avg_cpu, feature.avg_mem, feature.avg_storage)
        fps = FeaturePartitionSet(
            feature_partitions=ctx.fps.feature_partitions,
            device_index={0: frozenset({1}), 1: frozenset({2, 3})},
            features=ctx.fps.features,
            modularity=0.0,
        )
        ranges = {"cpu": (20.0, 60.0), "mem": (1.0, 200.0), "storage": (1.0, 200.0)}
        value = fitness(0, s, fps, ctx.topology, 0, 1_500_000.0, 0.5, 0.5, ranges)
        assert value == pytest.approx(0.5 + 0.5 / 26.0)

    def test_alpha_only_reduces_to_similarity(self):
        ctx = line_context()
        s = Service(0, 25.0, 5.0, 5.0)
        sims = [
            demand_similarity(ctx.fps.features[node], s, RANGES)
            for node in ctx.fps.feature_partitions[0]
        ]
        assert fitness(0, s, ctx.fps, ctx.topology, 0, 1.0, 1.0, 0.0, RANGES) == pytest.approx(max(sims))

    def test_unreachable_partition_flagged(self):
        ctx = line_context()
        # without the 1-2 link, FP1's devices 2 and 3 cannot be reached from gateway 0
        links = [NetworkLink(0, 1, 75000.0, 5.0), NetworkLink(2, 3, 75000.0, 5.0)]
        topology = Topology(ctx.devices.values(), links)
        value = fitness(1, Service(0, 25.0, 5.0, 5.0), ctx.fps, topology, 0, 1.0, 0.5, 0.5, RANGES)
        assert value <= 0.5
        d_matrix, proximities = app_tables(ctx.fps, topology.transmission_times(0, 1.0), 0.5)
        assert proximities[1] is None
        assert proximities[0] == 0.5
        assert d_matrix == {0: [0, 1], 1: [2, 3]}


class TestSortApplications:
    def test_deadline_then_id(self):
        apps = [
            app_of([Service(0, 1, 1, 1)], deadline=500.0, app_id=1),
            app_of([Service(0, 1, 1, 1)], deadline=300.0, app_id=2),
            app_of([Service(0, 1, 1, 1)], deadline=300.0, app_id=3),
        ]
        assert [a.id for a in sort_applications(apps)] == [2, 3, 1]

    def test_single_app(self):
        apps = [app_of([Service(0, 1, 1, 1)], app_id=9)]
        assert [a.id for a in sort_applications(apps)] == [9]

    def test_sorted_input_unchanged(self):
        apps = [
            app_of([Service(0, 1, 1, 1)], deadline=100.0 + i, app_id=i) for i in range(4)
        ]
        assert [a.id for a in sort_applications(apps)] == [0, 1, 2, 3]


class TestPlaceService:
    def test_first_service_defines_anchor(self):
        ctx = line_context()
        app = app_of([Service(0, 20.0, 1.0, 1.0)])
        host = place_on_line(ctx, [app])[0].assignment[0]
        assert host == 0  # the gateway is nearest and feasible
        assert ctx.network.assignment[host] == 0

    def test_foreign_partition_skipped_even_if_feasible(self):
        # with beta = 0 the rank follows similarity alone: service 0 prefers
        # FP0 and anchors network partition 0, service 1 prefers FP1, whose
        # devices 2 and 3 could host it but lie outside the anchor
        ctx = line_context()
        services = [Service(0, 20.0, 1.0, 1.0), Service(1, 50.0, 1.0, 1.0)]
        app = app_of(services)
        ranges = normalization_ranges(ctx.devices.values(), [app])
        _, proximities = app_tables(ctx.fps, ctx.topology.transmission_times(0, 1_500_000.0), 0.0)
        assert rank_feature_partitions(ctx.fps, services[1], proximities, 1.0, ranges) == [1, 0]
        plan = place_on_line(ctx, [app], alpha=1.0, beta=0.0)[0]
        assert plan.assignment[0] == 0
        assert plan.assignment[1] in (0, 1)

    def test_anchor_exhaustion_yields_invalid(self):
        ctx = line_context(core_counts=(1, 1, 10, 10))
        app = app_of([Service(i, 20.0, 1.0, 1.0) for i in range(3)])
        plans = place_on_line(ctx, [app])
        assert plans[0].assignment == {0: 0, 1: 1, 2: None}
        services = hosted(plans, [app])
        assert [left_over(d, services.get(d.id, [])) for d in ctx.devices.values()] == [
            (0, 99.0, 99.0), (0, 99.0, 99.0), (10, 100.0, 100.0), (10, 100.0, 100.0)
        ]

    def test_first_admissible_candidate_committed_and_audited(self):
        # the residuals are the record of a commit: only the chosen device's change
        devices = {i: Device(i, 2, 20.0, 10.0, 10.0) for i in range(3)}
        left = full_capacity(devices)
        left[2].mem = 0.5
        s = Service(4, 20.0, 1.0, 1.5)
        assert place_service(s, [2, 1, 0], 700.0, devices, left) == 1
        assert residuals(left) == [(2, 10.0, 10.0), (1, 9.0, 8.5), (2, 0.5, 10.0)]

    def test_two_commits_accumulate(self):
        devices = {0: Device(0, 10, 20.0, 10.0, 10.0)}
        left = full_capacity(devices)
        s = Service(0, 20.0, 1.0, 1.0)
        assert place_service(s, [0], 50000.0, devices, left) == 0
        assert place_service(s, [0], 50000.0, devices, left) == 0
        assert residuals(left) == [(8, 8.0, 8.0)]

    def test_exhausted_memory_over_commit(self):
        devices = {0: Device(0, 10, 20.0, 10.0, 10.0)}
        left = full_capacity(devices)
        assert place_service(Service(0, 1.0, 11.0, 1.0), [0], 50000.0, devices, left) is None
        assert residuals(left) == [(10, 10.0, 10.0)]

    def test_deadline_blind_admission(self):
        # Pinned, not fixed: placement_valid compares workload / cpu_speed
        # (seconds) with the deadline (ms), so a service that runs for
        # 3,000 ms is admitted under a 300 ms deadline.
        devices = {0: Device(0, 1, 20.0, 10.0, 10.0)}
        left = full_capacity(devices)
        s = Service(0, 60.0, 1.0, 1.0)
        assert execution_time(s, devices[0]) == 3000.0
        assert place_service(s, [0], 300.0, devices, left) == 0
        assert left[0].cores == 0


class TestSelectFeaturePartitions:
    """Feature-partition selection, through ``run_placement``'s multilayer order."""

    def test_ample_capacity_keeps_app_near_gateway(self):
        ctx = line_context()
        app = app_of([Service(i, 20.0, 1.0, 1.0) for i in range(3)])
        plan = place_on_line(ctx, [app])[0]
        assert plan.fully_placed
        partitions = {ctx.network.assignment[d] for d in plan.assignment.values()}
        assert partitions == {0}

    def test_oversized_service_invalid(self):
        ctx = line_context()
        app = app_of(
            [Service(0, 20.0, 1.0, 1.0), Service(1, 20.0, 1000.0, 1.0)]
        )
        plan = place_on_line(ctx, [app])[0]
        assert plan.assignment[0] is not None
        assert plan.assignment[1] is None

    def test_core_exhaustion_spills_within_partition(self):
        ctx = line_context(core_counts=(1, 10, 10, 10))
        app = app_of([Service(0, 20.0, 1.0, 1.0), Service(1, 20.0, 1.0, 1.0)])
        plan = place_on_line(ctx, [app])[0]
        assert plan.assignment[0] == 0
        assert plan.assignment[1] == 1  # same network partition, different device
        assert ctx.network.assignment[plan.assignment[1]] == 0

    def test_rank_is_permutation_of_all_fps(self):
        ctx = line_context()
        s = Service(0, 25.0, 5.0, 5.0)
        _, proximities = app_tables(ctx.fps, ctx.topology.transmission_times(0, 1.0), 0.5)
        rank = rank_feature_partitions(ctx.fps, s, proximities, 0.5, RANGES)
        assert sorted(rank) == [0, 1]


def toy_scenario_inputs():
    """Four devices and two small apps, both requested at gateway 0."""
    devices = [Device(i, 3, 20.0 + 10 * i, 6.0, 6.0) for i in range(4)]
    links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(3)]
    apps = [
        app_of([Service(0, 20.0, 2.0, 2.0), Service(1, 20.0, 2.0, 2.0)], app_id=0),
        app_of([Service(0, 20.0, 2.0, 2.0)], app_id=1),
    ]
    return devices, links, apps


def baseline_plan(strategy, app, devices, network=None):
    """The plan one baseline run gives a single app requested at gateway 0."""
    topology = Topology(devices, [])
    return run_placement([app], topology, strategy, network=network)[app.id]


class TestBaselines:
    def test_first_fit_stacks_until_cores_run_out(self):
        devices = [Device(0, 2, 20.0, 100.0, 100.0), Device(1, 10, 20.0, 100.0, 100.0)]
        app = app_of([Service(i, 20.0, 1.0, 1.0) for i in range(3)])
        plan = baseline_plan("first_fit", app, devices)
        assert [plan.assignment[i] for i in range(3)] == [0, 0, 1]

    def test_first_fit_infeasible_service_invalid(self):
        devices = [Device(0, 2, 20.0, 5.0, 5.0)]
        app = app_of([Service(0, 20.0, 50.0, 1.0)])
        plan = baseline_plan("first_fit", app, devices)
        assert plan.assignment[0] is None

    def test_connectivity_greedy_stays_in_one_partition(self):
        devices = [Device(i, 10, 20.0, 100.0, 100.0) for i in range(4)]
        network = PartitionSet(
            Layer.NETWORK,
            {0: 0, 1: 0, 2: 1, 3: 1},
            {0: frozenset({0, 1}), 1: frozenset({2, 3})},
            0.0,
        )
        app = app_of([Service(i, 20.0, 1.0, 1.0) for i in range(4)])
        plan = baseline_plan("connectivity_greedy", app, devices, network)
        partitions = {network.assignment[d] for d in plan.assignment.values()}
        assert partitions == {0}  # equal residual units: the lower partition id wins

    def test_multilayer_at_least_as_good_as_first_fit_on_fixture(self):
        devices, links, apps = toy_scenario_inputs()
        network = PartitionSet(
            Layer.NETWORK,
            {0: 0, 1: 0, 2: 1, 3: 1},
            {0: frozenset({0, 1}), 1: frozenset({2, 3})},
            0.0,
        )
        ctx = line_context()
        topology = Topology(devices, links)
        plans_ml = run_placement(
            apps, topology, "multilayer", feature_partitions=ctx.fps, network=network
        )
        plans_ff = run_placement(apps, topology, "first_fit")
        placed_ml = sum(d is not None for p in plans_ml.values() for d in p.assignment.values())
        placed_ff = sum(d is not None for p in plans_ff.values() for d in p.assignment.values())
        assert placed_ml >= placed_ff


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("alpha, beta", [(-0.1, 0.5), (0.5, -0.1)])
def test_negative_weight_rejected(strategy, alpha, beta):
    devices, links, apps = toy_scenario_inputs()
    ctx = line_context()
    with pytest.raises(ValueError, match="alpha and beta must be non-negative"):
        run_placement(
            apps, Topology(devices, links), strategy,
            feature_partitions=ctx.fps, network=ctx.network, alpha=alpha, beta=beta,
        )


class TestRunPlacementInvariants:
    """Invariants of the admission scan under the multilayer candidate order.

    Subclasses rerun every test under the baselines' candidate orders.
    """

    strategy = "multilayer"

    def run_strategy(self, seed=0):
        rng = random.Random(seed)
        devices = [
            Device(i, rng.randint(2, 4), rng.uniform(20, 60), rng.uniform(5, 10), rng.uniform(5, 10))
            for i in range(8)
        ]
        links = [NetworkLink(rng.randrange(i), i, 75000.0, 5.0) for i in range(1, 8)]
        gateways = [rng.randrange(8) for _ in range(4)]
        apps = []
        for a in range(6):
            services = [
                Service(i, rng.uniform(20, 60), rng.uniform(1, 4), rng.uniform(1, 4))
                for i in range(rng.randint(1, 4))
            ]
            app = app_of(services, deadline=rng.uniform(300, 50000), app_id=a)
            app.gateway = gateways[rng.randrange(4)]
            apps.append(app)
        from fogpart.multilayer import build_multilayer
        from fogpart.partitioner import multilayer_resource_partition

        topology = Topology(devices, links)
        fps, network, _ = multilayer_resource_partition(build_multilayer(topology))
        plans = run_placement(
            apps, topology, self.strategy, feature_partitions=fps, network=network
        )
        return plans, network, topology, apps

    def test_audit_replays_placement_valid(self):
        # the plans are the record of every admission: replay the CPU term of
        # placement_valid over them (the residual terms are checked below)
        plans, _, topology, apps = self.run_strategy()
        by_id = {app.id: app for app in apps}
        replayed = 0
        for app_id, plan in plans.items():
            app = by_id[app_id]
            for sid, did in plan.assignment.items():
                if did is not None:
                    cpu_speed = topology.devices[did].cpu_speed
                    assert app.service(sid).workload / cpu_speed <= app.deadline
                    replayed += 1
        assert replayed

    def test_residuals_non_negative(self):
        plans, _, topology, apps = self.run_strategy()
        services = hosted(plans, apps)
        assert services
        for d in topology.devices.values():
            assert min(left_over(d, services.get(d.id, []))) >= 0

    def test_app_confined_to_one_network_partition(self):
        plans, network, *_ = self.run_strategy()
        for plan in plans.values():
            partitions = {
                network.assignment[d] for d in plan.assignment.values() if d is not None
            }
            assert len(partitions) <= 1

    def test_routes_nothing_after_placing(self, monkeypatch):
        # a plan is its assignment, and the simulator times it: multilayer
        # routes once per application to rank fps, the baselines not at all
        calls = dict.fromkeys(("shortest_hop_path", "transmission_times"), 0)
        for name in calls:

            def counted(*args, _name=name, _method=getattr(Topology, name), **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(Topology, name, counted)
        plans, _, _, apps = self.run_strategy()
        assert any(plan.fully_placed for plan in plans.values())
        routed = len(apps) if self.strategy == "multilayer" else 0
        assert calls == {"shortest_hop_path": 0, "transmission_times": routed}

    def test_deterministic(self):
        a, *_ = self.run_strategy(seed=5)
        b, *_ = self.run_strategy(seed=5)
        assert {k: p.assignment for k, p in a.items()} == {k: p.assignment for k, p in b.items()}


class TestConnectivityGreedyInvariants(TestRunPlacementInvariants):
    strategy = "connectivity_greedy"


class TestFirstFitInvariants(TestRunPlacementInvariants):
    strategy = "first_fit"
    # first fit ignores network partitions, so confinement is not its invariant
    test_app_confined_to_one_network_partition = None


@st.composite
def tight_infrastructures(draw):
    """2-8 devices of 1-2 cores and 1-4 GB/TB, asked to host 1-4 apps of demand 0.5-3."""
    n = draw(st.integers(2, 8))
    devices = [
        Device(
            i,
            draw(st.integers(1, 2)),
            draw(st.sampled_from([20.0, 35.0, 60.0])),
            draw(st.floats(1.0, 4.0)),
            draw(st.floats(1.0, 4.0)),
        )
        for i in range(n)
    ]
    links = [NetworkLink(draw(st.integers(0, i - 1)), i, 75000.0, 5.0) for i in range(1, n)]
    gateways = [draw(st.integers(0, n - 1)) for _ in range(2)]
    demand = st.floats(0.5, 3.0)
    apps = []
    for a in range(draw(st.integers(1, 4))):
        services = [
            Service(i, draw(st.floats(20.0, 60.0)), draw(demand), draw(demand))
            for i in range(draw(st.integers(1, 4)))
        ]
        app = app_of(services, deadline=draw(st.floats(300.0, 50000.0)), app_id=a)
        app.gateway = gateways[draw(st.integers(0, 1))]
        apps.append(app)
    return devices, links, apps


class TestResidualsProperty:
    @settings(max_examples=60, deadline=None)
    @given(tight_infrastructures())
    def test_residuals_never_negative(self, inputs):
        from fogpart.multilayer import build_multilayer
        from fogpart.partitioner import multilayer_resource_partition

        devices, links, apps = inputs
        topology = Topology(devices, links)
        fps, network, _ = multilayer_resource_partition(build_multilayer(topology))
        for strategy in STRATEGIES:
            plans = run_placement(
                apps, topology, strategy, feature_partitions=fps, network=network
            )
            services = hosted(plans, apps)
            for d in devices:
                assert min(left_over(d, services.get(d.id, []))) >= 0


@st.composite
def ranking_inputs(draw):
    """Feature partitions over 2-6 devices, some cut off from the gateway by missing links."""
    n = draw(st.integers(2, 6))
    devices = {
        i: Device(i, 4, draw(st.sampled_from([20.0, 35.0, 60.0])), 10.0, 10.0) for i in range(n)
    }
    links = [
        NetworkLink(draw(st.integers(0, i - 1)), i, draw(st.sampled_from([1000.0, 75000.0])), 5.0)
        for i in range(1, n)
        if draw(st.booleans())
    ]
    groups = {i: draw(st.integers(0, n - 1)) for i in range(n)}
    labels = sorted(set(groups.values()))
    members = {
        (Layer.CPU, fp): frozenset(i for i, g in groups.items() if g == label)
        for fp, label in enumerate(labels)
    }
    features = {
        node: FeatureTriplet(
            sum(devices[d].cpu_speed for d in devs) / len(devs),
            sum(devices[d].mem for d in devs) / len(devs),
            sum(devices[d].storage for d in devs) / len(devs),
        )
        for node, devs in members.items()
    }
    fps = FeaturePartitionSet(
        {fp: frozenset({(Layer.CPU, fp)}) for fp in range(len(labels))},
        {fp: members[(Layer.CPU, fp)] for fp in range(len(labels))},
        features,
        0.0,
    )
    alpha, beta = draw(st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.2, 0.9)]))
    topology = Topology(devices.values(), links)
    gateway = draw(st.integers(0, n - 1))
    service = Service(
        0,
        draw(st.floats(20.0, 60.0)),
        draw(st.floats(1.0, 25.0)),
        draw(st.floats(1.0, 25.0)),
    )
    size = draw(st.floats(1.0, 5e6))
    return fps, topology, gateway, service, size, alpha, beta


class TestRankMatchesFitness:
    @settings(max_examples=150, deadline=None)
    @given(ranking_inputs())
    def test_rank_sorts_by_fitness_then_id(self, inputs):
        fps, topology, gateway, service, size, alpha, beta = inputs
        d_matrix, proximities = app_tables(fps, topology.transmission_times(gateway, size), beta)
        expected = sorted(
            fps.ids(),
            key=lambda fp: (
                -fitness(fp, service, fps, topology, gateway, size, alpha, beta, RANGES),
                fp,
            ),
        )
        assert rank_feature_partitions(fps, service, proximities, alpha, RANGES) == expected

        def by_t(did):
            return (transmission_from(topology, gateway, did, size), did)

        assert d_matrix == {fp: sorted(fps.device_index[fp], key=by_t) for fp in fps.ids()}


def greedy_by_full_scan(instances, topology, network):
    """Frozen copy of ``run_placement``'s connectivity_greedy as it was.

    Before each application it re-summed the residual units of every
    network partition, in ascending partition id, and took the first with
    the most.
    """
    devices = topology.devices
    residuals = full_capacity(devices)
    plans = {}
    for app in sort_applications(instances):
        best, best_units = frozenset(), -1.0
        for pid in sorted(network.partitions):
            members = network.partitions[pid]
            units = reduce(
                operator.add,
                (max(float(left.cores), left.mem, left.storage) for left in (residuals[d] for d in members)),
                0.0,
            )
            if units > best_units:
                best, best_units = members, units
        order = sorted(best)
        assignment = {}
        for sid in app.topological_order():
            assignment[sid] = place_service(app.service(sid), order, app.deadline, devices, residuals)
        plans[app.id] = PlacementPlan(assignment)
    return plans


@st.composite
def greedy_inputs(draw):
    """1-4 network partitions of small devices, often with equal residual units, and 1-6 apps.

    Capacities and demands come from short lists, and a partition may copy
    an earlier one's capacities, so partitions tie on residual units when
    apps arrive. Partition ids are sparse and listed out of order, device
    ids are shuffled across partitions, and links may leave hosts cut off.
    """
    capacity = st.tuples(st.integers(1, 2), st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([1.0, 2.0]))
    parts: list[list[tuple[int, float, float]]] = []
    for _ in range(draw(st.integers(1, 4))):
        if parts and draw(st.booleans()):
            parts.append(list(draw(st.sampled_from(parts))))
        else:
            parts.append(draw(st.lists(capacity, min_size=1, max_size=3)))
    pids = draw(st.lists(st.integers(0, 30), min_size=len(parts), max_size=len(parts), unique=True))
    ids = draw(st.permutations(range(sum(map(len, parts)))))
    devices, assignment, partitions = [], {}, {}
    it = iter(ids)
    for pid, caps in zip(pids, parts):
        members = []
        for cores, mem, storage in caps:
            did = next(it)
            devices.append(Device(did, cores, 20.0, mem, storage))
            assignment[did] = pid
            members.append(did)
        partitions[pid] = frozenset(members)
    pairs = [(a, b) for a in range(len(ids)) for b in range(a + 1, len(ids))]
    links = [NetworkLink(a, b, 75000.0, 5.0) for a, b in pairs if draw(st.booleans())]
    demand = st.sampled_from([0.5, 1.0, 1.5])
    apps = []
    for app_id in range(draw(st.integers(1, 6))):
        services = [Service(i, 20.0, draw(demand), draw(demand)) for i in range(draw(st.integers(1, 3)))]
        app = app_of(services, deadline=draw(st.sampled_from([300.0, 500.0])), app_id=app_id)
        app.gateway = draw(st.sampled_from(ids))
        apps.append(app)
    network = PartitionSet(Layer.NETWORK, assignment, partitions, 0.0)
    return Topology(devices, links), network, apps


class TestConnectivityGreedyMatchesFullScan:
    @settings(max_examples=300, deadline=None)
    @given(greedy_inputs())
    def test_plans_equal(self, inputs):
        topology, network, apps = inputs
        expected = greedy_by_full_scan(apps, topology, network)
        assert run_placement(apps, topology, "connectivity_greedy", network=network) == expected

    def test_tie_after_an_app_goes_to_the_lowest_id(self):
        # partitions 3 and 1 start at 3 and 2 units; app 0 takes a core from 3, leaving a 2-2 tie
        devices = [Device(0, 2, 20.0, 1.0, 1.0), Device(1, 3, 20.0, 1.0, 1.0)]
        network = PartitionSet(Layer.NETWORK, {0: 1, 1: 3}, {3: frozenset({1}), 1: frozenset({0})}, 0.0)
        apps = [app_of([Service(0, 20.0, 0.5, 0.5)], app_id=a) for a in range(2)]
        for app in apps:
            app.gateway = 0
        plans = run_placement(apps, Topology(devices, []), "connectivity_greedy", network=network)
        assert plans == greedy_by_full_scan(apps, Topology(devices, []), network)
        assert [set(plans[a].assignment.values()) for a in (0, 1)] == [{1}, {0}]
