"""Fitness, feature-partition selection, service placement, and baselines."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogpart.model import (
    Application,
    Device,
    Message,
    NetworkLink,
    Service,
    Topology,
    USER,
    User,
    execution_time,
    response_times,
)
from fogpart.multilayer import Layer
from fogpart.partitioner import (
    FeaturePartitionSet,
    FeatureTriplet,
    PartitionSet,
)
from fogpart.placement import (
    STRATEGIES,
    FitnessConfig,
    PlacementContext,
    anchored_order,
    baseline_connectivity_greedy,
    baseline_first_fit,
    demand_similarity,
    place_service,
    run_placement,
    select_feature_partitions,
    sort_applications,
)

RANGES = {"cpu": (20.0, 60.0), "mem": (1.0, 25.0), "storage": (1.0, 25.0)}


def fitness(fp_id, service, user, config, ctx, message_size):
    """Oracle: alpha * best member similarity + beta / (1 + nearest device T).

    Scores one feature partition on its own, from the definition. T is the
    transmission time from the user's gateway to the partition's nearest
    alive device; when none is reachable the proximity term is dropped.
    Placement splits this score, taking the proximity term from
    ``PlacementContext.app_tables`` once per application.
    """
    max_sim = max(
        demand_similarity(ctx.fps.features[node], service, config.normalization_ranges)
        for node in ctx.fps.feature_partitions[fp_id]
    )
    t_min = min(
        (
            ctx.transmission_ms(user.gateway, did, message_size)
            for did in ctx.fps.device_index[fp_id]
            if ctx.devices[did].alive
        ),
        default=math.inf,
    )
    if math.isinf(t_min):
        return config.alpha * max_sim
    return config.alpha * max_sim + config.beta / (1.0 + t_min)


def residuals(devices):
    return [(d.residual_cores, d.residual_mem, d.residual_storage) for d in devices.values()]


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


def line_context(core_counts=(10, 10, 10, 10), alpha=0.5, beta=0.5):
    """Chain 0-1-2-3 with gateway 0; partitions {0,1} and {2,3} in every layer."""
    devices = {
        i: Device(i, core_counts[i], 20.0 + 10.0 * i, 100.0, 100.0) for i in range(4)
    }
    links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(3)]
    topology = Topology(devices.values(), links)
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
    users = {0: User(0, gateway=0)}
    config = FitnessConfig(alpha=alpha, beta=beta, normalization_ranges=RANGES)
    return PlacementContext(devices, topology, fps, network, users, config)


def app_of(services, deadline=50000.0, size=1_500_000.0, app_id=0):
    messages = [Message(USER, services[0].id, size)]
    for a, b in zip(services, services[1:]):
        messages.append(Message(a.id, b.id, size))
    return Application(app_id, services, messages, deadline, user=0)


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
        cfg = FitnessConfig(0.5, 0.5, ranges)
        ctx.config = cfg
        value = fitness(0, s, ctx.users[0], cfg, ctx, message_size=1.0)
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
        cfg = FitnessConfig(0.5, 0.5, ranges)
        ctx.config = cfg
        # nearest FP1 device is two hops away; use a size that makes T = 25 ms per hop
        value = fitness(1, s, ctx.users[0], cfg, ctx, message_size=1_500_000.0)
        assert value == pytest.approx(0.5 + 0.5 / 51.0)

    def test_one_hop_proximity_value(self):
        # perfect similarity with the nearest partition device one hop away:
        # 0.5 * 1 + 0.5 / (1 + 25 ms) = 0.5 + 0.5/26
        ctx = line_context()
        feature = ctx.fps.features[(Layer.CPU, 0)]
        s = Service(0, feature.avg_cpu, feature.avg_mem, feature.avg_storage)
        ctx.fps = FeaturePartitionSet(
            feature_partitions=ctx.fps.feature_partitions,
            device_index={0: frozenset({1}), 1: frozenset({2, 3})},
            features=ctx.fps.features,
            modularity=0.0,
        )
        cfg = FitnessConfig(0.5, 0.5, {"cpu": (20.0, 60.0), "mem": (1.0, 200.0), "storage": (1.0, 200.0)})
        ctx.config = cfg
        value = fitness(0, s, ctx.users[0], cfg, ctx, message_size=1_500_000.0)
        assert value == pytest.approx(0.5 + 0.5 / 26.0)

    def test_alpha_only_reduces_to_similarity(self):
        ctx = line_context()
        cfg = FitnessConfig(1.0, 0.0, RANGES)
        ctx.config = cfg
        s = Service(0, 25.0, 5.0, 5.0)
        sims = [
            demand_similarity(ctx.fps.features[node], s, RANGES)
            for node in ctx.fps.feature_partitions[0]
        ]
        assert fitness(0, s, ctx.users[0], cfg, ctx, 1.0) == pytest.approx(max(sims))

    def test_unreachable_partition_flagged(self):
        ctx = line_context()
        for did in (2, 3):
            ctx.devices[did].alive = False
        value = fitness(1, Service(0, 25.0, 5.0, 5.0), ctx.users[0], ctx.config, ctx, 1.0)
        assert value <= ctx.config.alpha
        _, proximities = ctx.app_tables(ctx.users[0].gateway, 1.0)
        assert proximities[1] is None


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
        plan = select_feature_partitions(app, ctx)
        host = plan.assignment[0]
        assert host == 0  # the gateway is nearest and feasible
        assert ctx.network.assignment[host] == 0

    def test_foreign_partition_skipped_even_if_feasible(self):
        ctx = line_context()
        s = Service(0, 20.0, 1.0, 1.0)
        rank = [1, 0]  # FP1 (devices 2,3) ranked first on purpose
        d_matrix = {1: [2, 3], 0: [0, 1]}
        order = anchored_order(rank, d_matrix, ctx.network, anchor=0)
        chosen = place_service(s, order, 50000.0, ctx.devices)
        assert chosen in (0, 1)

    def test_anchor_exhaustion_yields_invalid(self):
        ctx = line_context(core_counts=(1, 1, 10, 10))
        s = Service(0, 20.0, 1.0, 1.0)
        ctx.devices[0].residual_cores = 0
        ctx.devices[1].residual_cores = 0
        rank = [0, 1]
        d_matrix = {0: [0, 1], 1: [2, 3]}
        order = anchored_order(rank, d_matrix, ctx.network, anchor=0)
        assert place_service(s, order, 50000.0, ctx.devices) is None
        assert residuals(ctx.devices) == [
            (0, 100.0, 100.0), (0, 100.0, 100.0), (10, 100.0, 100.0), (10, 100.0, 100.0)
        ]

    def test_first_admissible_candidate_committed_and_audited(self):
        # the residuals are the record of a commit: only the chosen device's change
        devices = {i: Device(i, 2, 20.0, 10.0, 10.0) for i in range(3)}
        devices[2].residual_mem = 0.5
        s = Service(4, 20.0, 1.0, 1.5)
        assert place_service(s, [2, 1, 0], 700.0, devices) == 1
        assert residuals(devices) == [(2, 10.0, 10.0), (1, 9.0, 8.5), (2, 0.5, 10.0)]

    def test_two_commits_accumulate(self):
        devices = {0: Device(0, 10, 20.0, 10.0, 10.0)}
        s = Service(0, 20.0, 1.0, 1.0)
        assert place_service(s, [0], 50000.0, devices) == 0
        assert place_service(s, [0], 50000.0, devices) == 0
        assert residuals(devices) == [(8, 8.0, 8.0)]

    def test_dead_device_over_commit(self):
        devices = {0: Device(0, 10, 20.0, 10.0, 10.0)}
        devices[0].alive = False
        assert place_service(Service(0, 1.0, 1.0, 1.0), [0], 50000.0, devices) is None
        assert residuals(devices) == [(10, 10.0, 10.0)]

    def test_exhausted_memory_over_commit(self):
        devices = {0: Device(0, 10, 20.0, 10.0, 10.0)}
        assert place_service(Service(0, 1.0, 11.0, 1.0), [0], 50000.0, devices) is None
        assert residuals(devices) == [(10, 10.0, 10.0)]

    def test_deadline_blind_admission(self):
        # Pinned, not fixed: placement_valid compares workload / cpu_speed
        # (seconds) with the deadline (ms), so a service that runs for
        # 3,000 ms is admitted under a 300 ms deadline.
        device = Device(0, 1, 20.0, 10.0, 10.0)
        s = Service(0, 60.0, 1.0, 1.0)
        assert execution_time(s, device) == 3000.0
        assert place_service(s, [0], 300.0, {0: device}) == 0
        assert device.residual_cores == 0


class TestSelectFeaturePartitions:
    def test_ample_capacity_keeps_app_near_gateway(self):
        ctx = line_context()
        app = app_of([Service(i, 20.0, 1.0, 1.0) for i in range(3)])
        plan = select_feature_partitions(app, ctx)
        assert plan.fully_placed
        partitions = {ctx.network.assignment[d] for d in plan.assignment.values()}
        assert partitions == {0}

    def test_oversized_service_invalid(self):
        ctx = line_context()
        app = app_of(
            [Service(0, 20.0, 1.0, 1.0), Service(1, 20.0, 1000.0, 1.0)]
        )
        plan = select_feature_partitions(app, ctx)
        assert plan.assignment[0] is not None
        assert plan.assignment[1] is None

    def test_core_exhaustion_spills_within_partition(self):
        ctx = line_context(core_counts=(1, 10, 10, 10))
        app = app_of([Service(0, 20.0, 1.0, 1.0), Service(1, 20.0, 1.0, 1.0)])
        plan = select_feature_partitions(app, ctx)
        assert plan.assignment[0] == 0
        assert plan.assignment[1] == 1  # same network partition, different device
        assert ctx.network.assignment[plan.assignment[1]] == 0

    def test_rank_is_permutation_of_all_fps(self):
        ctx = line_context()
        s = Service(0, 25.0, 5.0, 5.0)
        _, proximities = ctx.app_tables(ctx.users[0].gateway, 1.0)
        rank = ctx.rank_feature_partitions(s, proximities)
        assert sorted(rank) == [0, 1]


def toy_scenario_inputs():
    """Four devices, one user at gateway 0, two small apps."""
    devices = [Device(i, 3, 20.0 + 10 * i, 6.0, 6.0) for i in range(4)]
    links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(3)]
    users = {0: User(0, gateway=0), 1: User(1, gateway=0)}
    apps = [
        app_of([Service(0, 20.0, 2.0, 2.0), Service(1, 20.0, 2.0, 2.0)], app_id=0),
        app_of([Service(0, 20.0, 2.0, 2.0)], app_id=1),
    ]
    apps[1].user = 1
    return devices, links, users, apps


class TestBaselines:
    def test_first_fit_stacks_until_cores_run_out(self):
        devices = {0: Device(0, 2, 20.0, 100.0, 100.0), 1: Device(1, 10, 20.0, 100.0, 100.0)}
        app = app_of([Service(i, 20.0, 1.0, 1.0) for i in range(3)])
        plan = baseline_first_fit(app, devices)
        assert [plan.assignment[i] for i in range(3)] == [0, 0, 1]

    def test_first_fit_infeasible_service_invalid(self):
        devices = {0: Device(0, 2, 20.0, 5.0, 5.0)}
        app = app_of([Service(0, 20.0, 50.0, 1.0)])
        plan = baseline_first_fit(app, devices)
        assert plan.assignment[0] is None

    def test_connectivity_greedy_stays_in_one_partition(self):
        devices = {i: Device(i, 10, 20.0, 100.0, 100.0) for i in range(4)}
        network = PartitionSet(
            Layer.NETWORK,
            {0: 0, 1: 0, 2: 1, 3: 1},
            {0: frozenset({0, 1}), 1: frozenset({2, 3})},
            0.0,
        )
        app = app_of([Service(i, 20.0, 1.0, 1.0) for i in range(4)])
        plan = baseline_connectivity_greedy(app, network, devices)
        partitions = {network.assignment[d] for d in plan.assignment.values()}
        assert len(partitions) == 1

    def test_multilayer_at_least_as_good_as_first_fit_on_fixture(self):
        devices, links, users, apps = toy_scenario_inputs()
        network = PartitionSet(
            Layer.NETWORK,
            {0: 0, 1: 0, 2: 1, 3: 1},
            {0: frozenset({0, 1}), 1: frozenset({2, 3})},
            0.0,
        )
        ctx = line_context()
        run_ml = run_placement(
            apps,
            devices,
            links,
            users,
            "multilayer",
            feature_partitions=ctx.fps,
            network=network,
        )
        run_ff = run_placement(apps, devices, links, users, "first_fit")
        placed_ml = sum(d is not None for p in run_ml.plans.values() for d in p.assignment.values())
        placed_ff = sum(d is not None for p in run_ff.plans.values() for d in p.assignment.values())
        assert placed_ml >= placed_ff


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
        users = {u: User(u, gateway=rng.randrange(8)) for u in range(4)}
        apps = []
        for a in range(6):
            services = [
                Service(i, rng.uniform(20, 60), rng.uniform(1, 4), rng.uniform(1, 4))
                for i in range(rng.randint(1, 4))
            ]
            app = app_of(services, deadline=rng.uniform(300, 50000), app_id=a)
            app.user = rng.randrange(4)
            apps.append(app)
        from fogpart.multilayer import build_multilayer
        from fogpart.partitioner import multilayer_resource_partition

        graph = build_multilayer([d.fresh_copy() for d in devices], links)
        fps, network, _ = multilayer_resource_partition(graph)
        run = run_placement(
            apps, devices, links, users, self.strategy, feature_partitions=fps, network=network
        )
        return run, network, devices, apps, links, users

    def test_audit_replays_placement_valid(self):
        # the plans are the record of every admission: replay the CPU term of
        # placement_valid over them (the residual terms are checked below)
        run, _, _, apps, *_ = self.run_strategy()
        by_id = {app.id: app for app in apps}
        replayed = 0
        for app_id, plan in run.plans.items():
            app = by_id[app_id]
            for sid, did in plan.assignment.items():
                if did is not None:
                    assert app.service(sid).workload / run.devices[did].cpu_speed <= app.deadline
                    replayed += 1
        assert replayed

    def test_residuals_non_negative_and_conserved(self):
        run, _, originals, apps, *_ = self.run_strategy()
        by_id = {app.id: app for app in apps}
        hosted: dict[int, list[Service]] = {}
        for app_id, plan in run.plans.items():
            for sid, did in plan.assignment.items():
                if did is not None:
                    hosted.setdefault(did, []).append(by_id[app_id].service(sid))
        for d in originals:
            dev = run.devices[d.id]
            assert dev.residual_cores >= 0
            assert dev.residual_mem >= 0.0
            assert dev.residual_storage >= 0.0
            services = hosted.get(d.id, [])
            assert dev.residual_cores == d.cores - len(services)
            assert dev.residual_mem == pytest.approx(
                d.mem - sum(s.mem_demand for s in services)
            )
            assert dev.residual_storage == pytest.approx(
                d.storage - sum(s.storage_demand for s in services)
            )

    def test_app_confined_to_one_network_partition(self):
        run, network, *_ = self.run_strategy()
        for plan in run.plans.values():
            partitions = {
                network.assignment[d] for d in plan.assignment.values() if d is not None
            }
            assert len(partitions) <= 1

    def test_response_times_attached_to_fully_placed_plans(self):
        run, _, devices, apps, links, users = self.run_strategy()
        topology = Topology([d.fresh_copy() for d in devices], links)
        for app in apps:
            plan = run.plans[app.id]
            if plan.fully_placed:
                expected = response_times(app, plan.assignment, topology, users[app.user].gateway)
                assert (plan.per_service_rt, plan.app_rt) == expected
            else:
                assert (plan.per_service_rt, plan.app_rt) == ({}, None)

    def test_deterministic(self):
        a, *_ = self.run_strategy(seed=5)
        b, *_ = self.run_strategy(seed=5)
        assert {k: p.assignment for k, p in a.plans.items()} == {
            k: p.assignment for k, p in b.plans.items()
        }


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
    users = {u: User(u, gateway=draw(st.integers(0, n - 1))) for u in range(2)}
    demand = st.floats(0.5, 3.0)
    apps = []
    for a in range(draw(st.integers(1, 4))):
        services = [
            Service(i, draw(st.floats(20.0, 60.0)), draw(demand), draw(demand))
            for i in range(draw(st.integers(1, 4)))
        ]
        app = app_of(services, deadline=draw(st.floats(300.0, 50000.0)), app_id=a)
        app.user = draw(st.integers(0, 1))
        apps.append(app)
    return devices, links, users, apps


class TestResidualsProperty:
    @settings(max_examples=60, deadline=None)
    @given(tight_infrastructures())
    def test_residuals_never_negative(self, inputs):
        from fogpart.multilayer import build_multilayer
        from fogpart.partitioner import multilayer_resource_partition

        devices, links, users, apps = inputs
        fps, network, _ = multilayer_resource_partition(
            build_multilayer([d.fresh_copy() for d in devices], links)
        )
        for strategy in STRATEGIES:
            run = run_placement(
                apps, devices, links, users, strategy,
                feature_partitions=fps, network=network,
            )
            hosted = {d.id: 0 for d in devices}
            for plan in run.plans.values():
                for did in plan.assignment.values():
                    if did is not None:
                        hosted[did] += 1
            for d in devices:
                dev = run.devices[d.id]
                assert dev.residual_cores >= 0
                assert dev.residual_mem >= 0.0
                assert dev.residual_storage >= 0.0
                assert dev.residual_cores == d.cores - hosted[d.id]


@st.composite
def ranking_inputs(draw):
    """A random context over 2-6 devices, some dead, grouped into feature partitions."""
    n = draw(st.integers(2, 6))
    devices = {
        i: Device(i, 4, draw(st.sampled_from([20.0, 35.0, 60.0])), 10.0, 10.0) for i in range(n)
    }
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        devices[i].alive = False
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
    network = PartitionSet(Layer.NETWORK, {i: 0 for i in range(n)}, {0: frozenset(range(n))}, 0.0)
    alpha, beta = draw(st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.2, 0.9)]))
    config = FitnessConfig(alpha, beta, RANGES)
    gateway = draw(st.integers(0, n - 1))
    users = {0: User(0, gateway=gateway)}
    ctx = PlacementContext(devices, Topology(devices.values(), links), fps, network, users, config)
    service = Service(
        0,
        draw(st.floats(20.0, 60.0)),
        draw(st.floats(1.0, 25.0)),
        draw(st.floats(1.0, 25.0)),
    )
    size = draw(st.floats(1.0, 5e6))
    return ctx, service, size


class TestRankMatchesFitness:
    @settings(max_examples=150, deadline=None)
    @given(ranking_inputs())
    def test_rank_sorts_by_fitness_then_id(self, inputs):
        ctx, service, size = inputs
        user = ctx.users[0]
        _, proximities = ctx.app_tables(user.gateway, size)
        expected = sorted(
            ctx.fps.ids(),
            key=lambda fp: (-fitness(fp, service, user, ctx.config, ctx, size), fp),
        )
        assert ctx.rank_feature_partitions(service, proximities) == expected
