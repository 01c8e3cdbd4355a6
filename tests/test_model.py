"""Domain types, timing formulas, and the response-time recursion."""

from __future__ import annotations

import itertools
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
    UnplacedDependencyError,
    UnreachableError,
    USER,
    deadline_satisfied,
    execution_time,
    placement_valid,
    response_times,
    transmission_time,
)


def make_device(device_id=0, cores=10, speed=20.0, mem=10.0, storage=10.0):
    return Device(device_id, cores, speed, mem, storage)


class TestDevice:
    def test_fresh_residuals_equal_capacity(self):
        d = make_device()
        assert (d.residual_cores, d.residual_mem, d.residual_storage) == (10, 10.0, 10.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Device(0, 10, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError):
            Device(0, 10, 20.0, -1.0, 10.0)

    def test_rejects_residual_above_capacity(self):
        with pytest.raises(ValueError):
            Device(0, 10, 20.0, 10.0, 10.0, residual_mem=11.0)


class TestPlacementValid:
    def test_fresh_device_accepts_small_service(self):
        # raw workload/speed ratio (not ms) is compared against the deadline
        s = Service(0, workload=20.0, mem_demand=1.0, storage_demand=1.0)
        d = make_device(speed=20.0, mem=10.0, storage=10.0)
        assert placement_valid(s, d, 300.0) is True

    def test_memory_overflow_rejected(self):
        d = make_device()
        s = Service(0, 20.0, d.residual_mem + 1e-9, 1.0)
        assert placement_valid(s, d, 300.0) is False

    def test_exact_equality_accepted(self):
        d = make_device(speed=2.0, mem=3.0, storage=4.0)
        s = Service(0, workload=2.0 * 300.0, mem_demand=3.0, storage_demand=4.0)
        assert placement_valid(s, d, 300.0) is True

    def test_dead_device_rejected(self):
        d = make_device()
        d.alive = False
        assert placement_valid(Service(0, 1.0, 1.0, 1.0), d, 300.0) is False

    def test_no_residual_core_rejected(self):
        d = make_device()
        d.residual_cores = 0
        assert placement_valid(Service(0, 1.0, 1.0, 1.0), d, 300.0) is False

    def test_monotone_in_residuals(self):
        rng = random.Random(7)
        for _ in range(200):
            s = Service(0, rng.uniform(20, 60), rng.uniform(1, 6), rng.uniform(1, 6))
            lo = make_device(speed=rng.uniform(20, 60), mem=25.0, storage=25.0)
            lo.residual_mem = rng.uniform(0.0, 25.0)
            lo.residual_storage = rng.uniform(0.0, 25.0)
            lo.residual_cores = rng.randint(0, 10)
            hi = make_device(speed=lo.cpu_speed, mem=25.0, storage=25.0)
            hi.residual_mem = min(25.0, lo.residual_mem + rng.uniform(0, 5))
            hi.residual_storage = min(25.0, lo.residual_storage + rng.uniform(0, 5))
            hi.residual_cores = min(10, lo.residual_cores + rng.randint(0, 3))
            if placement_valid(s, lo, 300.0):
                assert placement_valid(s, hi, 300.0)

    def test_scaling_memory_dimension_preserves_feasibility(self):
        rng = random.Random(11)
        for _ in range(200):
            factor = rng.uniform(0.1, 10.0)
            s = Service(0, 30.0, rng.uniform(1, 6), 1.0)
            d = make_device(mem=rng.uniform(6, 25))
            scaled_s = Service(0, 30.0, s.mem_demand * factor, 1.0)
            scaled_d = make_device(mem=d.mem * factor)
            assert placement_valid(s, d, 300.0) == placement_valid(scaled_s, scaled_d, 300.0)


class TestExecutionTime:
    def test_matched_speed_gives_one_second(self):
        assert execution_time(Service(0, 20.0, 1, 1), make_device(speed=20.0)) == 1000.0
        assert execution_time(Service(0, 60.0, 1, 1), make_device(speed=60.0)) == 1000.0

    def test_slow_device_scales_linearly(self):
        assert execution_time(Service(0, 60.0, 1, 1), make_device(speed=20.0)) == 3000.0


def one_hop(latency=5.0, bandwidth=75000.0):
    return NetworkLink(0, 1, bandwidth, latency)


class TestTransmissionTime:
    def test_single_hop(self):
        # 5 ms latency + 1.5 MB / 75000 B/ms = 25 ms
        assert transmission_time([one_hop()], 1_500_000.0) == 25.0

    def test_colocated_costs_nothing(self):
        assert transmission_time([], 1_500_000.0) == 0.0

    def test_two_hops_add(self):
        path = [one_hop(), NetworkLink(1, 2, 75000.0, 5.0)]
        assert transmission_time(path, 1_500_000.0) == 50.0

    def test_dead_endpoint_raises(self):
        from fogpart.model import LinkDownError

        with pytest.raises(LinkDownError):
            transmission_time([one_hop()], 10.0, dead={1})

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            transmission_time([one_hop()], 0.0)


def chain_topology(n, speed=20.0):
    devices = [Device(i, 10, speed, 10.0, 10.0) for i in range(n)]
    links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(n - 1)]
    return Topology(devices, links)


def chain_app(n_services, deadline=50000.0, size=1_500_000.0):
    services = [Service(i, 20.0, 1.0, 1.0) for i in range(n_services)]
    messages = [Message(USER, 0, size)]
    messages += [Message(i, i + 1, size) for i in range(n_services - 1)]
    return Application(0, services, messages, deadline, user=0)


class TestApplication:
    def test_single_entry_message_required(self):
        services = [Service(0, 1, 1, 1)]
        with pytest.raises(ValueError):
            Application(0, services, [], 100.0)
        with pytest.raises(ValueError):
            Application(0, services, [Message(USER, 0, 1.0), Message(USER, 0, 2.0)], 100.0)

    def test_cycle_rejected(self):
        services = [Service(i, 1, 1, 1) for i in range(2)]
        messages = [Message(USER, 0, 1.0), Message(0, 1, 1.0), Message(1, 0, 1.0)]
        with pytest.raises(ValueError):
            Application(0, services, messages, 100.0)

    def test_unreachable_service_rejected(self):
        services = [Service(i, 1, 1, 1) for i in range(3)]
        messages = [Message(USER, 0, 1.0), Message(0, 1, 1.0)]
        with pytest.raises(ValueError):
            Application(0, services, messages, 100.0)

    def test_topological_order_respects_edges(self):
        app = chain_app(4)
        assert list(app.topological_order()) == [0, 1, 2, 3]


class TestResponseTimes:
    def test_single_service(self):
        # gateway -> host is one hop (25 ms), ET = 1000 ms
        topo = chain_topology(2)
        app = chain_app(1)
        per, rt = response_times(app, {0: 1}, topo, gateway=0)
        assert rt == pytest.approx(1025.0)
        assert per[0] == pytest.approx(1025.0)

    def test_chain_of_two(self):
        topo = chain_topology(3)
        app = chain_app(2)
        per, rt = response_times(app, {0: 1, 1: 2}, topo, gateway=0)
        assert rt == pytest.approx(2050.0)

    def test_diamond_max_of_equal_branches(self):
        services = [Service(i, 20.0, 1, 1) for i in range(4)]
        messages = [
            Message(USER, 0, 1_500_000.0),
            Message(0, 1, 1_500_000.0),
            Message(0, 2, 1_500_000.0),
            Message(1, 3, 1_500_000.0),
            Message(2, 3, 1_500_000.0),
        ]
        app = Application(0, services, messages, 50000.0, user=0)
        topo = chain_topology(1)
        per, rt = response_times(app, {i: 0 for i in range(4)}, topo, gateway=0)
        # everything co-located: transmissions vanish, depth is 3 services
        assert rt == pytest.approx(3000.0)
        assert per[1] == per[2]

    def test_unplaced_dependency_raises(self):
        topo = chain_topology(3)
        app = chain_app(2)
        with pytest.raises(UnplacedDependencyError):
            response_times(app, {0: 1, 1: None}, topo, gateway=0)

    def test_dead_host_unreachable(self):
        topo = chain_topology(2)
        app = chain_app(1)
        with pytest.raises(UnreachableError):
            response_times(app, {0: 1}, topo, gateway=0, dead=frozenset({1}))

    def test_monotone_in_execution_time(self):
        topo_slow = chain_topology(3, speed=10.0)
        topo_fast = chain_topology(3, speed=20.0)
        app = chain_app(2)
        _, rt_fast = response_times(app, {0: 1, 1: 2}, topo_fast, gateway=0)
        _, rt_slow = response_times(app, {0: 1, 1: 2}, topo_slow, gateway=0)
        assert rt_slow >= rt_fast

    def test_lower_bounds(self):
        topo = chain_topology(4)
        app = chain_app(3)
        assignment = {0: 1, 1: 2, 2: 3}
        per, rt = response_times(app, assignment, topo, gateway=0)
        max_et = max(
            execution_time(app.service(s), topo.devices[assignment[s]]) for s in (0, 1, 2)
        )
        entry_t = topo.transmission(0, 1, app.entry_message.size)
        assert rt >= max_et
        assert rt >= entry_t


def random_dag_app(rng, app_id, max_services=6):
    """DAG with possibly several predecessors per service (oracle fodder)."""
    n = rng.randint(1, max_services)
    services = [
        Service(i, rng.uniform(20, 60), rng.uniform(1, 6), rng.uniform(1, 6)) for i in range(n)
    ]
    messages = [Message(USER, 0, rng.uniform(1500, 4500) * 1000)]
    for i in range(1, n):
        preds = rng.sample(range(i), k=rng.randint(1, i))
        for p in preds:
            messages.append(Message(p, i, rng.uniform(1500, 4500) * 1000))
    return Application(app_id, services, messages, rng.uniform(300, 50000), user=0)


def random_topology(rng, n):
    devices = [
        Device(i, 10, rng.uniform(20, 60), 25.0, 25.0) for i in range(n)
    ]
    links = []
    for i in range(1, n):
        j = rng.randrange(i)
        links.append(NetworkLink(j, i, rng.uniform(50000, 100000), rng.uniform(1, 10)))
    extra = rng.randint(0, n)
    pairs = {tuple(sorted((l.a, l.b))) for l in links}
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        key = tuple(sorted((a, b)))
        if key not in pairs:
            pairs.add(key)
            links.append(NetworkLink(key[0], key[1], rng.uniform(50000, 100000), rng.uniform(1, 10)))
    return Topology(devices, links)


def rt_oracle(app, assignment, topo, gateway):
    """Independent oracle: enumerate every message path from the user.

    The response time of a service is the maximum over all user-to-service
    paths of (sum of per-edge transmissions + sum of per-node executions).
    """
    incoming = {sid: list(app.incoming(sid)) for sid in (s.id for s in app.services)}

    def paths(sid):
        out = []
        for msg in incoming[sid]:
            if msg.source == USER:
                out.append([(msg, sid)])
            else:
                for prefix in paths(msg.source):
                    out.append(prefix + [(msg, sid)])
        return out

    per = {}
    for s in app.services:
        best = float("-inf")
        for path in paths(s.id):
            total = 0.0
            for msg, dst in path:
                src_dev = gateway if msg.source == USER else assignment[msg.source]
                total += topo.transmission(src_dev, assignment[dst], msg.size)
                total += execution_time(app.service(dst), topo.devices[assignment[dst]])
            best = max(best, total)
        per[s.id] = best
    return per, max(per.values())


class TestResponseTimeOracle:
    def test_matches_path_enumeration(self):
        rng = random.Random(2024)
        for trial in range(30):
            topo = random_topology(rng, rng.randint(2, 8))
            app = random_dag_app(rng, trial)
            assignment = {s.id: rng.randrange(len(topo.devices)) for s in app.services}
            gateway = rng.randrange(len(topo.devices))
            per, rt = response_times(app, assignment, topo, gateway)
            oracle_per, oracle_rt = rt_oracle(app, assignment, topo, gateway)
            for sid in per:
                assert per[sid] == pytest.approx(oracle_per[sid], abs=1e-9)
            assert rt == pytest.approx(oracle_rt, abs=1e-9)


class TestDeadline:
    def test_equal_misses(self):
        app = chain_app(1, deadline=300.0)
        assert deadline_satisfied(app, 300.0) is False

    def test_zero_rt_satisfies(self):
        app = chain_app(1, deadline=300.0)
        assert deadline_satisfied(app, 0.0) is True

    def test_chain_value_under_large_deadline(self):
        app = chain_app(2, deadline=50000.0)
        assert deadline_satisfied(app, 2050.0) is True


class TestTopology:
    def test_shortest_path_avoids_dead(self):
        # square 0-1-2-3-0: killing 1 forces the long way around
        devices = [make_device(i) for i in range(4)]
        links = [
            NetworkLink(0, 1, 75000.0, 5.0),
            NetworkLink(1, 2, 75000.0, 5.0),
            NetworkLink(2, 3, 75000.0, 5.0),
            NetworkLink(0, 3, 75000.0, 5.0),
        ]
        topo = Topology(devices, links)
        assert topo.hop_count(0, 2) == 2
        assert topo.hop_count(0, 2, dead={1}) == 2
        assert topo.hop_count(0, 2, dead={1, 3}) is None

    def test_duplicate_link_rejected(self):
        devices = [make_device(0), make_device(1)]
        with pytest.raises(ValueError):
            Topology(devices, [one_hop(), NetworkLink(1, 0, 1.0, 1.0)])


class TestHopCount:
    def topo(self):
        devices = [Device(i, 10, 20.0, 10.0, 10.0) for i in range(4)]
        links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(3)]
        return Topology(devices, links)

    def test_gateway_itself_is_zero(self):
        assert self.topo().hop_count(0, 0) == 0

    def test_neighbor_is_one(self):
        assert self.topo().hop_count(0, 1) == 1

    def test_far_end_of_chain(self):
        assert self.topo().hop_count(0, 3) == 3

    def test_unreachable_is_none(self):
        assert self.topo().hop_count(0, 3, dead={1}) is None


@st.composite
def topologies(draw):
    """Up to 9 devices with any subset of links, so often disconnected."""
    n = draw(st.integers(1, 9))
    pairs = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    links = [
        NetworkLink(
            a,
            b,
            bandwidth=draw(st.floats(1e-3, 1e6)),
            latency=draw(st.floats(0.0, 100.0)),
        )
        for a, b in pairs
    ]
    return Topology([make_device(i) for i in range(n)], links)


class TestRoutesFrom:
    @settings(max_examples=200, deadline=None)
    @given(topologies())
    def test_matches_shortest_hop_path_exactly(self, topo):
        for src in topo.devices:
            routes = topo.routes_from(src)
            for dst in topo.devices:
                path = topo.shortest_hop_path(src, dst)
                if path is None:
                    assert dst not in routes
                else:
                    assert routes[dst] == (
                        len(path),
                        sum(link.latency for link in path),
                        sum(1.0 / link.bandwidth for link in path),
                    )

    def test_unknown_source_rejected(self):
        with pytest.raises(KeyError):
            Topology([make_device(0)], []).routes_from(1)
