"""Domain types, timing formulas, and the response-time recursion."""

from __future__ import annotations

import copy
import itertools
import math
import operator
import pickle
import random
import struct
from array import array
from collections import deque
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import infrastructures

from fogpart.model import (
    Application,
    Device,
    Message,
    NetworkLink,
    Service,
    Topology,
    UnreachableError,
    USER,
    deadline_satisfied,
    execution_time,
    resource_units,
    response_times,
    sum_in_order,
    transmission_time,
)
from fogpart.multilayer import Layer, build_multilayer
from fogpart.partitioner import compress_graph, multilayer_resource_partition
from fogpart.placement import Residual, placement_valid
from fogpart.scenario import AppRequest, ScenarioConfig


#: name -> how ``TestSumInOrder`` hands a list of values to ``sum_in_order``
SUM_INPUTS = {
    "list": list,
    "tuple": tuple,
    "array": lambda values: array("d", values),
    "generator": lambda values: (v for v in values),
}


def make_device(device_id=0, cores=10, speed=20.0, mem=10.0, storage=10.0):
    return Device(device_id, cores, speed, mem, storage)


def full(device):
    """The residual record of a device nothing has been placed on."""
    return Residual(device.cores, device.mem, device.storage)


def frozen_records():
    """One record of each immutable type, by type name, with a field to assign."""
    topology = Topology([make_device(i) for i in range(3)], [NetworkLink(0, 1, 1.0, 0.0), NetworkLink(1, 2, 1.0, 0.0)])
    graph = build_multilayer(topology)
    fps, network, layer_sets = multilayer_resource_partition(graph)
    cg = compress_graph(list(layer_sets.values()), topology.devices)
    records = [
        (make_device(), "cores"),
        (NetworkLink(0, 1, 1.0, 0.0), "latency"),
        (Service(0, 1.0, 1.0, 1.0), "workload"),
        (Message(USER, 0, 1.0), "size"),
        (graph.intra_edges[Layer.NETWORK], "rows"),
        (graph.intra_edges[Layer.CPU], "values"),
        (graph, "devices"),
        (network, "modularity"),
        (cg.features[cg.nodes[0]], "avg_cpu"),
        (cg, "edges"),
        (fps, "modularity"),
        (ScenarioConfig(), "device_count"),
        (AppRequest(0, 0, 0), "gateway"),
    ]
    return {type(record).__name__: (record, field) for record, field in records}


FROZEN = (
    "Device", "NetworkLink", "Service", "Message", "LayerView", "SimilarityView", "MultilayerGraph",
    "PartitionSet", "FeatureTriplet", "CompressedGraph", "FeaturePartitionSet", "ScenarioConfig", "AppRequest",
)


@pytest.mark.parametrize("name", FROZEN)
def test_is_frozen(name):
    # stages share these records; placement, say, takes capacity from its own
    # residual records, never from a device
    record, field = frozen_records()[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 9)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", ["Device", "NetworkLink", "Service", "Message", "LayerView", "SimilarityView"])
@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_frozen_record_pickles_and_copies(name, round_trip):
    # restoring slot state would assign each field; a frozen record is rebuilt by its constructor
    record, _ = frozen_records()[name]
    again = round_trip(record)
    assert type(again) is type(record) and again == record


def test_triplets_list_their_fields_in_order():
    d = Device(0, 4, 20.0, 10.0, 5.0)
    s = Service(0, 30.0, 2.0, 1.0)
    assert d.resources == (d.cpu_speed, d.mem, d.storage) == (20.0, 10.0, 5.0)
    assert s.demand == (s.workload, s.mem_demand, s.storage_demand) == (30.0, 2.0, 1.0)


def test_resource_units_is_the_largest_of_cores_gb_and_tb():
    assert resource_units(4, 2.0, 3.0) == 4.0 and type(resource_units(4, 2.0, 3.0)) is float
    assert resource_units(1, 5.0, 3.0) == 5.0
    assert resource_units(1, 0.5, 7.0) == 7.0


def test_records_compare_and_repr_by_fields():
    d = make_device()
    assert d == make_device() and hash(d) == hash(make_device())
    assert d != make_device(device_id=1)
    assert repr(d) == "Device(id=0, cores=10, cpu_speed=20.0, mem=10.0, storage=10.0)"
    left = full(d)
    assert left == Residual(10, 10.0, 10.0)
    assert repr(left) == "Residual(cores=10, mem=10.0, storage=10.0)"
    left.cores -= 1  # a residual is placement's own, and mutable
    assert left != full(d)


class TestDevice:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")], ids=repr)
    @pytest.mark.parametrize("slot", [2, 3, 4])
    def test_rejects_capacity_not_positive_and_finite(self, slot, bad):
        args = [0, 10, 20.0, 10.0, 10.0]
        args[slot] = bad
        with pytest.raises(ValueError, match="^device 0: capacities must be strictly positive and finite$"):
            Device(*args)


class TestNetworkLink:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0], ids=repr)
    def test_rejects_bandwidth_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="^link bandwidth must be positive and finite$"):
            NetworkLink(0, 1, bad, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0], ids=repr)
    def test_rejects_latency_not_non_negative_and_finite(self, bad):
        with pytest.raises(ValueError, match="^link latency must be non-negative and finite$"):
            NetworkLink(0, 1, 1.0, bad)

    def test_zero_latency_accepted(self):
        assert NetworkLink(0, 1, 1.0, 0.0).latency == 0.0


NOT_POSITIVE_AND_FINITE = [0.0, -1.0, float("nan"), float("inf")]


class TestService:
    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE, ids=repr)
    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_rejects_demand_not_positive_and_finite(self, slot, bad):
        args = [0, 20.0, 1.0, 1.0]
        args[slot] = bad
        with pytest.raises(ValueError, match="^service 0: demands must be strictly positive and finite$"):
            Service(*args)


class TestMessage:
    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE, ids=repr)
    def test_rejects_size_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="^message size must be positive and finite$"):
            Message(USER, 0, bad)


class TestSumInOrder:
    def test_adds_left_to_right_on_every_version(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum (Python >= 3.12's
        # built-in sum()) would keep the 1.0
        assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
        assert sum_in_order([0.1] * 10) == 0.9999999999999999

    def test_empty_is_float_zero(self):
        assert repr(sum_in_order([])) == "0.0"

    @pytest.mark.parametrize("kind", SUM_INPUTS)
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(allow_subnormal=True)
            | st.sampled_from([-0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
            # past 2**63 an int leaves a C long, and sum() adds it the generic way
            | st.integers(-(2**70), 2**70),
            max_size=12,
        ),
        st.floats(allow_subnormal=True) | st.sampled_from([-0.0, 0.0]),
    )
    def test_equals_reduce_bit_for_bit(self, kind, values, start):
        make = SUM_INPUTS[kind]
        got = sum_in_order(make(values), start)
        expected = reduce(operator.add, make(values), start)
        assert type(got) is float
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", expected)


class TestPlacementValid:
    def test_fresh_device_accepts_small_service(self):
        # raw workload/speed ratio (not ms) is compared against the deadline
        s = Service(0, workload=20.0, mem_demand=1.0, storage_demand=1.0)
        d = make_device(speed=20.0, mem=10.0, storage=10.0)
        assert placement_valid(s, d, full(d), 300.0) is True

    def test_memory_overflow_rejected(self):
        d = make_device()
        s = Service(0, 20.0, full(d).mem + 1e-9, 1.0)
        assert placement_valid(s, d, full(d), 300.0) is False

    def test_exact_equality_accepted(self):
        d = make_device(speed=2.0, mem=3.0, storage=4.0)
        s = Service(0, workload=2.0 * 300.0, mem_demand=3.0, storage_demand=4.0)
        assert placement_valid(s, d, full(d), 300.0) is True

    def test_no_residual_core_rejected(self):
        d = make_device()
        left = Residual(0, d.mem, d.storage)
        assert placement_valid(Service(0, 1.0, 1.0, 1.0), d, left, 300.0) is False

    def test_monotone_in_residuals(self):
        rng = random.Random(7)
        for _ in range(200):
            s = Service(0, rng.uniform(20, 60), rng.uniform(1, 6), rng.uniform(1, 6))
            d = make_device(speed=rng.uniform(20, 60), mem=25.0, storage=25.0)
            lo = Residual(rng.randint(0, 10), rng.uniform(0.0, 25.0), rng.uniform(0.0, 25.0))
            hi = Residual(
                min(10, lo.cores + rng.randint(0, 3)),
                min(25.0, lo.mem + rng.uniform(0, 5)),
                min(25.0, lo.storage + rng.uniform(0, 5)),
            )
            if placement_valid(s, d, lo, 300.0):
                assert placement_valid(s, d, hi, 300.0)

    def test_scaling_memory_dimension_preserves_feasibility(self):
        rng = random.Random(11)
        for _ in range(200):
            factor = rng.uniform(0.1, 10.0)
            s = Service(0, 30.0, rng.uniform(1, 6), 1.0)
            d = make_device(mem=rng.uniform(6, 25))
            scaled_s = Service(0, 30.0, s.mem_demand * factor, 1.0)
            scaled_d = make_device(mem=d.mem * factor)
            assert placement_valid(s, d, full(d), 300.0) == placement_valid(
                scaled_s, scaled_d, full(scaled_d), 300.0
            )


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
    return Application(0, services, messages, deadline)


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

    def test_entry_with_an_incoming_message_rejected(self):
        # acyclic, but service 0 receives nothing and the entry, 1, cannot reach it
        services = [Service(i, 1, 1, 1) for i in range(2)]
        messages = [Message(USER, 1, 1.0), Message(0, 1, 1.0)]
        with pytest.raises(ValueError, match=r"services \[0\] unreachable from entry"):
            Application(0, services, messages, 100.0)

    def test_topological_order_respects_edges(self):
        app = chain_app(4)
        assert list(app.topological_order()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE, ids=repr)
    def test_rejects_deadline_not_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="^app 0: deadline must be positive and finite$"):
            Application(0, [Service(0, 1, 1, 1)], [Message(USER, 0, 1.0)], bad)


class TestResponseTimes:
    def test_single_service(self):
        # gateway -> host is one hop (25 ms), ET = 1000 ms
        topo = chain_topology(2)
        app = chain_app(1)
        per, rt, _ = response_times(app, {0: 1}, topo, gateway=0)
        assert rt == pytest.approx(1025.0)
        assert per[0] == pytest.approx(1025.0)

    def test_chain_of_two(self):
        topo = chain_topology(3)
        app = chain_app(2)
        per, rt, _ = response_times(app, {0: 1, 1: 2}, topo, gateway=0)
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
        app = Application(0, services, messages, 50000.0)
        topo = chain_topology(1)
        per, rt, _ = response_times(app, {i: 0 for i in range(4)}, topo, gateway=0)
        # everything co-located: transmissions vanish, depth is 3 services
        assert rt == pytest.approx(3000.0)
        assert per[1] == per[2]

    def test_dead_host_unreachable(self):
        topo = chain_topology(2)
        app = chain_app(1)
        with pytest.raises(UnreachableError):
            response_times(app, {0: 1}, topo, gateway=0, dead=frozenset({1}))

    def test_monotone_in_execution_time(self):
        topo_slow = chain_topology(3, speed=10.0)
        topo_fast = chain_topology(3, speed=20.0)
        app = chain_app(2)
        _, rt_fast, _ = response_times(app, {0: 1, 1: 2}, topo_fast, gateway=0)
        _, rt_slow, _ = response_times(app, {0: 1, 1: 2}, topo_slow, gateway=0)
        assert rt_slow >= rt_fast

    def test_lower_bounds(self):
        topo = chain_topology(4)
        app = chain_app(3)
        assignment = {0: 1, 1: 2, 2: 3}
        per, rt, _ = response_times(app, assignment, topo, gateway=0)
        max_et = max(
            execution_time(app.service(s), topo.devices[assignment[s]]) for s in (0, 1, 2)
        )
        entry_t = transmission_time(topo.shortest_hop_path(0, 1), app.entry_message.size)
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
    return Application(app_id, services, messages, rng.uniform(300, 50000))


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
                total += transmission_time(topo.shortest_hop_path(src_dev, assignment[dst]), msg.size)
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
            per, rt, _ = response_times(app, assignment, topo, gateway)
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
        assert len(topo.shortest_hop_path(0, 2)) == 2
        assert len(topo.shortest_hop_path(0, 2, dead={1})) == 2
        assert topo.shortest_hop_path(0, 2, dead={1, 3}) is None

    def test_duplicate_link_rejected(self):
        devices = [make_device(0), make_device(1)]
        with pytest.raises(ValueError):
            Topology(devices, [one_hop(), NetworkLink(1, 0, 1.0, 1.0)])

    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError, match="duplicate device id 0"):
            Topology([make_device(0), make_device(1), make_device(0)], [one_hop()])

    def test_dangling_link_rejected(self):
        with pytest.raises(ValueError, match="references an unknown device"):
            Topology([make_device(0), make_device(1)], [NetworkLink(0, 99, 1.0, 1.0)])

    def test_neighbours_sorted_ascending(self):
        links = [NetworkLink(2, 0, 1.0, 1.0), NetworkLink(0, 1, 1.0, 1.0), NetworkLink(1, 2, 1.0, 1.0)]
        topo = Topology([make_device(i) for i in (2, 0, 1)], links)
        assert topo.adj == {2: (0, 1), 0: (1, 2), 1: (0, 2)}


class TestHopCount:
    def topo(self):
        devices = [Device(i, 10, 20.0, 10.0, 10.0) for i in range(4)]
        links = [NetworkLink(i, i + 1, 75000.0, 5.0) for i in range(3)]
        return Topology(devices, links)

    def test_gateway_itself_is_zero(self):
        assert self.topo().shortest_hop_path(0, 0) == []

    def test_neighbor_is_one(self):
        assert len(self.topo().shortest_hop_path(0, 1)) == 1

    def test_far_end_of_chain(self):
        assert len(self.topo().shortest_hop_path(0, 3)) == 3

    def test_unreachable_is_none(self):
        assert self.topo().shortest_hop_path(0, 3, dead={1}) is None


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


class TestTransmissionTimes:
    @settings(max_examples=200, deadline=None)
    @given(topologies(), st.floats(1.0, 5e6))
    def test_equal_to_transmission_time_over_the_path(self, topo, size):
        for src in topo.devices:
            times = topo.transmission_times(src, size)
            for dst in topo.devices:
                path = topo.shortest_hop_path(src, dst)
                if path is None:
                    assert dst not in times
                else:
                    # the same fold, so equal bit for bit
                    assert times[dst] == transmission_time(path, size)

    def test_unknown_source_rejected(self):
        with pytest.raises(KeyError):
            Topology([make_device(0)], []).transmission_times(1, 1.0)


def single_target_parents(topo, src, dead, dst=None):
    """Frozen copy of ``Topology._parents`` as it was before it took several targets.

    A deque-fed BFS that stops as soon as its one ``dst`` is reached, or
    covers all that ``src`` reaches without one.
    """
    parent = {src: src}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for nxt in topo.adj[node]:
            if nxt in dead or nxt in parent:
                continue
            parent[nxt] = node
            if nxt == dst:
                return parent
            frontier.append(nxt)
    return parent


def chain_to_source(parent, node):
    chain = [node]
    while parent[node] != node:
        node = parent[node]
        chain.append(node)
    return chain


@st.composite
def searches(draw):
    """A topology that is often disconnected, a live source, a dead set (maybe empty) and 0-5 targets."""
    devices, links = draw(infrastructures())
    topo = Topology(devices, links)
    ids = st.sampled_from(sorted(topo.devices))
    src = draw(ids)
    dead = frozenset(draw(st.sets(ids)) - {src}) if draw(st.booleans()) else frozenset()
    return topo, src, dead, draw(st.lists(ids, max_size=5))


class TestMultiTargetParents:
    @settings(max_examples=300, deadline=None)
    @given(searches())
    def test_each_target_gets_its_single_target_chain(self, case):
        topo, src, dead, targets = case
        parent = topo._parents(src, dead, targets)
        whole = single_target_parents(topo, src, dead)
        # the search is the whole one, stopped early
        assert list(parent.items()) == list(whole.items())[: len(parent)]
        for target in targets:
            if target in whole:
                alone = single_target_parents(topo, src, dead, target)
                assert chain_to_source(parent, target) == chain_to_source(alone, target)
            else:
                assert target not in parent

    @settings(max_examples=200, deadline=None)
    @given(searches())
    def test_without_targets_the_whole_search(self, case):
        topo, src, dead, _ = case
        assert list(topo._parents(src, dead).items()) == list(single_target_parents(topo, src, dead).items())

    def test_stops_at_the_last_live_target(self):
        topo = chain_topology(6)
        assert topo._parents(0, targets=[2, 1]) == {0: 0, 1: 0, 2: 1}
        assert topo._parents(0, dead={4}, targets=[4, 2]) == {0: 0, 1: 0, 2: 1}
        # nothing left to find: the source alone, without a step
        assert topo._parents(0, dead={3}, targets=[0, 3]) == {0: 0}
        assert topo._parents(0, targets=[]) == {0: 0}
        # an unreachable target runs the search to its end
        assert topo._parents(0, dead={3}, targets=[1, 5]) == {0: 0, 1: 0, 2: 1}


class TestHopCounts:
    @settings(max_examples=200, deadline=None)
    @given(searches())
    def test_equal_to_the_shortest_path_lengths(self, case):
        topo, src, _, targets = case
        paths = {t: topo.shortest_hop_path(src, t) for t in targets}
        assert topo.hop_counts(src, targets) == {t: len(p) for t, p in paths.items() if p is not None}

    def test_unknown_source_rejected(self):
        with pytest.raises(KeyError):
            Topology([make_device(0)], []).hop_counts(1, [1])


@st.composite
def routed_requests(draw):
    """A connected topology, a DAG app placed on it, its gateway, and a dead set sparing those."""
    rng = draw(st.randoms(use_true_random=False))
    topo = random_topology(rng, draw(st.integers(2, 9)))
    app = random_dag_app(rng, 0)
    device_ids = st.sampled_from(sorted(topo.devices))
    assignment = {s.id: draw(device_ids) for s in app.services}
    gateway = draw(device_ids)
    dead = frozenset(draw(st.sets(device_ids)) - {gateway, *assignment.values()})
    return topo, app, assignment, gateway, dead


class TestDevicesUsed:
    @settings(max_examples=200, deadline=None)
    @given(routed_requests())
    def test_gateway_hosts_and_every_link_end_of_each_route(self, case):
        topo, app, assignment, gateway, dead = case
        expected = {gateway, *assignment.values()}
        for msg in app.messages:
            src = gateway if msg.source == USER else assignment[msg.source]
            path = topo.shortest_hop_path(src, assignment[msg.destination], dead)
            if path is None:
                with pytest.raises(UnreachableError):
                    response_times(app, assignment, topo, gateway, dead)
                return
            for link in path:
                expected |= {link.a, link.b}
        assert response_times(app, assignment, topo, gateway, dead)[2] == expected
