"""Modularity, Louvain, compression, and feature partitioning."""

from __future__ import annotations

import math
import operator
import os
import random
from array import array
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    LAYER_FIELDS,
    assignment_of,
    best_partition_bruteforce,
    fig_devices,
    infrastructures,
    make_view,
    set_partitions,
    triangle_view,
    two_pairs_view,
)
from fogpart.model import Device, NetworkLink, Topology, sum_in_order
from fogpart.scenario import ScenarioConfig, generate_scenario
from fogpart.multilayer import (
    Layer,
    RESOURCE_LAYERS,
    SimilarityView,
    build_multilayer,
    index_rows,
)
from fogpart import partitioner
from fogpart.partitioner import (
    GAIN_EPS,
    FeatureTriplet,
    compress_graph,
    feature_partition,
    louvain_partition,
    multilayer_resource_partition,
    partition_feature,
    _aggregate,
    _aggregate_complete,
    _label_partitions,
    _phase1,
    _phase1_complete,
    _row_links,
    _singletons_modularity,
    _strengths,
)


def random_view(rng, n=None, p=0.5):
    n = n if n is not None else rng.randint(4, 8)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges[(i, j)] = rng.uniform(0.1, 2.0)
    return make_view(Layer.CPU, range(n), edges)


def level0_rows(view):
    """A layer's rows: stored, or made from a complete layer's full weight arrays."""
    if not isinstance(view, SimilarityView):
        return view.rows
    rows = []
    for k, weights in enumerate(view.weights()):
        positions = [j for j in range(len(weights)) if j != k]
        rows.append((positions, array("d", map(weights.__getitem__, positions))))
    return rows


def dict_rows(rows):
    """Packed rows as the neighbour -> weight dicts the frozen reference reads."""
    return [dict(zip(*row)) for row in rows]


def packed(adj):
    """Neighbour -> weight dicts as the rows the module reads, entries in dict order."""
    return [(list(row), array("d", row.values())) for row in adj]


def phase1(adj, loops):
    """``_phase1`` on dict rows, with the strengths ``_louvain`` hands it."""
    rows = packed(adj)
    return _phase1(rows, _strengths(rows, loops))


def fused_modularity(adj, loops, comm):
    """The modularity ``_aggregate`` returns for ``comm`` on dict rows."""
    rows = packed(adj)
    return _aggregate(rows, loops, _strengths(rows, loops), comm)[3]


def modularity(view, assignment):
    """Single-layer modularity of a device-to-partition assignment, from the frozen pass."""
    comm = [assignment[nid] for nid in view.nodes]
    return frozen_modularity_raw(dict_rows(level0_rows(view)), [0.0] * len(view.nodes), comm)


class TestModularity:
    def test_all_in_one_is_zero(self):
        view = triangle_view()
        assert modularity(view, {n: 0 for n in view.nodes}) == pytest.approx(0.0, abs=1e-12)

    def test_singletons_on_triangle(self):
        view = triangle_view()
        q = modularity(view, {1: 1, 2: 2, 3: 3, 4: 4})
        assert q == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_triangle_grouping_is_argmax(self):
        view = triangle_view()
        best_parts, best_q = best_partition_bruteforce(view, modularity)
        target = modularity(view, {1: 0, 2: 0, 3: 0, 4: 1})
        assert target == pytest.approx(best_q, abs=1e-12)
        assert target >= modularity(view, {1: 1, 2: 2, 3: 3, 4: 4})

    def test_edgeless_view_scores_zero(self):
        view = make_view(Layer.CPU, [0, 1, 2], {})
        assert modularity(view, {0: 0, 1: 1, 2: 2}) == 0.0

    def test_bounded(self):
        rng = random.Random(5)
        for _ in range(50):
            view = random_view(rng)
            parts = [[n] for n in view.nodes]
            rng.shuffle(parts)
            k = rng.randint(1, len(parts))
            merged = [sum(parts[k - 1 :], [])] + parts[: k - 1]
            q = modularity(view, assignment_of(merged))
            assert -1.0 - 1e-9 <= q <= 1.0 + 1e-9


class TestMoveGainEquivalence:
    def test_delta_equals_full_recomputation(self):
        # moving an isolated node into a community must change Q by the
        # closed-form gain
        rng = random.Random(17)
        for _ in range(100):
            view = random_view(rng)
            nodes = view.nodes
            adj = dict_rows(view.rows)
            loops = [0.0] * len(nodes)
            strength = [sum(a.values()) for a in adj]
            two_w = sum(strength)
            if two_w == 0:
                continue
            w = two_w / 2.0
            node = rng.randrange(len(nodes))
            others = [i for i in range(len(nodes)) if i != node]
            target = rng.choice(others)
            base = [i if i != node else len(nodes) for i in range(len(nodes))]
            merged = list(base)
            merged[node] = base[target]
            q_before = fused_modularity(adj, loops, base)
            q_after = fused_modularity(adj, loops, merged)
            k_in = sum(
                wij for j, wij in adj[node].items() if base[j] == base[target]
            )
            comm_strength = sum(
                strength[i] for i in range(len(nodes)) if base[i] == base[target]
            )
            gain = frozen_move_gain(k_in, strength[node], comm_strength, w)
            assert q_after - q_before == pytest.approx(gain, abs=1e-12)


class TestLouvain:
    def test_triangle_layer(self):
        ps = louvain_partition(triangle_view())
        assert set(ps.partitions.values()) == {frozenset({1, 2, 3}), frozenset({4})}
        assert ps.assignment[1] == ps.assignment[2] == ps.assignment[3]

    def test_two_pairs_layer(self):
        ps = louvain_partition(two_pairs_view())
        assert set(ps.partitions.values()) == {frozenset({1, 2}), frozenset({3, 4})}
        assert ps.modularity == pytest.approx(0.5)

    def test_never_below_singletons(self):
        rng = random.Random(23)
        for _ in range(50):
            view = random_view(rng)
            singles = modularity(view, {n: n for n in view.nodes})
            ps = louvain_partition(view)
            assert ps.modularity >= singles - 1e-12

    def test_reported_modularity_matches_recomputation(self):
        rng = random.Random(29)
        for _ in range(50):
            view = random_view(rng)
            ps = louvain_partition(view)
            assert ps.modularity == pytest.approx(
                modularity(view, dict(ps.assignment)), abs=1e-9
            )

    def test_close_to_bruteforce_optimum(self):
        rng = random.Random(31)
        for _ in range(25):
            view = random_view(rng, n=rng.randint(4, 7))
            _, best_q = best_partition_bruteforce(view, modularity)
            ps = louvain_partition(view)
            assert ps.modularity >= best_q - 0.05

    def test_partitions_cover_and_disjoint(self):
        rng = random.Random(37)
        for _ in range(20):
            view = random_view(rng)
            ps = louvain_partition(view)
            seen = set()
            for members in ps.partitions.values():
                assert not (seen & members)
                seen |= members
            assert seen == set(view.nodes)

    def test_deterministic(self):
        rng = random.Random(41)
        view = random_view(rng)
        a = louvain_partition(view)
        b = louvain_partition(view)
        assert a.partitions == b.partitions
        assert a.modularity == b.modularity


class TestPartitionFeature:
    def test_single_device(self):
        d = Device(1, 10, 20.0, 10.0, 12.0)
        assert partition_feature([d]) == FeatureTriplet(20.0, 10.0, 12.0)

    def test_mean_of_speeds(self):
        a = Device(1, 10, 20.0, 10.0, 10.0)
        b = Device(2, 10, 60.0, 10.0, 10.0)
        assert partition_feature([a, b]).avg_cpu == 40.0

    def test_identical_devices(self):
        devs = [Device(i, 10, 20.0, 10.0, 10.0) for i in range(3)]
        assert partition_feature(devs) == FeatureTriplet(20.0, 10.0, 10.0)

    def test_sum_ignores_set_order(self):
        # equal sets built in a different order iterate differently; summed in
        # that order, these means differed in the last bit
        devs = {
            i: Device(i, 10, cpu, mem, 10.0)
            for i, cpu, mem in ((0, 0.1, 0.3), (8, 0.2, 0.2), (16, 0.3, 0.1))
        }
        ascending, descending = frozenset([0, 8, 16]), frozenset([16, 8, 0])
        assert ascending == descending and list(ascending) != list(descending)
        feature = partition_feature(devs[d] for d in ascending)
        assert partition_feature(devs[d] for d in descending) == feature
        assert feature.avg_cpu == (0.1 + 0.2 + 0.3) / 3


class TestCompressGraph:
    def test_worked_example_edges(self):
        devices = fig_devices()
        ps_l = louvain_partition(triangle_view())
        ps_lp = louvain_partition(two_pairs_view())
        cg = compress_graph([ps_l, ps_lp], devices)
        assert cg.nodes == (
            (Layer.CPU, 0),
            (Layer.CPU, 1),
            (Layer.MEM, 0),
            (Layer.MEM, 1),
        )
        assert set(cg.edges) == {
            ((Layer.CPU, 0), (Layer.MEM, 0)),
            ((Layer.CPU, 0), (Layer.MEM, 1)),
            ((Layer.CPU, 1), (Layer.MEM, 1)),
        }

    def test_identical_partitions_yield_matching(self):
        devices = fig_devices()
        view_a = make_view(Layer.CPU, [1, 2, 3, 4], {(1, 2): 1.0, (3, 4): 1.0})
        view_b = make_view(Layer.MEM, [1, 2, 3, 4], {(1, 2): 1.0, (3, 4): 1.0})
        cg = compress_graph(
            [louvain_partition(view_a), louvain_partition(view_b)], devices
        )
        assert set(cg.edges) == {
            ((Layer.CPU, 0), (Layer.MEM, 0)),
            ((Layer.CPU, 1), (Layer.MEM, 1)),
        }

    def test_singleton_partitions_edge_per_device(self):
        devices = fig_devices()
        from fogpart.partitioner import PartitionSet

        singles_a = PartitionSet(
            Layer.CPU,
            {i: i - 1 for i in devices},
            {i - 1: frozenset({i}) for i in devices},
            0.0,
        )
        singles_b = PartitionSet(
            Layer.MEM,
            {i: i - 1 for i in devices},
            {i - 1: frozenset({i}) for i in devices},
            0.0,
        )
        cg = compress_graph([singles_a, singles_b], devices)
        assert len(cg.edges) == len(devices)

    def test_no_self_or_intra_layer_edges(self):
        devices = fig_devices()
        cg = compress_graph(
            [louvain_partition(triangle_view()), louvain_partition(two_pairs_view())],
            devices,
        )
        for a, b in cg.edges:
            assert a != b
            assert a[0] != b[0]


class TestFeaturePartition:
    def build_cg(self):
        devices = fig_devices()
        return compress_graph(
            [louvain_partition(triangle_view()), louvain_partition(two_pairs_view())],
            devices,
        )

    def test_worked_example_two_groups(self):
        fps = feature_partition(self.build_cg())
        assert len(fps.feature_partitions) == 2
        assert fps.feature_partitions[0] == frozenset({(Layer.CPU, 0), (Layer.MEM, 0)})
        assert fps.feature_partitions[1] == frozenset({(Layer.CPU, 1), (Layer.MEM, 1)})
        assert fps.modularity > 0.0

    def test_merging_all_scores_zero_and_loses(self):
        cg = self.build_cg()
        adjacency = {n: {} for n in cg.nodes}
        for a, b in cg.edges:
            w = 1.0 / (1.0 + cg.features[a].distance(cg.features[b]))
            adjacency[a][b] = w
            adjacency[b][a] = w
        view_like = make_view(
            Layer.CPU,
            range(len(cg.nodes)),
            {
                (cg.nodes.index(a), cg.nodes.index(b)): adjacency[a][b]
                for a, b in cg.edges
            },
        )
        all_one = modularity(view_like, {i: 0 for i in range(len(cg.nodes))})
        fps = feature_partition(cg)
        assert all_one == pytest.approx(0.0, abs=1e-12)
        assert fps.modularity > all_one

    def test_single_node_graph(self):
        devices = {1: Device(1, 10, 20.0, 10.0, 10.0)}
        from fogpart.partitioner import PartitionSet

        ps = PartitionSet(Layer.CPU, {1: 0}, {0: frozenset({1})}, 0.0)
        cg = compress_graph([ps], devices)
        fps = feature_partition(cg)
        assert len(fps.feature_partitions) == 1

    def test_keeps_compressed_features(self):
        cg = self.build_cg()
        assert feature_partition(cg).features == cg.features

    def test_device_index_unions_members(self):
        fps = feature_partition(self.build_cg())
        assert fps.device_index[0] == frozenset({1, 2, 3})
        assert fps.device_index[1] == frozenset({3, 4})

    def test_disjoint_cover(self):
        cg = self.build_cg()
        fps = feature_partition(cg)
        seen = set()
        for nodes in fps.feature_partitions.values():
            assert not (seen & nodes)
            seen |= nodes
        assert seen == set(cg.nodes)


class TestPipeline:
    def test_single_device_infrastructure(self):
        devices = [Device(0, 10, 20.0, 10.0, 10.0)]
        g = build_multilayer(Topology(devices, []))
        fps, network, layer_sets = multilayer_resource_partition(g)
        assert len(network.partitions) == 1
        assert len(fps.feature_partitions) == 1

    def test_coverage_on_random_infrastructure(self):
        rng = random.Random(99)
        devices = [
            Device(i, 10, rng.uniform(20, 60), rng.uniform(10, 25), rng.uniform(10, 25))
            for i in range(60)
        ]
        links = []
        for i in range(1, 60):
            links.append(NetworkLink(rng.randrange(i), i, 75000.0, 5.0))
        g = build_multilayer(Topology(devices, links))
        fps, network, layer_sets = multilayer_resource_partition(g)
        ids = {d.id for d in devices}
        # every device sits in exactly one network partition
        counts = {}
        for members in network.partitions.values():
            for d in members:
                counts[d] = counts.get(d, 0) + 1
        assert counts == {d: 1 for d in ids}
        # and per resource layer its partition maps to exactly one feature group
        for layer, ps in layer_sets.items():
            for dev in ids:
                node = (layer, ps.assignment[dev])
                hits = [
                    fp
                    for fp, nodes in fps.feature_partitions.items()
                    if node in nodes
                ]
                assert len(hits) == 1
                assert dev in fps.device_index[hits[0]]

    def test_deterministic_under_seed(self):
        devices, links = [], []
        rng = random.Random(7)
        devices = [
            Device(i, 10, rng.uniform(20, 60), rng.uniform(10, 25), rng.uniform(10, 25))
            for i in range(20)
        ]
        links = [NetworkLink(rng.randrange(i), i, 75000.0, 5.0) for i in range(1, 20)]
        g = build_multilayer(Topology(devices, links))
        a = multilayer_resource_partition(g)
        b = multilayer_resource_partition(g)
        assert a[0].feature_partitions == b[0].feature_partitions
        assert a[1].partitions == b[1].partitions


def failing_in(layer, fail):
    """``louvain_partition`` that calls ``fail()`` instead on ``layer``."""
    real = partitioner.louvain_partition

    def louvain(view):
        return fail() if view.layer == layer else real(view)

    return louvain


class TestForkedLayers:
    """The resource layers in forked children, the network layer in the parent.

    Every graph here is below ``FORK_MIN_DEVICES``, so ``forks`` sets it to 0.
    """

    @pytest.fixture
    def forks(self, forks, monkeypatch):
        monkeypatch.setattr(partitioner, "FORK_MIN_DEVICES", 0)
        return forks

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scale", ["SMALL", "LARGE"])
    def test_equal_to_in_process(self, forks, monkeypatch, scale, seed):
        scenario = generate_scenario(ScenarioConfig(seed=seed).with_scale(scale))
        graph = build_multilayer(scenario.topology())
        monkeypatch.setattr(partitioner, "FORK_MIN_DEVICES", math.inf)
        here = multilayer_resource_partition(graph)
        assert forks == []
        monkeypatch.setattr(partitioner, "FORK_MIN_DEVICES", 0)
        forked = multilayer_resource_partition(graph)
        assert len(forks) == len(RESOURCE_LAYERS)
        # PartitionSets and FeaturePartitionSets compare their modularities by ==
        assert forked == here
        assert list(forked[2]) == list(RESOURCE_LAYERS)

    def test_child_exception_is_raised_here(self, forks, monkeypatch):
        def fail():
            raise ValueError("no MEM partition today")

        monkeypatch.setattr(partitioner, "louvain_partition", failing_in(Layer.MEM, fail))
        graph = build_multilayer(Topology(list(fig_devices().values()), []))
        with pytest.raises(ValueError, match="^no MEM partition today$"):
            multilayer_resource_partition(graph)
        assert len(forks) == len(RESOURCE_LAYERS)

    def test_child_that_dies_without_a_result(self, forks, monkeypatch):
        monkeypatch.setattr(partitioner, "louvain_partition", failing_in(Layer.STORAGE, lambda: os._exit(3)))
        graph = build_multilayer(Topology(list(fig_devices().values()), []))
        with pytest.raises(RuntimeError, match="STORAGE layer ended without a result"):
            multilayer_resource_partition(graph)
        assert len(forks) == len(RESOURCE_LAYERS)

    def test_network_failure_here_reaps_the_children(self, forks, monkeypatch):
        def fail():
            raise ValueError("no network partition today")

        monkeypatch.setattr(partitioner, "louvain_partition", failing_in(Layer.NETWORK, fail))
        graph = build_multilayer(Topology(list(fig_devices().values()), []))
        with pytest.raises(ValueError, match="^no network partition today$"):
            multilayer_resource_partition(graph)
        assert len(forks) == len(RESOURCE_LAYERS)

    def test_in_process_below_the_size_or_the_cpus(self, monkeypatch):
        monkeypatch.setattr(partitioner, "_usable_cpus", lambda: 2)
        big = partitioner.FORK_MIN_DEVICES
        assert partitioner._forks(big) is True
        assert partitioner._forks(big - 1) is False
        monkeypatch.setattr(partitioner, "_usable_cpus", lambda: 1)
        assert partitioner._forks(big) is False
        monkeypatch.setattr(partitioner, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork", raising=False)
        assert partitioner._forks(big) is False

    def test_usable_cpus_follow_the_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert partitioner._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert partitioner._usable_cpus() == 1


class TestNetworkPartitionsConnected:
    """The anchor rule keeps an app inside one network partition, and assumes
    every member of that partition can reach the others without leaving it."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scale", ["SMALL", "LARGE"])
    def test_generated_scenario(self, scale, seed):
        scenario = generate_scenario(ScenarioConfig(seed=seed).with_scale(scale))
        topology = scenario.topology()
        network = louvain_partition(build_multilayer(topology).intra_edges[Layer.NETWORK])
        for pid, members in network.partitions.items():
            # routing that treats every device outside the partition as dead
            outside = frozenset(topology.devices) - members
            start = min(members)
            unreached = [d for d in members if topology.shortest_hop_path(start, d, outside) is None]
            assert unreached == [], f"network partition {pid} is disconnected"


#: (scale, seed, layer) of the generated layer sets whose cloud joins the
#: lowest-value interval; in every other one it joins the highest.
CLOUD_IN_LOWEST = {
    (scale, seed, layer)
    for scale in ("SMALL", "LARGE")
    for seed, layer in (
        (1, Layer.CPU),
        (5, Layer.STORAGE),
        (6, Layer.MEM),
        (6, Layer.STORAGE),
        (7, Layer.MEM),
        (8, Layer.CPU),
    )
}


class TestResourcePartitionsAreIntervals:
    """A resource layer's partitions cut the fog devices into intervals of value.

    Each layer weighs a pair of devices by their gap in one resource, and
    Louvain groups the fog devices, sorted by (value, id), into contiguous
    runs. The cloud lies beyond the fog's range (``cloud_factor`` times its
    top), so the interval picture puts it with the highest values, and at
    SMALL and LARGE seeds 0-9 it joins that interval in 48 of the 60 layer
    sets. In the other 12 it joins the lowest interval. That is a departure
    from the interval picture, with a plain reason: every weight of the
    cloud is near 0 (at most 1 / (1 + its gap to the top of the fog's
    range)), so its gain for every community is near 0 too, and tiny
    differences between those gains, not its resource value, decide where
    it goes.
    """

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scale", ["SMALL", "LARGE"])
    def test_fog_runs_and_cloud_at_one_end(self, scale, seed):
        scenario = generate_scenario(ScenarioConfig(seed=seed).with_scale(scale))
        topology = scenario.topology()
        _, _, layer_sets = multilayer_resource_partition(build_multilayer(topology))
        fog = [d for d in topology.devices.values() if d.id != scenario.cloud_id]
        for layer, ps in layer_sets.items():
            order = sorted(fog, key=lambda d: (getattr(d, LAYER_FIELDS[layer]), d.id))
            labels = [ps.assignment[d.id] for d in order]
            runs = [pid for k, pid in enumerate(labels) if k == 0 or labels[k - 1] != pid]
            assert len(runs) == len(set(runs)) > 1, f"{layer.name}: a partition is not one run"
            end = labels[0] if (scale, seed, layer) in CLOUD_IN_LOWEST else labels[-1]
            assert ps.assignment[scenario.cloud_id] == end, layer.name


# ---------------------------------------------------------------------------
# Frozen reference Louvain steps: the local-move phase that re-sums every
# node's row on every sweep, the full modularity pass and the aggregation.
# ``_phase1`` re-sums rows the same way; complete layers keep per-community
# link sums across moves instead (``_later_sweeps``). The steps stay here so
# that the module's steps are checked against an independent oracle and not
# against themselves. Rows are neighbour -> weight dicts, and every
# float sum runs left to right, as built-in ``sum()`` did before Python 3.12.
# ---------------------------------------------------------------------------


def left_sum(values):
    return reduce(operator.add, values, 0.0)


def frozen_strengths(adj, loops):
    return [left_sum(adj[i].values()) + loops[i] for i in range(len(adj))]


def frozen_modularity_raw(adj, loops, comm):
    strength = frozen_strengths(adj, loops)
    two_w = left_sum(strength)
    if two_w <= 0.0:
        return 0.0
    sig_in = {}
    sig_tot = {}
    for i, c in enumerate(comm):
        sig_tot[c] = sig_tot.get(c, 0.0) + strength[i]
        sig_in[c] = sig_in.get(c, 0.0) + loops[i]
    for i in range(len(adj)):
        ci = comm[i]
        for j, w in adj[i].items():
            if comm[j] == ci:
                sig_in[ci] += w
    return left_sum(sig_in[c] - sig_tot[c] ** 2 / two_w for c in sig_tot) / two_w


def frozen_move_gain(k_in, node_strength, comm_strength, w):
    return k_in / w - comm_strength * node_strength / (2.0 * w * w)


def frozen_phase1(adj, loops):
    n = len(adj)
    strength = frozen_strengths(adj, loops)
    comm = list(range(n))
    two_w = left_sum(strength)
    if two_w <= 0.0:
        return comm, False
    w = two_w / 2.0
    comm_strength = list(strength)
    improved = False
    moved = True
    while moved:
        moved = False
        for i in range(n):
            ci = comm[i]
            comm_strength[ci] -= strength[i]
            links = {}
            for j, wij in adj[i].items():
                cj = comm[j]
                links[cj] = links.get(cj, 0.0) + wij
            best_c = ci
            best_gain = frozen_move_gain(links.get(ci, 0.0), strength[i], comm_strength[ci], w)
            for c in sorted(links):
                if c == ci:
                    continue
                gain = frozen_move_gain(links[c], strength[i], comm_strength[c], w)
                if gain > best_gain + GAIN_EPS:
                    best_c, best_gain = c, gain
            comm[i] = best_c
            comm_strength[best_c] += strength[i]
            if best_c != ci:
                moved = True
                improved = True
    return comm, improved


def frozen_aggregate(adj, loops, comm):
    labels = sorted(set(comm))
    remap = {lab: idx for idx, lab in enumerate(labels)}
    k = len(labels)
    new_adj = [dict() for _ in range(k)]
    new_loops = [0.0] * k
    for i in range(len(adj)):
        ci = remap[comm[i]]
        new_loops[ci] += loops[i]
        for j, wij in adj[i].items():
            cj = remap[comm[j]]
            if ci == cj:
                new_loops[ci] += wij
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + wij
    return new_adj, new_loops, remap


@st.composite
def weighted_graphs(draw, with_loops=None):
    """Symmetric rows over 2-60 nodes, often sparse or disconnected.

    Edge weights repeat a few drawn tie-prone values, rows list neighbours
    in drawn (not ascending) order, and half the graphs (all of them with
    ``with_loops=True``) carry self-loop mass as after aggregation.
    """
    n = draw(st.integers(2, 60))
    density = draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
    weight = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0]) | st.floats(0.01, 5.0)
    pool = draw(st.lists(weight, min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    chosen = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    rng.shuffle(chosen)
    adj = [{} for _ in range(n)]
    for i, j in chosen:
        adj[i][j] = adj[j][i] = rng.choice(pool)
    loops = [0.0] * n
    if with_loops or with_loops is None and draw(st.booleans()):
        masses = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.01, 10.0), min_size=1, max_size=4))
        loops = [rng.choice(masses) for _ in range(n)]
    return adj, loops


class TestPhase1MatchesFrozenReference:
    @settings(max_examples=300, deadline=None)
    @given(weighted_graphs())
    def test_labels_and_moved_exactly_equal(self, graph):
        adj, loops = graph
        assert phase1(adj, loops) == frozen_phase1(adj, loops)


class TestAggregateMatchesFrozenReference:
    """``_aggregate``'s one walk against the frozen aggregation and modularity pass.

    Every graph carries loop mass. Only then do the two passes add in different
    orders: the modularity adds every node's loop mass before any
    intra-community link, the aggregation adds each node's loop mass just
    before that node's links.
    """

    @settings(max_examples=300, deadline=None)
    @given(weighted_graphs(with_loops=True), st.data())
    def test_rows_loops_and_modularity_exactly_equal(self, graph, data):
        adj, loops = graph
        assume(any(loops))
        labels = st.integers(0, data.draw(st.integers(0, len(adj) - 1)))
        comm = data.draw(st.lists(labels, min_size=len(adj), max_size=len(adj)))
        rows = packed(adj)
        new_rows, new_loops, sub, q = _aggregate(rows, loops, _strengths(rows, loops), comm)
        ref_adj, ref_loops, remap = frozen_aggregate(adj, loops, comm)
        assert [list(zip(*row)) for row in new_rows] == [list(row.items()) for row in ref_adj]
        assert new_loops == ref_loops
        assert sub == [remap[c] for c in comm]
        assert q == frozen_modularity_raw(adj, loops, comm)

    def test_loop_masses_are_added_before_links(self):
        # a triangle whose community {0, 1} holds loop mass 0.2 + 0.2 and the
        # link 0.7 twice; adding the masses between the links, as the
        # aggregated loop mass does, rounds Q differently
        adj = [{1: 0.7, 2: 0.2}, {0: 0.7, 2: 0.3}, {0: 0.2, 1: 0.3}]
        loops, comm = [0.2, 0.2, 0.0], [1, 1, 0]
        q = frozen_modularity_raw(adj, loops, comm)
        assert fused_modularity(adj, loops, comm) == q == -0.06377551020408152
        _, new_loops, _ = frozen_aggregate(adj, loops, comm)
        assert new_loops == [0.0, 0.2 + 0.7 + 0.2 + 0.7] != [0.0, 0.2 + 0.2 + 0.7 + 0.7]


class TestSubnormalTotalWeight:
    """A positive total weight so small that ``2 w^2`` underflows to 0 keeps singletons."""

    def test_isolated_loop_masses_found_by_hypothesis(self):
        # raised ZeroDivisionError in _best_move before
        assert phase1([{}, {}], [2.2e-311, 2.2e-311]) == ([0, 1], False)

    @settings(max_examples=100, deadline=None)
    @given(weighted_graphs(), st.floats(1e-320, 1e-170))
    def test_any_graph_scaled_below_underflow(self, graph, scale):
        adj, loops = graph
        adj = [{j: wij * scale for j, wij in row.items()} for row in adj]
        loops = [x * scale for x in loops]
        w = left_sum(frozen_strengths(adj, loops)) / 2.0
        if w > 0.0 and 2.0 * w * w == 0.0:
            assert phase1(adj, loops) == (list(range(len(adj))), False)
            parts, _ = partitioner._louvain(list(range(len(adj))), packed(adj))
            assert parts == [frozenset([i]) for i in range(len(adj))]


def near_tie_graph():
    """Seven nodes linked by 0.1 or 0.3, and an isolated node 7 whose loop
    mass sets the total weight.

    After the first sweep the communities are {0}, {1}, {2, 4, 5} and
    {3, 6}, labelled 1, 3, 4 and 6. Node 1's link into community 4 sums to
    0.1 + 0.1 + 0.1 = 0.30000000000000004; node 0 then joins community 4,
    and a sum kept across that move would become 0.6000000000000001, while
    node 1's row sums to 0.3 + 0.1 + 0.1 + 0.1 = 0.6. Node 7's loop mass is
    tuned so that node 1's gain for joining community 4 lies within
    rounding of GAIN_EPS, where the two sums decide differently; the row
    path re-sums, so it decides as the reference does.
    """
    heavy = {(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (2, 4), (3, 6), (4, 5)}
    adj = [{j: 0.3 if (min(i, j), max(i, j)) in heavy else 0.1 for j in range(7) if j != i} for i in range(7)]
    return adj + [{}], [0.0] * 7 + [6.599999999509994]


def kept_sum_tie_layer():
    """Six devices on which a complete layer's kept link sum misjudges a near tie.

    After the first sweep the communities are {0}, {1, 3, 4} and {2, 5},
    labelled 3, 4 and 5, and node 4 keeps its link into community 4 as
    ``w41 + w43 + 0.0``. Node 0 then joins community 4, and the kept sum
    becomes 0.9212496744717688, one unit of roundoff below the gather over
    the members 0, 1, 3, 4, 0.9212496744717689. Device 4's value is tuned
    so that node 4's gain for joining community 5 minus GAIN_EPS falls
    between its gains for staying from the two sums. ``_ROUND`` makes the
    kept sum's margin too close to call, so node 4 re-sums and stays.
    """
    return SimilarityView(Layer.CPU, tuple(range(6)), (20.0, 10.5, 12.0, 8.5, 11.301516606252653, 12.0))


class TestKeptLinkSums:
    def test_near_tie_is_decided_from_the_row(self):
        adj, loops = near_tie_graph()
        assert phase1(adj, loops) == frozen_phase1(adj, loops) == ([4, 6, 4, 6, 4, 4, 6, 7], True)

    def test_complete_near_tie_is_decided_from_a_resum(self):
        view = kept_sum_tie_layer()
        weights = view.weights()
        strength = [sum_in_order(row) for row in weights]
        expected = frozen_phase1(dict_rows(level0_rows(view)), [0.0] * 6)
        assert _phase1_complete(weights, view.values, strength) == expected == ([4, 4, 5, 4, 4, 5], True)

    def test_kept_sums_alone_decide_the_complete_near_tie_wrongly(self, monkeypatch):
        # with a zero bound only an exact tie falls back, so the kept sum
        # moves node 4 into community 5, and the rest follow it
        monkeypatch.setattr(partitioner, "_ROUND", 0.0)
        view = kept_sum_tie_layer()
        weights = view.weights()
        strength = [sum_in_order(row) for row in weights]
        assert _phase1_complete(weights, view.values, strength) == ([5] * 6, True)


# ---------------------------------------------------------------------------
# Reference: the path that stored each layer as an edge dict, copied it into a
# dict-of-dicts view, and re-indexed and re-sorted it inside every Louvain run.
# ---------------------------------------------------------------------------


def reference_edges(devices, links):
    ordered = sorted(devices, key=lambda d: d.id)
    intra = {Layer.NETWORK: {link.key: 1.0 for link in links}}
    for layer, field in LAYER_FIELDS.items():
        edges = {}
        for d_i, d_j in combinations(ordered, 2):
            w = 1.0 / (1.0 + abs(getattr(d_i, field) - getattr(d_j, field)))
            edges[(d_i.id, d_j.id)] = w
        intra[layer] = edges
    return [d.id for d in ordered], intra


def reference_adjacency(node_ids, edges):
    adjacency = {i: {} for i in node_ids}
    for (i, j), w in edges.items():
        adjacency[i][j] = w
        adjacency[j][i] = w
    return {i: dict(sorted(adjacency[i].items())) for i in sorted(node_ids)}


def reference_louvain(node_ids, adjacency):
    ordered = sorted(node_ids)
    index = {nid: k for k, nid in enumerate(ordered)}
    adj = [
        {index[j]: w for j, w in sorted(adjacency.get(nid, {}).items(), key=lambda kv: index[kv[0]])}
        for nid in ordered
    ]
    loops = [0.0] * len(ordered)
    groups = [frozenset([nid]) for nid in ordered]
    best_parts = list(groups)
    best_q = frozen_modularity_raw(adj, loops, list(range(len(adj))))
    while True:
        comm, moved = frozen_phase1(adj, loops)
        if not moved:
            break
        q = frozen_modularity_raw(adj, loops, comm)
        adj, loops, remap = frozen_aggregate(adj, loops, comm)
        merged = [set() for _ in range(len(remap))]
        for i, c in enumerate(comm):
            merged[remap[c]].update(groups[i])
        groups = [frozenset(g) for g in merged]
        if q > best_q + GAIN_EPS:
            best_parts = list(groups)
            best_q = q
        else:
            break
    return _label_partitions(best_parts), best_q


class TestRowsMatchReferencePath:
    @settings(max_examples=200, deadline=None)
    @given(infrastructures())
    def test_louvain_and_feature_partition_exactly_equal(self, infra):
        devices, links = infra
        graph = build_multilayer(Topology(devices, links))
        node_ids, intra = reference_edges(devices, links)
        for layer, view in graph.intra_edges.items():
            assert len(view) == len(intra[layer])
        layer_sets = {}
        for layer, view in graph.intra_edges.items():
            ps = louvain_partition(view)
            parts, q = reference_louvain(node_ids, reference_adjacency(node_ids, intra[layer]))
            assert [list(p) for p in ps.partitions.values()] == [list(p) for p in parts]
            assert ps.assignment == {d: pid for pid, p in enumerate(parts) for d in p}
            assert ps.modularity == q
            layer_sets[layer] = ps

        cg = compress_graph([layer_sets[layer] for layer in RESOURCE_LAYERS], {d.id: d for d in devices})
        weights = {(a, b): 1.0 / (1.0 + cg.features[a].distance(cg.features[b])) for a, b in cg.edges}
        parts, q = reference_louvain(cg.nodes, reference_adjacency(cg.nodes, weights))
        fps = feature_partition(cg)
        assert [list(p) for p in fps.feature_partitions.values()] == [list(p) for p in parts]
        assert fps.modularity == q


@st.composite
def complete_layers(draw):
    """Complete resource layers over 1-60 devices with sparse ids.

    The values repeat a few drawn ones, often tie-prone, so many gains tie
    exactly or within GAIN_EPS and the first sweep falls back to
    ``_best_move``; a large value plays the cloud, whose weights are all
    near 0.
    """
    ids = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=60, unique=True))
    value = st.sampled_from([10.0, 10.5, 11.0, 12.5, 20.0, 21.0, 60.0, 600.0]) | st.floats(10.0, 60.0)
    pool = draw(st.lists(value, min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return SimilarityView(Layer.CPU, tuple(sorted(ids)), tuple(rng.choice(pool) for _ in ids))


class TestCompleteLevelMatchesReferencePath:
    """A complete layer's level 0, by gathers and a pruned first sweep, against the row path."""

    @settings(max_examples=200, deadline=None)
    @given(complete_layers())
    def test_louvain_exactly_equal(self, view):
        ps = louvain_partition(view)
        edges = {
            (a, b): 1.0 / (1.0 + abs(va - vb))
            for (a, va), (b, vb) in combinations(zip(view.nodes, view.values), 2)
        }
        parts, q = reference_louvain(view.nodes, reference_adjacency(view.nodes, edges))
        assert [list(p) for p in ps.partitions.values()] == [list(p) for p in parts]
        assert ps.assignment == {d: pid for pid, p in enumerate(parts) for d in p}
        assert ps.modularity == q

    @settings(max_examples=200, deadline=None)
    @given(complete_layers())
    def test_phase1_and_aggregate_exactly_equal(self, view):
        weights = view.weights()
        strength = [sum_in_order(row) for row in weights]
        rows = level0_rows(view)
        loops = [0.0] * len(rows)
        assert strength == _strengths(rows, loops)
        comm, moved = _phase1_complete(weights, view.values, strength)
        assert (comm, moved) == frozen_phase1(dict_rows(rows), loops)
        if moved:
            assert _aggregate_complete(weights, strength, comm) == _aggregate(rows, loops, strength, comm)


class TestKeptSumsFollowEveryMove:
    """A complete layer's kept sums hold, after every move, the keys a re-sum finds.

    Only complete layers keep sums; ``_phase1`` re-sums rows, which
    ``TestPhase1MatchesFrozenReference`` checks. ``_later_sweeps`` is
    wrapped so that each ``spread`` and ``resum`` is checked against
    ``_row_links`` on the level's rows: a re-sum must be the row-order sum
    bit for bit, and a kept sum must have the same keys and nearly the
    same value. A stale key, such as a community that emptied, would offer
    a move the row path never sees. After each ``spread`` every node is
    also re-summed, so each community's kept getter must follow every move,
    even where no later decision re-sums.
    """

    @staticmethod
    def run_checked(phase1, rows):
        checked = []

        def later_sweeps(comm, strength, comm_strength, w, kept, resum, spread):
            def check():
                for row, links in zip(rows, kept):
                    want = _row_links(row, comm)
                    assert links.keys() == want.keys()
                    assert all(math.isclose(links[c], want[c], rel_tol=1e-12, abs_tol=1e-15) for c in want)
                checked.append(len(comm))

            def checked_resum(i):
                links = resum(i)
                assert links == _row_links(rows[i], comm)
                return links

            def checked_spread(i, ci, best_c):
                spread(i, ci, best_c)
                check()
                assert [resum(j) for j in range(len(rows))] == [_row_links(row, comm) for row in rows]

            check()
            original(comm, strength, comm_strength, w, kept, checked_resum, checked_spread)

        original = partitioner._later_sweeps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitioner, "_later_sweeps", later_sweeps)
            result = phase1()
        return result, checked

    @settings(max_examples=200, deadline=None)
    @given(complete_layers())
    def test_complete_level(self, view):
        weights = view.weights()
        strength = [sum_in_order(row) for row in weights]
        rows = level0_rows(view)
        (comm, moved), checked = self.run_checked(lambda: _phase1_complete(weights, view.values, strength), rows)
        assert bool(checked) == moved and (comm, moved) == _phase1(rows, strength)

    @pytest.mark.parametrize("layer", RESOURCE_LAYERS)
    def test_generated_layer(self, layer):
        # the drawn layers' few repeated values rarely move a node after the
        # first sweep; SMALL seed 0's layers move 18-23 nodes each there
        topology = generate_scenario(ScenarioConfig(seed=0).with_scale("SMALL")).topology()
        view = build_multilayer(topology).intra_edges[layer]
        weights = view.weights()
        strength = [sum_in_order(row) for row in weights]
        rows = level0_rows(view)
        (comm, moved), checked = self.run_checked(lambda: _phase1_complete(weights, view.values, strength), rows)
        assert len(checked) > 10 and (comm, moved) == _phase1(rows, strength)


def near_tie_layer():
    """Five devices on which the first sweep's top candidate is not ``_best_move``'s.

    From singletons, node 0 (value 10.0) gains 7e-18 more by joining node 2
    (9.0) than node 1 (11.93999...), less than GAIN_EPS, so ``_best_move``
    keeps node 1, the earlier label. Node 1 has the least strength, so its
    pruning bound equals its gain and comes within GAIN_EPS of the top.
    """
    return SimilarityView(Layer.CPU, (0, 1, 2, 3, 4), (10.0, 11.93999472050141, 9.0, 8.3, 8.2))


class TestFirstSweepNearTie:
    def test_near_tie_is_decided_by_best_move(self):
        view = near_tie_layer()
        weights = view.weights()
        strength = [sum_in_order(row) for row in weights]
        w = sum_in_order(strength) / 2.0
        join = [weights[0][c] / w - strength[c] * strength[0] / (2.0 * w * w) for c in range(5)]
        assert max(join[3:]) < join[1] < join[2] < join[1] + GAIN_EPS
        assert min(strength) == strength[1]
        expected = frozen_phase1(dict_rows(level0_rows(view)), [0.0] * 5)
        assert _phase1_complete(weights, view.values, strength) == expected == ([1, 1, 4, 4, 4], True)


class TestNeverBelowSingletonsProperty:
    @settings(max_examples=200, deadline=None)
    @given(infrastructures())
    def test_louvain_and_feature_partition_at_least_singletons(self, infra):
        devices, links = infra
        graph = build_multilayer(Topology(devices, links))
        layer_sets = {}
        for layer, view in graph.intra_edges.items():
            ps = louvain_partition(view)
            assert ps.modularity >= modularity(view, {n: n for n in view.nodes})
            singles = list(range(len(view.nodes)))
            loops = [0.0] * len(view.nodes)
            rows = level0_rows(view)
            singles_q = frozen_modularity_raw(dict_rows(rows), loops, singles)
            assert _singletons_modularity(loops, _strengths(rows, loops)) == singles_q
            layer_sets[layer] = ps

        cg = compress_graph([layer_sets[layer] for layer in RESOURCE_LAYERS], {d.id: d for d in devices})
        weights = {(a, b): 1.0 / (1.0 + cg.features[a].distance(cg.features[b])) for a, b in cg.edges}
        _, rows = index_rows(cg.nodes, weights)
        loops = [0.0] * len(rows)
        singles_q = frozen_modularity_raw(dict_rows(rows), loops, list(range(len(rows))))
        assert feature_partition(cg).modularity >= singles_q
        assert _singletons_modularity(loops, _strengths(rows, loops)) == singles_q

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_singletons_modularity_equals_full_pass_with_loops(self, graph):
        adj, loops = graph
        singles_q = frozen_modularity_raw(adj, loops, list(range(len(adj))))
        assert _singletons_modularity(loops, _strengths(packed(adj), loops)) == singles_q
