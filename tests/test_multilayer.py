"""Multilayer graph construction and similarity weighting."""

from __future__ import annotations

import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogpart import partitioner
from fogpart.model import Device, NetworkLink, Topology
from fogpart.multilayer import Layer, LayerView, RESOURCE_LAYERS, build_multilayer, resource_value
from fogpart.partitioner import multilayer_resource_partition
from fogpart.scenario import ScenarioConfig, generate_scenario

from conftest import LAYER_FIELDS, infrastructures, make_view


def devices_with_speeds(speeds):
    return [Device(i, 10, s, 10.0 + i, 10.0 + i) for i, s in enumerate(speeds)]


def similarity(d_i, d_j, layer):
    """The weight ``build_multilayer``'s layer gives the pair, checked in both arrays."""
    view = build_multilayer(Topology([d_i, d_j], [])).intra_edges[layer]
    weights_a, weights_b = view.weights()
    assert weights_a[0] == weights_b[1] == 0.0 and weights_a[1] == weights_b[0]
    return weights_a[1]


def with_id(device, device_id):
    """``device``'s capacities under another id."""
    return Device(device_id, device.cores, device.cpu_speed, device.mem, device.storage)


def test_resource_value_reads_each_layer_field():
    d = Device(0, 4, 20.0, 10.0, 5.0)
    assert [resource_value(d, layer) for layer in RESOURCE_LAYERS] == [20.0, 10.0, 5.0]
    with pytest.raises(ValueError):
        resource_value(d, Layer.NETWORK)


class TestSimilarityWeight:
    def test_identical_resources_score_one(self):
        a = Device(0, 10, 20.0, 10.0, 10.0)
        b = Device(1, 10, 20.0, 12.0, 13.0)
        assert similarity(a, b, Layer.CPU) == 1.0

    def test_unit_gap_halves(self):
        a = Device(0, 10, 20.0, 10.0, 10.0)
        b = Device(1, 10, 21.0, 10.0, 10.0)
        assert similarity(a, b, Layer.CPU) == 0.5

    def test_range_endpoints(self):
        a = Device(0, 10, 20.0, 10.0, 10.0)
        b = Device(1, 10, 60.0, 10.0, 10.0)
        assert similarity(a, b, Layer.CPU) == pytest.approx(1.0 / 41.0)

    def test_symmetric_and_bounded(self):
        rng = random.Random(3)
        for _ in range(200):
            a = Device(0, 10, rng.uniform(20, 60), rng.uniform(10, 25), rng.uniform(10, 25))
            b = Device(1, 10, rng.uniform(20, 60), rng.uniform(10, 25), rng.uniform(10, 25))
            for layer in RESOURCE_LAYERS:
                w = similarity(a, b, layer)
                assert w == similarity(with_id(b, 0), with_id(a, 1), layer)
                assert 0.0 < w <= 1.0


def materialized(graph):
    """Each layer's nodes and rows or weight arrays, as the Louvain core reads them."""
    return {
        layer: (view.nodes, view.rows if isinstance(view, LayerView) else view.weights())
        for layer, view in graph.intra_edges.items()
    }


def small_infrastructure():
    devices = devices_with_speeds([20.0, 30.0, 40.0, 50.0])
    links = [
        NetworkLink(0, 1, 75000.0, 5.0),
        NetworkLink(1, 2, 75000.0, 5.0),
        NetworkLink(2, 3, 75000.0, 5.0),
    ]
    return Topology(devices, links)


class TestBuildMultilayer:
    def test_edge_counts(self):
        g = build_multilayer(small_infrastructure())
        assert len(g.intra_edges[Layer.NETWORK]) == 3
        for layer in RESOURCE_LAYERS:
            assert len(g.intra_edges[layer]) == 6  # complete graph on 4 nodes

    def test_network_weights_are_unit(self):
        g = build_multilayer(small_infrastructure())
        assert all(w == 1.0 for _, weights in g.intra_edges[Layer.NETWORK].rows for w in weights)

    def test_deterministic(self):
        # the order of devices and links, and each link's direction, change nothing
        topology = small_infrastructure()
        shuffled = Topology(
            reversed(list(topology.devices.values())),
            [NetworkLink(b, a, 75000.0, 5.0) for a, b in ((2, 3), (1, 2), (0, 1))],
        )
        assert materialized(build_multilayer(topology)) == materialized(build_multilayer(shuffled))


class TestLayerView:
    def test_network_view_mirrors_links(self):
        g = build_multilayer(small_infrastructure())
        view = g.intra_edges[Layer.NETWORK]
        assert view.nodes == (0, 1, 2, 3)
        assert view.rows == (
            ([1], array("d", [1.0])),
            ([0, 2], array("d", [1.0, 1.0])),
            ([1, 3], array("d", [1.0, 1.0])),
            ([2], array("d", [1.0])),
        )

    def test_rows_index_ascending_ids_in_ascending_order(self):
        view = make_view(Layer.CPU, [5, 1, 3], {(3, 5): 0.5, (1, 5): 0.25, (1, 3): 1.0})
        assert view.nodes == (1, 3, 5)
        assert [list(zip(*row)) for row in view.rows] == [
            [(1, 1.0), (2, 0.25)],
            [(0, 1.0), (2, 0.5)],
            [(0, 0.25), (1, 0.5)],
        ]
        assert len(view) == 3

    def test_every_device_in_every_layer(self):
        g = build_multilayer(small_infrastructure())
        assert list(g.intra_edges) == list(Layer)
        for view in g.intra_edges.values():
            assert view.nodes == (0, 1, 2, 3)


def dict_builder(topology):
    """Each layer's nodes and rows as ``build_multilayer`` built them as dicts.

    A frozen copy of the builder that stored each row as a position ->
    weight dict, filling the pairs k < j of a similarity layer once.
    """
    ordered = tuple(sorted(topology.devices.values(), key=lambda d: d.id))
    ids = tuple(d.id for d in ordered)
    index = {did: k for k, did in enumerate(ids)}
    layers = {Layer.NETWORK: [{index[n]: 1.0 for n in topology.adj[did]} for did in ids]}
    for layer in RESOURCE_LAYERS:
        vals = [getattr(d, LAYER_FIELDS[layer]) for d in ordered]
        rows = [{} for _ in ordered]
        for k, va in enumerate(vals):
            for j in range(k + 1, len(vals)):
                rows[k][j] = rows[j][k] = 1.0 / (1.0 + abs(va - vals[j]))
        layers[layer] = rows
    return ids, layers


class TestRowsMatchDictBuilder:
    @settings(max_examples=200, deadline=None)
    @given(infrastructures())
    def test_positions_and_weights_exactly_equal(self, infra):
        topology = Topology(*infra)
        ids, layers = dict_builder(topology)
        graph = build_multilayer(topology)
        assert list(graph.intra_edges) == list(layers)
        for layer, view in graph.intra_edges.items():
            assert view.nodes == ids
            assert len(view) == sum(len(row) for row in layers[layer]) // 2
            if layer == Layer.NETWORK:
                assert [positions for positions, _ in view.rows] == [list(row) for row in layers[layer]]
                assert [list(weights) for _, weights in view.rows] == [list(row.values()) for row in layers[layer]]
            else:
                # a complete layer: every other node, ascending, and 0.0 for the node itself
                assert [list(row) for row in layers[layer]] == [[j for j in range(len(ids)) if j != k] for k in range(len(ids))]
                assert [list(weights) for weights in view.weights()] == [
                    [row.get(j, 0.0) for j in range(len(ids))] for row in layers[layer]
                ]


def eager_resource_rows(ordered, layer):
    """A frozen copy of the builder that stored every resource layer's rows up front."""
    vals = [getattr(d, LAYER_FIELDS[layer]) for d in ordered]
    every = list(range(len(vals)))
    others = [every[:k] + every[k + 1 :] for k in every]
    rows = []
    for k, va in enumerate(vals):
        weights = array("d", [1.0 / (1.0 + abs(va - vb)) for vb in vals])
        del weights[k]
        rows.append((others[k], weights))
    return tuple(rows)


@st.composite
def fleets(draw):
    """1-40 devices with sparse ids and often repeated resources, in any order."""
    ids = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=40, unique=True))
    value = st.sampled_from([10.0, 12.5, 20.0, 21.0, 60.0]) | st.floats(10.0, 60.0)
    return draw(st.permutations([Device(i, 4, draw(value), draw(value), draw(value)) for i in ids]))


class TestRowsBuiltOnRead:
    @settings(max_examples=200, deadline=None)
    @given(fleets())
    def test_weights_equal_the_eager_builder_bit_for_bit(self, devices):
        # weights row k is row k's weights with a 0.0 put back at position k
        graph = build_multilayer(Topology(devices, []))
        ordered = sorted(devices, key=lambda d: d.id)
        for layer in RESOURCE_LAYERS:
            view = graph.intra_edges[layer]
            expected = eager_resource_rows(ordered, layer)
            weights = view.weights()
            assert type(weights) is list and len(weights) == len(expected)
            for k, (want_positions, want_weights) in enumerate(expected):
                row = weights[k]
                assert row.format == "d" and len(row) == len(weights) and row[k] == 0.0
                assert want_positions == [j for j in range(len(weights)) if j != k]
                assert row[:k].tobytes() + row[k + 1 :].tobytes() == want_weights.tobytes()
            assert len(view) == sum(len(positions) for positions, _ in expected) // 2

    def test_each_call_builds_fresh_weights(self):
        view = build_multilayer(small_infrastructure()).intra_edges[Layer.CPU]
        weights = view.weights()
        weights[0][1] = 99.0  # a caller may keep or change what it got
        assert view.weights() is not weights and view.weights()[0][1] == 1.0 / 11.0

    @staticmethod
    def traced_partition(fork_min_devices, monkeypatch):
        """(bytes of one resource layer's weights, traced bytes after the build, traced peak) at 401 devices."""
        n = 400
        cfg = ScenarioConfig(device_count=n, gateway_count=n // 4).with_scale("LARGE")
        topology = generate_scenario(cfg).topology()
        monkeypatch.setattr(partitioner, "FORK_MIN_DEVICES", fork_min_devices)
        tracemalloc.start()
        try:
            graph = build_multilayer(topology)
            built = tracemalloc.get_traced_memory()[0]
            multilayer_resource_partition(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return n * (n - 1) * 8, built, peak

    def test_partitioning_holds_one_resource_layer_at_a_time(self, forks, monkeypatch):
        # above the device count, so the layers are partitioned in this process
        one_layer, built, peak = self.traced_partition(1_000, monkeypatch)
        # on Python 3.11, storing every layer's rows up front held 4.3 layers
        # after the build and peaked at 5.0; built on read, 0.1 and 1.7 (one
        # array per row, or one mirrored matrix per layer)
        assert not forks
        assert built < one_layer / 4
        assert peak < 3 * one_layer

    def test_forked_partitioning_holds_no_resource_layer_here(self, forks, monkeypatch):
        # each resource layer's weights live in its own child; this process peaked at 0.3 layers
        one_layer, built, peak = self.traced_partition(0, monkeypatch)
        assert len(forks) == len(RESOURCE_LAYERS)
        assert built < one_layer / 4
        assert peak < one_layer
