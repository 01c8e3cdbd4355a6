"""Four-layer fog graph: physical topology plus resource-similarity layers.

One layer mirrors the physical network; the CPU, memory, and storage layers
are complete graphs over the same devices whose edge weights encode how
close two devices are in that single resource dimension. The coupling of
a device's replicas across layers is not stored as edges; compression
links two layer partitions exactly when they share a device.

A complete layer holds n(n-1) weights, so the graph keeps only each
device's resource value there (``SimilarityView``). A resource layer's
weights are built when ``SimilarityView.weights`` is called, and live as
long as the caller holds them: ``partitioner.louvain_partition`` builds them
once, for one Louvain run, so a process that partitions holds at most one
resource layer's weights at a time.
"""

from __future__ import annotations

from array import array
from enum import IntEnum
from typing import Iterable, Mapping, NamedTuple, TypeVar

from .model import Device, FrozenRecord, Topology


N = TypeVar("N")

#: A node's neighbour positions and, in an ``array('d')`` of the same order,
#: the weights of the links to them.
Row = tuple[list[int], array]


class Layer(IntEnum):
    NETWORK = 0
    CPU = 1
    MEM = 2
    STORAGE = 3


RESOURCE_LAYERS: tuple[Layer, ...] = (Layer.CPU, Layer.MEM, Layer.STORAGE)


def resource_value(device: Device, layer: Layer) -> float:
    """The device's scalar resource in a given resource layer."""
    if layer == Layer.CPU:
        return device.cpu_speed
    if layer == Layer.MEM:
        return device.mem
    if layer == Layer.STORAGE:
        return device.storage
    raise ValueError(f"layer {layer!r} carries no scalar resource")


class LayerView(FrozenRecord):
    """One layer as stored index-ordered rows, the form the Louvain core reads.

    ``nodes`` holds the device ids ascending. ``rows[k]`` is the ``Row`` of
    ``nodes[k]``: the positions in ``nodes`` of its neighbours, ascending, and
    an ``array('d')`` of the edge weights in the same order. Every undirected
    edge sits in both rows, and no row holds its own position.
    ``len(view)`` is the undirected edge count.

    The network layer is stored this way. A resource layer is a
    ``SimilarityView``: a complete graph, kept as one value per device.
    """

    __slots__ = ("layer", "nodes", "rows")

    def __init__(self, layer: Layer, nodes: tuple[int, ...], rows: tuple[Row, ...]) -> None:
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return sum(len(positions) for positions, _ in self.rows) // 2


class SimilarityView(FrozenRecord):
    """A complete resource layer, kept as its devices' values, ascending by id.

    The layer is the complete graph weighted 1 / (1 + |R_i - R_j|).
    ``weights()`` builds its weights; ``len(view)`` is n(n-1)/2 and builds
    nothing.
    """

    __slots__ = ("layer", "nodes", "values")

    def __init__(self, layer: Layer, nodes: tuple[int, ...], values: tuple[float, ...]) -> None:
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def weights(self) -> list[array]:
        """Every node's weights to all n nodes, with 0.0 in its own slot.

        Entry j of array k is the weight between ``nodes[k]`` and
        ``nodes[j]``. Each call builds every array afresh; nothing keeps
        them, so they are freed when the caller drops them. Each array
        computes its own weights, and abs(a - b) == abs(b - a), so the
        two arrays of a pair hold the same float.
        """
        vals = self.values
        rows = []
        for k, va in enumerate(vals):
            weights = array("d", [1.0 / (1.0 + abs(va - vb)) for vb in vals])
            weights[k] = 0.0
            rows.append(weights)
        return rows

    def __len__(self) -> int:
        n = len(self.nodes)
        return n * (n - 1) // 2


#: A layer in either form.
View = LayerView | SimilarityView


class MultilayerGraph(NamedTuple):
    """Devices replicated across the four layers, with each layer's view."""

    devices: tuple[Device, ...]
    intra_edges: Mapping[Layer, View]


def pack_row(row: Mapping[int, float]) -> Row:
    """A ``Row`` holding the entries of ``row`` in its iteration order."""
    return list(row), array("d", row.values())


def index_rows(
    node_ids: Iterable[N],
    edges: Mapping[tuple[N, N], float],
) -> tuple[tuple[N, ...], tuple[Row, ...]]:
    """Ascending node ids and their index-ordered rows, from undirected edges."""
    nodes = tuple(sorted(node_ids))
    index = {nid: k for k, nid in enumerate(nodes)}
    rows: list[dict[int, float]] = [{} for _ in nodes]
    for (i, j), w in edges.items():
        rows[index[i]][index[j]] = w
        rows[index[j]][index[i]] = w
    return nodes, tuple(pack_row(dict(sorted(row.items()))) for row in rows)


def build_multilayer(topology: Topology) -> MultilayerGraph:
    """Construct the four-layer graph.

    Network edges mirror the physical links with unit weight. Each resource
    layer is the complete similarity graph over all devices, weighted
    1 / (1 + |R_i - R_j|) in (0, 1], where 1 means identical resources;
    its weights are built only when read (``SimilarityView.weights``).
    """
    ordered = tuple(sorted(topology.devices.values(), key=lambda d: d.id))
    ids = tuple(d.id for d in ordered)
    index = {did: k for k, did in enumerate(ids)}
    # ascending neighbour ids give ascending positions, as every row needs
    network = tuple(pack_row({index[n]: 1.0 for n in topology.adj[did]}) for did in ids)
    intra: dict[Layer, View] = {Layer.NETWORK: LayerView(Layer.NETWORK, ids, network)}
    for layer in RESOURCE_LAYERS:
        intra[layer] = SimilarityView(layer, ids, tuple(resource_value(d, layer) for d in ordered))
    return MultilayerGraph(devices=ordered, intra_edges=intra)
