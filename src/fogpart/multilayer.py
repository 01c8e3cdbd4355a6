"""Four-layer fog graph: physical topology plus resource-similarity layers.

One layer mirrors the physical network; the CPU, memory, and storage layers
are complete graphs over the same devices whose edge weights encode how
close two devices are in that single resource dimension. The coupling of
a device's replicas across layers is not stored as edges; compression
links two layer partitions exactly when they share a device.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, TypeVar

from .model import Device, Topology


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


@dataclass(frozen=True)
class LayerView:
    """One layer as index-ordered rows, the form the Louvain core reads.

    ``nodes`` holds the device ids ascending. ``rows[k]`` is the ``Row`` of
    ``nodes[k]``: the positions in ``nodes`` of its neighbours, ascending, and
    an ``array('d')`` of the edge weights in the same order. Every undirected
    edge sits in both rows, and no row holds its own position. Rows may share
    one position list. ``len(view)`` is the undirected edge count.
    """

    layer: Layer
    nodes: tuple[int, ...]
    rows: tuple[Row, ...]

    def __len__(self) -> int:
        return sum(len(positions) for positions, _ in self.rows) // 2


@dataclass(frozen=True)
class MultilayerGraph:
    """Devices replicated across the four layers, with each layer's view."""

    devices: tuple[Device, ...]
    intra_edges: Mapping[Layer, LayerView]


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
    1 / (1 + |R_i - R_j|) in (0, 1], where 1 means identical resources.
    """
    ordered = tuple(sorted(topology.devices.values(), key=lambda d: d.id))
    ids = tuple(d.id for d in ordered)
    index = {did: k for k, did in enumerate(ids)}
    # ascending neighbour ids give ascending positions, as every row needs
    network = tuple(pack_row({index[n]: 1.0 for n in topology.adj[did]}) for did in ids)
    intra: dict[Layer, LayerView] = {Layer.NETWORK: LayerView(Layer.NETWORK, ids, network)}
    # every complete layer shares one position list per node: all others, ascending
    every = list(range(len(ids)))
    others = [every[:k] + every[k + 1 :] for k in every]
    for layer in RESOURCE_LAYERS:
        vals = [resource_value(d, layer) for d in ordered]
        rows = []
        for k, va in enumerate(vals):
            # each row computes its own weights; abs(a - b) == abs(b - a), so
            # the two rows of a pair hold the same float
            weights = array("d", [1.0 / (1.0 + abs(va - vb)) for vb in vals])
            del weights[k]
            rows.append((others[k], weights))
        intra[layer] = LayerView(layer, ids, tuple(rows))
    return MultilayerGraph(devices=ordered, intra_edges=intra)
