"""Four-layer fog graph: physical topology plus resource-similarity layers.

One layer mirrors the physical network; the CPU, memory, and storage layers
are complete graphs over the same devices whose edge weights encode how
close two devices are in that single resource dimension. The coupling of
a device's replicas across layers is not stored as edges; compression
links two layer partitions exactly when they share a device.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence, TypeVar

from .model import Device, NetworkLink


N = TypeVar("N")


class Layer(IntEnum):
    NETWORK = 0
    CPU = 1
    MEM = 2
    STORAGE = 3


RESOURCE_LAYERS: tuple[Layer, ...] = (Layer.CPU, Layer.MEM, Layer.STORAGE)


class DuplicateDeviceError(ValueError):
    pass


class DanglingLinkError(ValueError):
    pass


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

    ``nodes`` holds the device ids ascending. ``rows[k]`` maps the position
    in ``nodes`` of each neighbour of ``nodes[k]`` to the edge weight, in
    ascending position order; every undirected edge sits in both rows, and
    no row holds its own position. ``len(view)`` is the undirected edge count.
    """

    layer: Layer
    nodes: tuple[int, ...]
    rows: tuple[dict[int, float], ...]

    def __len__(self) -> int:
        return sum(map(len, self.rows)) // 2


@dataclass(frozen=True)
class MultilayerGraph:
    """Devices replicated across the four layers, with each layer's view."""

    devices: tuple[Device, ...]
    intra_edges: Mapping[Layer, LayerView]


def index_rows(
    node_ids: Iterable[N],
    edges: Mapping[tuple[N, N], float],
) -> tuple[tuple[N, ...], tuple[dict[int, float], ...]]:
    """Ascending node ids and their index-ordered rows, from undirected edges."""
    nodes = tuple(sorted(node_ids))
    index = {nid: k for k, nid in enumerate(nodes)}
    rows: list[dict[int, float]] = [{} for _ in nodes]
    for (i, j), w in edges.items():
        rows[index[i]][index[j]] = w
        rows[index[j]][index[i]] = w
    return nodes, tuple(dict(sorted(row.items())) for row in rows)


def build_multilayer(
    devices: Sequence[Device],
    links: Iterable[NetworkLink],
    min_weight: float = 0.0,
) -> MultilayerGraph:
    """Construct the four-layer graph.

    Network edges mirror the physical links with unit weight. Each resource
    layer is the complete similarity graph over all devices, weighted
    1 / (1 + |R_i - R_j|) in (0, 1], where 1 means identical resources;
    edges with a weight strictly below ``min_weight`` are dropped (the
    default keeps all).
    """
    seen: set[int] = set()
    for d in devices:
        if d.id in seen:
            raise DuplicateDeviceError(f"device id {d.id} appears twice")
        seen.add(d.id)

    network: dict[tuple[int, int], float] = {}
    for link in links:
        if link.a not in seen or link.b not in seen:
            raise DanglingLinkError(f"link {link.key} references an unknown device")
        network[link.key] = 1.0

    ordered = tuple(sorted(devices, key=lambda d: d.id))
    ids = tuple(d.id for d in ordered)
    intra: dict[Layer, LayerView] = {
        Layer.NETWORK: LayerView(Layer.NETWORK, *index_rows(ids, network))
    }
    for layer in RESOURCE_LAYERS:
        vals = [resource_value(d, layer) for d in ordered]
        rows: list[dict[int, float]] = [{} for _ in ordered]
        # filling pairs k < j in order leaves every row ascending
        for k, va in enumerate(vals):
            row = rows[k]
            for j in range(k + 1, len(vals)):
                w = 1.0 / (1.0 + abs(va - vals[j]))
                if w >= min_weight:
                    row[j] = w
                    rows[j][k] = w
        intra[layer] = LayerView(layer, ids, tuple(rows))
    return MultilayerGraph(devices=ordered, intra_edges=intra)
