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
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .model import Device, NetworkLink


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


def similarity_weight(d_i: Device, d_j: Device, layer: Layer) -> float:
    """Similarity score 1 / (1 + |R_i - R_j|) in (0, 1]; 1 means identical."""
    if d_i.id == d_j.id:
        raise ValueError("similarity is defined for distinct devices")
    gap = abs(resource_value(d_i, layer) - resource_value(d_j, layer))
    return 1.0 / (1.0 + gap)


@dataclass(frozen=True)
class LayerView:
    """Single-layer weighted projection used by the partitioner."""

    layer: Layer
    nodes: tuple[int, ...]
    adjacency: Mapping[int, Mapping[int, float]]


@dataclass(frozen=True)
class MultilayerGraph:
    """Devices replicated across the four layers, with each layer's edges."""

    devices: tuple[Device, ...]
    intra_edges: Mapping[Layer, Mapping[tuple[int, int], float]]

    @property
    def layers(self) -> tuple[Layer, ...]:
        return (Layer.NETWORK, Layer.CPU, Layer.MEM, Layer.STORAGE)

    def device_ids(self) -> tuple[int, ...]:
        return tuple(d.id for d in self.devices)


def make_layer_view(
    layer: Layer,
    node_ids: Sequence[int],
    edges: Mapping[tuple[int, int], float],
) -> LayerView:
    """Assemble a LayerView from an undirected (i < j) edge-weight mapping."""
    adjacency: dict[int, dict[int, float]] = {i: {} for i in node_ids}
    for (i, j), w in edges.items():
        adjacency[i][j] = w
        adjacency[j][i] = w
    nodes = tuple(sorted(node_ids))
    return LayerView(layer, nodes, {i: dict(sorted(adjacency[i].items())) for i in nodes})


def build_multilayer(
    devices: Sequence[Device],
    links: Iterable[NetworkLink],
    min_weight: float = 0.0,
) -> MultilayerGraph:
    """Construct the four-layer graph.

    Network edges mirror the physical links with unit weight. Each resource
    layer is the complete similarity graph over all devices; edges with a
    weight strictly below ``min_weight`` are dropped (the default keeps all).
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
    intra: dict[Layer, dict[tuple[int, int], float]] = {Layer.NETWORK: network}
    for layer in RESOURCE_LAYERS:
        edges: dict[tuple[int, int], float] = {}
        for d_i, d_j in combinations(ordered, 2):
            w = similarity_weight(d_i, d_j, layer)
            if w >= min_weight:
                edges[(d_i.id, d_j.id)] = w
        intra[layer] = edges
    return MultilayerGraph(devices=ordered, intra_edges=intra)


def layer_view(graph: MultilayerGraph, layer: Layer) -> LayerView:
    """Weighted projection of one layer's edges."""
    if layer not in graph.layers:
        raise ValueError(f"unknown layer {layer!r}")
    return make_layer_view(layer, graph.device_ids(), graph.intra_edges[layer])
