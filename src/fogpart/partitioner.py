"""Modularity maximization over fog layers: Louvain, compression, feature clusters.

The quality score Q of a partition compares intra-partition edge weight to
its expectation under a strength-preserving null model. All sums here are
over ordered node pairs, so each undirected edge is counted twice and the
normalizer is 2W (W = total undirected edge weight). Aggregated super-nodes
carry their internal ordered-pair mass as a self-loop so that the score of
a partition is identical before and after aggregation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence

from .model import Device, sum_in_order
from .multilayer import Layer, MultilayerGraph, RESOURCE_LAYERS, Row, View, index_rows, pack_row

#: Minimum improvement treated as a strictly positive modularity gain.
GAIN_EPS = 1e-12


@dataclass(frozen=True)
class PartitionSet:
    """Disjoint device clusters of one layer, with the partition's modularity."""

    layer: Layer
    assignment: Mapping[int, int]
    partitions: Mapping[int, frozenset[int]]
    modularity: float


@dataclass(frozen=True)
class FeatureTriplet:
    """Per-partition averages of CPU speed (MI/s), memory (GB), storage (TB)."""

    avg_cpu: float
    avg_mem: float
    avg_storage: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.avg_cpu, self.avg_mem, self.avg_storage)

    def distance(self, other: "FeatureTriplet") -> float:
        return math.dist(self.as_tuple(), other.as_tuple())


#: A compressed-graph node: (resource layer, partition id within that layer).
CompressedNode = tuple[Layer, int]


@dataclass(frozen=True)
class CompressedGraph:
    """Resource-layer partitions as nodes, linked when they share a device."""

    nodes: tuple[CompressedNode, ...]
    edges: tuple[tuple[CompressedNode, CompressedNode], ...]
    members: Mapping[CompressedNode, frozenset[int]]
    features: Mapping[CompressedNode, FeatureTriplet]


@dataclass(frozen=True)
class FeaturePartitionSet:
    """Disjoint clusters of layer partitions with similar average resources."""

    feature_partitions: Mapping[int, frozenset[CompressedNode]]
    device_index: Mapping[int, frozenset[int]]
    features: Mapping[CompressedNode, FeatureTriplet]
    modularity: float

    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.feature_partitions))


# ---------------------------------------------------------------------------
# Louvain core on contiguous integer nodes.
#
# adj[i] is node i's Row (see ``multilayer.LayerView``: symmetric, no self
# entries); loops[i] is the node's ordered-pair internal mass (zero on raw
# graphs, 2x the merged undirected intra weight after aggregation).
# ---------------------------------------------------------------------------


def _strengths(adj: Sequence[Row], loops: Sequence[float]) -> list[float]:
    return [sum_in_order(weights) + loop for (_, weights), loop in zip(adj, loops)]


def _singletons_modularity(loops: Sequence[float], strength: Sequence[float]) -> float:
    """Q of the all-singletons partition, without a link pass.

    Rows hold no self entries, so no link is intra-community and each node's
    term is ``loops[i] - strength[i] ** 2 / two_w``. The terms are summed in
    node order, the order ``_aggregate`` sums singleton communities in, so
    the two agree bit for bit.
    """
    two_w = sum_in_order(strength)
    if two_w <= 0.0:
        return 0.0
    return sum_in_order([loop - s**2 / two_w for loop, s in zip(loops, strength)]) / two_w


#: Scale of the rounding bound on gains from kept link sums: 8 units of
#: roundoff (8 * 2**-53); see ``_phase1``.
_ROUND = 2.0**-50


def _row_links(row: Row, comm: Sequence[int]) -> dict[int, float]:
    """A node's link weight into each neighbouring community, summed in row order."""
    links: dict[int, float] = {}
    for j, wij in zip(*row):
        cj = comm[j]
        links[cj] = links.get(cj, 0.0) + wij
    return links


def _best_move(
    links: Mapping[int, float],
    ci: int,
    node_strength: float,
    comm_strength: Sequence[float],
    w: float,
    tol: float,
) -> int | None:
    """The community a node moves to, or None if a comparison is too close to call.

    The gain of pulling the isolated node into community c is
    ``links[c] / w - comm_strength[c] * node_strength / (2 w^2)``: ``links[c]``
    is its undirected weight into c, ``comm_strength`` excludes the node and
    ``w`` is the graph's undirected total weight. The node's own community
    ``ci`` is the starting best; the candidates in ``links`` are tried in
    ascending label order, and one replaces the best only when its gain is
    larger than ``best_gain + GAIN_EPS``, so ties keep the earlier choice.
    Returns None as soon as some ``gain - (best_gain + GAIN_EPS)`` lies
    within ``tol`` of zero; a negative ``tol`` trusts every comparison.
    """
    ww2 = 2.0 * w * w
    best_c = ci
    best_gain = links.get(ci, 0.0) / w - comm_strength[ci] * node_strength / ww2
    for c in sorted(links):
        if c == ci:
            continue
        gain = links[c] / w - comm_strength[c] * node_strength / ww2
        margin = gain - (best_gain + GAIN_EPS)
        if -tol <= margin <= tol:
            return None
        if margin > 0.0:
            best_c, best_gain = c, gain
    return best_c


def _phase1(adj: Sequence[Row], strength: Sequence[float]) -> tuple[list[int], bool]:
    """Sequential local moves from singletons; returns (community labels, moved?).

    ``strength[i]`` is node i's row sum plus its loop mass (``_strengths``).

    Nodes are swept in ascending index order until a full sweep makes no
    move. A node changes community only for a gain over staying put larger
    than GAIN_EPS; ties keep the current community (``_best_move``).

    The first sweep sums every node's links into each neighbouring community
    from its row, in row order. If anything moved, the phase then keeps those
    sums per node, with the number of neighbours behind each: one pass builds
    them, and each later move of a node updates its neighbours' entries,
    subtracting each link from the old community and adding it to the new
    one, and dropping an entry whose count reaches 0. The kept keys are thus
    exactly the communities a re-sum would find.

    A kept sum can differ from the row-order re-sum in its last bits, so it
    decides a node only when no comparison is close. With u = 2**-53,
    weights >= 0 (and no underflow), s the node's strength, d its degree and
    t the moves made since its sums were last exact (``moves - fresh[i]``):
    - every link sum, kept or re-summed, lies in [0, s] (up to roundoff);
    - the re-sum of up to d terms is within d*u*s of the real sum, and so is
      the kept sum when built or refreshed from it; each of the at most 2t
      later updates rounds once, by at most u*s;
    - so the two sums differ by at most (2d + 2t)*u*s. Each gain
      ``k/w - c*s/(2w^2)`` has both terms in [0, s/w] (community strengths
      are at most 2w) and the second term is computed identically on both
      paths; the division and the subtraction add 2u*s/w more per path, so
      the gains differ by at most u*(s/w)*(2d + 2t + 4);
    - the threshold ``best_gain + GAIN_EPS`` inherits that error plus
      2u*(s/w + GAIN_EPS) from its own rounding.
    A comparison whose kept margin exceeds u*((s/w)*(4d + 4t + 10) +
    2*GAIN_EPS) therefore has the sign of the exact one. ``tol`` is at least
    twice that, which also covers the roundoff of computing it. When some
    margin is within ``tol``, the node's row is re-summed in row order, its
    kept sums are replaced by the re-sums, and the decision is taken from
    them: the same path and the same floats as a full re-sum. Every decision, and with
    it every label, therefore equals that of re-summing each row on every
    sweep.
    """
    n = len(adj)
    comm = list(range(n))
    two_w = sum_in_order(strength)
    w = two_w / 2.0
    if two_w <= 0.0 or 2.0 * w * w == 0.0:
        return comm, False  # no weight, or so little that every gain divides by zero
    comm_strength = list(strength)
    moved = False
    for i in range(n):
        ci = comm[i]
        comm_strength[ci] -= strength[i]
        best_c = _best_move(_row_links(adj[i], comm), ci, strength[i], comm_strength, w, -1.0)
        comm[i] = best_c
        comm_strength[best_c] += strength[i]
        moved = moved or best_c != ci
    if not moved:
        return comm, False

    # a complete layer's rows are made on each read (``multilayer.CompleteRows``),
    # so each row is read once here and later only to re-sum it or spread a move
    kept: list[dict[int, float]] = []
    count: list[Counter[int]] = []
    degree: list[int] = []
    for row in adj:
        kept.append(_row_links(row, comm))
        count.append(Counter(map(comm.__getitem__, row[0])))
        degree.append(len(row[0]))
    moves = 0
    fresh = [0] * n
    while moved:
        moved = False
        for i in range(n):
            ci = comm[i]
            s_i = strength[i]
            comm_strength[ci] -= s_i
            tol = _ROUND * (s_i / w * (degree[i] + moves - fresh[i] + 3) + GAIN_EPS)
            best_c = _best_move(kept[i], ci, s_i, comm_strength, w, tol)
            if best_c is None:
                kept[i] = _row_links(adj[i], comm)
                fresh[i] = moves
                best_c = _best_move(kept[i], ci, s_i, comm_strength, w, -1.0)
            comm[i] = best_c
            comm_strength[best_c] += s_i
            if best_c == ci:
                continue
            moved = True
            moves += 1
            for j, wij in zip(*adj[i]):
                links, nbrs = kept[j], count[j]
                if nbrs[ci] == 1:
                    del links[ci], nbrs[ci]
                else:
                    nbrs[ci] -= 1
                    links[ci] -= wij
                links[best_c] = links.get(best_c, 0.0) + wij
                nbrs[best_c] += 1
    return comm, True


def _aggregate(
    adj: Sequence[Row],
    loops: Sequence[float],
    strength: Sequence[float],
    comm: Sequence[int],
) -> tuple[list[Row], list[float], list[int], float]:
    """Collapse communities into super-nodes, and score the partition, in one walk.

    Returns the super-nodes' rows and loop masses, each node's super-node
    (communities numbered in ascending label order) and the modularity Q of
    ``comm``. A super-node's row lists its neighbours in the order the walk
    first reaches them; the loop mass keeps the ordered-pair mass inside it.
    ``strength`` is what ``_phase1`` read, and its sum is positive.

    Q's float additions keep the order of a separate modularity pass:
    ``sig_in`` starts from every node's loop mass, in node order, and only
    then takes the intra-community links in (node, row) order, while each
    super-node's loop mass adds a node's loop mass just before that node's
    links. The final sum runs over the communities in order of first
    appearance in ``comm``.
    """
    remap = {lab: idx for idx, lab in enumerate(sorted(set(comm)))}
    k = len(remap)
    sub = [remap[c] for c in comm]
    sig_tot = [0.0] * k
    sig_in = [0.0] * k
    for c, s, loop in zip(sub, strength, loops):
        sig_tot[c] += s
        sig_in[c] += loop
    new_rows: list[dict[int, float]] = [{} for _ in range(k)]
    new_loops = [0.0] * k
    for (positions, weights), ci, loop in zip(adj, sub, loops):
        row = new_rows[ci]
        inside = new_loops[ci] + loop
        intra = sig_in[ci]
        for j, wij in zip(positions, weights):
            cj = sub[j]
            if ci == cj:
                # ordered pair (i, j); the mirrored (j, i) pair adds the rest
                inside += wij
                intra += wij
            else:
                row[cj] = row.get(cj, 0.0) + wij
        new_loops[ci] = inside
        sig_in[ci] = intra
    two_w = sum_in_order(strength)
    q = sum_in_order([sig_in[c] - sig_tot[c] ** 2 / two_w for c in dict.fromkeys(sub)]) / two_w
    return [pack_row(row) for row in new_rows], new_loops, sub, q


def _louvain(
    node_ids: Sequence[Hashable],
    adj: Sequence[Row],
) -> tuple[list[frozenset[Hashable]], float]:
    """Two-phase Louvain; returns the best partition seen and its modularity.

    ``adj`` holds the index-ordered rows of ``node_ids`` (see ``index_rows``
    and ``multilayer.CompleteRows``) and is read as it is. Each iterative
    step runs the local-move phase and then aggregates the communities into
    a new network; the loop stops at the first step that fails to improve
    modularity.
    """
    loops = [0.0] * len(node_ids)
    strength = _strengths(adj, loops)
    groups: list[frozenset[Hashable]] = [frozenset([nid]) for nid in node_ids]

    best_parts = list(groups)
    best_q = _singletons_modularity(loops, strength)
    while True:
        comm, moved = _phase1(adj, strength)
        if not moved:
            break
        adj, loops, sub, q = _aggregate(adj, loops, strength, comm)
        merged: list[set[Hashable]] = [set() for _ in adj]
        for group, c in zip(groups, sub):
            merged[c].update(group)
        groups = [frozenset(g) for g in merged]
        if q > best_q + GAIN_EPS:
            best_parts = list(groups)
            best_q = q
        else:
            break
        strength = _strengths(adj, loops)
    return best_parts, best_q


def _label_partitions(parts: Iterable[frozenset]) -> list[frozenset]:
    """Deterministic partition ids: ascending by smallest member."""
    return sorted(parts, key=lambda p: min(p))


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def louvain_partition(view: View) -> PartitionSet:
    """Two-phase Louvain partitioning of one layer.

    The sweep order is fixed (ascending device id), which makes the result
    deterministic. ``view.rows`` is read once; a resource layer builds its
    rows on that read, and they are freed when this call returns.
    """
    if not view.nodes:
        raise ValueError("cannot partition an empty layer view")
    parts, q = _louvain(view.nodes, view.rows)
    partitions: dict[int, frozenset[int]] = {}
    assignment: dict[int, int] = {}
    for pid, members in enumerate(_label_partitions(parts)):
        partitions[pid] = members
        for dev in members:
            assignment[dev] = pid
    return PartitionSet(view.layer, assignment, partitions, q)


def partition_feature(devices: Iterable[Device]) -> FeatureTriplet:
    """Componentwise arithmetic mean of the member devices' resource triplets.

    The sums run in ascending device id, so the mean does not depend on the
    order ``devices`` yields.
    """
    devs = sorted(devices, key=lambda d: d.id)
    n = len(devs)
    return FeatureTriplet(
        avg_cpu=sum_in_order(d.cpu_speed for d in devs) / n,
        avg_mem=sum_in_order(d.mem for d in devs) / n,
        avg_storage=sum_in_order(d.storage for d in devs) / n,
    )


def compress_graph(
    partition_sets: Sequence[PartitionSet],
    devices: Mapping[int, Device],
) -> CompressedGraph:
    """Merge resource-layer partitions into nodes linked by shared devices.

    Because inter-layer edges connect replicas of the same device, two
    partitions from different layers are adjacent iff they share at least
    one device. Nodes from the same layer are never adjacent and there are
    no self-edges.
    """
    if not partition_sets:
        raise ValueError("need at least one partition set to compress")

    nodes: list[CompressedNode] = []
    members: dict[CompressedNode, frozenset[int]] = {}
    for ps in partition_sets:
        for pid, devs in sorted(ps.partitions.items()):
            node = (ps.layer, pid)
            nodes.append(node)
            members[node] = devs

    edges: set[tuple[CompressedNode, CompressedNode]] = set()
    for ps_a, ps_b in combinations(partition_sets, 2):
        for dev in ps_a.assignment:
            if dev not in ps_b.assignment:
                continue
            node_a = (ps_a.layer, ps_a.assignment[dev])
            node_b = (ps_b.layer, ps_b.assignment[dev])
            edges.add((node_a, node_b) if node_a < node_b else (node_b, node_a))

    features = {node: partition_feature(devices[d] for d in devs) for node, devs in members.items()}
    return CompressedGraph(
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges)),
        members=members,
        features=features,
    )


def feature_partition(cg: CompressedGraph) -> FeaturePartitionSet:
    """Louvain over the compressed graph, weighted by feature similarity.

    Edge weights are 1 / (1 + euclidean feature distance) so that clusters
    group layer partitions with similar average resources. The result keeps
    the compressed graph's features, which placement scores services against.
    """
    if not cg.nodes:
        raise ValueError("cannot feature-partition an empty compressed graph")
    weights = {(a, b): 1.0 / (1.0 + cg.features[a].distance(cg.features[b])) for a, b in cg.edges}
    parts, q = _louvain(*index_rows(cg.nodes, weights))
    feature_partitions: dict[int, frozenset[CompressedNode]] = {}
    device_index: dict[int, frozenset[int]] = {}
    for fp_id, nodes in enumerate(_label_partitions(parts)):
        feature_partitions[fp_id] = nodes
        devs: set[int] = set()
        for node in nodes:
            devs.update(cg.members[node])
        device_index[fp_id] = frozenset(devs)
    return FeaturePartitionSet(feature_partitions, device_index, cg.features, q)


def multilayer_resource_partition(
    graph: MultilayerGraph,
) -> tuple[FeaturePartitionSet, PartitionSet, dict[Layer, PartitionSet]]:
    """End-to-end partitioning pipeline.

    Partitions all four layers independently, compresses the resource
    layers, computes per-partition feature triplets, and clusters the
    compressed graph. Returns (feature partitions, network partitions,
    per-resource-layer partitions); placement reads the first two, and the
    layer partitions are kept for reporting. The layers are partitioned one
    after another, so at most one resource layer's weights exist at a time.
    """
    network = louvain_partition(graph.intra_edges[Layer.NETWORK])
    layer_sets: dict[Layer, PartitionSet] = {}
    for layer in RESOURCE_LAYERS:
        layer_sets[layer] = louvain_partition(graph.intra_edges[layer])
    cg = compress_graph(
        [layer_sets[layer] for layer in RESOURCE_LAYERS],
        {d.id: d for d in graph.devices},
    )
    fps = feature_partition(cg)
    return fps, network, layer_sets
