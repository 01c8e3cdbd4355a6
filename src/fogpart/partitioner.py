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
import os
from array import array
from bisect import bisect_left, insort
from itertools import combinations
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

from .model import Device, sum_in_order
from .multilayer import (
    Layer,
    MultilayerGraph,
    RESOURCE_LAYERS,
    Row,
    SimilarityView,
    View,
    index_rows,
    pack_row,
)

#: Minimum improvement treated as a strictly positive modularity gain.
GAIN_EPS = 1e-12


class PartitionSet(NamedTuple):
    """Disjoint device clusters of one layer, with the partition's modularity."""

    layer: Layer
    assignment: Mapping[int, int]
    partitions: Mapping[int, frozenset[int]]
    modularity: float


class FeatureTriplet(NamedTuple):
    """Per-partition averages of CPU speed (MI/s), memory (GB), storage (TB)."""

    avg_cpu: float
    avg_mem: float
    avg_storage: float

    def distance(self, other: FeatureTriplet) -> float:
        return math.dist(self, other)


#: A compressed-graph node: (resource layer, partition id within that layer).
CompressedNode = tuple[Layer, int]


class CompressedGraph(NamedTuple):
    """Resource-layer partitions as nodes, linked when they share a device."""

    nodes: tuple[CompressedNode, ...]
    edges: tuple[tuple[CompressedNode, CompressedNode], ...]
    members: Mapping[CompressedNode, frozenset[int]]
    features: Mapping[CompressedNode, FeatureTriplet]


class FeaturePartitionSet(NamedTuple):
    """Disjoint clusters of layer partitions with similar average resources.

    Clustering picks ``feature_partitions`` and ``modularity``; the rest, which
    placement reads, follows from them (``derive_feature_partitions``).
    """

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
# graphs, 2x the merged undirected intra weight after aggregation). The
# local moves re-sum a node's row on every decision (``_phase1``): network
# rows are short and aggregated levels have few nodes.
#
# Level 0 of a complete resource layer is read as one full weight array per
# node instead (``SimilarityView.weights``). Every community then holds a
# neighbour of every node, so a link sum is a gather over the community's
# members (``_link_sums``), whose weights ``sum_in_order`` adds left to
# right, in row order, and the first sweep skips the singletons that cannot
# win (``_first_sweep_complete``); the later sweeps keep each node's link
# sums across moves (``_later_sweeps``), since a re-sum there gathers all n
# weights. Its labels, rows and Q equal the row path's bit for bit; levels
# >= 1 are rows again.
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


#: Scale of the rounding bound on gains from a complete layer's kept link
#: sums: 8 units of roundoff (8 * 2**-53); see ``_later_sweeps``.
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
    than GAIN_EPS; ties keep the current community (``_best_move``). Every
    decision sums the node's links into each neighbouring community afresh
    from its row, in row order; rows are short or few, so no sums are kept
    between sweeps (only complete layers keep them, ``_phase1_complete``).
    """
    n = len(adj)
    comm = list(range(n))
    two_w = sum_in_order(strength)
    w = two_w / 2.0
    if two_w <= 0.0 or 2.0 * w * w == 0.0:
        return comm, False  # no weight, or so little that every gain divides by zero
    comm_strength = list(strength)
    improved = False
    moved = True
    while moved:
        moved = False
        for i in range(n):
            ci = comm[i]
            comm_strength[ci] -= strength[i]
            best_c = _best_move(_row_links(adj[i], comm), ci, strength[i], comm_strength, w, -1.0)
            comm[i] = best_c
            comm_strength[best_c] += strength[i]
            if best_c != ci:
                moved = improved = True
    return comm, improved


def _later_sweeps(
    comm: list[int],
    strength: Sequence[float],
    comm_strength: list[float],
    w: float,
    kept: list[dict[int, float]],
    resum: Callable[[int], dict[int, float]],
    spread: Callable[[int, int, int], None],
) -> None:
    """Sweep a complete graph of n nodes from kept link sums until a full sweep makes no move.

    Only complete layers keep sums (``_phase1_complete``); ``_phase1``
    re-sums rows. ``kept[i]`` maps each community holding a neighbour of
    node i to i's link sum into it, equal to the row-order sum when it was
    made; ``w`` is the graph's undirected total weight. ``resum(i)`` sums
    i's links afresh in row order. ``spread(i, ci, c)`` moves i's links, in
    its neighbours' kept sums, from community ci to c; it runs after
    ``comm[i]`` is set to c.

    A kept sum can differ from the row-order re-sum in its last bits, so it
    decides a node only when no comparison is close. With u = 2**-53,
    weights >= 0 (and no underflow), s the node's strength, d = n - 1 its
    degree (every other node is a neighbour) and t the moves made since its
    sums were last exact (``moves - fresh[i]``):
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
    margin is within ``tol``, the node's links are re-summed, its kept sums
    are replaced by the re-sums, and the decision is taken from them: the
    same path and the same floats as a full re-sum. Every decision, and with
    it every label, therefore equals that of re-summing each row on every
    sweep.
    """
    degree = len(comm) - 1
    moves = 0
    fresh = [0] * len(comm)
    moved = True
    while moved:
        moved = False
        for i in range(len(comm)):
            ci = comm[i]
            s_i = strength[i]
            comm_strength[ci] -= s_i
            tol = _ROUND * (s_i / w * (degree + moves - fresh[i] + 3) + GAIN_EPS)
            best_c = _best_move(kept[i], ci, s_i, comm_strength, w, tol)
            if best_c is None:
                kept[i] = resum(i)
                fresh[i] = moves
                best_c = _best_move(kept[i], ci, s_i, comm_strength, w, -1.0)
            comm[i] = best_c
            comm_strength[best_c] += s_i
            if best_c != ci:
                moved = True
                moves += 1
                spread(i, ci, best_c)


def _gather(members: Sequence[int]) -> Callable[[array], Sequence[float]]:
    """A getter of a weight array's entries at ``members``, in that order.

    ``itemgetter`` of a single index returns the entry itself, so a single
    member is read as a one-entry slice.
    """
    if len(members) == 1:
        return itemgetter(slice(members[0], members[0] + 1))
    return itemgetter(*members)


def _link_sums(weights: array, members: Mapping[int, Sequence[int]]) -> dict[int, float]:
    """One node's link sum into each community, from its full weight array.

    ``members`` maps each label to its members, ascending. A sum adds the
    weights at those positions left to right from 0.0 (``sum_in_order``).
    The node's row holds the same weights in the same order, less the
    node's own 0.0, and adding 0.0 to a sum of weights >= 0 changes
    nothing; so each sum is bit-equal to the one ``_row_links`` adds up
    from the row.
    """
    return {c: sum_in_order(_gather(m)(weights)) for c, m in members.items()}


def _first_sweep_complete(
    weights: Sequence[array],
    values: Sequence[float],
    strength: Sequence[float],
    comm_strength: list[float],
    w: float,
) -> tuple[list[int], dict[int, list[int]]]:
    """``_phase1``'s first sweep on a complete graph, without scoring every node.

    Returns the labels and each community's members, ascending. The
    communities that are not plain singletons (label j holding only node j)
    are scored exactly, from ``_link_sums``. A plain singleton j scores
    ``w_ij/w - s_j*s_i/(2w^2)``, and since s_j >= min(strength) that is at
    most the bound ``w_ij/w - min(strength)*s_i/(2w^2)``, computed with the
    same roundings. The weight w_ij falls as |values[i] - values[j]| grows
    (no value is NaN), so the plain singletons are visited outward from
    node i in value order, one side after the other, and the bound falls
    along each side. A side stops at the first node whose bound plus
    GAIN_EPS is below the top gain so far: no node from there on can beat
    the top or come within GAIN_EPS of it. Rounding keeps both steps: it
    never reverses an order, so a computed gain is at most its computed
    bound, and computed bounds fall along a side.

    The top is taken only when the runner-up plus GAIN_EPS is below it.
    ``_best_move`` then picks it too: these are the floats it computes, and
    it replaces its best only for a gain above best + GAIN_EPS, in label
    order, so the top replaces whatever is best when it is reached and
    nothing after replaces the top. Otherwise, on a near tie, the node takes
    ``_best_move`` over all its links, whose order of ties the top alone
    cannot tell.
    """
    n = len(weights)
    comm = list(range(n))
    ww2 = 2.0 * w * w
    s_min = min(strength)
    members: dict[int, list[int]] = {}  # every community but the plain singletons
    plain = sorted(zip(values, range(n)))  # (value, node) of the plain singletons
    for i, wi in enumerate(weights):
        s_i = strength[i]
        comm_strength[i] -= s_i  # node i is in its own label until it is swept
        links = _link_sums(wi, members)
        scores = {i: links.get(i, 0.0) / w - comm_strength[i] * s_i / ww2}
        for c, k in links.items():
            scores[c] = k / w - comm_strength[c] * s_i / ww2
        top = max(scores.values())
        at = bisect_left(plain, (values[i], i))
        alone = at < len(plain) and plain[at][1] == i
        least = s_min * s_i / ww2
        for side in (range(at - 1, -1, -1), range(at + alone, len(plain))):
            for p in side:
                j = plain[p][1]
                if wi[j] / w - least + GAIN_EPS < top:
                    break
                scores[j] = gain = wi[j] / w - comm_strength[j] * s_i / ww2
                top = max(top, gain)
        best_c = max(scores, key=scores.__getitem__)
        del scores[best_c]
        if max(scores.values(), default=-math.inf) + GAIN_EPS >= top:
            links.update((j, wi[j]) for _, j in plain if j != i)
            best_c = _best_move(links, i, s_i, comm_strength, w, -1.0)
        comm[i] = best_c
        comm_strength[best_c] += s_i
        if best_c == i:
            continue
        if alone:
            del plain[at]
        else:
            members[i].remove(i)
        if best_c in members:
            insort(members[best_c], i)
        else:
            del plain[bisect_left(plain, (values[best_c], best_c))]
            members[best_c] = sorted((i, best_c))
    members.update((j, [j]) for _, j in plain)
    return comm, members


def _phase1_complete(
    weights: Sequence[array],
    values: Sequence[float],
    strength: Sequence[float],
) -> tuple[list[int], bool]:
    """``_phase1`` on a complete graph given as full weight arrays: the same labels.

    ``weights[i][j]`` is the weight between nodes i and j, falling as
    |values[i] - values[j]| grows, and 0.0 where i == j
    (``SimilarityView.weights``). Every link sum is a gather
    (``_link_sums``), bit-equal to the row-order sum, and the first sweep
    skips the plain singletons that cannot win (``_first_sweep_complete``).
    Every community holds a neighbour of every node but its own lone
    member, so a node's neighbour count in a community is the community's
    size, less one if the node is in it.
    """
    n = len(weights)
    two_w = sum_in_order(strength)
    w = two_w / 2.0
    if two_w <= 0.0 or 2.0 * w * w == 0.0:
        return list(range(n)), False
    comm_strength = list(strength)
    comm, members = _first_sweep_complete(weights, values, strength, comm_strength, w)
    if len(members) == n:
        # nothing moved: the first move from singletons empties a label, and none refills one
        return comm, False

    def resum(i: int) -> dict[int, float]:
        links = _link_sums(weights[i], members)
        if len(members[comm[i]]) == 1:
            del links[comm[i]]
        return links

    def spread(i: int, ci: int, best_c: int) -> None:
        left = members[ci]
        left.remove(i)
        insort(members[best_c], i)
        mine = kept[i]
        for links, wij in zip(kept, weights[i]):
            if links is not mine:
                links[ci] -= wij
                links[best_c] = links.get(best_c, 0.0) + wij
        # an entry goes when i was the node's last neighbour in ci
        if len(left) == 1:
            del kept[left[0]][ci]
        elif not left:
            del members[ci]
            for links in kept:
                if links is not mine:
                    del links[ci]

    kept = [resum(i) for i in range(n)]
    _later_sweeps(comm, strength, comm_strength, w, kept, resum, spread)
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


def _aggregate_complete(
    weights: Sequence[array],
    strength: Sequence[float],
    comm: Sequence[int],
) -> tuple[list[Row], list[float], list[int], float]:
    """``_aggregate`` of a complete graph given as full weight arrays: the same floats.

    ``_aggregate`` walks the rows in (node, row) order, adding each weight to
    the running sum of its (community, community) pair, and every loop mass
    is 0.0 at this level. Here each node's weights are gathered at every
    community's members, ascending, and added onto that pair's running sum
    left to right (``sum_in_order``, started at that sum): the same
    additions in the same order, plus the node's own 0.0, which changes no
    sum (``_phase1_complete``). A super-node's loop mass and its ``sig_in``
    are then the same sum. The walk first reaches a community at its
    smallest member, from the smallest member of any other community, so
    each row lists the other super-nodes by their smallest member.
    """
    remap = {lab: idx for idx, lab in enumerate(sorted(set(comm)))}
    k = len(remap)
    sub = [remap[c] for c in comm]
    members: list[list[int]] = [[] for _ in range(k)]
    sig_tot = [0.0] * k
    for i, (c, s) in enumerate(zip(sub, strength)):
        members[c].append(i)
        sig_tot[c] += s
    getters = [_gather(m) for m in members]
    sums = [[0.0] * k for _ in range(k)]
    for wi, ci in zip(weights, sub):
        pair = sums[ci]
        for c, get in enumerate(getters):
            pair[c] = sum_in_order(get(wi), pair[c])
    reached = sorted(range(k), key=lambda c: members[c][0])
    rows: list[Row] = []
    for c, pair in enumerate(sums):
        others = [d for d in reached if d != c]
        rows.append((others, array("d", map(pair.__getitem__, others))))
    loops = [pair[c] for c, pair in enumerate(sums)]
    two_w = sum_in_order(strength)
    q = sum_in_order([loops[c] - sig_tot[c] ** 2 / two_w for c in dict.fromkeys(sub)]) / two_w
    return rows, loops, sub, q


def _louvain(
    node_ids: Sequence[Hashable],
    adj: Sequence[Row] | SimilarityView,
) -> tuple[list[frozenset[Hashable]], float]:
    """Two-phase Louvain; returns the best partition seen and its modularity.

    ``adj`` holds the index-ordered rows of ``node_ids`` (see
    ``index_rows``), or is the ``SimilarityView`` of a complete layer, whose
    level 0 runs on its full weight arrays (``_phase1_complete`` and
    ``_aggregate_complete``); those arrays are freed by the aggregation.
    Each iterative step runs the local-move phase and then aggregates the
    communities into a new network; the loop stops at the first step that
    fails to improve modularity.
    """
    loops = [0.0] * len(node_ids)
    complete = isinstance(adj, SimilarityView)
    if complete:
        values, adj = adj.values, adj.weights()
        strength = [sum_in_order(weights) for weights in adj]
    else:
        strength = _strengths(adj, loops)
    groups: list[frozenset[Hashable]] = [frozenset([nid]) for nid in node_ids]

    best_parts = list(groups)
    best_q = _singletons_modularity(loops, strength)
    while True:
        comm, moved = _phase1_complete(adj, values, strength) if complete else _phase1(adj, strength)
        if not moved:
            break
        if complete:
            adj, loops, sub, q = _aggregate_complete(adj, strength, comm)
            complete = False
        else:
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
    deterministic. A resource layer's weights are built once, inside this
    call, and freed before it returns.
    """
    if not view.nodes:
        raise ValueError("cannot partition an empty layer view")
    parts, q = _louvain(view.nodes, view if isinstance(view, SimilarityView) else view.rows)
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


def derive_feature_partitions(
    feature_partitions: Mapping[int, frozenset[CompressedNode]], cg: CompressedGraph, modularity: float
) -> FeaturePartitionSet:
    """The fps whose members are ``feature_partitions``, nodes of ``cg``.

    Each fp's devices are the union of its members' devices; the triplets are ``cg``'s.
    """
    device_index = {
        fp: frozenset().union(*map(cg.members.__getitem__, nodes))
        for fp, nodes in feature_partitions.items()
    }
    return FeaturePartitionSet(dict(feature_partitions), device_index, cg.features, modularity)


def feature_partition(cg: CompressedGraph) -> FeaturePartitionSet:
    """Louvain over the compressed graph, weighted by feature similarity.

    Edge weights are 1 / (1 + euclidean feature distance) so that clusters
    group layer partitions with similar average resources. Louvain picks the
    members and the modularity; ``derive_feature_partitions`` adds the rest.
    """
    if not cg.nodes:
        raise ValueError("cannot feature-partition an empty compressed graph")
    weights = {(a, b): 1.0 / (1.0 + cg.features[a].distance(cg.features[b])) for a, b in cg.edges}
    parts, q = _louvain(*index_rows(cg.nodes, weights))
    return derive_feature_partitions(dict(enumerate(_label_partitions(parts))), cg, q)


#: Fewest devices at which ``multilayer_resource_partition`` partitions the
#: resource layers in forked children; below it the forks cost about what
#: they save. On a 2-vCPU host (medians of 16 alternating fresh processes,
#: one cold call each, in-process -> forked) it took 19 -> 25 ms at 101
#: devices, 47 -> 39 ms at 151, 47 -> 44 ms at 201, 68 -> 57 ms at 251 and
#: 135 -> 104 ms at 401.
FORK_MIN_DEVICES = 200


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _forks(device_count: int) -> bool:
    """Whether the resource layers are partitioned in forked children."""
    return hasattr(os, "fork") and device_count >= FORK_MIN_DEVICES and _usable_cpus() >= 2


def _child(view: View, read_fd: int, write_fd: int) -> NoReturn:
    """Partition ``view`` in a forked child, and pipe the pickled result or exception into ``write_fd``.

    The child ends in ``os._exit`` whatever happens, so it never returns into
    its parent's code, flushes the parent's buffers or runs its exit handlers.
    """
    import pickle

    try:
        os.close(read_fd)
        try:
            result: PartitionSet | BaseException = louvain_partition(view)
        except BaseException as exc:
            result = exc
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _partition_forked(views: Mapping[Layer, View]) -> tuple[PartitionSet, dict[Layer, PartitionSet]]:
    """The layers' ``louvain_partition``: each resource layer in a forked child, the network here.

    Each child runs the same deterministic code on the same view as the
    in-process path and pipes its ``PartitionSet`` back pickled, so the
    results are equal. A child's exception is re-raised here; a child that
    ends without writing raises RuntimeError. Every child is reaped before
    this returns or raises.
    """
    import pickle

    pipes: dict[Layer, int] = {}
    pids: list[int] = []
    try:
        for layer in RESOURCE_LAYERS:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(views[layer], read_fd, write_fd)
            pids.append(pid)
            os.close(write_fd)
            pipes[layer] = read_fd
        network = louvain_partition(views[Layer.NETWORK])
        layer_sets: dict[Layer, PartitionSet] = {}
        for layer in RESOURCE_LAYERS:
            with open(pipes.pop(layer), "rb") as pipe:
                data = pipe.read()
            try:
                result = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError) as exc:  # nothing written, or cut off while writing
                raise RuntimeError(f"the process partitioning the {layer.name} layer ended without a result") from exc
            if isinstance(result, BaseException):
                raise result
            layer_sets[layer] = result
        return network, layer_sets
    finally:
        for fd in pipes.values():
            os.close(fd)  # a child still writing gets a broken pipe, not a block
        for pid in pids:
            os.waitpid(pid, 0)


def multilayer_resource_partition(
    graph: MultilayerGraph,
) -> tuple[FeaturePartitionSet, PartitionSet, dict[Layer, PartitionSet]]:
    """End-to-end partitioning pipeline.

    Partitions all four layers independently, compresses the resource
    layers, computes per-partition feature triplets, and clusters the
    compressed graph. Returns (feature partitions, network partitions,
    per-resource-layer partitions); placement reads the first two, and the
    layer partitions are kept for reporting. From ``FORK_MIN_DEVICES``
    devices on, with two CPUs usable, each resource layer is partitioned in
    a forked child while this process partitions the network layer: each
    child holds one layer's weights, and this process holds none. Otherwise
    the layers are partitioned here one after another, so at most one
    resource layer's weights exist at a time. Both ways give equal results.
    """
    views = graph.intra_edges
    if _forks(len(graph.devices)):
        network, layer_sets = _partition_forked(views)
    else:
        network = louvain_partition(views[Layer.NETWORK])
        layer_sets = {layer: louvain_partition(views[layer]) for layer in RESOURCE_LAYERS}
    cg = compress_graph(
        [layer_sets[layer] for layer in RESOURCE_LAYERS],
        {d.id: d for d in graph.devices},
    )
    fps = feature_partition(cg)
    return fps, network, layer_sets
