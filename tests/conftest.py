"""Shared fixtures: the 4-device two-layer regression graph and oracle helpers."""

from __future__ import annotations

import itertools
import os
from collections import Counter

import pytest
from hypothesis import strategies as st

from fogpart import partitioner
from fogpart.model import Device, NetworkLink
from fogpart.multilayer import Layer, LayerView, index_rows
from fogpart.scenario import Schedule
from fogpart.simulator import SATISFIED


#: Each resource layer's ``Device`` field, named outright: reference code reads
#: these, not ``Device.resources``, so a permuted triplet fails against it.
LAYER_FIELDS = {Layer.CPU: "cpu_speed", Layer.MEM: "mem", Layer.STORAGE: "storage"}


def make_view(layer: Layer, node_ids, edges) -> LayerView:
    """A LayerView from an undirected (i < j) edge-weight mapping."""
    return LayerView(layer, *index_rows(node_ids, edges))


def schedule_of(rows) -> Schedule:
    """The ``Schedule`` whose ``(time_s, request_id)`` pairs are ``rows``, in order."""
    return Schedule([t for t, _ in rows], tuple(rid for _, rid in rows))


@st.composite
def infrastructures(draw):
    """1-9 devices with sparse ids, repeated resources and any subset of links."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=9, unique=True))
    value = st.sampled_from([10.0, 12.5, 20.0, 21.0, 60.0]) | st.floats(10.0, 60.0)
    devices = [Device(i, 4, draw(value), draw(value), draw(value)) for i in ids]
    pairs = list(itertools.combinations(sorted(ids), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    links = [NetworkLink(a, b, 75000.0, 5.0) for a, b in chosen]
    return draw(st.permutations(devices)), links


def fig_devices() -> dict[int, Device]:
    """Four devices whose resource triplets make two natural similarity groups."""
    return {
        1: Device(1, cores=10, cpu_speed=20.0, mem=10.0, storage=10.0),
        2: Device(2, cores=10, cpu_speed=22.0, mem=11.0, storage=11.0),
        3: Device(3, cores=10, cpu_speed=24.0, mem=12.0, storage=12.0),
        4: Device(4, cores=10, cpu_speed=60.0, mem=25.0, storage=25.0),
    }


def triangle_view() -> LayerView:
    """Layer with a unit-weight triangle d1-d2-d3 and an isolated d4."""
    return make_view(Layer.CPU, [1, 2, 3, 4], {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})


def two_pairs_view() -> LayerView:
    """Layer with unit edges (d1,d2) and (d3,d4)."""
    return make_view(Layer.MEM, [1, 2, 3, 4], {(1, 2): 1.0, (3, 4): 1.0})


@pytest.fixture
def forks(monkeypatch):
    """The pids forked during a test, with two CPUs usable; no child may be left once it ends."""
    monkeypatch.setattr(partitioner, "_usable_cpus", lambda: 2)
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def worked_example():
    return fig_devices(), triangle_view(), two_pairs_view()


def set_partitions(items):
    """All set partitions of ``items`` (restricted-growth enumeration)."""
    seq = list(items)
    if not seq:
        yield []
        return

    def rec(i, parts):
        if i == len(seq):
            yield [list(p) for p in parts]
            return
        x = seq[i]
        for p in parts:
            p.append(x)
            yield from rec(i + 1, parts)
            p.pop()
        parts.append([x])
        yield from rec(i + 1, parts)
        parts.pop()

    yield from rec(0, [])


def assignment_of(parts) -> dict:
    return {node: pid for pid, members in enumerate(parts) for node in members}


def best_partition_bruteforce(view, modularity_fn):
    """Exhaustive argmax of modularity over all set partitions of the view."""
    best_q = float("-inf")
    best_parts = None
    for parts in set_partitions(view.nodes):
        q = modularity_fn(view, assignment_of(parts))
        if q > best_q:
            best_q = q
            best_parts = [frozenset(p) for p in parts]
    return best_parts, best_q


def per_request_series(outcomes):
    """The cumulative series as it was computed from one record per request.

    A frozen copy of the per-request ``metrics.cumulative_series`` that the
    per-tick one replaced: rows (time_s, requests, satisfied, ratio), one at
    the last outcome of each run of equal times.
    """
    rows = []
    requests = 0
    satisfied = 0
    for i, outcome in enumerate(outcomes):
        requests += 1
        if outcome.status == SATISFIED:
            satisfied += 1
        last_of_tick = i + 1 == len(outcomes) or outcomes[i + 1].time_s != outcome.time_s
        if last_of_tick:
            rows.append((outcome.time_s, requests, satisfied, satisfied / requests))
    return rows


def per_request_tally(outcomes):
    """Requests per status, counted one record at a time as ``simulate`` once did."""
    return Counter(o.status for o in outcomes)
