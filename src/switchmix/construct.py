"""Deterministic starting realizations for (di)graphical degree sequences."""

from __future__ import annotations

import heapq

from .degseq import DegreeSequence, DirectedDegreeSequence, NotRealizableError
from .graph import Digraph, Graph


def realize(d: DegreeSequence) -> Graph:
    """Greedy Havel-Hakimi realization in O(M log n).

    Repeatedly exhausts the vertex with the largest residual degree against
    the next-largest residuals.  Ties break by ascending vertex index, so the
    same sequence always yields the same graph.  One heap holds every vertex
    with a positive residual under the integer key -res * n + v, which
    orders by (-res, v): the first pop is the vertex to exhaust and the next
    res[u] pops are its partners, in order.
    """
    if d.directed:
        raise TypeError("realize takes a DegreeSequence; use realize_directed for a DirectedDegreeSequence")
    if not d.is_graphical():
        raise NotRealizableError(f"{list(d.degrees)} is not graphical")
    n = d.n
    res = list(d.degrees)
    heap = [-r * n + v for v, r in enumerate(res) if r]
    heapq.heapify(heap)
    g = Graph(n)
    while heap:
        u = heapq.heappop(heap) % n
        if len(heap) < res[u]:
            raise AssertionError("greedy step starved on a graphical sequence")
        partners = [heapq.heappop(heap) % n for _ in range(res[u])]
        for v in partners:
            g.add_edge(u, v)
            res[v] -= 1
            if res[v]:
                heapq.heappush(heap, -res[v] * n + v)
    assert g.degree_sequence() == d
    return g


def realize_directed(dd: DirectedDegreeSequence) -> Digraph:
    """Greedy Kleitman-Wang style realization in O(m log n).

    Sources are exhausted largest-out-degree first; each source sends its
    arcs to the targets with the largest residual in-degree.  In-degree ties
    prefer targets that still have out-degree to place (their own diagonal is
    forbidden later, so serving them early avoids dead ends), then ascending
    index.  Source ties break by larger residual in-degree, then ascending
    index.

    Two heaps hold integer keys ordered like (-out, -in, v) for sources and
    (-in, -out, v) for targets.  A residual change pushes a fresh key and
    leaves the old one in place; a popped key that no longer matches the
    vertex's residuals is stale and skipped.
    """
    if not dd.directed:
        raise TypeError("realize_directed takes a DirectedDegreeSequence; use realize for a DegreeSequence")
    dd.m  # NotRealizableError on unbalanced in/out sums
    if not dd.is_digraphical():
        raise NotRealizableError(f"{list(dd.pairs)} is not digraphical")
    n = dd.n
    in_res, out_res = list(dd.ins), list(dd.outs)

    # Digraphical semi-degrees are below n, so base n keeps the fields apart.
    def source_key(v):
        return -(out_res[v] * n + in_res[v]) * n + v

    def target_key(v):
        return -(in_res[v] * n + out_res[v]) * n + v

    sources = [source_key(v) for v in range(n) if out_res[v]]
    targets = [target_key(v) for v in range(n) if in_res[v]]
    heapq.heapify(sources)
    heapq.heapify(targets)
    dg = Digraph(n)
    while sources:
        key = heapq.heappop(sources)
        s = key % n
        if key != source_key(s):
            continue
        chosen = []
        while len(chosen) < out_res[s] and targets:
            key = heapq.heappop(targets)
            t = key % n
            if t != s and key == target_key(t):
                chosen.append(t)
        if len(chosen) < out_res[s]:
            raise AssertionError("greedy step starved on a digraphical sequence")
        for t in chosen:
            dg.add_edge(s, t)
            in_res[t] -= 1
            if in_res[t]:
                heapq.heappush(targets, target_key(t))
            if out_res[t]:
                heapq.heappush(sources, source_key(t))
        out_res[s] = 0
        if in_res[s]:  # s skipped its own entry; spending its out-degree changed its key
            heapq.heappush(targets, target_key(s))
    assert dg.degree_sequence() == dd
    return dg
