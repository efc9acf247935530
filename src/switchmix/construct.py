"""Deterministic starting realizations for (di)graphical degree sequences."""

from __future__ import annotations

from .degseq import DegreeSequence, DirectedDegreeSequence, NotRealizableError
from .graph import Digraph, Graph


def realize(d: DegreeSequence) -> Graph:
    """Greedy Havel-Hakimi realization.

    Repeatedly exhausts the vertex with the largest residual degree against
    the next-largest residuals.  Ties break by ascending vertex index, so the
    same sequence always yields the same graph.
    """
    if not d.is_graphical():
        raise NotRealizableError(f"{list(d.degrees)} is not graphical")
    n = d.n
    res = list(d.degrees)
    g = Graph(n)
    while True:
        u = max(range(n), key=lambda v: (res[v], -v))
        if res[u] == 0:
            break
        others = sorted(
            (v for v in range(n) if v != u and res[v] > 0),
            key=lambda v: (-res[v], v),
        )
        if len(others) < res[u]:
            raise AssertionError("greedy step starved on a graphical sequence")
        for v in others[: res[u]]:
            g.add_edge(u, v)
            res[v] -= 1
        res[u] = 0
    assert g.degree == list(d.degrees)
    return g


def realize_directed(dd: DirectedDegreeSequence) -> Digraph:
    """Greedy Kleitman-Wang style realization.

    Sources are exhausted largest-out-degree first; each source sends its
    arcs to the targets with the largest residual in-degree.  In-degree ties
    prefer targets that still have out-degree to place (their own diagonal is
    forbidden later, so serving them early avoids dead ends), then ascending
    index.
    """
    if dd.sum_in != dd.sum_out:
        raise NotRealizableError(
            f"in-degree sum {dd.sum_in} differs from out-degree sum {dd.sum_out}"
        )
    if not dd.is_digraphical():
        raise NotRealizableError(f"{list(dd.pairs)} is not digraphical")
    n = dd.n
    in_res = [a for a, _ in dd.pairs]
    out_res = [b for _, b in dd.pairs]
    dg = Digraph(n)
    while True:
        s = max(range(n), key=lambda v: (out_res[v], in_res[v], -v))
        if out_res[s] == 0:
            break
        targets = sorted(
            (v for v in range(n) if v != s and in_res[v] > 0),
            key=lambda v: (-in_res[v], -out_res[v], v),
        )
        if len(targets) < out_res[s]:
            raise AssertionError("greedy step starved on a digraphical sequence")
        for t in targets[: out_res[s]]:
            dg.add_edge(s, t)
            in_res[t] -= 1
        out_res[s] = 0
    assert dg.in_degree == [a for a, _ in dd.pairs]
    assert dg.out_degree == [b for _, b in dd.pairs]
    return dg
