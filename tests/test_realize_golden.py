"""Pinned greedy realizations: the stored-order edge and arc arrays of ``realize``.

The realized graph is the start state of every chain run, and the order of
its edge array decides which pair a seeded index draw picks, so both are
part of every trajectory.  The golden file was generated before the degree
layer was rewritten; regenerate it (``PYTHONPATH=src python
tests/test_realize_golden.py``) only for a change that is meant to alter
realizations, and say so.
"""

import json
import pathlib
import random

from switchmix import DegreeSequence, DirectedDegreeSequence, realize, realize_directed

from conftest import erdos_gallai_quadratic, fulkerson_quadratic, render_golden

GOLDEN = pathlib.Path(__file__).parent / "golden" / "realize.json"


def heavy_tail(rng, n, cap, d_min=2, gamma=2.5):
    """Graphical Pareto-quantile degrees (exponent gamma), capped, jittered by +-1, shuffled."""
    base = [min(cap, int(d_min * ((i + 0.5) / n) ** (-1.0 / (gamma - 1.0)))) for i in range(n)]
    while True:
        d = [min(cap, max(1, x + rng.choice((-1, 0, 0, 1)))) for x in base]
        rng.shuffle(d)
        if sum(d) % 2:
            d[d.index(max(d))] -= 1
        if erdos_gallai_quadratic(d):
            return d


def heavy_tail_pairs(rng, n, cap):
    """Digraphical (in, out) pairs with heavy-tailed semi-degrees and equal sums."""
    while True:
        outs = heavy_tail(rng, n, cap)
        ins = heavy_tail(rng, n, cap)
        diff = sum(ins) - sum(outs)
        while diff:
            i = rng.randrange(n)
            if diff > 0 and ins[i] > 1:
                ins[i] -= 1
                diff -= 1
            elif diff < 0 and outs[i] > 1:
                outs[i] -= 1
                diff += 1
        pairs = [list(p) for p in zip(ins, outs)]
        if fulkerson_quadratic(pairs):
            return pairs


def threshold_degrees(rng, n):
    """A random threshold graph: each new vertex is isolated or dominating.

    Its degree sequence meets Erdos-Gallai with equality at every k up to
    the Durfee number, so it has exactly one realization.
    """
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        if rng.random() < 0.1:
            for u in range(v):
                adj[u].add(v)
                adj[v].add(u)
    order = list(range(n))
    rng.shuffle(order)
    return [len(adj[v]) for v in order]


def staircase_pairs(n):
    """(in, out) pairs of the digraph with an arc u -> v iff u != v and u + v < n.

    Nested neighbourhoods put the Fulkerson inequalities at equality.
    """
    ins, outs = [0] * n, [0] * n
    for u in range(n):
        for v in range(n - u):
            if u != v:
                outs[u] += 1
                ins[v] += 1
    return [[a, b] for a, b in zip(ins, outs)]


def cases():
    """name -> (directed, degree list); only run to regenerate the file."""
    return {
        "heavy_tail_u2000_seed1": (False, heavy_tail(random.Random(1), 2000, cap=120)),
        "heavy_tail_u2000_seed2": (False, heavy_tail(random.Random(2), 2000, cap=120)),
        "heavy_tail_d1200_seed1": (True, heavy_tail_pairs(random.Random(1), 1200, cap=80)),
        "regular_u400_d7": (False, [7] * 400),
        "regular_d300_5_5": (True, [[5, 5]] * 300),
        "threshold_u200": (False, threshold_degrees(random.Random(3), 200)),
        "staircase_d80": (True, staircase_pairs(80)),
    }


def build(degree_lists):
    out = {}
    for name, (directed, degrees) in degree_lists.items():
        if directed:
            g = realize_directed(DirectedDegreeSequence(degrees))
        else:
            g = realize(DegreeSequence(degrees))
        out[name] = {"directed": directed, "degrees": degrees, "edges": [list(e) for e in g.edges]}
    return out



def test_realizations_match_golden_file():
    text = GOLDEN.read_text(encoding="utf-8")
    stored = json.loads(text)
    assert len(stored) == 7
    degree_lists = {name: (case["directed"], case["degrees"]) for name, case in stored.items()}
    assert render_golden(build(degree_lists)) == text


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(build(cases())), encoding="utf-8")
