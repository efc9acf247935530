import itertools
import random

import pytest

from switchmix import (
    DegreeSequence,
    DirectedDegreeSequence,
    NotRealizableError,
    realize,
    realize_directed,
)

from conftest import (
    erdos_gallai_quadratic,
    fulkerson_quadratic,
    havel_hakimi_sorting,
    kleitman_wang_sorting,
    random_digraph_sequence,
    random_graphical_sequence,
)


def test_realize_path():
    g = realize(DegreeSequence([2, 2, 1, 1]))
    assert g.degree == [2, 2, 1, 1]
    # shape: a 4-vertex path (two endpoints, no cycle)
    assert sorted(g.degree) == [1, 1, 2, 2] and len(g.edges) == 3


def test_realize_trivial_and_errors():
    assert realize(DegreeSequence([0, 0, 0])).edges == []
    with pytest.raises(NotRealizableError):
        realize(DegreeSequence([3, 3, 1, 1]))


def test_realize_deterministic():
    d = DegreeSequence([3, 2, 2, 2, 1])
    assert realize(d).edges == realize(d).edges


def test_realize_exact_degrees_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 12)
        d = random_graphical_sequence(rng, n, rng.uniform(0.1, 0.9))
        g = realize(d)
        assert g.degree == list(d.degrees)
        g.audit()


def test_realize_directed_cycle():
    dg = realize_directed(DirectedDegreeSequence([(1, 1), (1, 1), (1, 1)]))
    assert dg.in_degree == [1, 1, 1] and dg.out_degree == [1, 1, 1]
    assert len(dg.edges) == 3


def test_realize_directed_trivial_and_errors():
    assert realize_directed(DirectedDegreeSequence([(0, 0)])).edges == []
    with pytest.raises(NotRealizableError):
        realize_directed(DirectedDegreeSequence([(1, 0), (0, 0)]))


def test_each_realizer_rejects_the_other_kind_of_sequence():
    with pytest.raises(TypeError, match="use realize_directed"):
        realize(DirectedDegreeSequence([(1, 1)] * 3))
    with pytest.raises(TypeError, match="use realize for"):
        realize_directed(DegreeSequence([2] * 3))


def test_realize_directed_exhaustive_small():
    # greedy must succeed on every digraphical multiset with n <= 4
    for n in range(1, 5):
        vals = list(itertools.product(range(n), range(n)))
        for combo in itertools.combinations_with_replacement(vals, n):
            dd = DirectedDegreeSequence(combo)
            if dd.sum_in != dd.sum_out or not dd.is_digraphical():
                continue
            dg = realize_directed(dd)
            assert dg.in_degree == [a for a, _ in combo]
            assert dg.out_degree == [b for _, b in combo]


def test_realize_directed_randomized(rng):
    for _ in range(300):
        n = rng.randint(2, 10)
        arcs = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        }
        din = [sum(1 for (u, v) in arcs if v == w) for w in range(n)]
        dout = [sum(1 for (u, v) in arcs if u == w) for w in range(n)]
        dd = DirectedDegreeSequence(zip(din, dout))
        dg = realize_directed(dd)
        assert dg.in_degree == din and dg.out_degree == dout


def test_realize_matches_sorting_oracle_and_graphicality():
    # graphical <=> realize succeeds, and then the stored edge array is the oracle's
    rng = random.Random(53)
    sizes = [rng.randint(1, 30) for _ in range(500)] + [rng.randint(100, 300) for _ in range(8)]
    realized = 0
    for n in sizes:
        d = list(random_graphical_sequence(rng, n, rng.uniform(0.02, 0.98)).degrees)
        for _ in range(rng.choice((0, 1, 2, n // 4))):  # units moved onto a largest degree
            if any(d):
                d[rng.choice([v for v in range(n) if d[v]])] -= 1
                d[d.index(max(d))] += 1
        seq = DegreeSequence(d)
        if erdos_gallai_quadratic(d):
            assert realize(seq).edges == havel_hakimi_sorting(d), d
            realized += 1
        else:
            with pytest.raises(NotRealizableError):
                realize(seq)
    assert min(realized, len(sizes) - realized) > 80, realized


def test_realize_directed_matches_sorting_oracle_and_digraphicality():
    rng = random.Random(59)
    sizes = [rng.randint(1, 30) for _ in range(500)] + [rng.randint(100, 300) for _ in range(8)]
    realized = 0
    for n in sizes:
        pairs = [list(p) for p in random_digraph_sequence(rng, n, rng.uniform(0.02, 0.98)).pairs]
        for _ in range(rng.choice((0, 1, 2, n // 4))):  # out-units moved onto a largest pair
            if any(b for _, b in pairs):
                pairs[rng.choice([v for v in range(n) if pairs[v][1]])][1] -= 1
                pairs[max(range(n), key=lambda v: pairs[v])][1] += 1
        dd = DirectedDegreeSequence(pairs)
        if fulkerson_quadratic(pairs):
            assert realize_directed(dd).edges == kleitman_wang_sorting(pairs), pairs
            realized += 1
        else:
            with pytest.raises(NotRealizableError):
                realize_directed(dd)
    assert min(realized, len(sizes) - realized) > 80, realized


def test_realize_edge_cases_match_oracle():
    for degrees in ([0], [0, 0, 0], [1, 1, 0], [3, 3, 3, 3], [4, 1, 1, 1, 1], [0, 2, 2, 2, 0]):
        assert realize(DegreeSequence(degrees)).edges == havel_hakimi_sorting(degrees)
    for degrees in ([1], [2], [2, 0], [10**14 + 1, 1], [5, 3, 1, 1]):
        with pytest.raises(NotRealizableError):
            realize(DegreeSequence(degrees))
    for pairs in ([(0, 0)], [(0, 0), (1, 1), (1, 1)], [(0, 1), (1, 0), (0, 0)], [(2, 2)] * 3):
        assert realize_directed(DirectedDegreeSequence(pairs)).edges == kleitman_wang_sorting(pairs)
    for pairs in ([(1, 1)], [(3, 3)] * 3, [(10**14, 1), (1, 10**14)]):
        with pytest.raises(NotRealizableError):
            realize_directed(DirectedDegreeSequence(pairs))
