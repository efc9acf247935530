from collections import Counter

import pytest

from conftest import induced_triangles_by_scan, least_roots, switch_rows_by_tuples
from switchmix import (
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    NotRealizableError,
    StateSpaceAnalysis,
    analyze,
    find_useful,
    induced_triangles,
    lamar_classes,
    realize_directed,
)


def three_cycle(n, extra=()):
    return Digraph(n, [(0, 1), (1, 2), (2, 0)] + list(extra))


def test_classes_bare_cycle():
    part = lamar_classes(three_cycle(3), (0, 1, 2))
    assert part.U0 == part.Uminus == part.Uplus == part.Upm == part.leftover == ()


def test_classes_isolated_vertex_is_u0():
    part = lamar_classes(three_cycle(4), (0, 1, 2))
    assert part.U0 == (3,)


def test_classes_full_sender_is_uminus():
    dg = three_cycle(4, [(3, 0), (3, 1), (3, 2)])
    part = lamar_classes(dg, (0, 1, 2))
    assert part.Uminus == (3,)
    dg2 = three_cycle(4, [(0, 3), (1, 3), (2, 3)])
    assert lamar_classes(dg2, (0, 1, 2)).Uplus == (3,)


def test_classes_require_induced_cycle():
    dg = Digraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="does not induce a directed 3-cycle"):
        lamar_classes(dg, (0, 1, 2))
    # antiparallel extra arc inside U spoils inducedness
    dg2 = three_cycle(3, [(1, 0)])
    with pytest.raises(ValueError, match="does not induce a directed 3-cycle"):
        lamar_classes(dg2, (0, 1, 2))
    with pytest.raises(ValueError, match="three distinct vertices"):
        lamar_classes(three_cycle(3), (0, 1, 1))
    # either orientation, in any vertex order, is a 3-cycle
    assert lamar_classes(three_cycle(3), (2, 0, 1)).U == (2, 0, 1)
    assert lamar_classes(Digraph(3, [(1, 0), (2, 1), (0, 2)]), (0, 1, 2)).U == (0, 1, 2)


def test_classes_partition_random(rng):
    for _ in range(200):
        n = rng.randint(4, 8)
        dg = Digraph(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3 and not dg.has_edge(u, v):
                    dg.add_edge(u, v)
        for tri in induced_triangles(dg):
            part = lamar_classes(dg, tri)
            pieces = [part.U0, part.Uminus, part.Uplus, part.Upm, part.leftover]
            flat = [x for piece in pieces for x in piece]
            assert sorted(flat) == [v for v in range(n) if v not in tri]


def test_find_useful_bare_cycle_none():
    assert find_useful(three_cycle(3), (0, 1, 2)) is None


def test_find_useful_partial_neighbour():
    dg = three_cycle(4, [(3, 0)])  # one arc into U: fits no class
    w = find_useful(dg, (0, 1, 2))
    assert w is not None and w.kind == "neighbour" and w.value == 3


def test_find_useful_arc_condition_i():
    # two U0 vertices joined by an arc
    dg = three_cycle(5, [(3, 4)])
    w = find_useful(dg, (0, 1, 2))
    assert w.kind == "arc" and w.value == (3, 4) and w.condition == "i"


def test_find_useful_arc_condition_ii():
    # 3 in Uminus, 4 in Uplus, and the arc (3,4) is missing
    dg = three_cycle(5, [(3, 0), (3, 1), (3, 2), (0, 4), (1, 4), (2, 4)])
    part = lamar_classes(dg, (0, 1, 2))
    assert part.Uminus == (3,) and part.Uplus == (4,)
    w = find_useful(dg, (0, 1, 2))
    assert w.kind == "arc" and w.condition == "ii" and w.value == (3, 4)


def test_switch_connectivity_examples():
    rep = analyze(DirectedDegreeSequence([(1, 1)] * 3)).connectivity
    assert rep == {
        "component_count": 2,
        "component_sizes": [1, 1],
        "irreducible": False,
        "state_count": 2,
    }
    rep = analyze(DegreeSequence([2] * 6)).connectivity
    assert rep["state_count"] == 70 and rep["irreducible"]
    rep = analyze(DirectedDegreeSequence([(1, 1)] * 4)).connectivity
    assert rep["state_count"] == 9 and rep["irreducible"]


def test_no_realization_has_no_connectivity_report():
    for seq in (DegreeSequence([3, 1]), DirectedDegreeSequence([(1, 0), (1, 1)])):
        with pytest.raises(NotRealizableError):
            analyze(seq).connectivity


def test_component_sizes_match_union_find_oracle(balanced_directed_corpus):
    """Every space of at most 200 states on at most 5 vertices (3092 spaces,
    26 of them reducible): the component sizes are those of a union-find over
    the switch rows rebuilt from sorted edge tuples."""
    spaces = reducible = 0
    for seq, states in balanced_directed_corpus:
        if not states or len(states) > 200:
            continue
        report = StateSpaceAnalysis(seq, states).connectivity
        links = [(i, j) for i, row in enumerate(switch_rows_by_tuples(states, True)) for j in row]
        sizes = sorted(Counter(least_roots(len(states), links)).values(), reverse=True)
        assert report == {
            "component_count": len(sizes),
            "component_sizes": sizes,
            "irreducible": len(sizes) == 1,
            "state_count": len(states),
        }, seq
        spaces += 1
        reducible += not report["irreducible"]
    assert (spaces, reducible) == (3092, 26)


def test_induced_triangles_match_the_triple_scan(rng):
    found = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.uniform(0.1, 0.9)
        dg = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
        assert induced_triangles(dg) == induced_triangles_by_scan(dg), dg
        found += len(induced_triangles_by_scan(dg))
    dg = realize_directed(DirectedDegreeSequence([(4, 4)] * 64))
    assert induced_triangles(dg) == induced_triangles_by_scan(dg)
    assert (found, len(induced_triangles(dg))) == (108, 17)


def test_find_useful_none_for_both_cycle_states():
    from switchmix.statespace import enum_states

    for state in enum_states(DirectedDegreeSequence([(1, 1)] * 3)):
        dg = Digraph(3, state)
        for tri in induced_triangles(dg):
            assert find_useful(dg, tri) is None
