import pytest

from switchmix import (
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    NotRealizableError,
    find_useful,
    induced_triangles,
    lamar_classes,
    switch_connectivity,
)
from switchmix.irreducibility import connectivity_report


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
    with pytest.raises(ValueError):
        lamar_classes(dg, (0, 1, 2))
    # antiparallel extra arc inside U spoils inducedness
    dg2 = three_cycle(3, [(1, 0)])
    with pytest.raises(ValueError):
        lamar_classes(dg2, (0, 1, 2))


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
    rep = switch_connectivity(DirectedDegreeSequence([(1, 1)] * 3))
    assert rep == {
        "component_count": 2,
        "component_sizes": [1, 1],
        "irreducible": False,
        "state_count": 2,
    }
    rep = switch_connectivity(DegreeSequence([2] * 6))
    assert rep["state_count"] == 70 and rep["irreducible"]
    rep = switch_connectivity(DirectedDegreeSequence([(1, 1)] * 4))
    assert rep["state_count"] == 9 and rep["irreducible"]


def test_no_realization_has_no_connectivity_report():
    for seq in (DegreeSequence([3, 1]), DirectedDegreeSequence([(1, 0), (1, 1)])):
        with pytest.raises(NotRealizableError):
            switch_connectivity(seq)
    for directed in (False, True):
        with pytest.raises(NotRealizableError):
            connectivity_report([], directed)


def test_find_useful_none_for_both_cycle_states():
    from switchmix.statespace import enum_states

    for state in enum_states(DirectedDegreeSequence([(1, 1)] * 3)):
        dg = Digraph(3, state)
        for tri in induced_triangles(dg):
            assert find_useful(dg, tri) is None
