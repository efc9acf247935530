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


CLASSES = ("U0", "Uminus", "Uplus", "Upm", "leftover")


def _planted(rng):
    """A 3-cycle on 0, 1, 2 whose outside vertices each send and receive a
    drawn number of arcs to and from it (a class's 0 or 3 either way nine
    times in ten, else any count), with arcs among them at a drawn density."""
    n = rng.randint(4, 8)
    U = (0, 1, 2) if rng.random() < 0.5 else (0, 2, 1)
    arcs = [(U[0], U[1]), (U[1], U[2]), (U[2], U[0])]
    for x in range(3, n):
        counts = (0, 3) if rng.random() < 0.9 else range(4)
        into, out_of = rng.choice(counts), rng.choice(counts)
        arcs += [(x, u) for u in rng.sample(U, into)] + [(u, x) for u in rng.sample(U, out_of)]
    density = rng.choice((0.1, 0.5, 0.9))
    arcs += [(x, y) for x in range(3, n) for y in range(3, n) if x != y and rng.random() < density]
    return Digraph(n, arcs)


def test_classes_partition_random(rng):
    seen = Counter()
    for k in range(400):
        if k % 2:
            dg = _planted(rng)
        else:
            n = rng.randint(4, 8)
            dg = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3])
        n = dg.n
        for tri in induced_triangles(dg):
            part = lamar_classes(dg, tri)
            pieces = [part.U0, part.Uminus, part.Uplus, part.Upm, part.leftover]
            flat = [x for piece in pieces for x in piece]
            assert sorted(flat) == [v for v in range(n) if v not in tri]
            for x in flat:
                into = sum(dg.has_edge(x, u) for u in tri)
                out_of = sum(dg.has_edge(u, x) for u in tri)
                # the classes as LamarPartition's docstring defines them
                defined = {
                    "U0": into == out_of == 0,
                    "Uminus": into == 3 and out_of == 0,
                    "Uplus": into == 0 and out_of == 3,
                    "Upm": into == out_of == 3,
                }
                want = [name for name, holds in defined.items() if holds] or ["leftover"]
                assert [name for name in CLASSES if x in getattr(part, name)] == want, (dg, tri, x)
            seen.update(name for name in CLASSES if getattr(part, name))
            seen[_check_witness(dg, part, find_useful(dg, tri))] += 1
    # every class and every kind of witness occurs in the sample
    assert set(seen) == {*CLASSES, "neighbour", "i", "ii", None}, seen


def _check_witness(dg, part, w):
    """Assert that ``w`` holds in ``dg`` and is the first of its kind in
    ``find_useful``'s order; return its kind ("neighbour", "i", "ii") or None."""
    arcs_i = [(x, y) for x in sorted(part.U0 + part.Uplus) for y in sorted(part.U0 + part.Uminus)
              if x != y and dg.has_edge(x, y)]
    arcs_ii = [(x, y) for x in sorted(part.Uminus + part.Upm) for y in sorted(part.Uplus + part.Upm)
               if x != y and not dg.has_edge(x, y)]
    if w is None:
        # only an obstruction-shaped partition has no witness
        assert not part.leftover and not arcs_i and not arcs_ii
        return None
    if w.kind == "neighbour":
        assert w.value in part.leftover and w.value == min(part.leftover)
        return "neighbour"
    (x, y), kind = w.value, w.condition
    assert w.kind == "arc" and not part.leftover and x != y
    if kind == "i":
        assert dg.has_edge(x, y) and x in part.U0 + part.Uplus and y in part.U0 + part.Uminus
        assert w.value == arcs_i[0]
    else:
        assert kind == "ii" and not arcs_i
        assert not dg.has_edge(x, y) and x in part.Uminus + part.Upm and y in part.Uplus + part.Upm
        assert w.value == arcs_ii[0]
    return kind


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
