"""Hypothesis properties, each checked against the conftest references.

Every property runs derandomized with no example database, so a run is
the same fixed set of examples and writes nothing under ``.hypothesis/``.
"""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import count_nonadjacent_edge_pairs, erdos_gallai_quadratic, fulkerson_quadratic
from switchmix import (
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    Graph,
    NotRealizableError,
    advance,
    enum_states,
    realize,
    realize_directed,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _realizes(realizer, seq) -> bool:
    try:
        realizer(seq)
    except NotRealizableError:
        return False
    return True


@PROPERTY
@given(st.integers(1, 7).flatmap(lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)))
def test_graphical_iff_states_iff_realize(degrees):
    seq = DegreeSequence(degrees)
    graphical = erdos_gallai_quadratic(degrees)
    assert bool(enum_states(seq)) == graphical
    assert _realizes(realize, seq) == graphical


@PROPERTY
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), min_size=n, max_size=n)
    )
)
def test_digraphical_iff_states_iff_realize_directed(pairs):
    seq = DirectedDegreeSequence(pairs)
    digraphical = fulkerson_quadratic(pairs)
    assert bool(enum_states(seq)) == digraphical
    assert _realizes(realize_directed, seq) == digraphical


def _graphs(store, pairs_of):
    """A store on 4 to 8 vertices holding the drawn subset of its possible pairs."""
    return st.integers(4, 8).flatmap(
        lambda n: st.lists(st.booleans(), min_size=len(pairs_of(n)), max_size=len(pairs_of(n))).map(
            lambda keep: store(n, [p for p, k in zip(pairs_of(n), keep) if k])
        )
    )


UNDIRECTED = _graphs(Graph, lambda n: list(combinations(range(n), 2)))
DIRECTED = _graphs(Digraph, lambda n: list(permutations(range(n), 2)))


def _degrees(g):
    return (g.in_degree, g.out_degree) if g.directed else g.degree


@pytest.mark.parametrize("variant", ["exact", "all_pairs", "directed"])
@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 60))
def test_advance_keeps_degrees_and_passes_audit(variant, data, seed, steps):
    g = data.draw(DIRECTED if variant == "directed" else UNDIRECTED)
    a = count_nonadjacent_edge_pairs(g) if variant == "exact" else None
    assume(len(g.edges) >= 2 and a != 0)
    before = _degrees(g)
    advance(g, random.Random(seed), steps, a)
    assert _degrees(g) == before
    g.audit()
