"""Hypothesis properties, each checked against the conftest references.

Every property runs derandomized with no example database, so a run is
the same fixed set of examples and writes nothing under ``.hypothesis/``.

``python tests/test_properties.py N`` runs the natural-encoding property
with N examples per mode instead of the suite's 60.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    count_nonadjacent_edge_pairs,
    dense_tv_curve,
    erdos_gallai_quadratic,
    fulkerson_quadratic,
    oracle_neighbour_states,
    relabelling_orbits_by_tuples,
    switch_rows_by_tuples,
)
from switchmix import (
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    Graph,
    NotRealizableError,
    RepairStuckError,
    StateSpaceAnalysis,
    advance,
    encode,
    enum_states,
    realize,
    realize_directed,
    repair,
    verify_counting_identities,
)
from switchmix.chain import VARIANT_ALL_PAIRS, VARIANT_EXACT
from switchmix.statespace import step_denominator

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


def _graphs(store, pairs_of, least, most):
    """A store on ``least`` to ``most`` vertices holding the drawn subset of its possible pairs."""
    return st.integers(least, most).flatmap(
        lambda n: st.lists(st.booleans(), min_size=len(pairs_of(n)), max_size=len(pairs_of(n))).map(
            lambda keep: store(n, [p for p, k in zip(pairs_of(n), keep) if k])
        )
    )


def _undirected(least, most):
    return _graphs(Graph, lambda n: list(combinations(range(n), 2)), least, most)


def _directed(least, most):
    return _graphs(Digraph, lambda n: list(permutations(range(n), 2)), least, most)


UNDIRECTED, DIRECTED = _undirected(4, 8), _directed(4, 8)


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


# mode -> (directed, variant, a strategy for the graphs whose degrees are analysed)
SPACES = {
    "exact": (False, VARIANT_EXACT, _undirected(1, 6)),
    "all_pairs": (False, VARIANT_ALL_PAIRS, _undirected(1, 6)),
    "directed": (True, VARIANT_EXACT, _directed(1, 4)),
}


@pytest.mark.parametrize("mode", SPACES)
@PROPERTY
@given(data=st.data())
def test_keyed_analysis_matches_tuple_references(mode, data):
    """Sparse and dense analysis agree: the mask-keyed rows, holding masses,
    orbit labels and start index equal the tuple references, and the sparse
    TV curve equals dense propagation of the matrix the references give."""
    directed, variant, graphs = SPACES[mode]
    seq = data.draw(graphs).degree_sequence()
    states = enum_states(seq)
    an = StateSpaceAnalysis(seq, states, variant)
    rows = switch_rows_by_tuples(states, directed)
    denom = step_denominator(seq, variant)
    assert an._rows == rows
    assert an._holds == [denom - len(oracle_neighbour_states(state, directed)) for state in states]
    assert an.relabelling_orbits() == relabelling_orbits_by_tuples(seq, states)
    greedy = realize_directed(seq) if directed else realize(seq)
    assert an.start_index == states.index(greedy.canonical())
    count = len(states)
    matrix = [
        [Fraction(row.count(j) + (denom - len(row) if i == j else 0), denom) for j in range(count)]
        for i, row in enumerate(rows)
    ]
    assert an.tv_curve(4) == dense_tv_curve(matrix, 4, an.start_index)


@pytest.mark.parametrize("directed", [False, True])
@PROPERTY
@given(data=st.data())
def test_natural_encodings_repair_to_the_target_or_stick(directed, data):
    """L = G + G' - Z over three states of one small sequence is consistent
    with Z and passes the counting identities; repair either returns Z's
    degrees within p + q switches or is stuck after fewer.  A good encoding
    may still stick: these sequences are outside the theorems' hypotheses."""
    seq = data.draw(_directed(6, 6) if directed else _undirected(6, 7)).degree_sequence()
    states = enum_states(seq)
    store = Digraph if directed else Graph
    G, Gp, Z = (store(seq.n, data.draw(st.sampled_from(states))) for _ in range(3))
    L = encode(G, Gp, Z)
    assert L.is_consistent_with(Z)
    verify_counting_identities(L)
    p, q = L.defect_counts()
    assume(p + q)
    try:
        res = repair(L)
    except RepairStuckError as exc:
        assert len(exc.log) < p + q
    else:
        assert len(res.switch_log) <= p + q
        assert res.result.degree_sequence() == Z.degree_sequence()


if __name__ == "__main__":
    examples = int(sys.argv[1])
    body = test_natural_encodings_repair_to_the_target_or_stick.hypothesis.inner_test
    scaled = settings(PROPERTY, max_examples=examples)(given(data=st.data())(body))
    for directed in (False, True):
        scaled(directed)
        print(f"natural encodings, directed={directed}: {examples} examples passed")
