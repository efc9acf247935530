import random
from fractions import Fraction

import pytest

from switchmix import (
    VARIANT_ALL_PAIRS,
    VARIANT_EXACT,
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    FrozenChainError,
    Graph,
    advance,
    derive_seed,
    realize,
    sample,
)
from switchmix.statespace import analyze, enum_states, step_denominator

from conftest import oracle_neighbour_states


def law(x, y, variant=VARIANT_EXACT):
    """P(x, y), read from the exact matrix of the space of ``x``."""
    an = analyze(x.degree_sequence(), variant)
    return an.transition_matrix[an.states.index(x.canonical())][an.states.index(y.canonical())]


def test_exact_law_on_two_state_space():
    g1 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    g2 = Graph(4, [(0, 2), (1, 2), (1, 3)])
    assert law(g1, g2) == Fraction(1, 3)
    assert law(g1, g1) == Fraction(2, 3)
    assert law(g2, g2) == Fraction(2, 3)


def test_transition_zero_when_not_one_switch():
    g1 = Graph(6, [(0, 1), (2, 3), (4, 5)])
    g2 = Graph(6, [(0, 2), (1, 3), (4, 5)])
    g3 = Graph(6, [(0, 2), (1, 4), (3, 5)])
    assert law(g1, g2) > 0
    assert law(g1, g3) == 0  # two switches away


def test_transition_directed_m4():
    dg1 = Digraph(4, [(0, 1), (2, 3), (1, 0), (3, 2)])
    dg2 = Digraph(4, [(0, 3), (2, 1), (1, 0), (3, 2)])
    assert law(dg1, dg2) == Fraction(1, 6)


def test_frozen_chain_reported():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    rng = random.Random(0)
    with pytest.raises(FrozenChainError):
        advance(tri, rng, 1, tri.degree_sequence().a)
    with pytest.raises(FrozenChainError):
        sample(tri, 5, seed=1)
    # the state is absorbing in the exact law
    assert law(tri, tri) == 1
    # a single edge or arc freezes every variant alike
    with pytest.raises(FrozenChainError):
        advance(Graph(2, [(0, 1)]), rng, 1)
    with pytest.raises(FrozenChainError):
        advance(Digraph(2, [(0, 1)]), rng, 1)
    # with no proposals at all, every variant's law is the identity
    assert law(Digraph(2, [(0, 1)]), Digraph(2, [(0, 1)])) == 1
    assert law(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]), VARIANT_ALL_PAIRS) == 1
    assert law(Graph(3), Graph(3), VARIANT_ALL_PAIRS) == 1


def test_directed_three_cycle_always_holds():
    dg = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    rng = random.Random(7)
    assert advance(dg, rng, 200) == 0
    assert sorted(dg.edges) == [(0, 1), (1, 2), (2, 0)]


def test_step_preserves_degrees_and_consistency(rng):
    g = realize(DegreeSequence([3, 3, 2, 2, 2, 2, 2, 2]))
    want = list(g.degree)
    a = g.degree_sequence().a
    advance(g, rng, 3000, a)
    assert g.degree == want
    g.audit()

    dg = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4), (1, 3), (3, 0), (4, 1)])
    din, dout = list(dg.in_degree), list(dg.out_degree)
    advance(dg, rng, 3000)
    assert dg.in_degree == din and dg.out_degree == dout
    dg.audit()


def test_all_pairs_variant_steps(rng):
    g = realize(DegreeSequence([2, 2, 2, 1, 1]))
    want = list(g.degree)
    moved = advance(g, rng, 2000)  # a=None: the all-pairs variant
    assert g.degree == want and moved > 0


def test_sample_determinism_and_counts():
    start = realize(DegreeSequence([2] * 6))
    settings = {"steps": 50, "seed": 123, "thinning": 3}
    s1 = sample(start, 40, **settings)
    s2 = sample(start, 40, **settings)
    assert s1 == s2 and len(s1) == 40
    assert sample(start, 0, **settings) == []
    # distinct sub-streams differ
    assert sample(start, 40, stream=1, **settings) != s1


def test_derive_seed_is_stable():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(1, 0) != derive_seed(0, 0)


def test_chain_run_validation():
    # the settings are checked before the count and before any draw, in the
    # order burn-in, thinning, variant (a frozen start would raise otherwise)
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="burn-in"):
        sample(g, -1, steps=-1, thinning=0, variant="bogus")
    with pytest.raises(ValueError, match="thinning"):
        sample(g, -1, thinning=0, variant="bogus")
    with pytest.raises(ValueError, match="unknown variant"):
        sample(g, -1, variant="bogus")
    with pytest.raises(ValueError, match="negative sample count"):
        sample(g, -1)
    # the CLI's spellings are not variants
    with pytest.raises(ValueError, match="unknown variant"):
        sample(g, 0, variant="exact")
    with pytest.raises(TypeError):
        sample(g, 1, 0)  # the settings are keyword-only


@pytest.mark.parametrize(
    "seq",
    [
        DegreeSequence([1, 1, 1, 1]),
        DegreeSequence([2, 2, 1, 1, 0]),
        DegreeSequence([1, 1, 0]),
        DegreeSequence([0, 0, 0]),
        DegreeSequence([2, 2, 2]),
        DirectedDegreeSequence([(1, 1)] * 4),
        DirectedDegreeSequence([(0, 1), (1, 0)]),
    ],
)
@pytest.mark.parametrize("variant", [VARIANT_EXACT, VARIANT_ALL_PAIRS])
def test_transition_probability_matches_analysis(seq, variant):
    # every entry of P against the tuple oracle: 1/denom to each switch
    # neighbour, 0 elsewhere off the diagonal and the rest on it, frozen
    # chains (P = I) and the all-pairs denominator included
    an = analyze(seq, variant=variant)
    denom = step_denominator(seq, variant)
    directed = isinstance(seq, DirectedDegreeSequence)
    for i, x in enumerate(an.states):
        neighbours = oracle_neighbour_states(x, directed)
        for j, y in enumerate(an.states):
            if i == j:
                assert an.transition_matrix[i][j] == 1 - Fraction(len(neighbours), denom)
            else:
                assert an.transition_matrix[i][j] == Fraction(int(y in neighbours), denom)


def test_switch_neighbours_match_matrix():
    d = DegreeSequence([1, 1, 1, 1])
    states = enum_states(d)
    assert len(states) == 3  # perfect matchings of K4
    an = analyze(d)
    # every off-diagonal entry 1/(3a) = 1/3, diagonal 1/3
    for i in range(3):
        for j in range(3):
            assert an.transition_matrix[i][j] == Fraction(1, 3)


def test_empirical_uniformity_small(rng):
    d = DegreeSequence([2] * 6)
    states = enum_states(d)
    samples = sample(realize(d), 7000, steps=500, seed=2024, thinning=5)
    counts = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    tv = Fraction(1, 2) * sum(
        abs(Fraction(counts.get(s, 0), 7000) - Fraction(1, 70)) for s in states
    )
    assert tv < Fraction(15, 100)
