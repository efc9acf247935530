import random
from fractions import Fraction

import pytest

from switchmix import (
    VARIANT_ALL_PAIRS,
    ChainRun,
    DegreeSequence,
    Digraph,
    FrozenChainError,
    Graph,
    derive_seed,
    realize,
    sample,
    step_directed,
    step_undirected,
    switch_neighbours,
    transition_probability,
)
from switchmix.statespace import analyze, enum_states


def test_exact_law_on_two_state_space():
    g1 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    g2 = Graph(4, [(0, 2), (1, 2), (1, 3)])
    assert transition_probability(g1, g2) == Fraction(1, 3)
    assert transition_probability(g1, g1) == Fraction(2, 3)
    assert transition_probability(g2, g2) == Fraction(2, 3)


def test_transition_zero_when_not_one_switch():
    g1 = Graph(6, [(0, 1), (2, 3), (4, 5)])
    g2 = Graph(6, [(0, 2), (1, 3), (4, 5)])
    g3 = Graph(6, [(0, 2), (1, 4), (3, 5)])
    assert transition_probability(g1, g2) > 0
    assert transition_probability(g1, g3) == 0  # two switches away


def test_transition_directed_m4():
    dg1 = Digraph(4, [(0, 1), (2, 3), (1, 0), (3, 2)])
    dg2 = Digraph(4, [(0, 3), (2, 1), (1, 0), (3, 2)])
    assert transition_probability(dg1, dg2) == Fraction(1, 6)


def test_transition_requires_same_degrees():
    with pytest.raises(ValueError):
        transition_probability(Graph(3, [(0, 1)]), Graph(3, [(1, 2)]))
    with pytest.raises(TypeError):
        transition_probability(Graph(2, [(0, 1)]), Digraph(2, [(0, 1)]))


def test_frozen_chain_reported():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    rng = random.Random(0)
    with pytest.raises(FrozenChainError):
        step_undirected(tri, rng)
    run = ChainRun(start=tri, steps=0, seed=1)
    with pytest.raises(FrozenChainError):
        sample(run, 5)
    # the state is absorbing in the exact law
    assert transition_probability(tri, tri) == 1
    # a single edge or arc freezes every variant alike
    with pytest.raises(FrozenChainError):
        step_undirected(Graph(2, [(0, 1)]), rng, VARIANT_ALL_PAIRS)
    with pytest.raises(FrozenChainError):
        step_directed(Digraph(2, [(0, 1)]), rng)


def test_directed_three_cycle_always_holds():
    dg = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    rng = random.Random(7)
    for _ in range(200):
        assert not step_directed(dg, rng)
    assert sorted(dg.arcs) == [(0, 1), (1, 2), (2, 0)]


def test_step_preserves_degrees_and_consistency(rng):
    g = realize(DegreeSequence([3, 3, 2, 2, 2, 2, 2, 2]))
    want = list(g.degree)
    a = g.degree_sequence().a
    for _ in range(3000):
        step_undirected(g, rng, a=a)
    assert g.degree == want
    g.audit()

    dg = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4), (1, 3), (3, 0), (4, 1)])
    din, dout = list(dg.in_degree), list(dg.out_degree)
    for _ in range(3000):
        step_directed(dg, rng)
    assert dg.in_degree == din and dg.out_degree == dout
    dg.audit()


def test_all_pairs_variant_steps(rng):
    g = realize(DegreeSequence([2, 2, 2, 1, 1]))
    want = list(g.degree)
    moved = sum(step_undirected(g, rng, VARIANT_ALL_PAIRS) for _ in range(2000))
    assert g.degree == want and moved > 0


def test_sample_determinism_and_counts():
    start = realize(DegreeSequence([2] * 6))
    run = ChainRun(start=start, steps=50, seed=123, thinning=3)
    s1 = sample(run, 40)
    s2 = sample(run, 40)
    assert s1 == s2 and len(s1) == 40
    assert sample(run, 0) == []
    # distinct sub-streams differ
    assert sample(run, 40, stream=1) != s1


def test_derive_seed_is_stable():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(1, 0) != derive_seed(0, 0)


def test_chain_run_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        ChainRun(start=g, steps=-1)
    with pytest.raises(ValueError):
        ChainRun(start=g, thinning=0)
    with pytest.raises(ValueError):
        ChainRun(start=g, variant="bogus")


def test_switch_neighbours_match_matrix():
    d = DegreeSequence([1, 1, 1, 1])
    states = enum_states(d)
    assert len(states) == 3  # perfect matchings of K4
    an = analyze(d)
    # every off-diagonal entry 1/(3a) = 1/3, diagonal 1/3
    for i in range(3):
        for j in range(3):
            assert an.transition_matrix[i][j] == Fraction(1, 3)
    g = Graph(4, list(states[0]))
    assert len(switch_neighbours(g)) == 2


def test_empirical_uniformity_small(rng):
    d = DegreeSequence([2] * 6)
    states = enum_states(d)
    run = ChainRun(start=realize(d), steps=500, seed=2024, thinning=5)
    samples = sample(run, 7000)
    counts = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    tv = Fraction(1, 2) * sum(
        abs(Fraction(counts.get(s, 0), 7000) - Fraction(1, 70)) for s in states
    )
    assert tv < Fraction(15, 100)
