"""The fused kernel ``chain.advance`` against the per-step reference kernel.

Both must leave the same edge array and membership set, count the same
accepted moves and consume the random stream to the same ``getstate()``, so
every seeded trajectory is unchanged.
"""

import random

import pytest

from conftest import (
    random_digraph_sequence,
    random_graph,
    reference_advance,
    reference_sample,
    reference_step_directed,
    reference_step_undirected,
)
from switchmix import (
    VARIANT_ALL_PAIRS,
    VARIANT_EXACT,
    DegreeSequence,
    Digraph,
    FrozenChainError,
    Graph,
    realize,
    realize_directed,
    sample,
)
from switchmix.chain import advance

EDGE_COUNTS = (2, 3, 4, 5, 8, 9, 17)  # count or count - 1 crosses a power of two


def _variants(g):
    """The ``a`` argument of every variant that can move ``g``: None, and the
    exact variant's pair count when ``g`` is a graph with a disjoint pair."""
    a = None if g.directed else g.degree_sequence().a
    return [None, a] if a else [None]


def _assert_same_run(g, seed, steps, a, chunks=(1,)):
    """advance in ``chunks``-sized calls against the reference, on copies of ``g``."""
    fast, slow = g.copy(), g.copy()
    rng_fast, rng_slow = random.Random(seed), random.Random(seed)
    accepted, done, k = 0, 0, 0
    while done < steps:
        size = min(chunks[k % len(chunks)], steps - done)
        accepted += advance(fast, rng_fast, size, a)
        done += size
        k += 1
    assert accepted == reference_advance(slow, rng_slow, steps, a)
    assert fast.edges == slow.edges
    assert fast._members == slow._members
    assert rng_fast.getstate() == rng_slow.getstate()
    fast.audit()
    return accepted


def _matching(n_edges, directed):
    cls = Digraph if directed else Graph
    return cls(2 * n_edges, [(2 * k, 2 * k + 1) for k in range(n_edges)])


def _path(n_edges, directed):
    cls = Digraph if directed else Graph
    return cls(n_edges + 1, [(k, k + 1) for k in range(n_edges)])


def _random_with_edges(rng, n_edges, directed):
    n = n_edges + 3
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    cls = Digraph if directed else Graph
    return cls(n, rng.sample(pairs, n_edges))


@pytest.mark.parametrize("n_edges", EDGE_COUNTS)
@pytest.mark.parametrize("directed", [False, True])
def test_small_edge_counts_match_reference(n_edges, directed):
    rng = random.Random(n_edges)
    graphs = [_matching(n_edges, directed), _path(n_edges, directed)]
    graphs += [_random_with_edges(rng, n_edges, directed) for _ in range(3)]
    for idx, g in enumerate(graphs):
        for a in _variants(g):
            _assert_same_run(g, seed=1000 * n_edges + idx, steps=400, a=a, chunks=(1, 7, 50))


def test_random_sequences_match_reference():
    rng = random.Random(20170125)
    for n in (6, 20, 150, 1000):
        g = random_graph(rng, n, min(0.5, 3.5 / n))
        for a in _variants(g):
            moved = _assert_same_run(g, seed=n, steps=3000, a=a, chunks=(3000,))
            assert moved > 0
    for n in (6, 40, 600):
        dg = realize_directed(random_digraph_sequence(rng, n, min(0.5, 2.5 / n)))
        assert _assert_same_run(dg, seed=n, steps=3000, a=None, chunks=(3000,)) > 0


def test_dense_sequences_match_reference():
    """Few non-adjacent pairs: the exact variant redraws on most proposals."""
    star_and_edge = Graph(8, [(0, k) for k in range(1, 6)] + [(6, 7)])
    near_complete = realize(DegreeSequence([4, 4, 4, 3, 3]))  # K5 minus an edge
    rng = random.Random(3)
    graphs = [star_and_edge, near_complete, random_graph(rng, 6, 0.9)]
    for g in graphs:
        count = len(g.edges)
        a = g.degree_sequence().a
        assert 0 < a < count * (count - 1) // 4  # most pairs are adjacent
        _assert_same_run(g, seed=count, steps=2000, a=a, chunks=(1, 13, 500))
        _assert_same_run(g, seed=count, steps=2000, a=None, chunks=(2000,))
    dense = realize_directed(random_digraph_sequence(rng, 8, 0.8))
    _assert_same_run(dense, seed=8, steps=2000, a=None, chunks=(1, 13, 500))


def test_one_step_calls_match_reference():
    rng = random.Random(11)
    g = random_graph(rng, 30, 0.2)
    a = g.degree_sequence().a
    for step_a in (a, None):
        fast, slow = g.copy(), g.copy()
        rng_fast, rng_slow = random.Random(5), random.Random(5)
        for _ in range(500):
            assert advance(fast, rng_fast, 1, step_a) == reference_step_undirected(
                slow, rng_slow, step_a
            )
        assert fast.edges == slow.edges and rng_fast.getstate() == rng_slow.getstate()
    dg = realize_directed(random_digraph_sequence(rng, 30, 0.2))
    fast, slow = dg.copy(), dg.copy()
    rng_fast, rng_slow = random.Random(6), random.Random(6)
    for _ in range(500):
        assert advance(fast, rng_fast, 1) == reference_step_directed(slow, rng_slow)
    assert fast.edges == slow.edges and rng_fast.getstate() == rng_slow.getstate()


def test_sample_matches_reference_sample():
    rng = random.Random(9)
    g = random_graph(rng, 40, 0.15)
    dg = realize_directed(random_digraph_sequence(rng, 30, 0.15))
    runs = [
        (g, {"steps": 300, "seed": 4, "variant": VARIANT_EXACT, "thinning": 7}),
        (g, {"steps": 0, "seed": 5, "variant": VARIANT_ALL_PAIRS, "thinning": 1}),
        (dg, {"steps": 300, "seed": 6, "thinning": 3}),
    ]
    for start, settings in runs:
        for stream in (0, 2):
            got = sample(start, 25, stream=stream, **settings)
            assert got == reference_sample(start, 25, stream=stream, **settings)


def test_frozen_chains_raise_the_reference_error():
    cases = [
        (Graph(3, [(0, 1), (1, 2), (0, 2)]), 0),  # a triangle: no disjoint pair
        (Graph(2, [(0, 1)]), None),
        (Graph(5, [(0, 1)]), 0),
        (Digraph(2, [(0, 1)]), None),
        (Digraph(3), None),
    ]
    for g, a in cases:
        with pytest.raises(FrozenChainError) as fast:
            advance(g.copy(), random.Random(0), 5, a)
        with pytest.raises(FrozenChainError) as slow:
            reference_advance(g.copy(), random.Random(0), 5, a)
        assert str(fast.value) == str(slow.value)
        rng = random.Random(0)
        before = rng.getstate()
        assert advance(g, rng, 0, a) == 0 and rng.getstate() == before
        variant = VARIANT_EXACT if a == 0 else VARIANT_ALL_PAIRS
        with pytest.raises(FrozenChainError) as sampled:
            sample(g, 3, seed=1, variant=variant)
        assert str(sampled.value) == str(slow.value)
