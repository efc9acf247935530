import random
from collections import Counter

import pytest

from switchmix import Digraph, Graph, advance, encode, read_digraph, read_graph, write_edge_list

from conftest import random_graph, reference_edge_index_pair


def test_basic_graph_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degree == [1, 2, 2, 1]
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    g.audit()


def test_no_loops_or_duplicates():
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.add_edge(1, 0)
    with pytest.raises(ValueError, match=r"edge \(0,3\) out of range"):
        g.add_edge(0, 3)
    with pytest.raises(ValueError, match="negative vertex count"):
        Graph(-1)


def test_repr_lists_the_sorted_keys():
    assert repr(Graph(3, [(2, 1), (1, 0)])) == "Graph(n=3, edges=[(0, 1), (1, 2)])"
    assert repr(Digraph(3, [(2, 1), (1, 0)])) == "Digraph(n=3, edges=[(1, 0), (2, 1)])"


def test_mutable_stores_are_not_hashable():
    # equal stores may be moved apart in place, so a hash would go stale in a set
    g = Graph(3, [(0, 1)])
    dg = Digraph(3, [(0, 1)])
    assert g == Graph(3, [(1, 0)]) and dg != Digraph(3, [(1, 0)])
    for store in (g, dg, encode(g, g, g)):
        with pytest.raises(TypeError):
            hash(store)


def test_switch_example():
    # the path 0-1-2-3 has one disjoint pair, and one matching of it applies
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rng = random.Random(0)
    while not advance(g, rng, 1, a=1):
        pass
    assert set(g.edges) == {(0, 2), (1, 2), (1, 3)}
    assert g.degree == [1, 2, 2, 1]
    g.audit()


def test_random_edge_pair_uniform():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rng = random.Random(1)
    counts = Counter(tuple(sorted(reference_edge_index_pair(g, rng))) for _ in range(30000))
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    for v in counts.values():
        assert abs(v - 10000) < 500


def test_random_edge_pair_needs_two_edges():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        reference_edge_index_pair(g, random.Random(0))


def test_random_edge_pair_k4_chi_square():
    from scipy import stats

    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    arcs = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (0, 2)])
    for g, seed in ((k4, 2), (arcs, 3)):
        rng = random.Random(seed)
        counts = Counter(
            tuple(sorted(reference_edge_index_pair(g, rng))) for _ in range(100000)
        )
        assert len(counts) == 15
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.001


def test_degree_counters_after_mutation_storm(rng):
    g = random_graph(rng, 10, 0.4)
    want = g.degree
    if len(g.edges) >= 2:
        advance(g, rng, 200)
    g.audit()
    fresh = Counter()
    for u, v in g.edges:
        fresh[u] += 1
        fresh[v] += 1
    assert [fresh[v] for v in range(g.n)] == g.degree == want


def test_digraph_basics():
    dg = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    assert dg.in_degree == [1, 1, 1]
    assert dg.out_degree == [1, 2, 0]
    assert dg.has_edge(0, 1) and dg.has_edge(1, 0) and not dg.has_edge(2, 1)
    assert dg.arcs is dg.edges  # the one alias left, read by the benchmark harness
    dg.audit()
    with pytest.raises(ValueError):
        dg.add_edge(0, 0)
    with pytest.raises(ValueError):
        dg.add_edge(0, 1)


def test_digraph_switch_example():
    dg = Digraph(4, [(0, 1), (2, 3)])
    assert advance(dg, random.Random(0), 1) == 1  # the one pair always swaps heads
    assert set(dg.edges) == {(0, 3), (2, 1)}
    dg.audit()
    path = Digraph(3, [(0, 1), (1, 2)])
    assert advance(path, random.Random(0), 20) == 0  # its one pair shares vertex 1
    assert path.edges == [(0, 1), (1, 2)]


def test_edge_list_round_trip(tmp_path):
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    g2 = read_graph(path)
    assert g2 == g and g2.edges == g.edges
    path2 = tmp_path / "g2.txt"
    write_edge_list(g2, path2)
    assert path.read_bytes() == path2.read_bytes()

    dg = Digraph(3, [(2, 0), (0, 1)])
    dpath = tmp_path / "d.txt"
    write_edge_list(dg, dpath)
    dg2 = read_digraph(dpath)
    assert dg2 == dg and dg2.edges == dg.edges
    dpath2 = tmp_path / "d2.txt"
    write_edge_list(dg2, dpath2)
    assert dpath.read_bytes() == dpath2.read_bytes()


def test_read_rejects_missing_header(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    with pytest.raises(ValueError):
        read_graph(bad)
