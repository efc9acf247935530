"""Simple graph and digraph stores tuned for switch-chain stepping.

Both kinds share one store: edges live in an indexed array so a uniform
random edge is one index draw, with a set of the same keys beside it for
O(1) membership tests.  The store only builds and reads a state; the one
code that moves it, drawing edge pairs and rewriting the array by
swap-with-last, is the chain kernel ``chain.advance``.  ``Graph`` and
``Digraph`` differ only in how a vertex pair is keyed (unordered as
``(min, max)``, or ordered).  Degrees are counted from the edge array on
demand, so they cannot drift from it.  Vertices are 0-indexed everywhere,
including file I/O.
"""

from __future__ import annotations

from .degseq import DegreeSequence, DirectedDegreeSequence


class _EdgeStore:
    __slots__ = ("n", "edges", "_members")

    directed = False

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        self.edges = []
        self._members = set()
        for u, v in edges:
            self.add_edge(u, v)

    def has_edge(self, u, v) -> bool:
        return self._key(u, v) in self._members

    def add_edge(self, u, v):
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range")
        key = self._key(u, v)
        if key in self._members:
            raise ValueError(f"duplicate edge {key}")
        self._members.add(key)
        self.edges.append(key)

    def copy(self):
        g = type(self)(self.n)
        g.edges = list(self.edges)
        g._members = set(self._members)
        return g

    def canonical(self) -> tuple:
        return tuple(sorted(self.edges))

    def _tally(self, ends) -> list:
        deg = [0] * self.n
        for v in ends:
            deg[v] += 1
        return deg

    def audit(self):
        """Debug consistency check between the edge array and the set."""
        assert len(self._members) == len(self.edges) and self._members == set(self.edges)
        for u, v in self.edges:
            assert u != v and 0 <= u < self.n and 0 <= v < self.n and self._key(u, v) == (u, v)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self._members == other._members
        )

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, edges={sorted(self.edges)!r})"


class Graph(_EdgeStore):
    """Simple undirected graph; no loops, no parallel edges."""

    __slots__ = ()

    # Each class keeps ``canonical`` in its own namespace so tools that wrap
    # methods per class (bench/tracing.py) see both kinds.
    canonical = _EdgeStore.canonical

    @staticmethod
    def _key(u, v):
        return (u, v) if u < v else (v, u)

    @property
    def degree(self) -> list:
        return self._tally(v for e in self.edges for v in e)

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.degree)


class Digraph(_EdgeStore):
    """Simple digraph; no loops, no parallel arcs, antiparallel pairs allowed.

    ``arcs`` is an alias of ``edges``.
    """

    __slots__ = ()

    directed = True
    canonical = _EdgeStore.canonical

    @staticmethod
    def _key(u, v):
        return (u, v)

    @property
    def in_degree(self) -> list:
        return self._tally(v for _, v in self.edges)

    @property
    def out_degree(self) -> list:
        return self._tally(u for u, _ in self.edges)

    def degree_sequence(self) -> DirectedDegreeSequence:
        return DirectedDegreeSequence(zip(self.in_degree, self.out_degree))

    arcs = property(lambda self: self.edges)


def edge_list_text(n, edges) -> str:
    """Edge-list format: header "n <vertex count>", then one "u v" per edge, in order."""
    return f"n {n}\n" + "".join([f"{u} {v}\n" for u, v in edges])


def write_edge_list(g, path):
    """Write ``g`` in the edge-list format, in the stored edge order.

    Read + write round-trips a file byte for byte.  A canonical state tuple
    is the stored order of the store built from it, so
    ``edge_list_text(n, state)`` is the file of that store.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_list_text(g.n, g.edges))


def _read(path, cls):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or not lines[0].startswith("n "):
        raise ValueError(f"{path}: missing 'n <count>' header")
    g = cls(int(lines[0].split()[1]))
    for line in lines[1:]:
        u, v = line.split()
        g.add_edge(int(u), int(v))
    return g


def read_graph(path) -> Graph:
    return _read(path, Graph)


def read_digraph(path) -> Digraph:
    return _read(path, Digraph)
