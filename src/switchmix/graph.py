"""Simple graph and digraph stores tuned for switch-chain stepping.

Both kinds share one store: edges live in an indexed array so a uniform
random edge is one randrange call, with a key -> index dict beside it for
O(1) membership tests and O(1) deletion by swap-with-last.  ``Graph`` and
``Digraph`` differ only in how a vertex pair is keyed (unordered as
``(min, max)``, or ordered) and in which degrees a switch must keep.
Degrees are counted from the edge array on demand, so they cannot drift
from it.  Vertices are 0-indexed everywhere, including file I/O.
"""

from __future__ import annotations

from .degseq import DegreeSequence, DirectedDegreeSequence


class _EdgeStore:
    __slots__ = ("n", "edges", "_pos")

    directed = False

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        self.edges = []
        self._pos = {}
        for u, v in edges:
            self.add_edge(u, v)

    def has_edge(self, u, v) -> bool:
        return self._key(u, v) in self._pos

    def add_edge(self, u, v):
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range")
        key = self._key(u, v)
        if key in self._pos:
            raise ValueError(f"duplicate edge {key}")
        self._pos[key] = len(self.edges)
        self.edges.append(key)

    def remove_edge(self, u, v):
        key = self._key(u, v)
        if key not in self._pos:
            raise ValueError(f"edge {key} not present")
        self._delete(key)

    def _delete(self, key):
        pos = self._pos.pop(key)
        last = self.edges.pop()
        if last != key:
            self.edges[pos] = last
            self._pos[last] = pos

    def switch(self, r1, r2, a1, a2):
        """Replace stored edges ``r1``, ``r2`` by the pairs ``a1``, ``a2``; unchecked.

        The chain kernel calls this after its own collision test: ``r1`` and
        ``r2`` must be distinct stored keys and ``a1``, ``a2`` absent pairs
        that keep every degree.  Removal and insertion order fix the edge
        array, which is part of a seeded trajectory.
        """
        a1, a2 = self._key(*a1), self._key(*a2)
        self._delete(r1)
        self._delete(r2)
        pos, edges = self._pos, self.edges
        pos[a1] = len(edges)
        edges.append(a1)
        pos[a2] = len(edges)
        edges.append(a2)

    def replace_edges(self, remove, add):
        """Swap two edges for two others, atomically.

        Validates everything before touching the store: removed edges must be
        present and distinct, added edges distinct, loop-free and absent
        (unless they coincide with removed ones), and the exchange must keep
        every degree.
        """
        r1, r2 = self._key(*remove[0]), self._key(*remove[1])
        a1, a2 = self._key(*add[0]), self._key(*add[1])
        if r1 == r2 or a1 == a2:
            raise ValueError("edge pairs must be distinct")
        if r1 not in self._pos or r2 not in self._pos:
            raise ValueError("removed edge not present")
        removed = {r1, r2}
        for e in (a1, a2):
            if e[0] == e[1]:
                raise ValueError(f"added edge {e} is a loop")
            if e not in removed and e in self._pos:
                raise ValueError(f"added edge {e} already present")
        if not self._keeps_degrees(r1, r2, a1, a2):
            raise ValueError("exchange does not preserve degrees")
        if removed != {a1, a2}:
            self.switch(r1, r2, a1, a2)
        return self

    def random_edge_index_pair(self, rng):
        """Uniform unordered pair of distinct edge indices."""
        count = len(self.edges)
        if count < 2:
            raise ValueError("need at least 2 edges")
        i = rng.randrange(count)
        j = rng.randrange(count - 1)
        if j >= i:
            j += 1
        return i, j

    def copy(self):
        g = type(self)(self.n)
        g.edges = list(self.edges)
        g._pos = dict(self._pos)
        return g

    def canonical(self) -> tuple:
        return tuple(sorted(self.edges))

    def _tally(self, ends) -> list:
        deg = [0] * self.n
        for v in ends:
            deg[v] += 1
        return deg

    def audit(self):
        """Debug consistency check between the edge array and the index."""
        assert len(self._pos) == len(self.edges)
        for idx, (u, v) in enumerate(self.edges):
            assert u != v and 0 <= u < self.n and 0 <= v < self.n
            assert self._key(u, v) == (u, v) and self._pos[(u, v)] == idx

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and set(self.edges) == set(other.edges)
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.edges)))

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

    @staticmethod
    def _keeps_degrees(r1, r2, a1, a2):
        return sorted(r1 + r2) == sorted(a1 + a2)

    @property
    def degree(self) -> list:
        return self._tally(v for e in self.edges for v in e)

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.degree)


class Digraph(_EdgeStore):
    """Simple digraph; no loops, no parallel arcs, antiparallel pairs allowed.

    ``arcs`` and the ``*_arc`` methods are aliases of the edge names.
    """

    __slots__ = ()

    directed = True
    canonical = _EdgeStore.canonical

    @staticmethod
    def _key(u, v):
        return (u, v)

    @staticmethod
    def _keeps_degrees(r1, r2, a1, a2):
        tails = sorted((r1[0], r2[0])) == sorted((a1[0], a2[0]))
        return tails and sorted((r1[1], r2[1])) == sorted((a1[1], a2[1]))

    @property
    def in_degree(self) -> list:
        return self._tally(v for _, v in self.edges)

    @property
    def out_degree(self) -> list:
        return self._tally(u for u, _ in self.edges)

    def degree_sequence(self) -> DirectedDegreeSequence:
        return DirectedDegreeSequence(zip(self.in_degree, self.out_degree))

    arcs = property(lambda self: self.edges)
    has_arc = _EdgeStore.has_edge
    add_arc = _EdgeStore.add_edge
    remove_arc = _EdgeStore.remove_edge
    replace_arcs = _EdgeStore.replace_edges
    random_arc_index_pair = _EdgeStore.random_edge_index_pair


def write_edge_list(g, path):
    """Edge-list format: header "n <vertex count>", then one "u v" per line.

    Lines are written in the stored edge order, so read + write round-trips
    a file byte for byte.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


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
