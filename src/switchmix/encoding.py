"""Defect encodings: integer matrices that interpolate between graph states.

An encoding L is an integer matrix with entries in {-1, 0, 1, 2}, zero
diagonal, and row sums (plus column sums, in the directed mode) equal to the
target degrees.  Entries equal to -1 or 2 are defects.  L is *consistent*
with a reference state Z when L + Z stays inside {0, 1, 2}; it is *valid*
when its defect edges form a labelled subgraph of a small fixed catalog of
configurations, and (undirected mode) *good* when defect incidences also
respect minimum-degree conditions.  A defect-free encoding is just a graph
with the target degrees.

3-switches walk a 6-cycle pattern on six distinct vertices, decrementing
three entries and incrementing three others, so they preserve every row and
column sum.  ``repair`` drives an encoding back to a defect-free graph with
at most one defect removed per switch (two in the combined phase P1).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass

from .degseq import DegreeSequence, DirectedDegreeSequence
from .graph import Digraph, Graph

MODE_UNDIRECTED = "undirected"
MODE_DIRECTED = "directed"

ENTRY_MIN = -1
ENTRY_MAX = 2

# Catalog of maximal defect configurations, undirected.  Each entry is a list
# of (vertex, vertex, label) with '?' standing for either -1 or 2.  A defect
# layout is acceptable iff it embeds injectively into one of these with labels
# preserved.  The common core is a star: one 2-edge and two (-1)-edges at a
# shared centre; the templates differ in where the fourth edge sits.
_UNDIRECTED_TEMPLATES = (
    ((0, 1, 2), (0, 2, -1), (0, 3, -1), (4, 5, "?")),  # fourth edge disjoint
    ((0, 1, 2), (0, 2, -1), (0, 3, -1), (3, 4, "?")),  # pendant at a (-1)-end
    ((0, 1, -1), (0, 2, -1), (0, 3, 2), (3, 4, "?")),  # pendant at the 2-end
    ((0, 1, 2), (0, 2, -1), (0, 3, -1), (3, 1, "?")),  # chord: (-1)-end to 2-end
    ((0, 1, -1), (0, 2, 2), (0, 3, -1), (3, 1, "?")),  # chord joining the (-1)-ends
)

# Directed catalog.  Centre 0 has out-arcs labelled mu, mu, nu; omega enters 0
# and xi leaves omega's tail.  {mu, nu} = {ksi, omega} = {2, -1} independently,
# and the whole picture may be arc-reversed: 8 shapes x 4 labelings x 2.
_DIRECTED_TEMPLATES = (
    ((0, 1, "m"), (0, 2, "m"), (0, 3, "n"), (4, 0, "w"), (4, 5, "x")),
    ((0, 1, "m"), (0, 2, "m"), (0, 3, "n"), (4, 0, "w"), (4, 3, "x")),
    ((0, 1, "n"), (0, 2, "m"), (0, 3, "m"), (4, 0, "w"), (4, 3, "x")),
    ((0, 1, "m"), (0, 2, "m"), (0, 3, "n"), (3, 0, "w"), (3, 5, "x")),
    ((0, 1, "n"), (0, 2, "m"), (0, 3, "m"), (3, 0, "w"), (3, 5, "x")),
    ((0, 1, "m"), (0, 2, "m"), (0, 3, "n"), (3, 0, "w"), (3, 1, "x")),
    ((0, 1, "n"), (0, 2, "m"), (0, 3, "m"), (3, 0, "w"), (3, 1, "x")),
    ((0, 1, "m"), (0, 2, "n"), (0, 3, "m"), (3, 0, "w"), (3, 1, "x")),
)


def _expand_undirected_catalog():
    out = []
    seen = set()
    for tpl in _UNDIRECTED_TEMPLATES:
        for q_label in (2, -1):
            concrete = tuple(
                (u, v, q_label if lab == "?" else lab) for (u, v, lab) in tpl
            )
            key = frozenset((frozenset((u, v)), lab) for u, v, lab in concrete)
            if key not in seen:
                seen.add(key)
                out.append(concrete)
    return tuple(out)


def _expand_directed_catalog():
    out = []
    seen = set()
    for tpl in _DIRECTED_TEMPLATES:
        for mu, nu in ((2, -1), (-1, 2)):
            for xi, om in ((2, -1), (-1, 2)):
                sub = {"m": mu, "n": nu, "x": xi, "w": om}
                concrete = tuple((u, v, sub[lab]) for (u, v, lab) in tpl)
                for flip in (False, True):
                    arcs = tuple(
                        (v, u, lab) if flip else (u, v, lab) for (u, v, lab) in concrete
                    )
                    key = frozenset(arcs)
                    if key not in seen:
                        seen.add(key)
                        out.append(arcs)
    return tuple(out)


_CATALOG_UNDIRECTED = _expand_undirected_catalog()
_CATALOG_DIRECTED = _expand_directed_catalog()


def _embeds(defects, template, directed):
    """Injective label-preserving embedding of defect edges into a template."""

    def extend(idx, mapping, used):
        if idx == len(defects):
            return True
        u, v, lab = defects[idx]
        for x, y, tlab in template:
            if tlab != lab:
                continue
            orientations = ((x, y),) if directed else ((x, y), (y, x))
            for tx, ty in orientations:
                mu = mapping.get(u)
                mv = mapping.get(v)
                if mu is not None and mu != tx:
                    continue
                if mv is not None and mv != ty:
                    continue
                if mu is None and tx in used:
                    continue
                if mv is None and ty in used:
                    continue
                if mu is None and mv is None and tx == ty:
                    continue
                new_map = dict(mapping)
                new_used = set(used)
                if mu is None:
                    new_map[u] = tx
                    new_used.add(tx)
                if mv is None:
                    new_map[v] = ty
                    new_used.add(ty)
                if extend(idx + 1, new_map, new_used):
                    return True
        return False

    return extend(0, {}, set())


@dataclass
class DefectProfile:
    p: int
    q: int
    two_defects: tuple
    minus_defects: tuple
    zeta: tuple | None = None
    eta: tuple | None = None
    zeta_in: tuple | None = None
    zeta_out: tuple | None = None
    eta_in: tuple | None = None
    eta_out: tuple | None = None


class Encoding:
    """Mutable defect encoding with incremental defect bookkeeping."""

    __slots__ = (
        "mode",
        "target",
        "n",
        "matrix",
        "two",
        "minus",
        "ones_count",
        "zeta",
        "eta",
        "zeta_in",
        "zeta_out",
        "eta_in",
        "eta_out",
    )

    def __init__(self, mode, target, matrix=None):
        if mode not in (MODE_UNDIRECTED, MODE_DIRECTED):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == MODE_UNDIRECTED and not isinstance(target, DegreeSequence):
            raise TypeError("undirected encoding needs a DegreeSequence target")
        if mode == MODE_DIRECTED and not isinstance(target, DirectedDegreeSequence):
            raise TypeError("directed encoding needs a DirectedDegreeSequence target")
        self.mode = mode
        self.target = target
        self.n = target.n
        n = self.n
        self.matrix = [[0] * n for _ in range(n)]
        self.two = set()
        self.minus = set()
        self.ones_count = 0
        if mode == MODE_UNDIRECTED:
            self.zeta = [0] * n
            self.eta = [0] * n
            self.zeta_in = self.zeta_out = self.eta_in = self.eta_out = None
        else:
            self.zeta = self.eta = None
            self.zeta_in = [0] * n
            self.zeta_out = [0] * n
            self.eta_in = [0] * n
            self.eta_out = [0] * n
        if matrix is not None:
            self._load_matrix(matrix)

    def _load_matrix(self, matrix):
        n = self.n
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape does not match the degree sequence")
        for i in range(n):
            if matrix[i][i] != 0:
                raise ValueError("nonzero diagonal")
            for j in range(n):
                v = matrix[i][j]
                if not ENTRY_MIN <= v <= ENTRY_MAX:
                    raise ValueError(f"entry {v} at ({i},{j}) out of range")
        if self.mode == MODE_UNDIRECTED:
            for i in range(n):
                for j in range(i + 1, n):
                    if matrix[i][j] != matrix[j][i]:
                        raise ValueError("matrix not symmetric")
                    if matrix[i][j]:
                        self._set(i, j, matrix[i][j])
            sums = [sum(row) for row in self.matrix]
            if sums != list(self.target.degrees):
                raise ValueError("row sums do not match the target degrees")
        else:
            for i in range(n):
                for j in range(n):
                    if i != j and matrix[i][j]:
                        self._set(i, j, matrix[i][j])
            if [sum(row) for row in self.matrix] != [b for _, b in self.target.pairs]:
                raise ValueError("row sums do not match the target out-degrees")
            cols = [sum(self.matrix[i][j] for i in range(n)) for j in range(n)]
            if cols != [a for a, _ in self.target.pairs]:
                raise ValueError("column sums do not match the target in-degrees")

    # -- low-level entry update with defect bookkeeping --------------------

    def _key(self, u, v):
        if self.mode == MODE_UNDIRECTED:
            return (u, v) if u < v else (v, u)
        return (u, v)

    def _set(self, u, v, val):
        if u == v:
            raise ValueError("diagonal entries are fixed at zero")
        if not ENTRY_MIN <= val <= ENTRY_MAX:
            raise ValueError(f"entry {val} out of range")
        old = self.matrix[u][v]
        if old == val:
            return
        key = self._key(u, v)
        undirected = self.mode == MODE_UNDIRECTED
        if old == 2:
            self.two.discard(key)
            if undirected:
                self.zeta[key[0]] -= 1
                self.zeta[key[1]] -= 1
            else:
                self.zeta_out[u] -= 1
                self.zeta_in[v] -= 1
        elif old == -1:
            self.minus.discard(key)
            if undirected:
                self.eta[key[0]] -= 1
                self.eta[key[1]] -= 1
            else:
                self.eta_out[u] -= 1
                self.eta_in[v] -= 1
        elif old == 1:
            self.ones_count -= 1
        self.matrix[u][v] = val
        if undirected:
            self.matrix[v][u] = val
        if val == 2:
            self.two.add(key)
            if undirected:
                self.zeta[key[0]] += 1
                self.zeta[key[1]] += 1
            else:
                self.zeta_out[u] += 1
                self.zeta_in[v] += 1
        elif val == -1:
            self.minus.add(key)
            if undirected:
                self.eta[key[0]] += 1
                self.eta[key[1]] += 1
            else:
                self.eta_out[u] += 1
                self.eta_in[v] += 1
        elif val == 1:
            self.ones_count += 1

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_graph(cls, g: Graph, target: DegreeSequence | None = None) -> "Encoding":
        enc = cls(MODE_UNDIRECTED, target or g.degree_sequence())
        if enc.n != g.n:
            raise ValueError("vertex count mismatch")
        for u, v in g.edges:
            enc._set(u, v, 1)
        if [sum(row) for row in enc.matrix] != list(enc.target.degrees):
            raise ValueError("graph degrees do not match the target")
        return enc

    @classmethod
    def from_digraph(cls, g: Digraph, target: DirectedDegreeSequence | None = None) -> "Encoding":
        enc = cls(MODE_DIRECTED, target or g.degree_sequence())
        if enc.n != g.n:
            raise ValueError("vertex count mismatch")
        for u, v in g.edges:
            enc._set(u, v, 1)
        if g.in_degree != [a for a, _ in enc.target.pairs] or g.out_degree != [
            b for _, b in enc.target.pairs
        ]:
            raise ValueError("digraph degrees do not match the target")
        return enc

    def copy(self) -> "Encoding":
        enc = Encoding.__new__(Encoding)
        enc.mode = self.mode
        enc.target = self.target
        enc.n = self.n
        enc.matrix = [row[:] for row in self.matrix]
        enc.two = set(self.two)
        enc.minus = set(self.minus)
        enc.ones_count = self.ones_count
        for name in ("zeta", "eta", "zeta_in", "zeta_out", "eta_in", "eta_out"):
            val = getattr(self, name)
            setattr(enc, name, list(val) if val is not None else None)
        return enc

    def __eq__(self, other):
        return (
            isinstance(other, Encoding)
            and self.mode == other.mode
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.mode, tuple(tuple(r) for r in self.matrix)))

    def __repr__(self):
        p, q = len(self.two), len(self.minus)
        return f"Encoding(mode={self.mode!r}, n={self.n}, p={p}, q={q})"

    # -- queries -------------------------------------------------------------

    def entry(self, u, v) -> int:
        return self.matrix[u][v]

    def defect_counts(self):
        return len(self.two), len(self.minus)

    def profile(self) -> DefectProfile:
        p, q = self.defect_counts()
        common = dict(
            p=p,
            q=q,
            two_defects=tuple(sorted(self.two)),
            minus_defects=tuple(sorted(self.minus)),
        )
        if self.mode == MODE_UNDIRECTED:
            return DefectProfile(zeta=tuple(self.zeta), eta=tuple(self.eta), **common)
        return DefectProfile(
            zeta_in=tuple(self.zeta_in),
            zeta_out=tuple(self.zeta_out),
            eta_in=tuple(self.eta_in),
            eta_out=tuple(self.eta_out),
            **common,
        )

    def ones_pairs(self) -> list:
        """Ordered pairs with label 1, in lexicographic order."""
        mat = self.matrix
        n = self.n
        return [(u, v) for u in range(n) for v in range(n) if u != v and mat[u][v] == 1]

    def is_consistent_with(self, Z) -> bool:
        if Z.n != self.n:
            return False
        for u in range(self.n):
            for v in range(self.n):
                if u == v:
                    continue
                if not 0 <= self.matrix[u][v] + (1 if Z.has_edge(u, v) else 0) <= 2:
                    return False
        return True

    def _defect_edges(self):
        out = [(u, v, 2) for (u, v) in self.two]
        out.extend((u, v, -1) for (u, v) in self.minus)
        return sorted(out)

    def is_valid(self) -> bool:
        """Defect layout embeds in the fixed catalog of configurations."""
        defects = self._defect_edges()
        if not defects:
            return True
        directed = self.mode == MODE_DIRECTED
        limit = 5 if directed else 4
        if len(defects) > limit:
            return False
        catalog = _CATALOG_DIRECTED if directed else _CATALOG_UNDIRECTED
        return any(_embeds(defects, tpl, directed) for tpl in catalog)

    def is_good(self) -> bool:
        """Valid, plus degree conditions on 2-defect incidences (undirected).

        A 2-defect edge needs both endpoints of degree >= 2; a vertex on two
        2-defects needs degree >= 4; a vertex on a 2-defect and a (-1)-defect
        needs degree >= 3.  The directed mode carries no extra conditions.
        """
        if not self.is_valid():
            return False
        if self.mode == MODE_DIRECTED:
            return True
        deg = self.target.degrees
        for u, v in self.two:
            if deg[u] < 2 or deg[v] < 2:
                return False
        for v in range(self.n):
            if self.zeta[v] >= 2 and deg[v] < 4:
                return False
            if self.zeta[v] >= 1 and self.eta[v] >= 1 and deg[v] < 3:
                return False
        return True

    def is_defect_free(self) -> bool:
        return not self.two and not self.minus

    def as_graph(self) -> Graph:
        if self.mode != MODE_UNDIRECTED:
            raise ValueError("not an undirected encoding")
        if not self.is_defect_free():
            raise ValueError("encoding still has defects")
        n = self.n
        return Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if self.matrix[u][v] == 1
            ],
        )

    def as_digraph(self) -> Digraph:
        if self.mode != MODE_DIRECTED:
            raise ValueError("not a directed encoding")
        if not self.is_defect_free():
            raise ValueError("encoding still has defects")
        n = self.n
        return Digraph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and self.matrix[u][v] == 1
            ],
        )

    def audit(self):
        """Recompute all bookkeeping from the matrix and compare."""
        fresh = Encoding(self.mode, self.target, self.matrix)
        assert fresh.two == self.two and fresh.minus == self.minus
        assert fresh.ones_count == self.ones_count
        for name in ("zeta", "eta", "zeta_in", "zeta_out", "eta_in", "eta_out"):
            assert getattr(fresh, name) == getattr(self, name)


# ---------------------------------------------------------------------------
# Spec operations


def encode(G, Gp, Z) -> Encoding:
    """Entrywise L = G + G' - Z over states sharing a degree sequence."""
    directed = G.directed
    if Gp.directed != directed or Z.directed != directed:
        raise TypeError("all three states must be graphs or all digraphs")
    ds = G.degree_sequence()
    if Gp.degree_sequence() != ds or Z.degree_sequence() != ds:
        raise ValueError("degree sequences differ")
    n = G.n
    matrix = [
        [
            (G.has_edge(u, v) + Gp.has_edge(u, v) - Z.has_edge(u, v)) if u != v else 0
            for v in range(n)
        ]
        for u in range(n)
    ]
    return Encoding(MODE_DIRECTED if directed else MODE_UNDIRECTED, ds, matrix)


def defect_profile(L: Encoding) -> DefectProfile:
    return L.profile()


def validate(L: Encoding, Z) -> dict:
    """Flags only, no exceptions: catalog validity, goodness, Z-consistency."""
    valid = L.is_valid()
    return {
        "valid": valid,
        "good": L.is_good() if valid else False,
        "consistent": L.is_consistent_with(Z),
    }


def _shift(L: Encoding, tup, sign):
    """Apply (sign=+1) or undo (sign=-1) the 3-switch on `tup`, atomically."""
    a1, b1, a2, b2, a3, b3 = tup
    if len({a1, b1, a2, b2, a3, b3}) != 6:
        raise ValueError("3-switch needs six distinct vertices")
    for v in tup:
        if not 0 <= v < L.n:
            raise ValueError(f"vertex {v} out of range")
    dec = ((a1, b1), (a2, b2), (a3, b3))
    inc = ((a2, b1), (a3, b2), (a1, b3))
    updates = [(u, v, L.matrix[u][v] - sign) for (u, v) in dec]
    updates += [(u, v, L.matrix[u][v] + sign) for (u, v) in inc]
    for _, _, val in updates:
        if not ENTRY_MIN <= val <= ENTRY_MAX:
            raise ValueError("3-switch would push an entry out of range")
    for u, v, val in updates:
        L._set(u, v, val)
    return L


def apply_3switch(L: Encoding, tup) -> Encoding:
    """Decrement (a1,b1),(a2,b2),(a3,b3); increment (a2,b1),(a3,b2),(a1,b3).

    Row and column sums are preserved; fails without mutating when any entry
    would leave {-1,0,1,2}.
    """
    return _shift(L, tup, +1)


def _apply_reverse_3switch(L: Encoding, tup) -> Encoding:
    return _shift(L, tup, -1)


# -- choice counting -----------------------------------------------------------


def choice_count_and_bound(L: Encoding, anchors, stage: str) -> dict:
    """Exact completion counts for the 3-switch stages, next to the
    closed-form lower bounds evaluated from the defect counters.

    stage "second_pair": anchors (a1, b1) with L(a1,b1) != 0; counts ordered
    (a2, b2) with L(a2,b2)=1, L(a2,b1)=0, all four distinct.
    stage "third_pair": anchors (a1, b1, a2, b2) with L(a2,b2)=1; counts
    ordered (a3, b3) with L(a3,b3)=1, L(a1,b3)=L(a3,b2)=0, all six distinct.
    """
    mat = L.matrix
    n = L.n
    p, q = L.defect_counts()
    directed = L.mode == MODE_DIRECTED
    if directed:
        top = L.target.m - 2 * p + q
        dmax = L.target.r_max
        z_in, z_out = L.zeta_in, L.zeta_out
        e_in, e_out = L.eta_in, L.eta_out
    else:
        top = L.target.M - 4 * p + 2 * q
        dmax = L.target.d_max
        z_in = z_out = L.zeta
        e_in = e_out = L.eta

    if stage == "second_pair":
        if len(anchors) != 2:
            raise ValueError("second_pair anchors are (a1, b1)")
        a1, b1 = anchors
        if a1 == b1 or mat[a1][b1] == 0:
            raise ValueError("anchor needs distinct a1, b1 with L(a1,b1) != 0")
        exact = 0
        for a2 in range(n):
            if a2 == a1 or a2 == b1 or mat[a2][b1] != 0:
                continue
            row = mat[a2]
            for b2 in range(n):
                if row[b2] == 1 and b2 != a1 and b2 != b1 and b2 != a2:
                    exact += 1
        hat_in_b1 = [y for y in range(n) if y != b1 and mat[y][b1] != 0]
        bad = dmax * (dmax - z_in[b1] + 2 * e_in[b1] + 2)
        bad += e_in[a1] + e_out[b1] - 2 * (z_in[a1] + z_out[b1])
        bad += sum(e_out[y] - 2 * z_out[y] for y in hat_in_b1)
        return {"exact": exact, "bound": top - bad}

    if stage == "third_pair":
        if len(anchors) != 4:
            raise ValueError("third_pair anchors are (a1, b1, a2, b2)")
        a1, b1, a2, b2 = anchors
        if len({a1, b1, a2, b2}) != 4 or mat[a2][b2] != 1:
            raise ValueError("anchors must be distinct with L(a2,b2) = 1")
        banned = {a1, b1, a2, b2}
        exact = 0
        for a3 in range(n):
            if a3 in banned or mat[a3][b2] != 0:
                continue
            row = mat[a3]
            for b3 in range(n):
                if (
                    row[b3] == 1
                    and b3 not in banned
                    and b3 != a3
                    and mat[a1][b3] == 0
                ):
                    exact += 1
        eta_star = e_in[a1] + e_out[b1] + e_in[a2] + e_out[b2]
        zeta_star = z_in[a1] + z_out[b1] + z_in[a2] + z_out[b2]
        hat_out_a1 = [x for x in range(n) if x != a1 and mat[a1][x] != 0]
        hat_in_b2 = [y for y in range(n) if y != b2 and mat[y][b2] != 0]
        bad = dmax * (2 * dmax - (z_out[a1] + z_in[b2]) + 2 * (e_out[a1] + e_in[b2]) + 4)
        bad += eta_star - 2 * zeta_star
        bad += sum(e_in[x] - 2 * z_in[x] for x in hat_out_a1)
        bad += sum(e_out[y] - 2 * z_out[y] for y in hat_in_b2)
        return {"exact": exact, "bound": top - bad}

    raise ValueError(f"unknown stage {stage!r}")


# -- phase switches and repair ---------------------------------------------

# (label required at (a1,b1), label required at (a2,b1))
_PHASE_PATTERNS = {
    "P1": (2, -1),
    "P2": (2, 0),
    "P3": (1, -1),
    "A": (2, 0),
    "B": (1, -1),
}


def _phase_admits(L: Encoding, phase: str) -> bool:
    p, q = L.defect_counts()
    if phase == "P1":
        return L.mode == MODE_UNDIRECTED and p >= 1 and q >= 1 and p + q == 4
    if phase == "P2":
        return L.mode == MODE_UNDIRECTED and p >= 1
    if phase == "P3":
        return L.mode == MODE_UNDIRECTED and p == 0 and q >= 1
    if phase == "A":
        return L.mode == MODE_DIRECTED and p >= 1
    if phase == "B":
        return L.mode == MODE_DIRECTED and p == 0 and q >= 1
    raise ValueError(f"unknown phase {phase!r}")


def find_phase_switch(L: Encoding, phase: str):
    """Lexicographically least 6-tuple matching the phase pattern, or None.

    The pattern pins the labels of all six touched entries, so applying the
    switch is guaranteed legal and changes the defect profile exactly as the
    phase prescribes (P1: one 2 and one -1 removed; P2/A: one 2; P3/B: one -1).
    """
    if not _phase_admits(L, phase):
        return None
    lab1, lab2 = _PHASE_PATTERNS[phase]
    mat = L.matrix
    n = L.n
    ones = L.ones_pairs()
    if lab1 == 2:
        firsts = [
            (u, v) for u in range(n) for v in range(n) if u != v and mat[u][v] == 2
        ]
    else:
        firsts = ones
    for a1, b1 in firsts:
        for a2, b2 in ones:
            if mat[a2][b1] != lab2:
                continue
            if len({a1, b1, a2, b2}) != 4:
                continue
            for a3, b3 in ones:
                if a3 in (a1, b1, a2, b2) or b3 in (a1, b1, a2, b2) or a3 == b3:
                    continue
                if mat[a3][b2] != 0 or mat[a1][b3] != 0:
                    continue
                return (a1, b1, a2, b2, a3, b3)
    return None


@dataclass
class RepairResult:
    result: object  # Graph or Digraph
    switch_log: list  # (phase, 6-tuple) in application order


class RepairStuckError(RuntimeError):
    """No phase switch exists before the encoding is defect-free."""

    def __init__(self, profile, log):
        super().__init__(f"repair stuck at defect profile {profile}")
        self.profile = profile
        self.log = log


def repair(L: Encoding) -> RepairResult:
    """Drive an encoding to a defect-free state by phase switches.

    Phases run in order P1 (both defect kinds at once, only from a full
    profile), then P2 (2-defects), then P3 ((-1)-defects); directed
    encodings use A then B.  The input is not mutated.
    """
    work = L.copy()
    log = []
    phases = ("P1", "P2", "P3") if L.mode == MODE_UNDIRECTED else ("A", "B")
    while True:
        p, q = work.defect_counts()
        if p == 0 and q == 0:
            break
        tup = None
        for phase in phases:
            if not _phase_admits(work, phase):
                continue
            tup = find_phase_switch(work, phase)
            if tup is not None:
                apply_3switch(work, tup)
                log.append((phase, tup))
                break
        if tup is None:
            raise RepairStuckError((p, q), log)
        new_p, new_q = work.defect_counts()
        assert (new_p, new_q) == {
            "P1": (p - 1, q - 1),
            "P2": (p - 1, q),
            "P3": (p, q - 1),
            "A": (p - 1, q),
            "B": (p, q - 1),
        }[phase]
    result = work.as_graph() if L.mode == MODE_UNDIRECTED else work.as_digraph()
    return RepairResult(result, log)


# ---------------------------------------------------------------------------
# Test-encoding generation: reverse phase switches inject defects that stay
# consistent with Z by construction.

UNDIRECTED_PROFILES = (
    (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
    (0, 2), (1, 2), (2, 2), (0, 3), (1, 3),
)
DIRECTED_PROFILES = tuple(
    (p, q) for p in range(4) for q in range(4) if p + q <= 5 and (p, q) != (3, 3)
)


def _scrambled_copy(g, rng, steps):
    from . import chain

    out = g.copy()
    if len(out.edges) >= 2:
        for _ in range(steps):
            if out.directed:
                chain.step_directed(out, rng)
            else:
                chain.step_undirected(out, rng, chain.VARIANT_ALL_PAIRS)
    return out


def _shuffled(seq, rng):
    seq = list(seq)
    rng.shuffle(seq)
    return seq


def _plan_layout(L: Encoding, Z, rng, profile, level):
    """Choose concrete defect positions shaped like a catalog configuration.

    Picks a catalog template and a subset of its arcs with the requested
    (p, q) counts, then embeds the subset onto actual vertex pairs that are
    statically feasible: a future 2 needs an L-edge absent from Z, a future
    -1 needs a Z-edge absent from L.  Any subset of an embeddable layout is
    itself embeddable, so defects injected one at a time stay valid at every
    intermediate step.

    Returns a list of (label, (u, v)) in final-layout terms, or None.  With
    level None the positions are sampled freely instead (no shape constraint).
    """
    p, q = profile
    if p + q == 0:
        return []
    directed = L.mode == MODE_DIRECTED
    has_z = Z.has_edge
    mat = L.matrix
    n = L.n
    if directed:
        two_pool = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and mat[u][v] == 1 and not has_z(u, v)
        ]
        minus_pool = [(u, v) for (u, v) in Z.edges if mat[u][v] == 0]
    else:
        two_pool = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if mat[u][v] == 1 and not has_z(u, v)
        ]
        minus_pool = [tuple(sorted(e)) for e in Z.edges if mat[e[0]][e[1]] == 0]
    if len(two_pool) < p or len(minus_pool) < q:
        return None

    def degree_feasible(layout):
        # a vertex with zeta 2-defects and eta (-1)-defects on one side still
        # needs d - 2*zeta + eta label-1 entries there; reject layouts that
        # would force that count negative
        if directed:
            counters = {}  # vertex -> [zeta_in, zeta_out, eta_in, eta_out]
            for lab, (u, v) in layout:
                cu = counters.setdefault(u, [0, 0, 0, 0])
                cv = counters.setdefault(v, [0, 0, 0, 0])
                if lab == 2:
                    cu[1] += 1
                    cv[0] += 1
                else:
                    cu[3] += 1
                    cv[2] += 1
            for v, (zi, zo, ei, eo) in counters.items():
                din, dout = L.target.pairs[v]
                if din - 2 * zi + ei < 0 or dout - 2 * zo + eo < 0:
                    return False
            return True
        counters = {}
        for lab, (u, v) in layout:
            for w in (u, v):
                c = counters.setdefault(w, [0, 0])
                c[0 if lab == 2 else 1] += 1
            if lab == 2 and (L.target.degrees[u] < 2 or L.target.degrees[v] < 2):
                if level == "good":
                    return False
        for v, (z, e) in counters.items():
            d = L.target.degrees[v]
            if d - 2 * z + e < 0:
                return False
            if level == "good":
                if z >= 2 and d < 4:
                    return False
                if z >= 1 and e >= 1 and d < 3:
                    return False
        return True

    if level is None:
        # free-form: no shape constraint, just distinct feasible positions
        for _ in range(40):
            rng.shuffle(two_pool)
            rng.shuffle(minus_pool)
            layout = [(2, pos) for pos in two_pool[:p]]
            layout += [(-1, pos) for pos in minus_pool[:q]]
            if degree_feasible(layout):
                return layout
        return None

    catalog = _CATALOG_DIRECTED if directed else _CATALOG_UNDIRECTED
    for template in _shuffled(catalog, rng):
        subsets = _subsets_with_counts(template, p, q)
        rng.shuffle(subsets)
        for sub in subsets:
            layout = _embed_template_subset(
                sub, two_pool, minus_pool, directed, rng, degree_feasible
            )
            if layout is not None:
                return layout
    return None


def _subsets_with_counts(template, p, q):
    out = []
    arcs = list(template)
    for mask in range(1 << len(arcs)):
        sub = [arcs[i] for i in range(len(arcs)) if mask >> i & 1]
        if sum(1 for *_, lab in sub if lab == 2) == p and sum(
            1 for *_, lab in sub if lab == -1
        ) == q:
            out.append(tuple(sub))
    return out


def _embed_template_subset(sub, two_pool, minus_pool, directed, rng, accept):
    """Complete backtracking embedding of template arcs onto feasible
    positions, injective on vertices; pools pre-shuffled for variety.
    ``accept`` filters complete layouts (degree feasibility); rejected
    embeddings are backtracked over."""
    pools = {2: _shuffled(two_pool, rng), -1: _shuffled(minus_pool, rng)}

    def extend(idx, mapping, used, layout):
        if idx == len(sub):
            return layout if accept(layout) else None
        x, y, lab = sub[idx]
        for pos in pools[lab]:
            orientations = (pos,) if directed else (pos, (pos[1], pos[0]))
            for u, v in orientations:
                mx, my = mapping.get(x), mapping.get(y)
                if mx is not None and mx != u:
                    continue
                if my is not None and my != v:
                    continue
                if mx is None and u in used:
                    continue
                if my is None and v in used:
                    continue
                new_map = dict(mapping)
                new_used = set(used)
                new_map[x] = u
                new_map[y] = v
                new_used.update((u, v))
                res = extend(idx + 1, new_map, new_used, layout + [(lab, (u, v))])
                if res is not None:
                    return res
        return None

    return extend(0, {}, set(), [])


def _inject_at(L: Encoding, Z, kind: str, pos, rng, protected, tries: int = 400) -> bool:
    """One reverse phase switch creating a defect exactly at ``pos``.

    ``protected`` holds the canonical keys of all planned defect positions;
    the five non-anchor entries a candidate tuple touches must stay off it,
    so positions planned for later injections keep their labels.  Undirected
    positions try both orientations of the anchor.
    """
    mat = L.matrix
    n = L.n
    directed = L.mode == MODE_DIRECTED
    has_z = Z.has_edge
    key = L._key

    def free(u, v):
        return key(u, v) not in protected

    def ones_of(u):
        return [v for v in range(n) if v != u and mat[u][v] == 1]

    def ones_into(v):
        return [u for u in range(n) if u != v and mat[u][v] == 1]

    budget = tries

    def complete(a1, b1, a2, fixed_a2=False):
        # free slots: a2 (unless fixed), b3 from a1's ones, b2 with
        # L(a2,b2)=0, a3 into b2 with L(a3,b3)=0
        nonlocal budget
        a2_pool = [a2] if fixed_a2 else ones_into(b1)
        for a2_ in _shuffled(a2_pool, rng):
            if a2_ in (a1, b1) or not free(a2_, b1):
                continue
            for b3 in _shuffled(ones_of(a1), rng):
                if b3 in (a1, b1, a2_) or not free(a1, b3):
                    continue
                for b2 in _shuffled(range(n), rng):
                    if (
                        b2 in (a1, b1, a2_, b3)
                        or mat[a2_][b2] != 0
                        or not free(a2_, b2)
                    ):
                        continue
                    for a3 in _shuffled(ones_into(b2), rng):
                        if a3 in (a1, b1, a2_, b2, b3) or mat[a3][b3] != 0:
                            continue
                        if not free(a3, b2) or not free(a3, b3):
                            continue
                        _apply_reverse_3switch(L, (a1, b1, a2_, b2, a3, b3))
                        return True
                    budget -= 1
                    if budget <= 0:
                        return False
        return False

    if kind in ("P2", "A"):
        # new 2 at pos=(a1,b1): needs L=1 and Z-absent there (planned)
        anchors = (pos,) if directed else (pos, (pos[1], pos[0]))
        for a1, b1 in _shuffled(anchors, rng):
            if mat[a1][b1] != 1 or has_z(a1, b1):
                continue
            if complete(a1, b1, None):
                return True
            if budget <= 0:
                return False
        return False

    if kind in ("P3", "B"):
        # new -1 at pos=(a2,b1): needs L=0 and Z-present there (planned)
        anchors = (pos,) if directed else (pos, (pos[1], pos[0]))
        for a2, b1 in _shuffled(anchors, rng):
            if mat[a2][b1] != 0 or not has_z(a2, b1):
                continue
            for a1 in _shuffled(range(n), rng):
                if a1 in (a2, b1) or mat[a1][b1] != 0 or not free(a1, b1):
                    continue
                if complete(a1, b1, a2, fixed_a2=True):
                    return True
                if budget <= 0:
                    return False
        return False

    if kind == "P1":
        # simultaneous 2 at (a1,b1) and -1 at (a2,b1); pos = (two_pos, minus_pos)
        two_pos, minus_pos = pos
        shared = set(two_pos) & set(minus_pos)
        if len(shared) != 1:
            return False
        b1 = shared.pop()
        a1 = two_pos[0] if two_pos[1] == b1 else two_pos[1]
        a2 = minus_pos[0] if minus_pos[1] == b1 else minus_pos[1]
        if mat[a1][b1] != 1 or has_z(a1, b1):
            return False
        if mat[a2][b1] != 0 or not has_z(a2, b1):
            return False
        return complete(a1, b1, a2, fixed_a2=True)

    raise ValueError(f"unknown reverse switch kind {kind!r}")


def make_test_encoding(
    Z,
    rng: random.Random,
    profile=None,
    level: str | None = "good",
    scramble_steps: int | None = None,
    restarts: int = 60,
) -> Encoding:
    """A defective encoding consistent with Z, built by reverse phase switches.

    Starts from a chain-scrambled copy of Z (so both Z-present and Z-absent
    positions exist for defect injection), plans a catalog-shaped defect
    layout, and injects the defects at the planned positions in the reverse
    of repair order: (-1)s, then 2s, with the last 2/-1 pair of a 4-defect
    undirected profile created by a single combined switch.  With level
    "good" (undirected) or "valid" the result passes the catalog filter;
    level None places defects freely.
    """
    directed = Z.directed
    if level == "good" and directed:
        level = "valid"
    allowed = DIRECTED_PROFILES if directed else UNDIRECTED_PROFILES
    free_choice = profile is None
    if not free_choice:
        p, q = profile
        if level is not None and (p, q) not in allowed:
            raise ValueError(f"profile {profile} not achievable by a valid layout")
    edge_count = len(Z.edges)
    steps = scramble_steps if scramble_steps is not None else max(20, 2 * edge_count)
    target = Z.degree_sequence()
    check = {
        None: lambda enc: True,
        "valid": lambda enc: enc.is_valid(),
        "good": lambda enc: enc.is_good(),
    }[level]
    for _ in range(restarts):
        if free_choice:
            # some profiles are infeasible for tight degree sequences
            # (e.g. two 2-defects sharing a side need degree >= 4 there),
            # so redraw per attempt
            profile = allowed[rng.randrange(len(allowed))]
        p, q = profile
        base = _scrambled_copy(Z, rng, steps)
        L = (
            Encoding.from_digraph(base, target)
            if directed
            else Encoding.from_graph(base, target)
        )
        layout = _plan_layout(L, Z, rng, profile, level)
        if layout is None:
            continue
        protected = {L._key(*pos) for _, pos in layout}
        minus_jobs = [pos for lab, pos in layout if lab == -1]
        two_jobs = [pos for lab, pos in layout if lab == 2]
        jobs = []
        if level is not None and not directed and p >= 1 and q >= 1 and p + q == 4:
            pair = None
            for tp in two_jobs:
                for mp in minus_jobs:
                    if len(set(tp) & set(mp)) == 1:
                        pair = (tp, mp)
                        break
                if pair:
                    break
            if pair is None:
                continue
            two_jobs.remove(pair[0])
            minus_jobs.remove(pair[1])
            jobs = [("P3", pos) for pos in minus_jobs]
            jobs += [("P2", pos) for pos in two_jobs]
            jobs.append(("P1", pair))
        elif directed:
            jobs = [("B", pos) for pos in minus_jobs] + [("A", pos) for pos in two_jobs]
        else:
            jobs = [("P3", pos) for pos in minus_jobs] + [("P2", pos) for pos in two_jobs]

        def own_keys(kind, pos):
            if kind == "P1":
                return {L._key(*pos[0]), L._key(*pos[1])}
            return {L._key(*pos)}

        if all(
            _inject_at(L, Z, kind, pos, rng, protected - own_keys(kind, pos))
            for kind, pos in jobs
        ):
            if L.defect_counts() == (p, q) and check(L):
                return L
    raise RuntimeError(
        f"could not generate a profile-{profile} encoding after {restarts} restarts"
    )


# ---------------------------------------------------------------------------
# Serialization: dense CSV matrix plus a JSON sidecar.


def save_encoding(L: Encoding, csv_path, sidecar_path=None):
    sidecar_path = sidecar_path or (str(csv_path) + ".json")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerows(L.matrix)
    p, q = L.defect_counts()
    if L.mode == MODE_UNDIRECTED:
        degrees = {"degrees": list(L.target.degrees)}
    else:
        degrees = {
            "in_degrees": [a for a, _ in L.target.pairs],
            "out_degrees": [b for _, b in L.target.pairs],
        }
    sidecar = {"mode": L.mode, "n": L.n, "profile": {"p": p, "q": q}, **degrees}
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_encoding(csv_path, sidecar_path=None) -> Encoding:
    sidecar_path = sidecar_path or (str(csv_path) + ".json")
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    with open(csv_path, "r", newline="", encoding="utf-8") as fh:
        matrix = [[int(x) for x in row] for row in csv.reader(fh) if row]
    mode = sidecar["mode"]
    if mode == MODE_UNDIRECTED:
        target = DegreeSequence(sidecar["degrees"])
    else:
        target = DirectedDegreeSequence(
            zip(sidecar["in_degrees"], sidecar["out_degrees"])
        )
    enc = Encoding(mode, target, matrix)
    got = enc.defect_counts()
    want = (sidecar["profile"]["p"], sidecar["profile"]["q"])
    if got != want:
        raise ValueError(f"sidecar profile {want} does not match matrix {got}")
    return enc


def verify_counting_identities(L: Encoding):
    """Exact bookkeeping identities; raises ValueError on any mismatch.

    Checks the non-defect edge count against M/2 - 2p + q (or m - 2p + q),
    and per vertex both neighbourhood sizes against the degree/counter
    formulas d - 2*zeta + eta and d - zeta + 2*eta.
    """
    p, q = L.defect_counts()
    mat = L.matrix
    n = L.n
    if L.mode == MODE_UNDIRECTED:
        ones_edges = sum(
            1 for u in range(n) for v in range(u + 1, n) if mat[u][v] == 1
        )
        expected = L.target.M // 2 - 2 * p + q
        if ones_edges != expected:
            raise ValueError(f"non-defect edge count {ones_edges} != {expected}")
        for v in range(n):
            nv = sum(1 for w in range(n) if w != v and mat[v][w] == 1)
            hat = sum(1 for w in range(n) if w != v and mat[v][w] != 0)
            d = L.target.degrees[v]
            if nv != d - 2 * L.zeta[v] + L.eta[v]:
                raise ValueError(f"|N_L({v})| breaks the degree identity")
            if hat != d - L.zeta[v] + 2 * L.eta[v]:
                raise ValueError(f"|N^_L({v})| breaks the degree identity")
    else:
        ones_arcs = sum(
            1 for u in range(n) for v in range(n) if u != v and mat[u][v] == 1
        )
        expected = L.target.m - 2 * p + q
        if ones_arcs != expected:
            raise ValueError(f"non-defect arc count {ones_arcs} != {expected}")
        for v in range(n):
            din, dout = L.target.pairs[v]
            n_in = sum(1 for w in range(n) if w != v and mat[w][v] == 1)
            n_out = sum(1 for w in range(n) if w != v and mat[v][w] == 1)
            hat_in = sum(1 for w in range(n) if w != v and mat[w][v] != 0)
            hat_out = sum(1 for w in range(n) if w != v and mat[v][w] != 0)
            if n_in != din - 2 * L.zeta_in[v] + L.eta_in[v]:
                raise ValueError(f"|N-({v})| breaks the degree identity")
            if n_out != dout - 2 * L.zeta_out[v] + L.eta_out[v]:
                raise ValueError(f"|N+({v})| breaks the degree identity")
            if hat_in != din - L.zeta_in[v] + 2 * L.eta_in[v]:
                raise ValueError(f"|N^-({v})| breaks the degree identity")
            if hat_out != dout - L.zeta_out[v] + 2 * L.eta_out[v]:
                raise ValueError(f"|N^+({v})| breaks the degree identity")
    L.audit()
