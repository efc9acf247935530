"""Defect encodings: integer matrices that interpolate between graph states.

An encoding L is an integer matrix with entries in {-1, 0, 1, 2}, zero
diagonal, row sums equal to the target out-degrees and column sums equal to
the target in-degrees.  Entries equal to -1 or 2 are defects.  One store
serves both modes: an undirected encoding is the symmetric directed one, in
which each unordered pair is two mirrored entries and every degree is both an
in- and an out-degree.  L is *consistent* with a reference state Z of the
target degrees when L + Z stays inside {0, 1, 2}; it is *valid* when its
defect edges form a labelled subgraph of a small fixed catalog of
configurations, and (undirected mode) *good* when defect incidences also
respect minimum-degree conditions.  A defect-free encoding is just a graph
with the target degrees.

No encoding keeps a dense n x n matrix or any per-vertex counter: label-1
entries are per-vertex bitmasks and defects are two position sets, from
which the per-vertex defect counts are tallied on each read.  An encoding
takes O(n + m) space and its checks, counts and searches walk set bits and
defect keys.

3-switches walk a 6-cycle pattern on six distinct vertices, decrementing
three entries and incrementing three others, so they preserve every row and
column sum.  ``repair`` drives an encoding back to a defect-free graph with
at most one defect removed per switch (two in the combined phase P1).
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from itertools import permutations, product
from typing import NamedTuple

from . import chain
from .degseq import DEFAULT_CAP, CapExceededError, DegreeSequence, DirectedDegreeSequence
from .graph import Digraph, Graph

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


def _expand_catalog(templates, letter_groups, directed):
    """Every concrete labelling of the templates, duplicates dropped.

    The letters of each group take the values {2, -1} in either order (a
    one-letter group takes either value); directed templates also appear
    arc-reversed.
    """
    out = []
    seen = set()
    for tpl in templates:
        for values in product(*(permutations((2, -1), len(g)) for g in letter_groups)):
            sub = {c: val for g, vals in zip(letter_groups, values) for c, val in zip(g, vals)}
            concrete = tuple((u, v, sub.get(lab, lab)) for (u, v, lab) in tpl)
            for flip in (False, True) if directed else (False,):
                arcs = tuple(
                    (v, u, lab) if flip else (u, v, lab) for (u, v, lab) in concrete
                )
                key = frozenset(
                    ((u, v) if directed else frozenset((u, v)), lab) for u, v, lab in arcs
                )
                if key not in seen:
                    seen.add(key)
                    out.append(arcs)
    return tuple(out)


_CATALOG_UNDIRECTED = _expand_catalog(_UNDIRECTED_TEMPLATES, ("?",), directed=False)
_CATALOG_DIRECTED = _expand_catalog(_DIRECTED_TEMPLATES, ("mn", "xw"), directed=True)
_CATALOGS = {False: _CATALOG_UNDIRECTED, True: _CATALOG_DIRECTED}
# per mode: each template's arcs grouped by label, the embedding candidates
_TEMPLATE_ARCS = {
    directed: tuple(
        {lab: [(x, y) for x, y, tlab in tpl if tlab == lab] for lab in (2, -1)}
        for tpl in catalog
    )
    for directed, catalog in _CATALOGS.items()
}
# per mode: (most 2-defects, most (-1)-defects, most defects) in one template
_DEFECT_CAPS = {
    directed: tuple(map(max, zip(*((len(t[2]), len(t[-1]), len(t[2]) + len(t[-1])) for t in arcs))))
    for directed, arcs in _TEMPLATE_ARCS.items()
}
# enum_good_encodings searches no instance with more vertices or edges (arcs)
_ENUM_MAX_N, _ENUM_MAX_EDGES = 6, 7


def _bits(mask):
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _orientations(pos, directed):
    """The ordered pairs a position stands for: both, for an undirected pair."""
    return (pos,) if directed else (pos, (pos[1], pos[0]))


def _embed(arcs, candidates_by_label, directed, accept=None):
    """Injective, label-preserving map of ``arcs`` onto candidate arcs.

    ``arcs`` holds (x, y, label) triples; ``candidates_by_label`` maps a
    label to (u, v) pairs, tried in order and, when undirected, each in both
    orientations.  The vertex map is injective and grows arc by arc; on a
    dead end the search backtracks.  Returns the images [(label, (u, v)),
    ...] of the first complete map that ``accept`` passes (any, when it is
    None), or None.  An arc with a mapped endpoint scans only the
    candidates at that endpoint's image, still in their given order.
    """
    options = {}
    by_tail = {}
    by_head = {}
    for lab, cands in candidates_by_label.items():
        row = options[lab] = [o for pos in cands for o in _orientations(pos, directed)]
        for o in row:
            by_tail.setdefault((lab, o[0]), []).append(o)
            by_head.setdefault((lab, o[1]), []).append(o)
    image = {}
    used = set()
    layout = []

    def extend(idx):
        if idx == len(arcs):
            return accept is None or accept(layout)
        x, y, lab = arcs[idx]
        mx, my = image.get(x), image.get(y)
        if mx is not None:
            cands = by_tail.get((lab, mx), ())
        elif my is not None:
            cands = by_head.get((lab, my), ())
        else:
            cands = options.get(lab, ())
        for u, v in cands:
            if mx is None and u in used:
                continue
            if (v != my) if my is not None else (v in used):
                continue
            fresh = [w for w, m in ((x, mx), (y, my)) if m is None]
            image[x], image[y] = u, v
            used.update((u, v))
            layout.append((lab, (u, v)))
            if extend(idx + 1):
                return True
            layout.pop()
            for w in fresh:
                used.discard(image.pop(w))
        return False

    return layout if extend(0) else None


class Encoding:
    """Mutable defect encoding; it stores its entries and no per-vertex counter.

    The mode follows from the target: a ``DegreeSequence`` gives an
    undirected (symmetric) encoding, a ``DirectedDegreeSequence`` a directed
    one.  ``zeta_*``/``eta_*`` count the 2- and (-1)-entries per row (out)
    and per column (in), tallied from the defect keys into a fresh list on
    each read; in undirected mode the in-side counts equal the out-side
    ones.  ``target_in``/``target_out`` are the column and row sums the
    target asks for.

    No dense matrix is kept: every entry is read from the indices.  The
    label-1 entries are bitmask rows: bit v of ``ones_out[u]`` is set when
    L(u, v) = 1 and bit u of ``ones_in[v]`` likewise; in undirected mode
    ``ones_in`` is ``ones_out``, which the mirrored entries keep symmetric.
    The defects are the keys in ``two`` and ``minus`` (unordered pairs when
    undirected).  Any other entry is 0.  One copy therefore takes O(n + m)
    space, and ``matrix`` builds a fresh dense list of lists on each read.
    """

    __slots__ = (
        "directed",
        "target",
        "target_in",
        "target_out",
        "n",
        "two",
        "minus",
        "ones_in",
        "ones_out",
    )

    def __init__(self, target, matrix=None):
        if not isinstance(target, (DegreeSequence, DirectedDegreeSequence)):
            raise TypeError("an encoding needs a DegreeSequence or DirectedDegreeSequence target")
        self.directed = target.directed
        if self.directed:
            self.target_in = tuple(a for a, _ in target.pairs)
            self.target_out = tuple(b for _, b in target.pairs)
        else:
            self.target_in = self.target_out = target.degrees
        self.target = target
        self.n = n = target.n
        self.two = set()
        self.minus = set()
        self.ones_out = [0] * n
        self.ones_in = [0] * n if self.directed else self.ones_out
        if matrix is not None:
            self._load_matrix(matrix)

    def _tally(self, keys, side):
        """Per-vertex count of the defect ``keys`` at their tail (side 0,
        rows) or head (side 1, columns); an undirected key counts at both
        of its ends."""
        counts = [0] * self.n
        for pos in keys:
            for o in _orientations(pos, self.directed):
                counts[o[side]] += 1
        return counts

    zeta_out = property(lambda self: self._tally(self.two, 0), doc="2-entries per row.")
    zeta_in = property(lambda self: self._tally(self.two, 1), doc="2-entries per column.")
    eta_out = property(lambda self: self._tally(self.minus, 0), doc="(-1)-entries per row.")
    eta_in = property(lambda self: self._tally(self.minus, 1), doc="(-1)-entries per column.")

    @property
    def matrix(self):
        """The entries as a dense n x n list of lists, built afresh on every read."""
        rows = [[0] * self.n for _ in range(self.n)]
        for label in (1, 2, -1):
            for u, mask in enumerate(self._masks((label,))):
                for v in _bits(mask):
                    rows[u][v] = label
        return rows

    def _load_matrix(self, matrix):
        n = self.n
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape does not match the degree sequence")
        for i, row in enumerate(matrix):
            if row[i] != 0:
                raise ValueError("nonzero diagonal")
            if min(row) < ENTRY_MIN or max(row) > ENTRY_MAX:
                for j, v in enumerate(row):
                    if not ENTRY_MIN <= v <= ENTRY_MAX:
                        raise ValueError(f"entry {v} at ({i},{j}) out of range")
        if not self.directed and list(map(tuple, matrix)) != list(zip(*matrix)):
            raise ValueError("matrix not symmetric")
        for i, row in enumerate(matrix):
            for j in [j for j, v in enumerate(row) if v and (self.directed or i < j)]:
                self._set(i, j, row[j])
        rows_ok, cols_ok = self._sums_match()
        if not rows_ok:
            side = "out-degrees" if self.directed else "degrees"
            raise ValueError(f"row sums do not match the target {side}")
        if not cols_ok:
            raise ValueError("column sums do not match the target in-degrees")

    def _sums_match(self):
        """(row sums == target out-degrees, column sums == target in-degrees),
        a line summing its 1-entries, twice its 2-entries, less its (-1)-entries."""
        rows = tuple(o.bit_count() + 2 * z - e for o, z, e in zip(self.ones_out, self.zeta_out, self.eta_out))
        cols = tuple(i.bit_count() + 2 * z - e for i, z, e in zip(self.ones_in, self.zeta_in, self.eta_in))
        return rows == self.target_out, cols == self.target_in

    # -- low-level entry update ----------------------------------------------

    def _key(self, u, v):
        """The defect-set key of entry (u, v): the unordered pair when undirected."""
        return (u, v) if self.directed or u < v else (v, u)

    def _set(self, u, v, val):
        if u == v:
            raise ValueError("diagonal entries are fixed at zero")
        if not ENTRY_MIN <= val <= ENTRY_MAX:
            raise ValueError(f"entry {val} out of range")
        old = self.entry(u, v)
        if old == val:
            return
        key = self._key(u, v)
        if old == 2:
            self.two.discard(key)
        elif old == -1:
            self.minus.discard(key)
        elif old == 1:
            self.ones_out[u] &= ~(1 << v)
            self.ones_in[v] &= ~(1 << u)
        if val == 2:
            self.two.add(key)
        elif val == -1:
            self.minus.add(key)
        elif val == 1:
            self.ones_out[u] |= 1 << v
            self.ones_in[v] |= 1 << u

    # -- construction helpers ----------------------------------------------

    def copy(self) -> "Encoding":
        enc = Encoding.__new__(Encoding)
        enc.directed = self.directed
        enc.target = self.target
        enc.target_in = self.target_in
        enc.target_out = self.target_out
        enc.n = self.n
        enc.two = set(self.two)
        enc.minus = set(self.minus)
        enc.ones_out = list(self.ones_out)
        enc.ones_in = list(self.ones_in) if self.directed else enc.ones_out
        return enc

    def __eq__(self, other):
        return (
            isinstance(other, Encoding)
            and self.directed == other.directed
            and self.ones_out == other.ones_out
            and self.two == other.two
            and self.minus == other.minus
        )

    def __repr__(self):
        p, q = len(self.two), len(self.minus)
        return f"Encoding(directed={self.directed}, n={self.n}, p={p}, q={q})"

    # -- queries -------------------------------------------------------------

    def entry(self, u, v) -> int:
        if self.ones_out[u] >> v & 1:
            return 1
        key = self._key(u, v)
        return 2 if key in self.two else -1 if key in self.minus else 0

    def _masks(self, labels, cols=False):
        """Bitmask rows of the entries labelled in ``labels`` (of 1, 2, -1):
        bit v of row u is set when L(u, v) is; with ``cols``, bit u of column v."""
        masks = list(self.ones_in if cols else self.ones_out) if 1 in labels else [0] * self.n
        for label, keys in ((2, self.two), (-1, self.minus)):
            for pos in keys if label in labels else ():
                for u, v in _orientations(pos[::-1] if cols else pos, self.directed):
                    masks[u] |= 1 << v
        return masks

    def defect_counts(self):
        return len(self.two), len(self.minus)

    def ones_pairs(self) -> list:
        """Ordered pairs with label 1, in lexicographic order."""
        return [(u, v) for u, mask in enumerate(self.ones_out) for v in _bits(mask)]

    def is_consistent_with(self, Z) -> bool:
        """Z realizes the target, and L + Z stays inside {0, 1, 2}: no 2-entry
        on an edge of Z and no (-1)-entry off Z, as no other entry can leave
        the range."""
        if Z.n != self.n or Z.degree_sequence() != self.target:
            return False
        has_z = Z.has_edge
        return not any(
            has_z(*o) for pos in self.two for o in _orientations(pos, self.directed)
        ) and all(has_z(*o) for pos in self.minus for o in _orientations(pos, self.directed))

    def _defect_edges(self):
        out = [(u, v, 2) for (u, v) in self.two]
        out.extend((u, v, -1) for (u, v) in self.minus)
        return sorted(out)

    def is_valid(self) -> bool:
        """Defect layout embeds in the fixed catalog of configurations."""
        defects = self._defect_edges()
        if not defects:
            return True
        if len(defects) > _DEFECT_CAPS[self.directed][2]:
            return False
        return any(
            _embed(defects, arcs, self.directed) is not None
            for arcs in _TEMPLATE_ARCS[self.directed]
        )

    def is_good(self) -> bool:
        """Valid, plus degree conditions on 2-defect incidences (undirected).

        Each vertex needs at least the degree ``_good_floor`` asks for its
        2- and (-1)-defects.  The directed mode carries no extra conditions.
        """
        if not self.is_valid():
            return False
        if self.directed:
            return True
        return all(d >= _good_floor(z, e) for d, z, e in zip(self.target_out, self.zeta_out, self.eta_out))

    def as_graph(self):
        """The defect-free encoding as a Graph, or as a Digraph when directed."""
        if self.two or self.minus:
            raise ValueError("encoding still has defects")
        key = self._key
        store = Digraph if self.directed else Graph
        return store(self.n, [pos for pos in self.ones_pairs() if key(*pos) == pos])

    def audit(self):
        """Recompute ``ones_in`` from ``ones_out`` and compare; the defect sets
        are disjoint, each defect key is an off-diagonal canonical position
        that no label-1 bit claims, and no 1-bit is on the diagonal."""
        assert not self.two & self.minus
        for u, v in self.two | self.minus:
            assert u != v and self._key(u, v) == (u, v) and not self.ones_out[u] >> v & 1
        ones_in = [0] * self.n
        for u, v in self.ones_pairs():
            assert u != v
            ones_in[v] |= 1 << u
        assert ones_in == self.ones_in
        assert (self.ones_in is self.ones_out) == (not self.directed)


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
    # edge keys are the encoding's defect-set keys: unordered pairs when undirected
    values = Counter(G.edges)
    values.update(Gp.edges)
    values.subtract(Z.edges)
    L = Encoding(ds)
    for pos, val in values.items():
        if val:
            L._set(*pos, val)
    return L


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
    updates = [(u, v, L.entry(u, v) - sign) for (u, v) in dec]
    updates += [(u, v, L.entry(u, v) + sign) for (u, v) in inc]
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


# -- choice counting -----------------------------------------------------------


def choice_count_and_bound(L: Encoding, anchors, stage: str) -> dict:
    """Exact completion counts for the 3-switch stages, next to the
    closed-form lower bounds evaluated from the defect counters.

    stage "second_pair": anchors (a1, b1) with L(a1,b1) != 0; counts ordered
    (a2, b2) with L(a2,b2)=1, L(a2,b1)=0, all four distinct.
    stage "third_pair": anchors (a1, b1, a2, b2) with L(a2,b2)=1; counts
    ordered (a3, b3) with L(a3,b3)=1, L(a1,b3)=L(a3,b2)=0, all six distinct.
    """
    ones = L.ones_out
    n = L.n
    z_in, z_out = L.zeta_in, L.zeta_out
    e_in, e_out = L.eta_in, L.eta_out
    # label-1 entries: each 2-entry takes two units of its row sum, each
    # (-1)-entry gives one back (m - 2p + q arcs; M - 4p + 2q symmetric entries)
    top = sum(L.target_out) - 2 * sum(z_out) + sum(e_out)
    dmax = max(max(L.target_in), max(L.target_out))

    if stage == "second_pair":
        if len(anchors) != 2:
            raise ValueError("second_pair anchors are (a1, b1)")
        a1, b1 = anchors
        if a1 == b1 or L.entry(a1, b1) == 0:
            raise ValueError("anchor needs distinct a1, b1 with L(a1,b1) != 0")
        col_b1 = L._masks((1, 2, -1), cols=True)[b1]
        banned = 1 << a1 | 1 << b1
        skip = col_b1 | banned
        exact = sum((ones[a2] & ~banned).bit_count() for a2 in range(n) if not skip >> a2 & 1)
        hat_in_b1 = _bits(col_b1)
        bad = dmax * (dmax - z_in[b1] + 2 * e_in[b1] + 2)
        bad += e_in[a1] + e_out[b1] - 2 * (z_in[a1] + z_out[b1])
        bad += sum(e_out[y] - 2 * z_out[y] for y in hat_in_b1)
        return {"exact": exact, "bound": top - bad}

    if stage == "third_pair":
        if len(anchors) != 4:
            raise ValueError("third_pair anchors are (a1, b1, a2, b2)")
        a1, b1, a2, b2 = anchors
        if len({a1, b1, a2, b2}) != 4 or not ones[a2] >> b2 & 1:
            raise ValueError("anchors must be distinct with L(a2,b2) = 1")
        banned = 1 << a1 | 1 << b1 | 1 << a2 | 1 << b2
        row_a1 = L._masks((1, 2, -1))[a1]
        col_b2 = L._masks((1, 2, -1), cols=True)[b2]
        heads, skip = ~(banned | row_a1), col_b2 | banned
        exact = sum((ones[a3] & heads).bit_count() for a3 in range(n) if not skip >> a3 & 1)
        eta_star = e_in[a1] + e_out[b1] + e_in[a2] + e_out[b2]
        zeta_star = z_in[a1] + z_out[b1] + z_in[a2] + z_out[b2]
        hat_out_a1 = _bits(row_a1)
        hat_in_b2 = _bits(col_b2)
        bad = dmax * (2 * dmax - (z_out[a1] + z_in[b2]) + 2 * (e_out[a1] + e_in[b2]) + 4)
        bad += eta_star - 2 * zeta_star
        bad += sum(e_in[x] - 2 * z_in[x] for x in hat_out_a1)
        bad += sum(e_out[y] - 2 * z_out[y] for y in hat_in_b2)
        return {"exact": exact, "bound": top - bad}

    raise ValueError(f"unknown stage {stage!r}")


# -- phase switches and repair ---------------------------------------------


class _Phase(NamedTuple):
    directed: bool
    first: int  # label required at (a1, b1)
    second: int  # label required at (a2, b1)
    removes: tuple  # (2-defects, (-1)-defects) one switch removes
    total: int | None  # defect count the phase needs, if any


# Repair runs a mode's phases in this order; a phase that removes only
# (-1)-defects waits until no 2-defect is left.
_PHASES = {
    "P1": _Phase(False, 2, -1, (1, 1), 4),  # both kinds at once, from a full profile
    "P2": _Phase(False, 2, 0, (1, 0), None),
    "P3": _Phase(False, 1, -1, (0, 1), None),
    "A": _Phase(True, 2, 0, (1, 0), None),
    "B": _Phase(True, 1, -1, (0, 1), None),
}


def _admits(spec: _Phase, p, q) -> bool:
    dp, dq = spec.removes
    return p >= dp and q >= dq and (dp > 0 or p == 0) and spec.total in (None, p + q)


def _phase_admits(L: Encoding, phase: str) -> bool:
    if phase not in _PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    spec = _PHASES[phase]
    return spec.directed == L.directed and _admits(spec, *L.defect_counts())


def find_phase_switch(L: Encoding, phase: str):
    """Lexicographically least 6-tuple matching the phase pattern, or None.

    The pattern pins the labels of all six touched entries, so applying the
    switch is guaranteed legal and changes the defect profile exactly as the
    phase prescribes (P1: one 2 and one -1 removed; P2/A: one 2; P3/B: one -1).
    """
    if not _phase_admits(L, phase):
        return None
    spec = _PHASES[phase]
    ones = L.ones_out
    nonzero = L._masks((1, 2, -1))
    full = (1 << L.n) - 1
    zero_in = [full & ~mask for mask in L._masks((1, 2, -1), cols=True)]
    # bit a2 of second_in[b1] is set when L(a2, b1) has the phase's second label
    second_in = zero_in if spec.second == 0 else L._masks((spec.second,), cols=True)
    if spec.first == 1:
        firsts = L.ones_pairs()
    else:
        keys = L.two if spec.first == 2 else L.minus
        firsts = sorted(o for pos in keys for o in _orientations(pos, L.directed))
    # walking set bits upwards visits the (a2, b2) and (a3, b3) label-1
    # entries in lexicographic order, so the first hit is the least tuple
    for a1, b1 in firsts:
        pair = 1 << a1 | 1 << b1
        for a2 in _bits(second_in[b1] & ~pair):
            for b2 in _bits(ones[a2] & ~pair):
                banned = pair | 1 << a2 | 1 << b2
                # b3 off the four with L(a1, b3) = 0; a3 off them with L(a3, b2) = 0
                heads = ~(banned | nonzero[a1])
                for a3 in _bits(zero_in[b2] & ~banned):
                    hit = ones[a3] & heads
                    if hit:
                        return (a1, b1, a2, b2, a3, (hit & -hit).bit_length() - 1)
    return None


class RepairResult(NamedTuple):
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
    phases = [name for name, spec in _PHASES.items() if spec.directed == L.directed]
    while True:
        p, q = work.defect_counts()
        if p == 0 and q == 0:
            break
        tup = None
        for phase in phases:
            tup = find_phase_switch(work, phase)
            if tup is not None:
                apply_3switch(work, tup)
                log.append((phase, tup))
                break
        if tup is None:
            raise RepairStuckError((p, q), log)
        dp, dq = _PHASES[phase].removes
        assert work.defect_counts() == (p - dp, q - dq)
    return RepairResult(work.as_graph(), log)


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

# make_test_encoding scrambles Z for at least this many chain steps per
# attempt, and gives up after this many attempts, or in one injection after
# this many dead-end completions
_MIN_SCRAMBLE_STEPS = 20
_RESTARTS = 60
_INJECT_TRIES = 400


def _scrambled_copy(g, rng, steps):
    out = g.copy()
    if len(out.edges) >= 2:
        chain.advance(out, rng, steps)  # the all-pairs variant when undirected
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
    -1 needs a Z-edge absent from L, and every vertex must meet its
    ``_degree_needs``.  Any subset of an embeddable layout is
    itself embeddable, so defects injected one at a time stay valid at every
    intermediate step.

    Returns a list of (label, (u, v)) in final-layout terms, or None.  With
    level None the positions are sampled freely instead (no shape constraint).
    """
    p, q = profile
    if p + q == 0:
        return []
    directed = L.directed
    has_z = Z.has_edge
    nonzero = L._masks((1, 2, -1))
    key = L._key
    two_pool = [pos for pos in L.ones_pairs() if key(*pos) == pos and not has_z(*pos)]
    minus_pool = [key(u, v) for (u, v) in Z.edges if not nonzero[u] >> v & 1]
    if len(two_pool) < p or len(minus_pool) < q:
        return None
    deg_in, deg_out = L.target_in, L.target_out
    good = level == "good" and not directed

    def degree_feasible(layout):
        for v, sides in _defect_sides(layout, directed).items():
            need_in, need_out = _degree_needs(*sides, good)
            if deg_in[v] < need_in or deg_out[v] < need_out:
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

    for template in _shuffled(_CATALOGS[directed], rng):
        subsets = _subsets_with_counts(template, p, q)
        rng.shuffle(subsets)
        for sub in subsets:
            # pools pre-shuffled per subset for variety
            pools = {2: _shuffled(two_pool, rng), -1: _shuffled(minus_pool, rng)}
            layout = _embed(sub, pools, directed, degree_feasible)
            if layout is not None:
                return layout
    return None


def _defect_sides(layout, directed):
    """vertex -> [zeta_in, zeta_out, eta_in, eta_out] of a (label, (u, v)) layout.

    An undirected pair counts in both orientations, so both of its ends see
    it on both sides.
    """
    counters = {}
    for lab, pos in layout:
        side = 0 if lab == 2 else 2
        for u, v in _orientations(pos, directed):
            counters.setdefault(u, [0, 0, 0, 0])[side + 1] += 1
            counters.setdefault(v, [0, 0, 0, 0])[side] += 1
    return counters


def _fits(needs, classes):
    """Whether the needs go to distinct vertices that cover them.

    ``classes`` maps a degree pair (d_in, d_out) to its number of vertices;
    such a vertex covers a need (i, o) when d_in >= i and d_out >= o.  Each
    need is placed by an augmenting-path search over the classes.
    """
    held = {c: [] for c in classes}

    def place(need, seen):
        for c, members in held.items():
            if c in seen or c[0] < need[0] or c[1] < need[1]:
                continue
            seen.add(c)
            if len(members) < classes[c]:
                members.append(need)
                return True
            for k, other in enumerate(members):
                if place(other, seen):
                    members[k] = need
                    return True
        return False

    return all(place(need, set()) for need in needs)


def _good_floor(zeta, eta) -> int:
    """Least degree of a vertex on ``zeta`` 2-defects and ``eta`` (-1)-defects
    in a good undirected encoding: 4 on two 2-defects, 3 on a 2-defect and a
    (-1)-defect, 2 on one 2-defect, and no floor otherwise."""
    if not zeta:
        return 0
    return 4 if zeta >= 2 else 3 if eta else 2


def _degree_needs(zeta_in, zeta_out, eta_in, eta_out, good) -> tuple:
    """Least (in, out) degrees of a vertex with these defect counts: a side
    keeps d - 2*zeta + eta >= 0 label-1 entries, each (-1)-entry sits on its
    own edge of Z there (d >= eta), and at level "good" (undirected) the
    degree is at least the ``_good_floor``."""
    floor = _good_floor(zeta_out, eta_out) if good else 0
    return max(2 * zeta_in - eta_in, eta_in), max(2 * zeta_out - eta_out, eta_out, floor)


def _placeable(target, p, q, level) -> bool:
    """Whether some (p, q)-subset of a catalog template can be laid out on
    the target's degrees, by the ``_degree_needs`` that ``_plan_layout``
    asks of every layout it accepts."""
    directed = target.directed
    good = level == "good" and not directed
    classes = Counter(target.pairs if directed else zip(target.degrees, target.degrees))
    for template in _CATALOGS[directed]:
        for sub in _subsets_with_counts(template, p, q):
            sides = _defect_sides([(lab, (x, y)) for x, y, lab in sub], directed)
            needs = [_degree_needs(*counts, good) for counts in sides.values()]
            if _fits(needs, classes):
                return True
    return False


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


def _inject_at(L: Encoding, creates, pos, rng, protected) -> bool:
    """One reverse phase switch creating ``creates`` = (2-defects, (-1)-defects):
    (1, 0) or (0, 1) at the position ``pos``, or (1, 1) from the oriented
    anchors ``pos`` = (a1, b1, a2): a 2 at (a1, b1) and a -1 at (a2, b1).

    The planner has fixed every label and Z entry the anchors need: a planned
    2 sits on a label-1 entry off Z and a planned -1 on a label-0 entry of Z,
    so no Z is read here.  ``protected`` holds the keys of every planned
    position; the entries a switch touches besides its anchors stay off
    them, so the positions planned for later injections keep their labels.
    Undirected positions try both orientations.
    """
    # L changes only when a completion is applied, and then the search ends
    nonzero = L._masks((1, 2, -1))
    key = L._key
    budget = _INJECT_TRIES

    def complete(a1, b1, a2=None):
        # free slots: a2 (unless given), b3 from a1's ones, b2 with
        # L(a2,b2)=0, a3 into b2 with L(a3,b3)=0
        nonlocal budget
        for a2_ in _shuffled(_bits(L.ones_in[b1]) if a2 is None else [a2], rng):
            if a2 is None and (a2_ == a1 or key(a2_, b1) in protected):
                continue
            for b3 in _shuffled(_bits(L.ones_out[a1]), rng):
                if b3 in (a1, b1, a2_) or key(a1, b3) in protected:
                    continue
                for b2 in _shuffled(range(L.n), rng):
                    if b2 in (a1, b1, a2_, b3) or nonzero[a2_] >> b2 & 1:
                        continue
                    if key(a2_, b2) in protected:
                        continue
                    for a3 in _shuffled(_bits(L.ones_in[b2]), rng):
                        if a3 in (a1, b1, a2_, b2, b3) or nonzero[a3] >> b3 & 1:
                            continue
                        if key(a3, b2) in protected or key(a3, b3) in protected:
                            continue
                        _shift(L, (a1, b1, a2_, b2, a3, b3), -1)
                        return True
                    budget -= 1
                    if budget <= 0:
                        return False
        return False

    if creates == (1, 1):
        starts = [pos]
    elif creates == (1, 0):
        # the new 2 at (a1, b1)
        starts = _shuffled(_orientations(pos, L.directed), rng)
    else:
        # the new -1 at (a2, b1); L(a1, b1) goes from 0 to 1
        starts = (
            (a1, b1, a2)
            for a2, b1 in _shuffled(_orientations(pos, L.directed), rng)
            for a1 in _shuffled(range(L.n), rng)
            if a1 not in (a2, b1) and not nonzero[a1] >> b1 & 1 and key(a1, b1) not in protected
        )
    for start in starts:
        if complete(*start):
            return True
        if budget <= 0:
            return False
    return False


def make_test_encoding(
    Z,
    rng: random.Random,
    profile=None,
    level: str | None = "good",
) -> Encoding:
    """A defective encoding consistent with Z, built by reverse phase switches.

    Starts from a chain-scrambled copy of Z (so both Z-present and Z-absent
    positions exist for defect injection), plans a catalog-shaped defect
    layout, and injects the defects at the planned positions in the reverse
    of repair order: (-1)s, then 2s, with the last 2/-1 pair of a 4-defect
    undirected profile created by a single combined switch.  The planner
    fixes every defect's position, its label in the scrambled copy and its
    entry of Z; the injections read no Z.  With level "good" (undirected) or
    "valid" the result passes the catalog filter; level None places defects
    freely.  With a level, a profile that no catalog subset can lay out on
    Z's degrees raises ValueError before any draw, instead of failing every
    restart.
    """
    directed = Z.directed
    allowed = DIRECTED_PROFILES if directed else UNDIRECTED_PROFILES
    free_choice = profile is None
    target = Z.degree_sequence()
    if not free_choice:
        p, q = profile
        if level is not None and ((p, q) not in allowed or not _placeable(target, p, q, level)):
            raise ValueError(f"profile {profile} not achievable by a valid layout")
    edge_count = len(Z.edges)
    steps = max(_MIN_SCRAMBLE_STEPS, 2 * edge_count)
    check = {None: lambda enc: True, "valid": Encoding.is_valid, "good": Encoding.is_good}[level]
    for _ in range(_RESTARTS):
        if free_choice:
            # some profiles are infeasible for tight degree sequences
            # (e.g. two 2-defects sharing a side need degree >= 4 there),
            # so redraw per attempt
            profile = allowed[rng.randrange(len(allowed))]
        p, q = profile
        base = _scrambled_copy(Z, rng, steps)
        L = Encoding(target)
        for u, v in base.edges:
            L._set(u, v, 1)
        layout = _plan_layout(L, Z, rng, profile, level)
        if layout is None:
            continue
        protected = {L._key(*pos) for _, pos in layout}
        minus_jobs = [pos for lab, pos in layout if lab == -1]
        two_jobs = [pos for lab, pos in layout if lab == 2]
        last = []
        if level is not None and not directed and _admits(_PHASES["P1"], p, q):
            # a full layout: each template's centre ends a 2 and a -1.  The
            # first such pair is made last, by one P1 switch, from anchors
            # (a1, b1, a2): the shared end b1 and the two far ends.
            tp, mp = next((t, m) for t in two_jobs for m in minus_jobs if len(set(t) & set(m)) == 1)
            two_jobs.remove(tp)
            minus_jobs.remove(mp)
            (b1,) = set(tp) & set(mp)
            last = [((1, 1), (sum(tp) - b1, b1, sum(mp) - b1))]
        # (defects created, position or anchors), in reverse repair order
        jobs = [((0, 1), pos) for pos in minus_jobs] + [((1, 0), pos) for pos in two_jobs] + last
        if all(_inject_at(L, made, pos, rng, protected) for made, pos in jobs):
            if L.defect_counts() == (p, q) and check(L):
                return L
    raise RuntimeError(
        f"could not generate a profile-{profile} encoding after {_RESTARTS} restarts"
    )


# ---------------------------------------------------------------------------
# Exhaustive encoding enumeration (desk scale)


def enum_good_encodings(Z, require_good: bool = True) -> list:
    """All encodings consistent with Z whose defect layout passes the catalog.

    Entries are searched position by position over {-1,0,1,2} (restricted by
    consistency with Z), with row/column-sum feasibility and defect-count
    pruning.  An undirected position is an unordered pair; its value lands
    in both its rows, which the column bookkeeping (aliased to the rows)
    expresses.  ``require_good`` additionally applies the degree conditions
    on defect incidences, which a digraph's encodings do not carry: there
    ``is_good`` is ``is_valid``.

    Exponential in the instance size: guarded to ``_ENUM_MAX_N`` vertices,
    ``_ENUM_MAX_EDGES`` edges (arcs) and ``DEFAULT_CAP`` encodings.
    """
    directed = Z.directed
    n = Z.n
    edge_count = len(Z.edges)
    if n > _ENUM_MAX_N or edge_count > _ENUM_MAX_EDGES:
        raise CapExceededError(
            f"instance too large for exhaustive encoding search (n={n}, edges={edge_count})"
        )
    blank = Encoding(Z.degree_sequence())
    out_target, in_target = blank.target_out, blank.target_in
    positions = [
        (i, j) for i in range(n) for j in range(n) if i != j and blank._key(i, j) == (i, j)
    ]
    m = len(positions)
    p_cap, q_cap, total_cap = _DEFECT_CAPS[directed]
    allowed = [(-1, 0, 1) if Z.has_edge(i, j) else (0, 1, 2) for (i, j) in positions]

    # how much each row and column can still gain/lose after the current
    # position: rec(k) takes position k's range out on entry, back on exit
    row_lo, row_hi, rowsum = [0] * n, [0] * n, [0] * n
    if directed:
        col_lo, col_hi, colsum = [0] * n, [0] * n, [0] * n
    else:
        col_lo, col_hi, colsum = row_lo, row_hi, rowsum

    def spread(k, sign):
        (i, j), lo, hi = positions[k], allowed[k][0], allowed[k][-1]
        row_lo[i] += sign * lo
        row_hi[i] += sign * hi
        col_lo[j] += sign * lo
        col_hi[j] += sign * hi

    for k in range(m):
        spread(k, 1)
    values = [0] * m
    results = []

    def rec(k, p, q):
        if k == m:
            if tuple(rowsum) == out_target and tuple(colsum) == in_target:
                enc = blank.copy()
                for (i, j), val in zip(positions, values):
                    if val:
                        enc._set(i, j, val)
                if enc.is_good() if require_good else enc.is_valid():
                    results.append(enc)
                    if len(results) > DEFAULT_CAP:
                        raise CapExceededError(f"more than {DEFAULT_CAP} encodings")
            return
        i, j = positions[k]
        spread(k, -1)
        for val in allowed[k]:
            dp = 1 if val == 2 else 0
            dq = 1 if val == -1 else 0
            if p + dp > p_cap or q + dq > q_cap or p + dp + q + dq > total_cap:
                continue
            rowsum[i] += val
            colsum[j] += val
            values[k] = val
            if (
                rowsum[i] + row_lo[i] <= out_target[i] <= rowsum[i] + row_hi[i]
                and colsum[j] + col_lo[j] <= in_target[j] <= colsum[j] + col_hi[j]
            ):
                rec(k + 1, p + dp, q + dq)
            rowsum[i] -= val
            colsum[j] -= val
            values[k] = 0
        spread(k, 1)

    rec(0, 0, 0)
    return results


# ---------------------------------------------------------------------------
# Serialization: dense CSV matrix plus a JSON sidecar.


def save_encoding(L: Encoding, csv_path, sidecar_path=None):
    sidecar_path = sidecar_path or (str(csv_path) + ".json")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerows(L.matrix)
    p, q = L.defect_counts()
    if L.directed:
        degrees = {"in_degrees": list(L.target_in), "out_degrees": list(L.target_out)}
    else:
        degrees = {"degrees": list(L.target_out)}
    mode = "directed" if L.directed else "undirected"
    sidecar = {"mode": mode, "n": L.n, "profile": {"p": p, "q": q}, **degrees}
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_int(doc, key):
    val = doc.get(key)
    if type(val) is not int:
        raise ValueError(f"sidecar field {key!r} must be an integer")
    return val


def _sidecar_ints(doc, key, size):
    val = doc.get(key)
    if not isinstance(val, list) or any(type(x) is not int for x in val):
        raise ValueError(f"sidecar field {key!r} must be a list of integers")
    if len(val) != size:
        raise ValueError(f"sidecar field {key!r} has {len(val)} entries, expected {size}")
    return val


def load_encoding(csv_path, sidecar_path=None) -> Encoding:
    """Read a CSV matrix and its JSON sidecar; ValueError on any malformed part."""
    sidecar_path = sidecar_path or (str(csv_path) + ".json")
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    with open(csv_path, "r", newline="", encoding="utf-8") as fh:
        matrix = [[int(x) for x in row] for row in csv.reader(fh) if row]
    if not isinstance(sidecar, dict):
        raise ValueError("sidecar must be a JSON object")
    n = _sidecar_int(sidecar, "n")
    if n != len(matrix):
        raise ValueError(f"sidecar n = {n} does not match the {len(matrix)}-row matrix")
    mode = sidecar.get("mode")
    if mode == "undirected":
        target = DegreeSequence(_sidecar_ints(sidecar, "degrees", n))
    elif mode == "directed":
        ins = _sidecar_ints(sidecar, "in_degrees", n)
        target = DirectedDegreeSequence(zip(ins, _sidecar_ints(sidecar, "out_degrees", n)))
    else:
        raise ValueError(f"sidecar mode must be 'undirected' or 'directed', got {mode!r}")
    profile = sidecar.get("profile")
    if not isinstance(profile, dict):
        raise ValueError("sidecar field 'profile' must be an object with p and q")
    want = (_sidecar_int(profile, "p"), _sidecar_int(profile, "q"))
    enc = Encoding(target, matrix)
    got = enc.defect_counts()
    if got != want:
        raise ValueError(f"sidecar profile {want} does not match matrix {got}")
    return enc


def verify_counting_identities(L: Encoding):
    """Exact bookkeeping identities; raises ValueError on any mismatch.

    Checks the label-1 entry count against the target's row sums less two
    per 2-entry plus one per (-1)-entry (M - 4p + 2q symmetric entries, or
    m - 2p + q arcs), and per vertex both neighbourhood sizes on each side
    against the degree/counter formulas d - 2*zeta + eta and
    d - zeta + 2*eta.  The row (out) and column (in) counts are popcounts of
    the label-1 bitmasks, and of those with the defect positions added; an
    undirected encoding checks its symmetric rows and columns alike.
    """
    n = L.n
    n_out = [mask.bit_count() for mask in L.ones_out]
    n_in = [mask.bit_count() for mask in L.ones_in]
    hat_out = [mask.bit_count() for mask in L._masks((1, 2, -1))]
    hat_in = [mask.bit_count() for mask in L._masks((1, 2, -1), cols=True)]
    p, q = L.defect_counts()
    per_key = 1 if L.directed else 2  # entries behind one defect-set key
    expected = sum(L.target_out) - per_key * (2 * p - q)
    if sum(n_out) != expected:
        raise ValueError(f"non-defect entry count {sum(n_out)} != {expected}")
    sides = (
        ("-", n_in, hat_in, L.target_in, L.zeta_in, L.eta_in),
        ("+", n_out, hat_out, L.target_out, L.zeta_out, L.eta_out),
    )
    for v in range(n):
        for sign, ones, hat, deg, zeta, eta in sides:
            if ones[v] != deg[v] - 2 * zeta[v] + eta[v]:
                raise ValueError(f"|N{sign}({v})| breaks the degree identity")
            if hat[v] != deg[v] - zeta[v] + 2 * eta[v]:
                raise ValueError(f"|N^{sign}({v})| breaks the degree identity")
    L.audit()
