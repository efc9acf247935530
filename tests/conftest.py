"""Shared brute-force oracles, independent of the library's own algorithms,
and the one-case-per-line rendering of the golden files."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from switchmix import DegreeSequence, DirectedDegreeSequence, Digraph, Graph, enum_states
from switchmix.chain import VARIANT_EXACT, FrozenChainError, derive_seed


def render_golden(doc) -> str:
    """One case per line, so a changed output shows as a changed line."""
    rows = [
        f"{json.dumps(name)}:{json.dumps(case, sort_keys=True, separators=(',', ':'))}"
        for name, case in sorted(doc.items())
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def count_nonadjacent_edge_pairs(g: Graph) -> int:
    """Direct enumeration of unordered pairs of disjoint edges."""
    total = 0
    edges = list(g.edges)
    for (u, v), (x, y) in combinations(edges, 2):
        if len({u, v, x, y}) == 4:
            total += 1
    return total


def graphical_by_search(degrees) -> bool:
    """Existence of a simple realization by plain backtracking.

    Processes the first vertex with residual degree and tries every subset
    of higher-residual partners; prunes only on parity and capacity, so the
    search does not share logic with the library's graphicality test.
    """
    degrees = list(degrees)
    n = len(degrees)
    if sum(degrees) % 2:
        return False
    if any(d < 0 or d > n - 1 for d in degrees):
        return False

    def rec(res):
        live = [v for v in range(len(res)) if res[v] > 0]
        if not live:
            return True
        u = live[0]
        partners = [v for v in live[1:]]
        if res[u] > len(partners):
            return False
        for pick in combinations(partners, res[u]):
            nxt = list(res)
            nxt[u] = 0
            for v in pick:
                nxt[v] -= 1
            if rec(nxt):
                return True
        return False

    return rec(degrees)


def digraphical_by_search(pairs) -> bool:
    """Existence of a simple digraph realization by backtracking on rows."""
    pairs = list(pairs)
    n = len(pairs)
    if sum(a for a, _ in pairs) != sum(b for _, b in pairs):
        return False
    if any(a < 0 or b < 0 or a > n - 1 or b > n - 1 for a, b in pairs):
        return False
    in_res = [a for a, _ in pairs]

    def rec(u):
        if u == n:
            return all(r == 0 for r in in_res)
        need = pairs[u][1]
        cand = [v for v in range(n) if v != u and in_res[v] > 0]
        if len(cand) < need:
            return False
        for pick in combinations(cand, need):
            for v in pick:
                in_res[v] -= 1
            if rec(u + 1):
                for v in pick:
                    in_res[v] += 1
                return True
            for v in pick:
                in_res[v] += 1
        return False

    return rec(0)


def states_by_brute_force(seq) -> list:
    """Every realization of a degree sequence, by testing each |E|-subset of
    the allowed pairs for the exact degrees; sorted edge tuples, in order."""
    directed = isinstance(seq, DirectedDegreeSequence)
    if directed:
        n, size = seq.n, seq.sum_out
        want = [tuple(p) for p in seq.pairs]
        allowed = [(u, v) for u in range(n) for v in range(n) if u != v]
        if seq.sum_in != seq.sum_out:
            return []
    else:
        n, size = seq.n, seq.M // 2
        want = [(d, d) for d in seq.degrees]
        allowed = list(combinations(range(n), 2))
        if seq.M % 2:
            return []
    states = []
    for edges in combinations(allowed, size):
        got = [[0, 0] for _ in range(n)]
        for u, v in edges:
            got[v][0] += 1
            got[u][1] += 1
            if not directed:
                got[u][0] += 1
                got[v][1] += 1
        if all(tuple(g) == w for g, w in zip(got, want)):
            states.append(edges)
    return states


def log_pi_star_term_bounds(size: int, fc) -> bool:
    """ln(size) <= weight * ln(count), the bound's ln(1/pi*) term, checked
    in exact integers as size^den <= count^num for weight = num/den."""
    w = fc.log_pi_star_bound_weight
    return size**w.denominator <= fc.log_pi_star_count**w.numerator


def random_graphical_sequence(rng: random.Random, n: int, p: float = 0.5) -> DegreeSequence:
    """Degree sequence of a random graph: graphical by construction."""
    degrees = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                degrees[u] += 1
                degrees[v] += 1
    return DegreeSequence(degrees)


def random_digraph_sequence(rng: random.Random, n: int, p: float = 0.5) -> DirectedDegreeSequence:
    """(in, out) pairs of a random digraph: digraphical by construction."""
    pairs = [[0, 0] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                pairs[v][0] += 1
                pairs[u][1] += 1
    return DirectedDegreeSequence(pairs)


def dense_tv_curve(matrix, horizon: int, start: int) -> list:
    """Exact TV to uniform over 0..horizon steps by dense propagation.

    The Fraction matrix is scaled to integer numerators over the lcm of its
    denominators, and every step sums over all states, zero entries included.
    """
    count = len(matrix)
    den_step = math.lcm(*(x.denominator for row in matrix for x in row))
    num = [[int(x * den_step) for x in row] for row in matrix]
    vec, den = [0] * count, 1
    vec[start] = 1
    curve = []
    for t in range(horizon + 1):
        curve.append(Fraction(sum(abs(count * v - den) for v in vec), 2 * count * den))
        if t < horizon:
            vec = [
                sum(vec[i] * num[i][j] for i in range(count) if vec[i])
                for j in range(count)
            ]
            den *= den_step
    return curve


def dense_gap(an) -> float:
    """1 - max(|lambda_min|, lambda_2) from numpy.linalg.eigvalsh on the dense matrix.

    Each entry of the analysis's neighbour rows adds one proposal to its
    column, and the diagonal gets the holding mass, the denominator less the
    row length.  The states x states float array limits this to spaces of a
    few thousand states.
    """
    count, denom = len(an._rows), an._denom
    if count == 1:
        return 1.0
    P = np.zeros((count, count))
    for i, row in enumerate(an._rows):
        np.add.at(P[i], row, 1)
        P[i, i] += denom - len(row)
    vals = np.linalg.eigvalsh(P / denom)
    return float(1.0 - max(abs(vals[0]), vals[-2]))


def oracle_neighbour_states(state: tuple, directed: bool = False):
    """All states one switch away from a canonical state, each once, written
    out pair by pair with its own disjointness test and matchings.

    Disjoint edges (x, y), (z, w) switch to (x, w), (z, y) and, when
    undirected, also to (x, z), (y, w).
    """
    key = (Digraph if directed else Graph)._key
    present = set(state)
    out = []
    for i, (x, y) in enumerate(state):
        for j in range(i + 1, len(state)):
            z, w = state[j]
            if x == z or x == w or y == z or y == w:
                continue
            matchings = (((x, w), (z, y)),) if directed else (((x, z), (y, w)), ((x, w), (z, y)))
            for p1, p2 in matchings:
                e1, e2 = key(*p1), key(*p2)
                if e1 in present or e2 in present:
                    continue
                nxt = [e for k, e in enumerate(state) if k != i and k != j]
                nxt += (e1, e2)
                out.append(tuple(sorted(nxt)))
    return out


def switch_rows_by_tuples(states, directed=False) -> list:
    """Switch rows as ordered neighbour lists: every neighbour state is built
    as a sorted edge tuple by ``oracle_neighbour_states``, in its order, and
    looked up in a dict of all states."""
    index = {s: i for i, s in enumerate(states)}
    return [[index[nb] for nb in oracle_neighbour_states(st, directed)] for st in states]


def least_roots(count: int, links) -> list:
    """Union-find over ``count`` elements after merging every (i, j) link;
    each class is rooted at its least element."""
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(count)]


def induced_triangles_by_scan(dg: Digraph) -> list:
    """Every triple a < b < c, in order, whose six possible arcs include
    exactly one of the two 3-cycles through a, b, c and no other arc."""
    n = dg.n
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                fwd = dg.has_edge(a, b) and dg.has_edge(b, c) and dg.has_edge(c, a)
                bwd = dg.has_edge(b, a) and dg.has_edge(c, b) and dg.has_edge(a, c)
                if fwd == bwd:  # either no cycle, or extra arcs spoil inducedness
                    continue
                arcs = sum(1 for u in (a, b, c) for v in (a, b, c) if u != v and dg.has_edge(u, v))
                if arcs == 3:
                    out.append((a, b, c))
    return out


def two_colourable(rows) -> bool:
    """Whether the graph given by symmetric ``rows`` is bipartite: a
    breadth-first two-colouring from every uncoloured vertex meets no edge
    inside one side."""
    side = [None] * len(rows)
    for start in range(len(rows)):
        if side[start] is not None:
            continue
        side[start] = 0
        queue = [start]
        for i in queue:
            for j in rows[i]:
                if side[j] is None:
                    side[j] = 1 - side[i]
                    queue.append(j)
                elif side[j] == side[i]:
                    return False
    return True


def relabelling_orbits_by_tuples(seq, states) -> list:
    """Orbit labels with every transposed state rebuilt as a sorted edge tuple
    and looked up in a dict of all states, merged by ``least_roots``, so each
    state is labelled with the least index in its orbit."""
    directed = isinstance(seq, DirectedDegreeSequence)
    index = {s: i for i, s in enumerate(states)}
    classes = {}
    for v, label in enumerate(seq.pairs if directed else seq.degrees):
        classes.setdefault(label, []).append(v)
    swaps = [(vs[k], vs[k + 1]) for vs in classes.values() for k in range(len(vs) - 1)]

    def swapped(state, u, v):
        perm = {u: v, v: u}
        out = []
        for x, y in state:
            x, y = perm.get(x, x), perm.get(y, y)
            out.append((x, y) if directed or x < y else (y, x))
        return index[tuple(sorted(out))]

    links = ((i, swapped(st, u, v)) for st, i in index.items() for u, v in swaps)
    return least_roots(len(index), links)


def erdos_gallai_quadratic(degrees) -> bool:
    """The quadratic Erdos-Gallai loop: every k re-sums the whole tail."""
    if sum(degrees) % 2:
        return False
    d = sorted(degrees, reverse=True)
    n = len(d)
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        tail = sum(min(k, d[i]) for i in range(k, n))
        if prefix > k * (k - 1) + tail:
            return False
    return True


def fulkerson_quadratic(pairs) -> bool:
    """The quadratic Fulkerson loop over (in, out) pairs in descending (out, in) order."""
    if sum(a for a, _ in pairs) != sum(b for _, b in pairs):
        return False
    ps = sorted(pairs, key=lambda p: (p[1], p[0]), reverse=True)
    n = len(ps)
    prefix_out = 0
    for k in range(1, n + 1):
        prefix_out += ps[k - 1][1]
        cap = sum(min(ps[i][0], k - 1) for i in range(k))
        cap += sum(min(ps[i][0], k) for i in range(k, n))
        if prefix_out > cap:
            return False
    return True


def havel_hakimi_sorting(degrees):
    """Stored-order edge array of the greedy realization, one full sort per vertex.

    The largest residual (lowest index on ties) is joined to the next
    ``res[u]`` residuals in ``(-res, v)`` order.  None when the greedy
    step starves.
    """
    n = len(degrees)
    res = list(degrees)
    edges = []
    while True:
        u = max(range(n), key=lambda v: (res[v], -v))
        if res[u] == 0:
            return edges
        others = sorted(
            (v for v in range(n) if v != u and res[v] > 0),
            key=lambda v: (-res[v], v),
        )
        if len(others) < res[u]:
            return None
        for v in others[: res[u]]:
            edges.append((min(u, v), max(u, v)))
            res[v] -= 1
        res[u] = 0


def kleitman_wang_sorting(pairs):
    """Stored-order arc array of the greedy directed realization, one full sort per source.

    Sources go in ``(out, in, -v)`` order; each sends its arcs to the
    targets first in ``(-in, -out, v)`` order.  None when the greedy step
    starves.
    """
    n = len(pairs)
    in_res = [a for a, _ in pairs]
    out_res = [b for _, b in pairs]
    arcs = []
    while True:
        s = max(range(n), key=lambda v: (out_res[v], in_res[v], -v))
        if out_res[s] == 0:
            return arcs if not any(in_res) else None
        targets = sorted(
            (v for v in range(n) if v != s and in_res[v] > 0),
            key=lambda v: (-in_res[v], -out_res[v], v),
        )
        if len(targets) < out_res[s]:
            return None
        for t in targets[: out_res[s]]:
            arcs.append((s, t))
            in_res[t] -= 1
        out_res[s] = 0


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture(scope="session")
def balanced_directed_corpus():
    """Every in/out-balanced directed sequence on 1 to 5 vertices with
    semi-degrees below n, each with its ``enum_states`` (empty when it is
    not digraphical), enumerated once per session."""
    corpus = []
    for n in range(1, 6):
        for pairs in combinations_with_replacement(product(range(n), repeat=2), n):
            seq = DirectedDegreeSequence(pairs)
            if seq.sum_in == seq.sum_out:
                corpus.append((seq, enum_states(seq)))
    return corpus


def embeds_by_search(defects, template, directed) -> bool:
    """Injective label-preserving embedding of defect edges into a template.

    The encoding layer's first embedder, kept as an oracle: it copies its
    partial map at every step instead of undoing it.
    """

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


def embed_by_linear_scan(arcs, candidates_by_label, directed, accept=None):
    """The encoding layer's embedder before its endpoint index, kept as a
    reference: every arc scans all candidates of its label, in order."""
    options = {
        lab: [o for u, v in cands for o in (((u, v),) if directed else ((u, v), (v, u)))]
        for lab, cands in candidates_by_label.items()
    }
    image = {}
    used = set()
    layout = []

    def extend(idx):
        if idx == len(arcs):
            return accept is None or accept(layout)
        x, y, lab = arcs[idx]
        mx, my = image.get(x), image.get(y)
        for u, v in options.get(lab, ()):
            if (u != mx) if mx is not None else (u in used):
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


# ---------------------------------------------------------------------------
# A dense encoding model: a plain list of lists, moved by its own 3-switch.
# An ``Encoding`` keeps no dense matrix, so its ``matrix`` is a view of the
# store's indices; these oracles read this model instead.


def dense_of(Z):
    """The 0/1 adjacency matrix of a state: the entries of its defect-free encoding."""
    mat = [[0] * Z.n for _ in range(Z.n)]
    for u, v in Z.edges:
        mat[u][v] = 1
        if not Z.directed:
            mat[v][u] = 1
    return mat


def dense_3switch(mat, tup, sign, directed) -> bool:
    """Apply the 3-switch on ``tup`` (sign +1) or its reverse (sign -1) to
    the model: (a1,b1), (a2,b2), (a3,b3) drop by ``sign`` and (a2,b1),
    (a3,b2), (a1,b3) rise by it, mirrored when undirected.  Returns False,
    with the model unchanged, when an entry would leave {-1, 0, 1, 2}."""
    a1, b1, a2, b2, a3, b3 = tup
    moves = [((a1, b1), -sign), ((a2, b2), -sign), ((a3, b3), -sign)]
    moves += [((a2, b1), sign), ((a3, b2), sign), ((a1, b3), sign)]
    if any(not -1 <= mat[u][v] + d <= 2 for (u, v), d in moves):
        return False
    for (u, v), d in moves:
        mat[u][v] += d
        if not directed:
            mat[v][u] += d
    return True


def dense_defect_counts(mat, directed):
    """(2-entries, (-1)-entries) of the model; an undirected pair counts once."""
    n = len(mat)
    cells = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    return sum(mat[u][v] == 2 for u, v in cells), sum(mat[u][v] == -1 for u, v in cells)


def dense_line_counts(mat, label):
    """(per-row, per-column) counts of ``label`` in the model."""
    return [row.count(label) for row in mat], [list(col).count(label) for col in zip(*mat)]


def ones_by_scan(mat):
    """The label-1 entries of a dense matrix by a scan of every cell:
    the lexicographic pair list, then per vertex its out- and in-lists."""
    n = len(mat)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and mat[u][v] == 1]
    outs = [[v for v in range(n) if v != u and mat[u][v] == 1] for u in range(n)]
    ins = [[u for u in range(n) if u != v and mat[u][v] == 1] for v in range(n)]
    return pairs, outs, ins


def counting_identities_by_mode(L, mat=None):
    """The encoding counting identities with one branch per mode, by generator sums.

    Counts neighbourhoods in the dense ``mat`` (default: the view
    ``L.matrix``) against L's defect counts and counters.  Kept as an oracle
    for the merged single-pass check; raises ValueError on a mismatch, then
    audits the bookkeeping like the library does.
    """
    p, q = L.defect_counts()
    mat = L.matrix if mat is None else mat
    n = L.n
    if not L.directed:
        ones_edges = sum(1 for u in range(n) for v in range(u + 1, n) if mat[u][v] == 1)
        expected = L.target.M // 2 - 2 * p + q
        if ones_edges != expected:
            raise ValueError(f"non-defect edge count {ones_edges} != {expected}")
        zeta, eta = L.zeta_out, L.eta_out
        for v in range(n):
            nv = sum(1 for w in range(n) if w != v and mat[v][w] == 1)
            hat = sum(1 for w in range(n) if w != v and mat[v][w] != 0)
            d = L.target.degrees[v]
            if nv != d - 2 * zeta[v] + eta[v]:
                raise ValueError(f"|N_L({v})| breaks the degree identity")
            if hat != d - zeta[v] + 2 * eta[v]:
                raise ValueError(f"|N^_L({v})| breaks the degree identity")
    else:
        ones_arcs = sum(1 for u in range(n) for v in range(n) if u != v and mat[u][v] == 1)
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


# ---------------------------------------------------------------------------
# The per-step chain kernel that ``chain.advance`` replaced, kept as its
# oracle.  It shares no code with the library's move: pairs are drawn by
# ``randrange``, collisions tested by ``has_edge`` and moves applied by its
# own swap-with-last, which finds each slot by searching the edge array.


def reference_edge_index_pair(g, rng):
    """Uniform unordered pair of distinct edge indices, by two ``randrange`` calls."""
    count = len(g.edges)
    if count < 2:
        raise ValueError("need at least 2 edges")
    i = rng.randrange(count)
    j = rng.randrange(count - 1)
    if j >= i:
        j += 1
    return i, j


def _reference_switch(g, r1, r2, a1, a2):
    """Delete ``r1`` then ``r2``, each by moving the last edge into its slot,
    then append ``a1`` and ``a2``."""
    for key in (r1, r2):
        pos = g.edges.index(key)
        last = g.edges.pop()
        if last != key:
            g.edges[pos] = last
        g._members.remove(key)
    for key in (a1, a2):
        g.edges.append(key)
        g._members.add(key)


def _reference_disjoint_pair(g, rng, a=None):
    if len(g.edges) < 2 or a == 0:
        raise FrozenChainError(
            "no pair of non-adjacent edges exists; the chain has no moves"
        )
    while True:
        i, j = reference_edge_index_pair(g, rng)
        x, y = g.edges[i]
        z, w = g.edges[j]
        if x != z and x != w and y != z and y != w:
            return x, y, z, w
        if a is None:
            return None


def reference_step_undirected(g, rng, a=None) -> bool:
    """One undirected step: the exact variant with ``a``, the all-pairs one without."""
    pair = _reference_disjoint_pair(g, rng, a)
    if pair is None:
        return False
    x, y, z, w = pair
    k = rng.randrange(3)
    if k == 0:
        return False
    f1, f2 = ((x, z), (y, w)) if k == 1 else ((x, w), (y, z))
    if g.has_edge(*f1) or g.has_edge(*f2):
        return False
    _reference_switch(g, (x, y), (z, w), g._key(*f1), g._key(*f2))
    return True


def reference_step_directed(dg, rng) -> bool:
    pair = _reference_disjoint_pair(dg, rng)
    if pair is None:
        return False
    a, b, c, d = pair
    if dg.has_edge(a, d) or dg.has_edge(c, b):
        return False
    _reference_switch(dg, (a, b), (c, d), (a, d), (c, b))
    return True


def reference_advance(g, rng, steps, a=None) -> int:
    """Accepted moves of ``steps`` reference steps; same arguments as ``chain.advance``."""
    if g.directed:
        return sum(reference_step_directed(g, rng) for _ in range(steps))
    return sum(reference_step_undirected(g, rng, a) for _ in range(steps))


def reference_sample(start, count, *, steps=0, seed=0, variant=VARIANT_EXACT, thinning=1, stream=0) -> list:
    """``chain.sample`` stepped one reference step at a time."""
    g = start.copy()
    rng = random.Random(derive_seed(seed, stream))
    a = None if g.directed or variant != VARIANT_EXACT else g.degree_sequence().a
    out = []
    reference_advance(g, rng, steps, a)
    for _ in range(count):
        reference_advance(g, rng, thinning, a)
        out.append(g.canonical())
    return out


# Exact stationary laws at every n, on families whose uniform law has a
# closed-form statistic.  All lie outside the theorems' hypotheses (every
# semi-degree 1; d_max <= 2), so they check the sampler, not the theorems.


def law_of(weights) -> dict:
    """Weights or counts keyed by j, as exact probabilities; zero weights are left out."""
    total = sum(weights.values())
    return {j: Fraction(w, total) for j, w in weights.items() if w}


def _cycles_at_least_3(n: int) -> list:
    """A(k) for k <= n: permutations of k points with every cycle of length
    >= 3, by A(k) = (k-1) A(k-1) + (k-1)(k-2) A(k-3), A(0) = 1, A(1) = A(2) = 0
    (point k's cycle has length >= 4, so deleting it leaves a permutation
    counted by A(k-1), or it is a 3-cycle, leaving A(k-3))."""
    a = [1, 0, 0]
    for k in range(3, n + 1):
        a.append((k - 1) * a[k - 1] + (k - 1) * (k - 2) * a[k - 3])
    return a[: n + 1]


def two_cycle_law(n: int) -> dict:
    """Law of the number of 2-cycles in a uniform realization of [(1,1)]*n.

    A realization is a derangement sigma (arc u -> sigma(u)), and j 2-cycles
    are C(n, 2j) * (2j-1)!! ways to pair 2j points, times A(n-2j) for the
    rest.  As n grows the law tends to Poisson(1/2)."""
    a = _cycles_at_least_3(n)
    return law_of({
        j: math.comb(n, 2 * j) * math.prod(range(1, 2 * j, 2)) * a[n - 2 * j]
        for j in range(n // 2 + 1)
    })


def _cycles_at_least_4(n: int) -> list:
    """B(k) for k <= n: triangle-free 2-regular graphs on k labelled vertices,
    by B(k) = sum_{L=4..k} C(k-1, L-1) (L-1)!/2 B(k-L), B(0) = 1 (the cycle
    through vertex k has L vertices, (L-1)!/2 ways to close it)."""
    b = [1]
    for k in range(1, n + 1):
        b.append(sum(math.comb(k - 1, L - 1) * math.factorial(L - 1) // 2 * b[k - L] for L in range(4, k + 1)))
    return b


def triangle_law(n: int) -> dict:
    """Law of the number of triangles in a uniform realization of [2]*n.

    A realization is a union of cycles of length >= 3, and j triangles are
    C(n, 3j) * (3j)! / (6^j j!) ways to lay them out, times B(n-3j) for the
    rest.  As n grows the law tends to Poisson(1/6), the (d-1)^3/6 of
    Wormald 1981 ("The asymptotic distribution of short cycles in random
    regular graphs") at d = 2."""
    b = _cycles_at_least_4(n)
    return law_of({
        j: math.comb(n, 3 * j) * math.factorial(3 * j) // (6**j * math.factorial(j)) * b[n - 3 * j]
        for j in range(n // 3 + 1)
    })


def two_cycles(arcs) -> int:
    """2-cycles of a digraph given by its arcs."""
    members = set(arcs)
    return sum(1 for u, v in arcs if u < v and (v, u) in members)


def triangles_of_2_regular(edges) -> int:
    """Triangles of a 2-regular graph given by its (u < v) edges: a vertex
    lies on one exactly when its two neighbours are adjacent."""
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    members = set(edges)
    return sum(1 for v, w in nbrs.values() if (min(v, w), max(v, w)) in members) // 3


def matching_half_law(n: int) -> dict:
    """Law of the number of edges inside the first n/2 labels in a uniform
    realization of [1]*n (n even): the states are the perfect matchings.

    With k = n/2, j edges inside the first half leave k - 2j of its
    vertices matched across, so as many of the second half, which then
    holds j edges too: (C(k, 2j) (2j-1)!!)^2 (k-2j)! matchings, of
    (n-1)!! in all.  Unlike the cycle counts, this statistic reads the
    labels, so it sees a switch that favours joining low labels."""
    k = n // 2
    return law_of({
        j: (math.comb(k, 2 * j) * math.prod(range(1, 2 * j, 2))) ** 2 * math.factorial(k - 2 * j)
        for j in range(k // 2 + 1)
    })


def edges_below(edges, h: int) -> int:
    """Edges (u < v) with both ends below label h."""
    return sum(1 for _, v in edges if v < h)
