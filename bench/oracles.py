"""Independent reference computations for checking switchmix output.

Nothing here imports switchmix.  The enumerators, the switch-neighbour
relation and the degree tests are written from the definitions (simple
graphs with a fixed degree vector; the switch chains of Cooper-Dyer-Greenhill
and of Greenhill for digraphs), so a fault in the program cannot hide behind
the same fault in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Edge-list files


def parse_edge_list(text, directed):
    """Parse the program's edge-list format ("n <count>", then "u v" lines).

    Raises ValueError on a malformed line, a loop, a repeated edge (an
    undirected edge counts once whichever way it is written) or a vertex out
    of range.  Returns (n, pairs) with pairs in file order.
    """
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "n":
        raise ValueError("missing 'n <count>' header")
    n = int(lines[0][1])
    seen = set()
    pairs = []
    for row in lines[1:]:
        if len(row) != 2:
            raise ValueError(f"malformed edge line {' '.join(row)!r}")
        u, v = int(row[0]), int(row[1])
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        key = (u, v) if directed or u < v else (v, u)
        if key in seen:
            raise ValueError(f"repeated edge {key}")
        seen.add(key)
        pairs.append((u, v))
    return n, pairs


def check_degrees(n, pairs, degrees, directed):
    """Raise ValueError unless the simple (di)graph has exactly these degrees.

    ``degrees`` is a list of ints (undirected) or of (in, out) pairs.
    """
    if len(degrees) != n:
        raise ValueError(f"{n} vertices, expected {len(degrees)}")
    seen = set()
    if directed:
        din, dout = [0] * n, [0] * n
        for u, v in pairs:
            if u == v or (u, v) in seen or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) is a loop, repeated or out of range")
            seen.add((u, v))
            dout[u] += 1
            din[v] += 1
        got = list(zip(din, dout))
        want = [tuple(p) for p in degrees]
    else:
        got = [0] * n
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if u == v or key in seen or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) is a loop, repeated or out of range")
            seen.add(key)
            got[u] += 1
            got[v] += 1
        want = list(degrees)
    if got != want:
        bad = next(i for i in range(n) if got[i] != want[i])
        raise ValueError(f"vertex {bad} has degree {got[bad]}, expected {want[bad]}")


# ---------------------------------------------------------------------------
# Degree-sequence tests, O(n log n) after sorting


def graphical(degrees):
    """Erdos-Gallai with a pointer over the sorted tail (O(n log n))."""
    d = sorted(degrees, reverse=True)
    n = len(d)
    if sum(d) % 2 or (d and (d[-1] < 0 or d[0] > n - 1)):
        return False
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + d[i]
    lhs = 0
    p = n  # first index >= k whose degree is < k
    for k in range(1, n + 1):
        lhs += d[k - 1]
        while p > k and d[p - 1] < k:
            p -= 1
        p = max(p, k)
        # tail sum of min(k, d_i) for i >= k: k for the head of the tail, d_i after p
        rhs = k * (k - 1) + k * (p - k) + suffix[p]
        if lhs > rhs:
            return False
    return True


def digraphical(pairs):
    """Fulkerson-Chen-Anstee for (in, out) pairs of a loopless digraph."""
    n = len(pairs)
    if sum(a for a, _ in pairs) != sum(b for _, b in pairs):
        return False
    order = sorted(pairs, key=lambda p: (p[1], p[0]), reverse=True)
    for k in range(1, n + 1):
        lhs = sum(order[i][1] for i in range(k))
        rhs = sum(min(order[i][0], k - 1) for i in range(k))
        rhs += sum(min(order[i][0], k) for i in range(k, n))
        if lhs > rhs:
            return False
    return True


def sequence_stats(degrees):
    """M, M2, a = binom(M/2, 2) - M2/2, d_min, d_max, from the definitions."""
    M = sum(degrees)
    M2 = sum(d * (d - 1) for d in degrees)
    half = M // 2
    return {
        "M": M,
        "M2": M2,
        "a": half * (half - 1) // 2 - M2 // 2,
        "d_min": min(degrees),
        "d_max": max(degrees),
    }


# ---------------------------------------------------------------------------
# Brute-force state spaces


def enumerate_graphs(degrees):
    """All labelled simple graphs with the degree vector, edge by edge.

    Walks the vertex pairs in lexicographic order and decides each one in or
    out, pruning when a vertex can no longer reach its degree.  Returns a
    sorted list of sorted edge tuples.
    """
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # left[k][v]: pairs at index >= k touching v
    left = [[0] * n for _ in range(len(pairs) + 1)]
    for k in range(len(pairs) - 1, -1, -1):
        left[k] = list(left[k + 1])
        i, j = pairs[k]
        left[k][i] += 1
        left[k][j] += 1
    res = list(degrees)
    chosen = []
    out = []

    def rec(k):
        if k == len(pairs):
            if not any(res):
                out.append(tuple(chosen))
            return
        i, j = pairs[k]
        if res[i] and res[j]:
            res[i] -= 1
            res[j] -= 1
            chosen.append((i, j))
            if res[i] <= left[k + 1][i] and res[j] <= left[k + 1][j]:
                rec(k + 1)
            chosen.pop()
            res[i] += 1
            res[j] += 1
        if res[i] <= left[k + 1][i] and res[j] <= left[k + 1][j]:
            rec(k + 1)

    if sum(degrees) % 2 == 0:
        rec(0)
    return sorted(out)


def enumerate_digraphs(pairs):
    """All labelled loopless simple digraphs with the (in, out) vector."""
    n = len(pairs)
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    left_out = [[0] * n for _ in range(len(slots) + 1)]
    left_in = [[0] * n for _ in range(len(slots) + 1)]
    for k in range(len(slots) - 1, -1, -1):
        left_out[k] = list(left_out[k + 1])
        left_in[k] = list(left_in[k + 1])
        i, j = slots[k]
        left_out[k][i] += 1
        left_in[k][j] += 1
    need_in = [a for a, _ in pairs]
    need_out = [b for _, b in pairs]
    chosen = []
    out = []

    def rec(k):
        if k == len(slots):
            if not any(need_in) and not any(need_out):
                out.append(tuple(chosen))
            return
        i, j = slots[k]
        if need_out[i] and need_in[j]:
            need_out[i] -= 1
            need_in[j] -= 1
            chosen.append((i, j))
            if need_out[i] <= left_out[k + 1][i] and need_in[j] <= left_in[k + 1][j]:
                rec(k + 1)
            chosen.pop()
            need_out[i] += 1
            need_in[j] += 1
        if need_out[i] <= left_out[k + 1][i] and need_in[j] <= left_in[k + 1][j]:
            rec(k + 1)

    if sum(need_in) == sum(need_out):
        rec(0)
    return sorted(out)


def switch_moves(state, directed):
    """States one switch away from ``state`` (a sorted edge/arc tuple).

    Undirected: two disjoint edges {x,y}, {z,w} are replaced by one of the
    two other perfect matchings of {x,y,z,w} when both new edges are absent.
    Directed: arcs (a,b), (c,d) on four distinct vertices become (a,d),
    (c,b) when both are absent.  Different moves give different states.
    """
    present = set(state)
    m = len(state)
    out = []
    for p in range(m):
        for q in range(p + 1, m):
            (x, y), (z, w) = state[p], state[q]
            if len({x, y, z, w}) < 4:
                continue
            if directed:
                options = (((x, w), (z, y)),)
            else:
                options = (((x, z), (y, w)), ((x, w), (y, z)))
            for e1, e2 in options:
                if not directed:
                    e1, e2 = tuple(sorted(e1)), tuple(sorted(e2))
                if e1 in present or e2 in present:
                    continue
                rest = [e for e in state if e != state[p] and e != state[q]]
                out.append(tuple(sorted(rest + [e1, e2])))
    return out


class Space:
    """A brute-force state space with its exact one-step law.

    The neighbour probability is 1/(3a) undirected, with a the number of
    disjoint edge pairs, and 1/binom(m,2) directed; the rest of each row is
    the holding probability.
    """

    def __init__(self, degrees, directed):
        self.directed = directed
        if directed:
            self.states = enumerate_digraphs(degrees)
            m = sum(b for _, b in degrees)
            self.denom = m * (m - 1) // 2
        else:
            self.states = enumerate_graphs(degrees)
            self.denom = 3 * sequence_stats(degrees)["a"]
        index = {s: i for i, s in enumerate(self.states)}
        self.neighbours = [[index[t] for t in switch_moves(s, directed)] for s in self.states]
        self._eig = None
        self._gap = None

    @property
    def size(self):
        return len(self.states)

    @property
    def nnz(self):
        """Non-zeros of the transition matrix: moves plus positive diagonals."""
        return sum(len(nb) + (len(nb) < self.denom) for nb in self.neighbours)

    def components(self):
        """Sorted component sizes of the switch graph."""
        parent = list(range(self.size))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, nb in enumerate(self.neighbours):
            for j in nb:
                parent[find(i)] = find(j)
        sizes = {}
        for i in range(self.size):
            r = find(i)
            sizes[r] = sizes.get(r, 0) + 1
        return sorted(sizes.values(), reverse=True)

    def dense(self):
        import numpy as np

        N = self.size
        P = np.zeros((N, N))
        for i, nb in enumerate(self.neighbours):
            P[i, nb] = 1.0 / self.denom
            P[i, i] = 1.0 - len(nb) / self.denom
        return P

    def eigen(self):
        """eigh of the symmetric transition matrix (values ascending)."""
        import numpy as np

        if self._eig is None:
            self._eig = np.linalg.eigh(self.dense())
        return self._eig

    def spectral_gap(self):
        """1 minus the second-largest eigenvalue modulus, from eigvalsh."""
        import numpy as np

        if self._gap is None:
            vals = np.linalg.eigvalsh(self.dense())
            self._gap = 1.0 - max(abs(vals[0]), abs(vals[-2]))
        return self._gap

    def tv_from_all_starts(self, t):
        """TV to uniform after t steps from every start, via eigh."""
        import numpy as np

        vals, vecs = self.eigen()
        Pt = (vecs * vals**t) @ vecs.T
        return 0.5 * np.abs(Pt - 1.0 / self.size).sum(axis=1)

    def tv_one_step_exact(self):
        """Exact TV(1) from each start, as Fractions."""
        N, D = self.size, self.denom
        u = Fraction(1, N)
        out = []
        for nb in self.neighbours:
            k = len(nb)
            hold = 1 - Fraction(k, D)
            out.append((abs(hold - u) + k * abs(Fraction(1, D) - u) + (N - 1 - k) * u) / 2)
        return out


def induced_directed_triangles(arcs, n):
    """Vertex triples that induce exactly a directed 3-cycle."""
    present = set(arcs)
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                inside = [(u, v) for u in (a, b, c) for v in (a, b, c) if u != v and (u, v) in present]
                if len(inside) != 3:
                    continue
                heads = {u: v for u, v in inside}
                if len(heads) == 3 and all(heads[heads[heads[u]]] == u for u in (a, b, c)):
                    out.append((a, b, c))
    return out


# ---------------------------------------------------------------------------
# Statistics


def chi_square_z(counts, expected):
    """Wilson-Hilferty normal score of Pearson's statistic (df = cells - 1)."""
    stat = sum((c - expected) ** 2 / expected for c in counts)
    k = len(counts) - 1
    return ((stat / k) ** (1 / 3) - (1 - 2 / (9 * k))) / math.sqrt(2 / (9 * k))


def relaxation_sandwich(gap, eps, size):
    """Levin-Peres-Wilmer bounds (Thm 12.4, 12.5) on t_mix(eps) from t_rel."""
    t_rel = 1.0 / gap
    lower = (t_rel - 1.0) * math.log(1.0 / (2.0 * eps))
    upper = t_rel * math.log(size / eps)
    return lower, upper
