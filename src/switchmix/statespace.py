"""Exhaustive state-space enumeration and exact transition-matrix analysis.

Transition matrices and total-variation curves are kept in exact rational
arithmetic (integer numerators over a power of the one-step denominator);
the matrix is held as sparse integer rows, so propagation touches only the
non-zeros.  Floating point appears only in the spectral gap, which comes from
numpy.linalg.eigvalsh on the symmetric matrix.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice

from .chain import VARIANT_EXACT, switch_neighbour_states
from .construct import realize, realize_directed
from .degseq import DegreeSequence, DirectedDegreeSequence
from .graph import Digraph, Graph

DEFAULT_CAP = 10**6


class CapExceededError(RuntimeError):
    """Enumeration would exceed the configured state cap."""


# ---------------------------------------------------------------------------
# State enumeration


def _enum_graph_states(degrees, cap):
    """Every labeled simple graph with the exact degree vector, once each.

    Vertices are processed in index order; vertex u picks its neighbours
    among higher-indexed vertices with residual degree (its edges to lower
    vertices are already fixed).  The Erdos-Gallai test on the residual
    degrees of the later vertices prunes dead branches.
    """
    n = len(degrees)
    if sum(degrees) % 2:
        return []
    states = []
    res = list(degrees)
    chosen = []

    def rec(u):
        while u < n and res[u] == 0:
            u += 1
        if u == n:
            states.append(tuple(sorted(chosen)))
            if len(states) > cap:
                raise CapExceededError(f"more than {cap} states")
            return
        need = res[u]
        cand = [v for v in range(u + 1, n) if res[v] > 0]
        if len(cand) < need:
            return
        res[u] = 0
        for pick in combinations(cand, need):
            for v in pick:
                res[v] -= 1
                chosen.append((u, v))
            if u + 1 == n or DegreeSequence(res[u + 1 :]).is_graphical():
                rec(u + 1)
            for v in pick:
                res[v] += 1
            del chosen[-need:]
        res[u] = need

    rec(0)
    return sorted(states)


def _enum_digraph_states(pairs, cap):
    """Every labeled simple digraph with the exact (in, out) vector."""
    n = len(pairs)
    in_target = [a for a, _ in pairs]
    if sum(in_target) != sum(b for _, b in pairs):
        return []
    states = []
    in_res = list(in_target)
    chosen = []

    def feasible(next_row):
        # each pending column still needs in_res[v] arcs from rows > next_row-1
        remaining_rows = n - next_row
        for v in range(n):
            writers = remaining_rows - (1 if v >= next_row else 0)
            if in_res[v] > writers:
                return False
        return True

    def rec(u):
        if u == n:
            if all(r == 0 for r in in_res):
                states.append(tuple(sorted(chosen)))
                if len(states) > cap:
                    raise CapExceededError(f"more than {cap} states")
            return
        need = pairs[u][1]
        if need == 0:
            if feasible(u + 1):
                rec(u + 1)
            return
        cand = [v for v in range(n) if v != u and in_res[v] > 0]
        if len(cand) < need:
            return
        for pick in combinations(cand, need):
            for v in pick:
                in_res[v] -= 1
                chosen.append((u, v))
            if feasible(u + 1):
                rec(u + 1)
            for v in pick:
                in_res[v] += 1
            del chosen[-need:]

    rec(0)
    return sorted(states)


def enum_states(seq, cap: int = DEFAULT_CAP) -> list:
    """Canonical list of all realizations of a degree sequence.

    States are tuples of sorted edge (or arc) pairs; the list itself is in
    lexicographic order.  Raises CapExceededError past ``cap`` states.
    """
    if isinstance(seq, DirectedDegreeSequence):
        if seq.sum_in != seq.sum_out:
            return []
        return _enum_digraph_states(seq.pairs, cap)
    return _enum_graph_states(seq.degrees, cap)


# ---------------------------------------------------------------------------
# Exact analysis


def switch_rows(states, directed: bool = False) -> list:
    """Off-diagonal switch transitions of every state, as sparse integer rows.

    Row i maps the index of each switch neighbour of ``states[i]`` to the
    number of proposals reaching it.  The exact analysis adds the holding
    mass; connectivity needs only the keys.
    """
    index = {s: i for i, s in enumerate(states)}
    return [Counter(index[nb] for nb in switch_neighbour_states(st, directed)) for st in states]


def _roots(count: int, links) -> list:
    """Union-find root of each of ``count`` elements after merging every (i, j)."""
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[find(i)] = find(j)
    return [find(i) for i in range(count)]


def components(rows) -> list:
    """Component root of every state in the switch graph given by ``rows``."""
    return _roots(len(rows), ((i, j) for i, row in enumerate(rows) for j in row))


def relabelling_orbits(seq, states) -> list:
    """Orbit root of every state under degree-preserving vertex relabellings.

    Such relabellings commute with the switch chain, so states of one orbit
    have identical TV curves.  Adjacent transpositions inside each degree
    class ((in, out) class when directed) generate the group, so union-find
    over their images gives the orbits without an isomorphism test.
    """
    directed = isinstance(seq, DirectedDegreeSequence)
    classes = {}
    for v, label in enumerate(seq.pairs if directed else seq.degrees):
        classes.setdefault(label, []).append(v)
    swaps = [(vs[k], vs[k + 1]) for vs in classes.values() for k in range(len(vs) - 1)]
    index = {s: i for i, s in enumerate(states)}

    def swapped(state, u, v):
        perm = {u: v, v: u}
        out = []
        for x, y in state:
            x, y = perm.get(x, x), perm.get(y, y)
            out.append((x, y) if directed or x < y else (y, x))
        return index[tuple(sorted(out))]

    links = ((i, swapped(st, u, v)) for i, st in enumerate(states) for u, v in swaps)
    return _roots(len(states), links)


def _fraction(x) -> Fraction:
    """Exact value of a tolerance; floats are read by their shortest repr."""
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


class NoMixingError(RuntimeError):
    """The chain does not converge to uniform (reducible, or periodic)."""


class StateSpaceAnalysis:
    """Exact chain diagnostics over a fully enumerated state space.

    The transition matrix is held as sparse integer rows (``{j: numerator}``,
    holding mass on the diagonal) over a common denominator (3a,
    3*binom(E,2) or binom(m,2)), so propagation is pure integer arithmetic
    over the non-zeros and every reported TV value is an exact Fraction.
    """

    def __init__(self, seq, states, start_state, variant=VARIANT_EXACT, eps=Fraction(1, 100)):
        self.seq = seq
        self.directed = isinstance(seq, DirectedDegreeSequence)
        self.variant = variant
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        if start_state not in self.index:
            raise ValueError("start state does not realize the degree sequence")
        self.start_index = self.index[start_state]
        self.eps = _fraction(eps)
        self._gap = None
        self._fraction_matrix = None
        self._build()

    def _build(self):
        if self.directed:
            m = self.seq.m
            denom = m * (m - 1) // 2 if m >= 2 else 1
        elif self.variant == VARIANT_EXACT:
            a = self.seq.a
            denom = 3 * a if a else 1
        else:
            half = self.seq.M // 2
            denom = 3 * (half * (half - 1) // 2) if half >= 2 else 1
        rows = switch_rows(self.states, self.directed)
        for i, row in enumerate(rows):
            hold = denom - sum(row.values())
            if hold < 0:
                raise AssertionError("negative holding mass; denominator too small")
            if hold:
                row[i] = hold
        self._rows = rows
        self._denom = denom

    @property
    def transition_matrix(self):
        """The exact matrix as Fractions (built on first use)."""
        if self._fraction_matrix is None:
            rows, count, d = self._rows, len(self._rows), self._denom
            self._fraction_matrix = [[Fraction(r.get(j, 0), d) for j in range(count)] for r in rows]
        return self._fraction_matrix

    @property
    def nnz(self) -> int:
        """Non-zero entries of the transition matrix."""
        return sum(len(row) for row in self._rows)

    @cached_property
    def irreducible(self) -> bool:
        """Whether the switch graph over the states is connected."""
        return len(set(components(self._rows))) == 1

    @cached_property
    def start_orbits(self) -> list:
        """One state index (the union-find root) per relabelling orbit, ascending."""
        return sorted(set(relabelling_orbits(self.seq, self.states)))

    def is_symmetric(self) -> bool:
        rows = self._rows
        return all(rows[j].get(i) == c for i, row in enumerate(rows) for j, c in row.items())

    def rows_sum_to_one(self) -> bool:
        return all(sum(row.values()) == self._denom for row in self._rows)

    def min_diagonal(self) -> Fraction:
        return Fraction(min(row.get(i, 0) for i, row in enumerate(self._rows)), self._denom)

    def laziness_floor(self) -> Fraction:
        """Guaranteed lower bound on every diagonal entry.

        Undirected: the identity matching is drawn with probability 1/3.
        Directed with positive minimum semi-degree: every arc (i,j) extends
        to an incident pair {(i,j),(j,l)}, but the pairs of two antiparallel
        arcs coincide, so only ceil(m/2) distinct held pairs are guaranteed
        (tight on the 1-in 1-out sequence of length 4, whose double-2-cycle
        state holds with probability exactly 1/3 < m/binom(m,2)).  Without
        the semi-degree condition the directed chain can even be periodic.
        """
        if self.directed:
            m = self.seq.m
            if m < 2:
                return Fraction(1)
            if self.seq.r_min < 1:
                return Fraction(0)
            return Fraction((m + 1) // 2, m * (m - 1) // 2)
        return Fraction(1, 3)

    def uniform_is_stationary(self) -> bool:
        """Column sums equal the common denominator (exact check)."""
        col = [0] * len(self._rows)
        for row in self._rows:
            for j, c in row.items():
                col[j] += c
        return all(c == self._denom for c in col)

    def _tvs(self, start: int):
        """Exact TV to uniform after t = 0, 1, 2, ... steps from state ``start``.

        The distribution is kept as integer numerators over ``denom**t``, and
        each step scatters only the non-zeros of the occupied rows.
        """
        rows, count = self._rows, len(self._rows)
        vec, den = [0] * count, 1
        vec[start] = 1
        while True:
            yield Fraction(sum(abs(count * v - den) for v in vec), 2 * count * den)
            nxt = [0] * count
            for v, row in zip(vec, rows):
                if v:
                    for j, c in row.items():
                        nxt[j] += v * c
            vec, den = nxt, den * self._denom

    def tv_curve(self, horizon: int, start_index: int | None = None) -> list:
        """TV(0..horizon) to uniform from the designated start, exact."""
        start = self.start_index if start_index is None else start_index
        return list(islice(self._tvs(start), horizon + 1))

    def exact_mixing_time(self, eps=None, max_steps: int = 100000) -> int:
        """Least T with TV(t) <= eps for all t >= T, from the worst start.

        TV to stationarity is non-increasing in t, so per start this is the
        first crossing time; states in one relabelling orbit cross together,
        so one start per orbit suffices.  Defaults to the tolerance the
        analysis was built with.  Raises NoMixingError up front on a
        reducible space and, for eps < 1/2, on a periodic one; otherwise
        after ``max_steps``.
        """
        eps = self.eps if eps is None else _fraction(eps)
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0,1)")
        if not self.irreducible:
            raise NoMixingError("the switch chain is reducible: TV to uniform does not vanish")
        if eps < Fraction(1, 2) and self._periodic():
            raise NoMixingError("the switch chain is periodic: TV to uniform stays at least 1/2")
        worst = 0
        for s0 in self.start_orbits:
            for t, tv in enumerate(self._tvs(s0)):
                if tv <= eps:
                    break
                if t >= max_steps:
                    raise NoMixingError(f"no mixing within {max_steps} steps")
            worst = max(worst, t)
        return worst

    def _periodic(self) -> bool:
        """Period 2 test for the (symmetric, irreducible) chain.

        Such a chain is periodic exactly when no state holds and the switch
        graph is bipartite.  Its two sides then have equal size (uniform is
        stationary and all mass crosses each step), so from any start the
        mass sits on one side and TV to uniform never falls below 1/2.
        """
        rows = self._rows
        if any(i in row for i, row in enumerate(rows)):
            return False
        side = [None] * len(rows)
        side[0] = 0
        queue = [0]
        for i in queue:
            for j in rows[i]:
                if side[j] is None:
                    side[j] = 1 - side[i]
                    queue.append(j)
                elif side[j] == side[i]:
                    return False
        return True

    @property
    def spectral_gap(self) -> float:
        """1 - max(|lambda_min|, lambda_2), from numpy.linalg.eigvalsh.

        Exactly 0.0 on a reducible space and 1.0 on a single state.
        """
        if self._gap is None:
            count = len(self._rows)
            self._gap = float(self.irreducible)
            if self.irreducible and count > 1:
                import numpy as np

                P = np.zeros((count, count))
                for i, row in enumerate(self._rows):
                    P[i, list(row)] = list(row.values())
                P /= self._denom
                vals = np.linalg.eigvalsh(P)
                self._gap = float(1.0 - max(abs(vals[0]), vals[-2]))
        return self._gap


def analyze(
    seq,
    start=None,
    eps=Fraction(1, 100),
    variant: str = VARIANT_EXACT,
    cap: int = DEFAULT_CAP,
) -> StateSpaceAnalysis:
    """Enumerate the state space and wrap it in a StateSpaceAnalysis.

    ``start`` may be a Graph/Digraph, a canonical state tuple, or None for
    the deterministic greedy realization.  ``eps`` is the default tolerance
    for exact_mixing_time.
    """
    states = enum_states(seq, cap)
    if not states:
        raise ValueError("degree sequence has no realizations")
    if start is None:
        if isinstance(seq, DirectedDegreeSequence):
            start_state = realize_directed(seq).canonical()
        else:
            start_state = realize(seq).canonical()
    elif isinstance(start, (Graph, Digraph)):
        start_state = start.canonical()
    else:
        start_state = tuple(sorted(tuple(e) for e in start))
    return StateSpaceAnalysis(seq, states, start_state, variant, eps)


# ---------------------------------------------------------------------------
# Exhaustive encoding enumeration (desk scale)


def enum_good_encodings(
    Z,
    require_good: bool | None = None,
    max_n: int = 6,
    max_edges: int = 7,
    cap: int = DEFAULT_CAP,
) -> list:
    """All encodings consistent with Z whose defect layout passes the catalog.

    Entries are searched position by position over {-1,0,1,2} (restricted by
    consistency with Z), with row/column-sum feasibility and defect-count
    pruning.  ``require_good`` additionally applies the degree conditions on
    defect incidences; it defaults to True for graphs and False for digraphs,
    matching the encoding families the repair analysis counts.

    Exponential in the instance size: guarded to n <= max_n and
    |E| <= max_edges (arcs for digraphs).
    """
    from .encoding import Encoding, MODE_DIRECTED, MODE_UNDIRECTED

    directed = Z.directed
    if require_good is None:
        require_good = not directed
    n = Z.n
    edge_count = len(Z.edges)
    if n > max_n or edge_count > max_edges:
        raise CapExceededError(
            f"instance too large for exhaustive encoding search (n={n}, edges={edge_count})"
        )
    target = Z.degree_sequence()
    results = []

    if directed:
        in_target = [a for a, _ in target.pairs]
        out_target = [b for _, b in target.pairs]
        positions = [(i, j) for i in range(n) for j in range(n) if i != j]
        p_cap, q_cap, total_cap = 3, 3, 5
    else:
        out_target = list(target.degrees)
        in_target = out_target
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        p_cap, q_cap, total_cap = 2, 3, 4

    allowed = [(-1, 0, 1) if Z.has_edge(i, j) else (0, 1, 2) for (i, j) in positions]

    # suffix bounds on how much each row can still gain/lose
    row_lo = [[0] * (len(positions) + 1) for _ in range(n)]
    row_hi = [[0] * (len(positions) + 1) for _ in range(n)]
    for k in range(len(positions) - 1, -1, -1):
        i, j = positions[k]
        for v in range(n):
            row_lo[v][k] = row_lo[v][k + 1]
            row_hi[v][k] = row_hi[v][k + 1]
        lo, hi = allowed[k][0], allowed[k][-1]
        row_lo[i][k] += lo
        row_hi[i][k] += hi
        if not directed:
            row_lo[j][k] += lo
            row_hi[j][k] += hi

    col_lo = [[0] * (len(positions) + 1) for _ in range(n)]
    col_hi = [[0] * (len(positions) + 1) for _ in range(n)]
    if directed:
        for k in range(len(positions) - 1, -1, -1):
            for v in range(n):
                col_lo[v][k] = col_lo[v][k + 1]
                col_hi[v][k] = col_hi[v][k + 1]
            i, j = positions[k]
            col_lo[j][k] += allowed[k][0]
            col_hi[j][k] += allowed[k][-1]

    rowsum = [0] * n
    colsum = [0] * n
    values = [0] * len(positions)
    mode = MODE_DIRECTED if directed else MODE_UNDIRECTED

    def rec(k, p, q):
        if k == len(positions):
            if all(rowsum[v] == out_target[v] for v in range(n)) and (
                not directed or all(colsum[v] == in_target[v] for v in range(n))
            ):
                mat = [[0] * n for _ in range(n)]
                for (i, j), val in zip(positions, values):
                    mat[i][j] = val
                    if not directed:
                        mat[j][i] = val
                enc = Encoding(mode, target, mat)
                if enc.is_valid() and (not require_good or enc.is_good()):
                    results.append(enc)
                    if len(results) > cap:
                        raise CapExceededError(f"more than {cap} encodings")
            return
        i, j = positions[k]
        for val in allowed[k]:
            dp = 1 if val == 2 else 0
            dq = 1 if val == -1 else 0
            if p + dp > p_cap or q + dq > q_cap or p + dp + q + dq > total_cap:
                continue
            rowsum[i] += val
            colsum[j] += val
            if not directed:
                rowsum[j] += val
            values[k] = val
            ok = (
                rowsum[i] + row_lo[i][k + 1] <= out_target[i]
                and rowsum[i] + row_hi[i][k + 1] >= out_target[i]
            )
            if ok and not directed:
                ok = (
                    rowsum[j] + row_lo[j][k + 1] <= out_target[j]
                    and rowsum[j] + row_hi[j][k + 1] >= out_target[j]
                )
            if ok and directed:
                ok = (
                    colsum[j] + col_lo[j][k + 1] <= in_target[j]
                    and colsum[j] + col_hi[j][k + 1] >= in_target[j]
                )
            if ok:
                rec(k + 1, p + dp, q + dq)
            rowsum[i] -= val
            colsum[j] -= val
            if not directed:
                rowsum[j] -= val
            values[k] = 0
        return

    rec(0, 0, 0)
    return results
