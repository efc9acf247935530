"""Exhaustive state-space enumeration and exact transition-matrix analysis.

One backtracking search enumerates graphs and digraphs: it keeps an in-
and an out-residual per vertex, one aliased list for a graph.  The exact
one-step law is written here once: one switch rule and one denominator.
Transition matrices and total-variation curves are kept in exact rational
arithmetic (integer numerators over a power of the one-step denominator);
the matrix is held as a list of neighbour indices per state and each
state's holding mass, so propagation touches only the non-zeros.  States are
keyed once, by bitmasks over vertex pairs, for every lookup.  Floating point
appears only in the spectral gap: a Lanczos iteration on the same rows,
deflated by the uniform vector (the known eigenvalue-1 eigenvector of the
symmetric P) and started from a fixed pseudo-random vector, so it is
deterministic and never forms a dense matrix or keeps a basis.  It stops once
both extreme Ritz values have residual at most 1e-14 (which a breakdown also
gives) or at dimension N - 1.  Rows of at most ``_LIST_KERNEL_NNZ`` non-zeros
run it on Python lists with ``math.fsum`` sums, bitwise alike on every
supported Python; larger ones run it in numpy, which is imported only there.
One ``StateSpaceAnalysis`` per space answers its questions, connectivity too;
it takes no start: TV curves begin at the greedy state or a given index.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice
from math import fsum, sqrt
from operator import itemgetter, mul
from random import Random

from .chain import VARIANT_EXACT, VARIANTS
from .construct import realize, realize_directed
from .degseq import DEFAULT_CAP, CapExceededError, NotRealizableError, _erdos_gallai
from .graph import Digraph, Graph


# ---------------------------------------------------------------------------
# State enumeration


def enum_states(seq, cap: int = DEFAULT_CAP) -> list:
    """Canonical list of all realizations of a degree sequence.

    States are tuples of sorted edge (or arc) pairs; the list itself is in
    lexicographic order.  Raises CapExceededError past ``cap`` states, or
    past the recursion limit (the search nests once per sending vertex).

    Vertex u, in index order, takes its remaining out-residual as partners
    among the vertices that still have in-residual.  A digraph's partners
    are any other vertex.  A graph's ``in_res`` is its ``out_res``, as its
    ``seq.ins`` is its ``seq.outs``, so the vertices before u are spent and
    its partners are higher-indexed.  Graphs prune on Erdos-Gallai over the
    later residuals (which refuses an odd degree sum), digraphs on each
    in-residual against the rows still able to send to it.  States share
    their pair tuples, from one n x n table.  Rows go in index order and a
    row's partners are combinations of an ascending list, so each state is
    emitted sorted and the states in lexicographic order, with no sort.
    """
    in_res = list(seq.ins)
    out_res = in_res if seq.outs is seq.ins else list(seq.outs)
    if sum(in_res) != sum(out_res):
        return []
    n = len(in_res)
    pairs = [[(u, v) for v in range(n)] for u in range(n)]
    states = []
    chosen = []

    def feasible(u):
        # can the residuals still be met once vertices before u are done?
        if seq.directed:
            # vertex v needs in_res[v] more arcs, one from each of the rows
            # from u on that it is not itself
            rows = n - u
            for v in range(n):
                if in_res[v] > rows - (v >= u):
                    return False
            return True
        return _erdos_gallai(in_res[u:])

    def rec(u):
        while u < n and not out_res[u]:
            u += 1
        if u == n:
            if not any(in_res):
                states.append(tuple(chosen))
                if len(states) > cap:
                    raise CapExceededError(f"more than {cap} states")
            return
        need = out_res[u]
        out_res[u] = 0
        cand = [v for v in range(n) if in_res[v] and v != u]
        for pick in combinations(cand, need):
            for v in pick:
                in_res[v] -= 1
                chosen.append(pairs[u][v])
            if feasible(u + 1):
                rec(u + 1)
            for v in pick:
                in_res[v] += 1
            del chosen[-need:]
        out_res[u] = need

    if feasible(0):
        try:
            rec(0)
        except RecursionError:
            raise CapExceededError(f"search deeper than the {sys.getrecursionlimit()}-frame recursion limit") from None
    return states


# ---------------------------------------------------------------------------
# Exact one-step law and analysis


def _switches(p, q, directed: bool) -> tuple:
    """The keyed pairs each switch of ``p`` = (x, y) and ``q`` = (z, w) puts in
    their place: (x, w), (z, y), and first (x, z), (y, w) when undirected;
    none when they share a vertex."""
    x, y = p
    z, w = q
    if x == z or x == w or y == z or y == w:
        return ()
    if directed:
        return (((x, w), (z, y)),)
    key = Graph._key
    return ((key(x, z), key(y, w)), (key(x, w), key(z, y)))


def step_denominator(seq, variant: str = VARIANT_EXACT) -> int:
    """Common denominator of the one-step law of the chain on ``seq``.

    Each proposal has probability 1/(3a) (undirected exact variant),
    1/(3*binom(E,2)) (all-pairs variant) or 1/binom(m,2) (directed), so
    this is 3a, 3*binom(E,2) or binom(m,2).  A chain with no proposals
    never moves (P = I), and its denominator is 1.  A variant outside
    ``chain.VARIANTS`` raises ValueError.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if seq.directed:
        proposals = seq.m * (seq.m - 1) // 2
    elif variant == VARIANT_EXACT:
        proposals = 3 * seq.a
    else:
        half = seq.M // 2
        proposals = 3 * (half * (half - 1) // 2)
    return proposals or 1


def _switch_rows(states, bit, index, directed: bool) -> list:
    """Switch neighbours of every state, as lists of state indices, on an analysis's keys.

    Row i lists each switch neighbour of ``states[i]`` once: a switch's
    symmetric difference fixes the pairs it removes and the pairs it adds,
    so exactly one proposal reaches each neighbour.

    Each pair of disjoint pairs carries its ``_switches`` as (removed, added)
    masks, so a neighbour is one ``index`` lookup of ``mask ^ removed | added``.
    A switch whose new pairs never occur in a state can never apply and is
    left out.  Neighbours come in proposal order: the state's pairs (i, j)
    with i < j, then each one's ``_switches`` matchings in turn.
    """
    moves = {}
    for p, q in combinations(bit, 2):
        added = [bit[a] | bit[b] for a, b in _switches(p, q, directed) if a in bit and b in bit]
        if added:
            moves[bit[p] | bit[q]] = added
    rows = []
    for st, mask in zip(states, index, strict=True):  # one mask per distinct state, in order
        bits = [bit[e] for e in st]
        row = []
        for i, b in enumerate(bits):
            for c in bits[i + 1 :]:
                removed = b | c
                for added in moves.get(removed, ()):
                    if not mask & added:
                        row.append(index[mask ^ removed | added])
        rows.append(row)
    return rows


def components(rows) -> list:
    """Least state index in each state's class of the graph given by ``rows``.

    The rows must be symmetric, as switch rows (each switch has a reverse)
    and relabelling-orbit rows are.  Then a breadth-first pass from each
    unlabelled state, in index order, labels its whole class.
    """
    label = [None] * len(rows)
    for root in range(len(rows)):
        if label[root] is None:
            label[root] = root
            queue = [root]
            for i in queue:
                for j in rows[i]:
                    if label[j] is None:
                        label[j] = root
                        queue.append(j)
    return label


class NoMixingError(RuntimeError):
    """The chain does not converge to uniform (reducible, or periodic)."""


class StateSpaceAnalysis:
    """Exact chain diagnostics over all the realizations ``states`` of ``seq``
    (as ``enum_states`` lists them); none raises NotRealizableError.

    ``_bit`` gives each vertex pair that occurs in a state a bit, in sorted
    pair order, and ``_index`` maps each state's mask, its pairs' bits summed,
    to its index.  The transition matrix is held as switch-neighbour lists
    (numerator 1 each) and the holding mass ``denom - len(row)`` of each state,
    over the common ``step_denominator`` (3a, 3*binom(E,2) or binom(m,2)), so
    propagation is pure integer arithmetic and every TV value is an exact Fraction.
    """

    def __init__(self, seq, states, variant=VARIANT_EXACT):
        if not states:
            raise NotRealizableError("degree sequence has no realizations")
        self.seq = seq
        self.directed = seq.directed
        self.variant = variant
        self.states = states
        self._gap = None
        self._fraction_matrix = None
        self._denom = step_denominator(seq, variant)
        bit = self._bit = {e: 1 << k for k, e in enumerate(sorted({e for st in states for e in st}))}
        self._index = {sum(bit[e] for e in st): i for i, st in enumerate(states)}
        self._rows = _switch_rows(states, bit, self._index, self.directed)
        # diagonal numerator of each state: the proposals that reach no neighbour
        self._holds = [self._denom - len(row) for row in self._rows]
        self._min_hold = min(self._holds)
        if self._min_hold < 0:
            raise AssertionError("negative holding mass; denominator too small")

    def relabelling_orbits(self) -> list:
        """Least state index in each state's orbit under degree-preserving relabellings.

        Such relabellings commute with the switch chain, so states of one orbit
        have identical TV curves.  Adjacent transpositions inside each class of
        equal (in, out) degrees generate the group, so the orbits are the
        ``components`` of rows listing each state's image under each
        transposition (symmetric, as a transposition is its own inverse), with
        no isomorphism test.  A transposition acts on the ``_bit`` keys as a
        map from each pair to the bit of its image, a pair of some state.
        """
        key = (Digraph if self.directed else Graph)._key
        classes = {}
        for v, label in enumerate(zip(self.seq.ins, self.seq.outs)):
            classes.setdefault(label, []).append(v)
        bit, index = self._bit, self._index
        perms = [{u: v, v: u} for vs in classes.values() for u, v in zip(vs, vs[1:])]
        images = [{(x, y): bit[key(p.get(x, x), p.get(y, y))] for x, y in bit} for p in perms]
        return components([[index[sum(image[e] for e in st)] for image in images] for st in self.states])

    @cached_property
    def start_index(self) -> int:
        """Index of the deterministic greedy realization, the default start of ``tv_curve``."""
        start = realize_directed(self.seq) if self.directed else realize(self.seq)
        return self._index[sum(self._bit[e] for e in start.canonical())]

    @property
    def transition_matrix(self):
        """The exact matrix as Fractions (built on first use)."""
        if self._fraction_matrix is None:
            count, d = len(self._rows), self._denom
            self._fraction_matrix = [
                [Fraction(hold if j == i else int(j in nb), d) for j in range(count)]
                for i, (nb, hold) in enumerate(zip(map(set, self._rows), self._holds))
            ]
        return self._fraction_matrix

    @property
    def nnz(self) -> int:
        """Non-zero entries of the transition matrix."""
        return sum(map(len, self._rows)) + sum(map(bool, self._holds))

    @cached_property
    def connectivity(self) -> dict:
        """Component structure of the switch graph, from one ``components`` pass."""
        sizes = sorted(Counter(components(self._rows)).values(), reverse=True)
        return {
            "component_count": len(sizes),
            "component_sizes": sizes,
            "irreducible": len(sizes) == 1,
            "state_count": len(self.states),
        }

    @property
    def irreducible(self) -> bool:
        """Whether the switch graph over the states is connected."""
        return self.connectivity["irreducible"]

    @cached_property
    def start_orbits(self) -> list:
        """The least state index of each relabelling orbit, ascending."""
        return sorted(set(self.relabelling_orbits()))

    @cached_property
    def _column_flags(self) -> tuple:
        """(symmetric, uniform stationary) from one transposition of the rows,
        built in index order and not kept: each sorted row equals its column,
        and each column sums to the denominator, so it is as long as its row."""
        rows = self._rows
        cols = [[] for _ in rows]
        for i, row in enumerate(rows):
            for j in row:
                cols[j].append(i)
        return (
            all(col == sorted(row) for col, row in zip(cols, rows)),
            all(len(col) == len(row) for col, row in zip(cols, rows)),
        )

    def is_symmetric(self) -> bool:
        return self._column_flags[0]

    def rows_sum_to_one(self) -> bool:
        """The check ``__init__`` asserts: no holding mass is negative."""
        return self._min_hold >= 0

    def min_diagonal(self) -> Fraction:
        return Fraction(self._min_hold, self._denom)

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
        return self._column_flags[1]

    def _tvs(self, start: int):
        """Exact TV to uniform after t = 0, 1, 2, ... steps from state ``start``.

        The distribution is kept as integer numerators over ``denom**t``, and
        each step scatters only the non-zeros of the occupied rows.
        """
        rows, holds, count = self._rows, self._holds, len(self._rows)
        vec, den = [0] * count, 1
        vec[start] = 1
        while True:
            yield Fraction(sum(abs(count * v - den) for v in vec), 2 * count * den)
            nxt = [v * hold for v, hold in zip(vec, holds)]
            for v, row in zip(vec, rows):
                if v:
                    for j in row:
                        nxt[j] += v
            vec, den = nxt, den * self._denom

    def tv_curve(self, horizon: int, start_index: int | None = None) -> list:
        """Exact TV(0..horizon) to uniform from ``start_index`` (default: the greedy
        state); ValueError unless horizon >= 0 and the start indexes ``states``."""
        start = self.start_index if start_index is None else start_index
        if horizon < 0 or not 0 <= start < len(self.states):
            raise ValueError(f"need horizon >= 0 and 0 <= start < {len(self.states)}")
        return list(islice(self._tvs(start), horizon + 1))

    def exact_mixing_time(self, eps) -> int:
        """Least T with TV(t) <= eps for all t >= T, from the worst start.

        TV to stationarity is non-increasing in t, so per start this is the
        first crossing time; states in one relabelling orbit cross together,
        so one start per orbit suffices.  A float eps is read through its
        repr.  Raises NoMixingError up front on a reducible space and, for
        eps < 1/2, on a periodic one; otherwise after ``MAX_MIXING_STEPS``.
        """
        eps = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
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
                if t >= MAX_MIXING_STEPS:
                    raise NoMixingError(f"no mixing within {MAX_MIXING_STEPS} steps")
            worst = max(worst, t)
        return worst

    def _periodic(self) -> bool:
        """Whether the chain has period 2, which is exactly when no state holds.

        A holding state makes the chain aperiodic.  An undirected state always
        holds: the identity matching is a proposal.  A directed state holds for
        no proposal only when its arcs are pairwise vertex-disjoint, so each
        vertex is one arc's source, one arc's sink, or isolated.  Then the
        states are the m! bijections from sources to sinks and each switch is
        a transposition, so the switch graph is bipartite by parity with equal
        sides: all mass crosses sides each step and TV stays at least 1/2.
        """
        return not any(self._holds)

    @property
    def spectral_gap(self) -> float:
        """1 - max(|lambda_min|, lambda_2), by Lanczos on the sparse rows.

        Exactly 0.0 on a reducible space and 1.0 on a single state; otherwise
        it comes from the extreme eigenvalues of P on the complement of the
        uniform vector (see ``_deflated_extremes``).  The float is bitwise
        reproducible and lies within about 5e-15 of dense
        ``numpy.linalg.eigvalsh`` on every space the tests check, from
        either kernel.
        """
        if self._gap is None:
            self._gap = float(self.irreducible)
            if self.irreducible and len(self._rows) > 1:
                lowest, highest = _deflated_extremes(self._rows, self._holds, self._denom)
                self._gap = float(1.0 - max(abs(lowest), highest))
        return self._gap


MAX_MIXING_STEPS = 100000  # exact_mixing_time gives up past this many steps
_LANCZOS_SEED = 20170125
_LANCZOS_TOL = 1e-14
# rows with at most this many non-zeros get the spectral gap from the list kernel
_LIST_KERNEL_NNZ = 17000


def _deflated_extremes(rows, holds, denom) -> tuple:
    """Least and greatest eigenvalue on u-perp of the symmetric P = (rows, holds) / denom.

    u is the uniform unit vector, the known eigenvector of eigenvalue 1, so
    the greatest eigenvalue there is lambda_2.  Lanczos runs from
    ``_lanczos_start``; each new vector is the three-term recurrence
    projected off u, then one more Gram-Schmidt pass against u and the last
    two vectors.  Local orthogonality gives the extreme Ritz values to
    working accuracy (Paige 1980), so no basis is kept.  It stops when both
    extreme Ritz residuals beta_k |s_k| (``_least_ritz``) fall to
    ``_LANCZOS_TOL`` or at dimension N - 1; they never exceed beta_k, so a
    breakdown stops them too.  Only the arithmetic forks: rows of at most
    ``_LIST_KERNEL_NNZ`` non-zeros go to ``_extremes_lists``, where numpy's
    import would cost more than the whole iteration, and larger ones to
    ``_extremes_numpy``, the only importer of numpy.
    """
    small = sum(map(len, rows)) <= _LIST_KERNEL_NNZ
    return (_extremes_lists if small else _extremes_numpy)(rows, holds, denom)


def _lanczos_start(count) -> list:
    """The unit start vector of both kernels: ``Random(_LANCZOS_SEED)`` draws
    in [-0.5, 0.5), projected off u twice."""
    rng = Random(_LANCZOS_SEED)
    x = [rng.random() - 0.5 for _ in range(count)]
    for _ in range(2):
        mean = fsum(x) / count
        x = [xi - mean for xi in x]
    norm = sqrt(fsum(map(mul, x, x)))
    return [xi / norm for xi in x]


def _extremes_lists(rows, holds, denom) -> tuple:
    """``_deflated_extremes`` on Python lists, bitwise alike on every Python.

    Every float sum is a ``math.fsum``, which is correctly rounded: ``sum``
    of floats is compensated from Python 3.12 on, so the gap's last bits
    would depend on the interpreter.  The product with P is the holding mass
    times x[i] plus the sum of x over row i, over the denominator.
    """
    count = len(rows)
    # a one-element row gets a slice, so that every getter returns a sequence
    getters = [itemgetter(*row) if len(row) > 1 else itemgetter(slice(row[0], row[0] + 1)) for row in rows]
    hold = [h / denom for h in holds]

    def dot(a, b):
        return fsum(map(mul, a, b))

    x, prev = _lanczos_start(count), [0.0] * count
    alphas, betas, beta = [], [], 0.0
    while True:
        w = [h * xi + fsum(get(x)) / denom for h, xi, get in zip(hold, x, getters)]
        alpha, mean = dot(x, w), fsum(w) / count
        alphas.append(alpha)
        w = [wi - mean - alpha * xi - beta * pi for wi, xi, pi in zip(w, x, prev)]
        mean, cx, cp = fsum(w) / count, dot(x, w), dot(prev, w)
        w = [wi - mean - cx * xi - cp * pi for wi, xi, pi in zip(w, x, prev)]
        beta = sqrt(dot(w, w))
        low, s_low = _least_ritz(alphas, betas)
        high, s_high = _least_ritz([-a for a in alphas], betas)
        if len(alphas) == count - 1 or beta * max(s_low, s_high) <= _LANCZOS_TOL:
            return low, -high
        betas.append(beta)
        prev, x = x, [wi / beta for wi in w]


def _extremes_numpy(rows, holds, denom) -> tuple:
    """``_deflated_extremes`` in numpy, for rows past ``_LIST_KERNEL_NNZ``.

    Each product with P is one ``bincount`` of x[j] / denom over the listed
    neighbours j plus the holding mass times x, so memory is two index
    arrays, one gathered copy of x and a few vectors.
    """
    import numpy as np

    count = len(rows)
    row_idx = np.repeat(np.arange(count), [len(row) for row in rows])
    col_idx = np.fromiter(chain.from_iterable(rows), np.intp, len(row_idx))
    hold = np.array(holds) / denom
    x, prev = np.array(_lanczos_start(count)), np.zeros(count)
    alphas, betas, beta = [], [], 0.0
    while True:
        w = np.bincount(row_idx, weights=(x * (1 / denom))[col_idx], minlength=count) + hold * x
        alpha = x @ w
        alphas.append(alpha)
        w = w - w.mean() - alpha * x - beta * prev
        w = w - w.mean() - (x @ w) * x - (prev @ w) * prev
        beta = sqrt(w @ w)
        low, s_low = _least_ritz(alphas, betas)
        high, s_high = _least_ritz([-a for a in alphas], betas)
        if len(alphas) == count - 1 or beta * max(s_low, s_high) <= _LANCZOS_TOL:
            return low, -high
        betas.append(beta)
        prev, x = x, w / beta


def _least_ritz(alphas, betas) -> tuple:
    """The least eigenvalue theta of the symmetric tridiagonal matrix T with
    diagonal ``alphas`` and off-diagonal ``betas``, and |s_k|, the last entry
    of its unit eigenvector.  (-T gives the greatest.)

    theta comes from Sturm bisection on [-1, 1], which holds every Ritz
    value of P: T - x I has a pivot at most 0 exactly when some eigenvalue
    is at most x.  s comes from three solves of inverse iteration at
    sigma = theta - 1e-13, just below the spectrum, where T - sigma I is
    positive definite and needs no pivoting.  At theta itself both the
    eigenvector recurrence and the unpivoted solve report |s_k| near 1 for a
    converged Ritz value, and the iteration would run on to dimension N - 1.
    At theta - 1e-10, three solves cannot separate theta from a near twin
    (the copy of a converged Ritz value that local orthogonality lets back
    in), so |s_k| mixes both vectors and the stop test waits for the twin
    to converge: 350 steps on ``[1,1,2,2,2,2,3,3,3,3]`` against 115.
    """
    squares = [0.0, *(b * b for b in betas)]
    lo, hi = -1.0, 1.0
    for _ in range(64):  # leaves theta in [lo, hi], less than 1e-18 wide
        mid, d = 0.5 * (lo + hi), 1.0
        for a, b2 in zip(alphas, squares):
            d = a - mid - b2 / d
            if d <= 0.0:
                hi = mid
                break
        else:
            lo = mid
    sigma = lo - 1e-13
    pivots, ratios = [alphas[0] - sigma], []
    for a, b in zip(alphas[1:], betas):
        ratios.append(b / pivots[-1])
        pivots.append(a - sigma - ratios[-1] * b)
    k = len(alphas)
    y = [1.0] * k
    for _ in range(3):
        for i, r in enumerate(ratios):
            y[i + 1] -= r * y[i]
        y[-1] /= pivots[-1]
        for i in range(k - 2, -1, -1):
            y[i] = y[i] / pivots[i] - ratios[i] * y[i + 1]
        top = max(map(abs, y))
        y = [v / top for v in y]
    return lo, abs(y[-1]) / sqrt(fsum(v * v for v in y))


def analyze(seq, variant: str = VARIANT_EXACT, cap: int = DEFAULT_CAP) -> StateSpaceAnalysis:
    """Enumerate the state space and wrap it in a StateSpaceAnalysis."""
    return StateSpaceAnalysis(seq, enum_states(seq, cap), variant)
