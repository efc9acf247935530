"""The switch Markov chains over graphs and digraphs with fixed degrees.

Undirected transition: draw an unordered pair of distinct non-adjacent
edges uniformly at random, draw one of the three perfect matchings of the
four endpoints uniformly, and apply it when it collides with no other edge;
otherwise hold.  A switch neighbour is reached with probability 1/(3a)
where ``a`` counts the non-adjacent edge pairs, and the hold probability is
at least 1/3 (the identity matching always holds).

Directed transition: draw an unordered pair of distinct arcs uniformly; if
the four endpoints are distinct and the crossed arcs are absent, swap the
heads.  Neighbour probability 1/binom(m,2), hold probability at least
m/binom(m,2).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .degseq import DirectedDegreeSequence
from .graph import Digraph, Graph

VARIANT_EXACT = "exact_nonadjacent"
VARIANT_ALL_PAIRS = "all_pairs"
VARIANTS = (VARIANT_EXACT, VARIANT_ALL_PAIRS)

_MASK64 = (1 << 64) - 1


class FrozenChainError(RuntimeError):
    """Every pair of distinct edges shares a vertex; the chain cannot move."""


def derive_seed(seed: int, stream: int) -> int:
    """Stream-splitting rule: SplitMix64 mix of (seed, stream index).

    Replica k of a run seeded with s uses ``random.Random(derive_seed(s, k))``.
    This is part of the reproducibility contract: the same (seed, stream)
    always yields the same generator state.
    """
    x = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def advance(g, rng, steps: int, a: int | None = None) -> int:
    """Run ``steps`` transitions of the switch chain on ``g`` in place.

    Returns how many of them changed the state.  ``g.directed`` picks the
    directed chain, which takes no ``a``.  On a graph, ``a`` (the count of
    non-adjacent edge pairs) picks the exact variant, which redraws adjacent
    pairs until it finds a disjoint one, and ``a=None`` the all-pairs
    variant, which holds on them.

    Every index is drawn as ``rng.getrandbits(n.bit_length())``, repeated
    while it is at least n: the rule by which ``random.Random.randrange(n)``
    draws, so a step consumes the stream exactly as ``randrange`` calls for
    the edge indices and the matching would.  An accepted move deletes the
    two old edges in turn, each by moving the last edge into its slot, then
    appends the two new ones.  This is the only code that reorders an edge
    array after construction, and the order is part of a seeded trajectory.

    With fewer than two edges, or a == 0, no switch can ever apply and
    FrozenChainError is raised before any draw, unless no step is asked for.
    """
    if steps <= 0:
        return 0
    edges, pos = g.edges, g._pos
    count = len(edges)
    if count < 2 or a == 0:
        raise FrozenChainError(
            "no pair of non-adjacent edges exists; the chain has no moves"
        )
    bits = rng.getrandbits
    directed, exact = g.directed, a is not None
    last = count - 1
    k_first, k_second = count.bit_length(), last.bit_length()
    accepted = 0
    for _ in range(steps):
        while True:
            i = bits(k_first)
            while i >= count:
                i = bits(k_first)
            j = bits(k_second)
            while j >= last:
                j = bits(k_second)
            if j >= i:
                j += 1
            r1, r2 = edges[i], edges[j]
            x, y = r1
            z, w = r2
            if x != z and x != w and y != z and y != w:
                break
            if not exact:
                r1 = None  # an adjacent pair: the lazy chains hold
                break
        if r1 is None:
            continue
        if directed:
            a1, a2 = (x, w), (z, y)
        else:
            k = bits(2)
            while k == 3:
                k = bits(2)
            if k == 0:
                continue  # the original matching: hold
            if k == 2:
                z, w = w, z
            a1 = (x, z) if x < z else (z, x)
            a2 = (y, w) if y < w else (w, y)
        if a1 in pos or a2 in pos:
            continue
        del pos[r1]
        tail = edges.pop()
        if i != last:
            edges[i] = tail
            pos[tail] = i
        j = pos.pop(r2)
        tail = edges.pop()
        if j != last - 1:
            edges[j] = tail
            pos[tail] = j
        pos[a1] = last - 1
        pos[a2] = last
        edges.append(a1)
        edges.append(a2)
        accepted += 1
    return accepted


class ChainRun:
    """A reproducible chain configuration.

    ``steps`` is the burn-in; samples are then taken every ``thinning``
    steps.  The trajectory is a pure function of (start, seed, variant).
    """

    __slots__ = ("start", "steps", "seed", "variant", "thinning")

    def __init__(
        self,
        start: Graph | Digraph,
        steps: int = 0,
        seed: int = 0,
        variant: str = VARIANT_EXACT,
        thinning: int = 1,
    ):
        if steps < 0:
            raise ValueError("negative burn-in")
        if thinning < 1:
            raise ValueError("thinning must be >= 1")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.start = start
        self.steps = steps
        self.seed = seed
        self.variant = variant
        self.thinning = thinning


def sample(run: ChainRun, count: int, stream: int = 0) -> list:
    """Run the chain and return `count` canonical states (sorted edge tuples).

    States are recorded at burn-in + thinning, burn-in + 2*thinning, ...
    Replica ``stream`` uses its own derived sub-seed.
    """
    if count < 0:
        raise ValueError("negative sample count")
    if count == 0:
        return []
    g = run.start.copy()
    rng = random.Random(derive_seed(run.seed, stream))
    exact = not g.directed and run.variant == VARIANT_EXACT
    a = g.degree_sequence().a if exact else None
    advance(g, rng, run.steps, a)
    out = []
    for _ in range(count):
        advance(g, rng, run.thinning, a)
        out.append(g.canonical())
    return out


# ---------------------------------------------------------------------------
# Exact one-step law


def switch_neighbour_states(state: tuple, directed: bool = False):
    """All states one switch away from a canonical state, with repetition-free
    proposals: each neighbour appears exactly once.

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


def switch_neighbours(g):
    """Neighbour states of a Graph or Digraph, as canonical tuples."""
    return switch_neighbour_states(g.canonical(), directed=g.directed)


def step_denominator(seq, variant: str = VARIANT_EXACT) -> int:
    """Common denominator of the one-step law of the chain on ``seq``.

    Each proposal has probability 1/(3a) (undirected exact variant),
    1/(3*binom(E,2)) (all-pairs variant) or 1/binom(m,2) (directed), so
    this is 3a, 3*binom(E,2) or binom(m,2).  A chain with no proposals
    never moves (P = I), and its denominator is 1.
    """
    if isinstance(seq, DirectedDegreeSequence):
        m = seq.m
        proposals = m * (m - 1) // 2
    elif variant == VARIANT_EXACT:
        proposals = 3 * seq.a
    else:
        half = seq.M // 2
        proposals = 3 * (half * (half - 1) // 2)
    return proposals or 1


def transition_probability(x, y, variant: str = VARIANT_EXACT) -> Fraction:
    """Exact one-step probability between two states of the same chain.

    Off-diagonal entries are 1/``step_denominator`` when the states differ
    by exactly one switch, and 0 otherwise.  The diagonal is 1 minus the
    off-diagonal row sum, so a chain with no proposals holds with
    probability 1.
    """
    directed = x.directed
    if directed != y.directed:
        raise TypeError("cannot mix graphs and digraphs")
    ds_x, ds_y = x.degree_sequence(), y.degree_sequence()
    if ds_x != ds_y:
        raise ValueError("states have different degree sequences")
    denom = step_denominator(ds_x, variant)
    cx, cy = x.canonical(), y.canonical()
    neighbours = switch_neighbour_states(cx, directed)
    if cx == cy:
        return 1 - Fraction(len(neighbours), denom)
    return Fraction(int(cy in neighbours), denom)
