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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

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


def _disjoint_pair(g, rng, a=None):
    """Endpoints ``x, y, z, w`` of two distinct edges drawn uniformly, if disjoint.

    With ``a`` (the exact variant's count of non-adjacent pairs) the draw is
    repeated until the edges are disjoint, which ends almost surely because
    a > 0.  Without it an adjacent draw returns None: the lazy chains hold.
    With fewer than two edges, or a == 0, no switch can ever apply and
    FrozenChainError is raised, for every variant alike.
    """
    edges = g.edges
    if len(edges) < 2 or a == 0:
        raise FrozenChainError(
            "no pair of non-adjacent edges exists; the chain has no moves"
        )
    while True:
        i, j = g.random_edge_index_pair(rng)
        x, y = edges[i]
        z, w = edges[j]
        if x != z and x != w and y != z and y != w:
            return x, y, z, w
        if a is None:
            return None


def step_undirected(g: Graph, rng, variant: str = VARIANT_EXACT, a: int | None = None) -> bool:
    """Advance one transition in place; True when the state changed.

    ``a`` may be passed in to avoid recomputing the non-adjacent pair count
    every step (it depends only on the degree sequence).

    The exact variant draws uniformly among non-adjacent pairs, realized by
    rejection resampling over all distinct pairs.  The all-pairs variant
    draws among all distinct pairs and holds on adjacent ones (a lazier
    chain).
    """
    if variant == VARIANT_EXACT:
        if a is None:
            a = g.degree_sequence().a
    elif variant == VARIANT_ALL_PAIRS:
        a = None
    else:
        raise ValueError(f"unknown variant {variant!r}")
    pair = _disjoint_pair(g, rng, a)
    if pair is None:
        return False
    x, y, z, w = pair
    k = rng.randrange(3)
    if k == 0:
        return False  # the original matching: hold
    if k == 1:
        f1, f2 = (x, z), (y, w)
    else:
        f1, f2 = (x, w), (y, z)
    if g.has_edge(*f1) or g.has_edge(*f2):
        return False
    g.switch((x, y), (z, w), f1, f2)
    return True


def step_directed(dg: Digraph, rng) -> bool:
    """Advance one directed transition in place; True when the state changed."""
    pair = _disjoint_pair(dg, rng)
    if pair is None:
        return False
    a, b, c, d = pair
    if dg.has_edge(a, d) or dg.has_edge(c, b):
        return False
    dg.switch((a, b), (c, d), (a, d), (c, b))
    return True


@dataclass
class ChainRun:
    """A reproducible chain configuration.

    ``steps`` is the burn-in; samples are then taken every ``thinning``
    steps.  The trajectory is a pure function of (start, seed, variant).
    """

    start: Graph | Digraph
    steps: int = 0
    seed: int = 0
    variant: str = VARIANT_EXACT
    thinning: int = 1

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("negative burn-in")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


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
    if g.directed:
        step = step_directed
    else:
        step = partial(step_undirected, variant=run.variant, a=g.degree_sequence().a)
    for _ in range(run.steps):
        step(g, rng)
    out = []
    for _ in range(count):
        for _ in range(run.thinning):
            step(g, rng)
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


def transition_probability(x, y, variant: str = VARIANT_EXACT) -> Fraction:
    """Exact one-step probability between two states of the same chain.

    Off-diagonal entries are 1/(3a) (undirected exact variant),
    1/(3*binom(E,2)) (all-pairs variant) or 1/binom(m,2) (directed) when the
    states differ by exactly one switch, and 0 otherwise.  The diagonal is
    1 minus the off-diagonal row sum.
    """
    directed = x.directed
    if directed != y.directed:
        raise TypeError("cannot mix graphs and digraphs")
    ds_x, ds_y = x.degree_sequence(), y.degree_sequence()
    if ds_x != ds_y:
        raise ValueError("states have different degree sequences")
    if directed:
        m = ds_x.m
        denom = m * (m - 1) // 2
    else:
        if variant == VARIANT_EXACT:
            a = ds_x.a
            if not a:
                # frozen chain: the state never moves
                return Fraction(1) if x == y else Fraction(0)
            denom = 3 * a
        else:
            count = len(x.edges)
            denom = 3 * (count * (count - 1) // 2)
    cx, cy = x.canonical(), y.canonical()
    neighbours = switch_neighbour_states(cx, directed)
    if cx == cy:
        return 1 - Fraction(len(neighbours), denom)
    return Fraction(int(cy in neighbours), denom)
