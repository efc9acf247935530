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
m/binom(m,2).  This module samples; ``statespace`` holds the exact law.
"""

from __future__ import annotations

import random

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
    two old edges in turn, each by moving the last edge into its drawn slot,
    then appends the two new ones.  This is the only code that reorders an
    edge array after construction, and the order is part of a seeded trajectory.

    With fewer than two edges, or a == 0, no switch can ever apply and
    FrozenChainError is raised before any draw, unless no step is asked for.
    """
    if steps <= 0:
        return 0
    edges, members = g.edges, g._members
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
        if a1 in members or a2 in members:
            continue
        members.remove(r1)
        members.remove(r2)
        members.add(a1)
        members.add(a2)
        tail = edges.pop()
        if i != last:
            edges[i] = tail
        if j == last:
            j = i
        tail = edges.pop()
        if j != last - 1:
            edges[j] = tail
        edges.append(a1)
        edges.append(a2)
        accepted += 1
    return accepted


def sample(
    start: Graph | Digraph,
    count: int,
    *,
    steps: int = 0,
    seed: int = 0,
    variant: str = VARIANT_EXACT,
    thinning: int = 1,
    stream: int = 0,
) -> list:
    """Run the chain from ``start`` and return `count` canonical states (sorted edge tuples).

    ``steps`` is the burn-in; states are then recorded every ``thinning``
    steps, at burn-in + thinning, burn-in + 2*thinning, ...  Replica
    ``stream`` uses its own derived sub-seed.  The trajectory is a pure
    function of (start, seed, variant, stream).
    """
    if steps < 0:
        raise ValueError("negative burn-in")
    if thinning < 1:
        raise ValueError("thinning must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if count < 0:
        raise ValueError("negative sample count")
    if count == 0:
        return []
    g = start.copy()
    rng = random.Random(derive_seed(seed, stream))
    exact = not g.directed and variant == VARIANT_EXACT
    a = g.degree_sequence().a if exact else None
    advance(g, rng, steps, a)
    out = []
    for _ in range(count):
        advance(g, rng, thinning, a)
        out.append(g.canonical())
    return out
