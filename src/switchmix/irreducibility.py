"""Switch-irreducibility diagnostics.

Undirected switch chains connect the whole state space for every graphical
sequence; directed chains need not, and at desk scale the enumerated space's
``StateSpaceAnalysis.connectivity`` decides it.  This module lists a digraph's
induced directed 3-cycles (``_induces_cycle`` decides one), partitions the
outside vertices around one, and finds the useful neighbour or arc showing
that it is no connectivity obstruction.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Digraph


class LamarPartition(NamedTuple):
    """Classes of outside vertices relative to a directed 3-cycle on U.

    For x outside U: U0 sees no arcs either way; Uminus sends all three arcs
    into U and receives none; Uplus receives all three and sends none; Upm
    has all six.  Everything else is leftover.
    """

    U: tuple
    U0: tuple
    Uminus: tuple
    Uplus: tuple
    Upm: tuple
    leftover: tuple


# an outside vertex x's class by its pattern (arcs from x into U, arcs from U to x)
_CLASS_OF = {(0, 0): "U0", (3, 0): "Uminus", (0, 3): "Uplus", (3, 3): "Upm"}


class UsefulWitness(NamedTuple):
    kind: str  # "neighbour" | "arc"
    value: object  # vertex, or ordered pair
    condition: str | None = None  # "i" | "ii" for arcs


def _induces_cycle(dg: Digraph, a, b, c) -> bool:
    """Whether the arcs among a, b, c are exactly one orientation of a 3-cycle."""
    has = dg.has_edge
    return {has(a, b) + has(b, c) + has(c, a), has(b, a) + has(c, b) + has(a, c)} == {0, 3}


def _check_triangle(dg: Digraph, U):
    U = tuple(U)
    if len(U) != 3 or len(set(U)) != 3:
        raise ValueError("U must contain three distinct vertices")
    if not _induces_cycle(dg, *U):
        raise ValueError("U does not induce a directed 3-cycle")
    return U


def lamar_classes(dg: Digraph, U) -> LamarPartition:
    """Partition the outside vertices by their arc pattern against U."""
    U = _check_triangle(dg, U)
    classes = {name: [] for name in LamarPartition._fields[1:]}
    for x in range(dg.n):
        if x not in U:
            pattern = (sum(dg.has_edge(x, u) for u in U), sum(dg.has_edge(u, x) for u in U))
            classes[_CLASS_OF.get(pattern, "leftover")].append(x)
    return LamarPartition(U, *map(tuple, classes.values()))


def find_useful(dg: Digraph, U) -> UsefulWitness | None:
    """A witness that the 3-cycle on U is not a connectivity obstruction.

    Preference order: a leftover vertex (useful neighbour); an arc present
    from U0 or Uplus into U0 or Uminus (condition i); a missing arc from
    Uminus or Upm into Uplus or Upm (condition ii).  None when the partition
    is obstruction-shaped.
    """
    part = lamar_classes(dg, U)
    if part.leftover:
        return UsefulWitness("neighbour", min(part.leftover))
    # (condition, whether the arc is present, its tails, its heads)
    conditions = (
        ("i", True, part.U0 + part.Uplus, part.U0 + part.Uminus),
        ("ii", False, part.Uminus + part.Upm, part.Uplus + part.Upm),
    )
    for condition, present, tails, heads in conditions:
        for x in sorted(tails):
            for y in sorted(heads):
                if x != y and dg.has_edge(x, y) == present:
                    return UsefulWitness("arc", (x, y), condition)
    return None


def induced_triangles(dg: Digraph):
    """All vertex triples inducing a directed 3-cycle, in lexicographic order.

    In such a triple the least vertex a has one out-arc (a, b) and b one (b, c),
    so each cycle is found once from those two arcs: O(m r_max) lookups.
    """
    outs = [[] for _ in range(dg.n)]
    for u, v in dg.edges:
        outs[u].append(v)
    found = []
    for a, succ in enumerate(outs):
        for b in succ:
            if b > a:
                for c in outs[b]:
                    if c > a and _induces_cycle(dg, a, b, c):
                        found.append((a, min(b, c), max(b, c)))
    return sorted(found)
