"""Switch-irreducibility diagnostics.

Undirected switch chains connect the whole state space for every graphical
sequence; directed chains need not.  This module decides connectivity by
exhaustive enumeration at desk scale, and implements the vertex-class
partition around an induced directed 3-cycle together with the
useful-neighbour / useful-arc witness search that certifies a 3-cycle is not
a connectivity obstruction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .degseq import DirectedDegreeSequence, NotRealizableError
from .graph import Digraph
from .statespace import DEFAULT_CAP, components, enum_states, switch_rows


@dataclass
class LamarPartition:
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


@dataclass
class UsefulWitness:
    kind: str  # "neighbour" | "arc"
    value: object  # vertex, or ordered pair
    condition: str | None = None  # "i" | "ii" for arcs


def _check_triangle(dg: Digraph, U):
    U = tuple(U)
    if len(set(U)) != 3:
        raise ValueError("U must contain three distinct vertices")
    inside = [(u, v) for u in U for v in U if u != v and dg.has_edge(u, v)]
    if len(inside) != 3:
        raise ValueError("U does not induce a directed 3-cycle")
    outs = {u: v for u, v in inside}
    if len(outs) != 3 or any(outs[outs[outs[u]]] != u for u in U):
        raise ValueError("U does not induce a directed 3-cycle")
    return U


def lamar_classes(dg: Digraph, U) -> LamarPartition:
    """Partition the outside vertices by their arc pattern against U."""
    U = _check_triangle(dg, U)
    uset = set(U)
    u0, uminus, uplus, upm, leftover = [], [], [], [], []
    for x in range(dg.n):
        if x in uset:
            continue
        outgoing = sum(1 for u in U if dg.has_edge(x, u))
        incoming = sum(1 for u in U if dg.has_edge(u, x))
        if outgoing == 0 and incoming == 0:
            u0.append(x)
        elif outgoing == 3 and incoming == 0:
            uminus.append(x)
        elif outgoing == 0 and incoming == 3:
            uplus.append(x)
        elif outgoing == 3 and incoming == 3:
            upm.append(x)
        else:
            leftover.append(x)
    return LamarPartition(
        U=U,
        U0=tuple(u0),
        Uminus=tuple(uminus),
        Uplus=tuple(uplus),
        Upm=tuple(upm),
        leftover=tuple(leftover),
    )


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
    src_i = sorted(part.U0 + part.Uplus)
    dst_i = sorted(part.U0 + part.Uminus)
    for x in src_i:
        for y in dst_i:
            if x != y and dg.has_edge(x, y):
                return UsefulWitness("arc", (x, y), "i")
    src_ii = sorted(part.Uminus + part.Upm)
    dst_ii = sorted(part.Uplus + part.Upm)
    for x in src_ii:
        for y in dst_ii:
            if x != y and not dg.has_edge(x, y):
                return UsefulWitness("arc", (x, y), "ii")
    return None


def induced_triangles(dg: Digraph):
    """All vertex triples whose induced subdigraph is a directed 3-cycle."""
    n = dg.n
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                fwd = dg.has_edge(a, b) and dg.has_edge(b, c) and dg.has_edge(c, a)
                bwd = dg.has_edge(b, a) and dg.has_edge(c, b) and dg.has_edge(a, c)
                if fwd == bwd:  # either no cycle, or extra arcs spoil inducedness
                    continue
                arcs = sum(
                    1
                    for u in (a, b, c)
                    for v in (a, b, c)
                    if u != v and dg.has_edge(u, v)
                )
                if arcs == 3:
                    out.append((a, b, c))
    return out


def connectivity_report(states, directed: bool) -> dict:
    """Component structure of the switch graph over the given realizations.

    ``states`` are all the realizations of one sequence, as ``enum_states``
    lists them; none raises NotRealizableError.
    """
    if not states:
        raise NotRealizableError("degree sequence has no realizations")
    roots = components(switch_rows(states, directed))
    component_sizes = sorted(Counter(roots).values(), reverse=True)
    return {
        "component_count": len(component_sizes),
        "component_sizes": component_sizes,
        "irreducible": len(component_sizes) == 1,
        "state_count": len(states),
    }


def switch_connectivity(seq, cap: int = DEFAULT_CAP) -> dict:
    """Component structure of the switch graph over all realizations."""
    return connectivity_report(enum_states(seq, cap), isinstance(seq, DirectedDegreeSequence))
