"""Degree-sequence types, validation and cached statistics."""

from __future__ import annotations

import os

DEFAULT_CAP = 10**6


class NotRealizableError(ValueError):
    """No simple graph (or digraph) realizes the requested degrees."""


class CapExceededError(RuntimeError):
    """Enumeration would exceed the configured state cap."""


def _erdos_gallai(degrees) -> bool:
    """Erdos-Gallai test (with the even-sum requirement) in O(n log n).

    With d sorted in non-increasing order, the tail sum_{i >= k} min(k, d_i)
    is k * max(0, p - k) + suffix[max(k, p)], where p = #{i : d_i >= k}
    only falls as k grows and suffix[j] = sum_{i >= j} d_i.  The empty list
    is graphical.
    """
    d = sorted(degrees, reverse=True)
    n = len(d)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + d[i]
    if suffix[0] % 2:
        return False
    p = n
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        while p and d[p - 1] < k:
            p -= 1
        if prefix > k * (k - 1) + k * max(0, p - k) + suffix[max(k, p)]:
            return False
    return True


class DegreeSequence:
    """Prescribed degrees for a simple undirected graph on vertices 0..n-1.

    Immutable; derived statistics are computed once at construction.
    ``a`` is the number of unordered pairs of distinct non-adjacent edges in
    any realization, binom(M/2, 2) - M2/2.  The count depends only on the
    degrees: the adjacent pairs at a vertex of degree d number d*(d-1)/2
    regardless of which graph realizes the sequence.  ``a`` is None when M
    is odd (no realization exists, so the quantity is undefined).
    """

    __slots__ = ("degrees", "n", "M", "M2", "d_min", "d_max", "a")

    directed = False

    def __init__(self, degrees):
        degrees = tuple(int(d) for d in degrees)
        if not degrees:
            raise ValueError("empty degree sequence")
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be non-negative")
        self.degrees = degrees
        self.n = len(degrees)
        self.M = sum(degrees)
        self.M2 = sum(d * (d - 1) for d in degrees)
        self.d_min = min(degrees)
        self.d_max = max(degrees)
        if self.M % 2:
            self.a = None
        else:
            half = self.M // 2
            self.a = half * (half - 1) // 2 - self.M2 // 2

    def __eq__(self, other):
        return isinstance(other, DegreeSequence) and self.degrees == other.degrees

    def __hash__(self):
        return hash(("DegreeSequence", self.degrees))

    def __repr__(self):
        return f"DegreeSequence({list(self.degrees)!r})"

    def is_graphical(self) -> bool:
        """Erdos-Gallai test (with the even-sum requirement) in O(n log n)."""
        return _erdos_gallai(self.degrees)

    def hypotheses(self) -> dict:
        """Theorem 1's hypotheses one flag each, and ``applicable``, all of them."""
        flags = {
            "graphical": self.is_graphical(),
            "d_min_ok": self.d_min >= 1,
            "d_max_ok": self.d_max >= 3,
            "density_ok": 9 * self.d_max**2 <= self.M,
        }
        return {**flags, "applicable": all(flags.values())}

    @property
    def stable(self) -> bool:
        """The stability flag ``validate`` reports; not one of Theorem 1's hypotheses."""
        return (self.d_max - self.d_min + 1) ** 2 <= 4 * self.d_min * (self.n - self.d_max + 1)


class DirectedDegreeSequence:
    """Prescribed (in-degree, out-degree) pairs for a simple digraph.

    Loops are forbidden; antiparallel arc pairs are allowed.  ``r_min`` and
    ``r_max`` are taken over all 2n semi-degrees.
    """

    __slots__ = ("pairs", "n", "sum_in", "sum_out", "r_min", "r_max")

    directed = True

    def __init__(self, pairs):
        pairs = tuple((int(a), int(b)) for a, b in pairs)
        if not pairs:
            raise ValueError("empty directed degree sequence")
        if any(a < 0 or b < 0 for a, b in pairs):
            raise ValueError("degrees must be non-negative")
        self.pairs = pairs
        self.n = len(pairs)
        self.sum_in = sum(a for a, _ in pairs)
        self.sum_out = sum(b for _, b in pairs)
        semis = [x for p in pairs for x in p]
        self.r_min = min(semis)
        self.r_max = max(semis)

    def __eq__(self, other):
        return isinstance(other, DirectedDegreeSequence) and self.pairs == other.pairs

    def __hash__(self):
        return hash(("DirectedDegreeSequence", self.pairs))

    def __repr__(self):
        return f"DirectedDegreeSequence({list(self.pairs)!r})"

    @property
    def m(self) -> int:
        """Arc count of any realization; NotRealizableError on unbalanced in/out sums."""
        if self.sum_in != self.sum_out:
            raise NotRealizableError(
                f"in-degree sum {self.sum_in} differs from out-degree sum {self.sum_out}"
            )
        return self.sum_in

    def is_digraphical(self) -> bool:
        """Fulkerson/Gale-Ryser style condition for zero-diagonal 0-1 matrices, in O(n log n).

        Vertices are taken in non-increasing (out, in) order; the first k
        out-degree stubs must fit under the heads' capacity, where a head
        inside the prefix can absorb at most k-1 arcs (no loops) and one
        outside at most k.  That capacity is sum_i min(in_i, k) minus
        #{i < k : in_i >= k}; both terms are kept incrementally from
        in-degree counts clamped at n, so no list is sized by a degree.
        """
        if self.sum_in != self.sum_out:
            return False
        ps = sorted(self.pairs, key=lambda p: (p[1], p[0]), reverse=True)
        n = self.n
        count = [0] * (n + 1)  # count[j]: heads with in-degree j (n means >= n)
        for a, _ in ps:
            count[min(a, n)] += 1
        seen = [0] * (n + 1)  # the same counts over the first k - 1 vertices
        at_least_k = n  # #{i : in_i >= k}
        capacity = 0  # sum_i min(in_i, k)
        inside = 0  # #{i < k : in_i >= k}
        prefix_out = 0
        for k in range(1, n + 1):
            a, b = ps[k - 1]
            at_least_k -= count[k - 1]
            capacity += at_least_k
            inside += (a >= k) - seen[k - 1]
            seen[min(a, n)] += 1
            prefix_out += b
            if prefix_out > capacity - inside:
                return False
        return True

    def hypotheses(self) -> dict:
        """Theorem 2's hypotheses one flag each, and ``applicable``, all of them;
        NotRealizableError on unbalanced sums.  Switch-irreducibility is not
        among them: the irreducible command reports it."""
        flags = {
            "digraphical": self.is_digraphical(),
            "r_min_ok": self.r_min >= 1,
            "r_max_ok": self.r_max >= 2,
            "density_ok": 16 * self.r_max**2 <= self.m,
        }
        return {**flags, "applicable": all(flags.values())}


def parse_degrees(text: str, directed: bool = False):
    """Parse an inline degree spec: "1,2,2,1" or "1:1,1:1,1:1" (in:out)."""
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError("empty degree specification")
    if directed:
        pairs = []
        for tok in items:
            if tok.count(":") != 1:
                raise ValueError(f"directed degrees need in:out pairs, got {tok!r}")
            a, b = tok.split(":")
            pairs.append((int(a), int(b)))
        return DirectedDegreeSequence(pairs)
    return DegreeSequence(int(tok) for tok in items)


def read_degree_file(path, directed: bool = False):
    """One integer per line (undirected) or "in out" per line (directed);
    each line is checked and converted as it is read."""
    arity, shape = (2, "'in out'") if directed else (1, "one integer")
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            row = line.split()
            if not row:
                continue
            if len(row) != arity:
                raise ValueError(f"expected {shape} per line, got {' '.join(row)!r}")
            values.append((int(row[0]), int(row[1])) if directed else int(row[0]))
    if not values:
        raise ValueError(f"no degrees in {path}")
    return DirectedDegreeSequence(values) if directed else DegreeSequence(values)


def load_degrees(spec: str, directed: bool = False):
    """Accept either a degree file path or an inline spec."""
    if os.path.exists(spec):
        return read_degree_file(spec, directed=directed)
    return parse_degrees(spec, directed=directed)
