"""The sampler against exact stationary laws on spaces far past enumeration.

Three families have a uniform law whose statistic is known in closed form at
every n (``conftest``): the 2-cycles of [(1,1)]*200 (``two_cycle_law``), the
triangles of [2]*200 (``triangle_law``) and the edges inside the first half
of the labels of [1]*60 (``matching_half_law``).  Each of R replicas runs
t = ceil(3 m ln m) steps from the greedy realization (m = 200 arcs or edges,
t = 3179, on the first two; m = 30, t = 307, on the matchings); the counts,
pooled to expected counts of at least 5, go through a G-test that must give
p > 1e-6.  The seed and the threshold were fixed before the first run.  The
test assumes t is past mixing for these statistics; the exact engine cannot
confirm that at these sizes.

``PYTHONPATH=src python tests/test_stationary_laws.py 10000`` runs the same
check with 10^4 replicas and exits non-zero if a family fails.
"""

import math
import sys
from bisect import bisect_left
from collections import Counter
from itertools import permutations

import pytest

from switchmix import DegreeSequence, DirectedDegreeSequence, enum_states, realize, realize_directed, sample

from conftest import (
    edges_below,
    law_of,
    matching_half_law,
    triangle_law,
    triangles_of_2_regular,
    two_cycle_law,
    two_cycles,
)

SEED = 1515
THRESHOLD = 1e-6
REPLICAS = 1000

# family: (sequence, the statistic of a sampled state, its exact law at n)
FAMILIES = {
    "two_cycles": (DirectedDegreeSequence([(1, 1)] * 200), two_cycles, two_cycle_law),
    "triangles": (DegreeSequence([2] * 200), triangles_of_2_regular, triangle_law),
    "matchings": (DegreeSequence([1] * 60), lambda edges: edges_below(edges, 30), matching_half_law),
}


@pytest.mark.parametrize("n", range(1, 8))
def test_two_cycle_law_matches_every_derangement(n):
    counts = Counter(
        sum(1 for u in range(n) if u < p[u] and p[p[u]] == u)
        for p in permutations(range(n))
        if all(p[u] != u for u in range(n))
    )
    assert two_cycle_law(n) == law_of(counts)


@pytest.mark.parametrize("n", range(3, 9))
def test_triangle_law_matches_every_state(n):
    counts = Counter(map(triangles_of_2_regular, enum_states(DegreeSequence([2] * n))))
    assert triangle_law(n) == law_of(counts)


@pytest.mark.parametrize("n", range(2, 11, 2))
def test_matching_half_law_matches_every_state(n):
    counts = Counter(edges_below(st, n // 2) for st in enum_states(DegreeSequence([1] * n)))
    assert matching_half_law(n) == law_of(counts)


def pooled(law, counts, replicas) -> tuple:
    """(expected, observed) over runs of consecutive j: each run closes once
    its expected count reaches 5, and a short last run joins the one before."""
    tops, expected, acc = [], [], 0
    for j in sorted(law):
        acc += replicas * law[j]
        if acc >= 5:
            tops.append(j)
            expected.append(acc)
            acc = 0
    expected[-1] += acc
    tops[-1] = max(law)
    observed = [0] * len(tops)
    for j, c in counts.items():
        observed[bisect_left(tops, j)] += c
    return [float(e) for e in expected], observed


def law_p_value(family, replicas) -> float:
    """G-test p-value of ``replicas`` sampled statistics against the exact law."""
    from scipy import stats

    seq, statistic, law = FAMILIES[family]
    start = realize_directed(seq) if seq.directed else realize(seq)
    m = len(start.edges)
    steps = math.ceil(3 * m * math.log(m))
    counts = Counter(statistic(sample(start, 1, steps=steps, seed=SEED, stream=r)[0]) for r in range(replicas))
    expected, observed = pooled(law(seq.n), counts, replicas)
    return stats.power_divergence(observed, expected, lambda_="log-likelihood").pvalue


@pytest.mark.parametrize("family", FAMILIES)
def test_sampler_meets_the_exact_law(family):
    p = law_p_value(family, REPLICAS)
    assert p > THRESHOLD, f"G-test p {p:.3g}"


if __name__ == "__main__":
    replicas = int(sys.argv[1])
    failed = False
    for family in FAMILIES:
        p = law_p_value(family, replicas)
        print(f"{family}: {replicas} replicas, G-test p {p:.3g}")
        failed |= p <= THRESHOLD
    sys.exit(1 if failed else 0)
