"""Acceptance suite: every checkable desk-scale claim, one criterion per test.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Tolerances are pinned here, not configurable.
"""

import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath

from switchmix import (
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    Graph,
    StateSpaceAnalysis,
    analyze,
    choice_count_and_bound,
    encode,
    enum_good_encodings,
    enum_states,
    find_useful,
    flow_components,
    induced_triangles,
    make_test_encoding,
    realize,
    realize_directed,
    repair,
    sample,
    verify_counting_identities,
)
from switchmix.encoding import DIRECTED_PROFILES, UNDIRECTED_PROFILES, apply_3switch

from conftest import (
    count_nonadjacent_edge_pairs,
    log_pi_star_term_bounds,
    oracle_neighbour_states,
    random_graphical_sequence,
)


@contextmanager
def criterion(num, title, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} [FAIL] {title}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num:2d} [PASS] {title} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_exact_chain_law():
    with criterion(1, "exact two-state law and mixing time", budget=1.0):
        an = analyze(DegreeSequence([1, 2, 2, 1]))
        assert an.transition_matrix == [
            [Fraction(2, 3), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(2, 3)],
        ]
        assert an.exact_mixing_time(Fraction(1, 100)) == 4
        curve = an.tv_curve(10)
        assert curve == [Fraction(1, 2) * Fraction(1, 3) ** t for t in range(11)]


def test_criterion_2_stationarity_and_symmetry():
    with criterion(2, "70-state space: symmetry, stationarity, TV decay", budget=30.0):
        an = analyze(DegreeSequence([2] * 6))
        assert len(an.states) == 70
        assert an.is_symmetric()
        assert an.rows_sum_to_one()
        assert an.min_diagonal() >= Fraction(1, 3)
        assert an.uniform_is_stationary()
        curve = an.tv_curve(200)
        assert all(curve[t + 1] <= curve[t] for t in range(200))
        assert curve[200] < Fraction(1, 100)


def test_criterion_3_empirical_uniformity():
    with criterion(3, "70,000 thinned samples close to uniform", budget=60.0):
        from scipy import stats

        d = DegreeSequence([2] * 6)
        states = enum_states(d)
        draws = sample(realize(d), 70000, steps=2000, seed=424242, thinning=10)
        counts = Counter(draws)
        tv = Fraction(1, 2) * sum(
            abs(Fraction(counts.get(s, 0), 70000) - Fraction(1, 70)) for s in states
        )
        assert tv < Fraction(5, 100), f"empirical TV {float(tv):.4f}"
        chi2, p = stats.chisquare([counts.get(s, 0) for s in states])
        assert p > 0.001, f"chi-square p {p:.5f}"


def test_criterion_4_nonadjacent_pair_count_oracle():
    with criterion(4, "non-adjacent edge-pair count matches the formula"):
        rng = random.Random(44)
        done = 0
        while done < 100:
            n = rng.randint(2, 10)
            d = random_graphical_sequence(rng, n, rng.uniform(0.1, 0.9))
            if d.M < 2:
                continue
            g = realize(d)
            assert count_nonadjacent_edge_pairs(g) == d.a
            done += 1


def test_criterion_5_undirected_irreducibility():
    with criterion(5, "switch graph connected for every graphical d, n <= 7"):
        # relabeling is a switch-equivariant bijection, so sorted
        # representatives decide every ordering
        for n in range(1, 8):
            for combo in itertools.combinations_with_replacement(range(n), n):
                d = DegreeSequence(sorted(combo, reverse=True))
                if not d.is_graphical():
                    continue
                rep = analyze(d).connectivity
                assert rep["irreducible"], (d.degrees, rep)


def test_criterion_6_directed_reducibility_witness():
    with criterion(6, "1-in 1-out triple: two frozen components, no witness"):
        dd = DirectedDegreeSequence([(1, 1)] * 3)
        states = enum_states(dd)
        assert len(states) == 2
        rep = analyze(dd).connectivity
        assert rep["component_count"] == 2 and not rep["irreducible"]
        for st in states:
            assert oracle_neighbour_states(st, directed=True) == []
            dg = Digraph(3, st)
            tris = induced_triangles(dg)
            assert tris == [(0, 1, 2)]
            assert find_useful(dg, tris[0]) is None


def test_criterion_7_triangle_witness_lemma(balanced_directed_corpus):
    with criterion(7, "connected spaces: every induced 3-cycle has a witness (n <= 5)"):
        for dd, states in balanced_directed_corpus:
            # enumeration doubles as the digraphicality oracle
            assert bool(states) == dd.is_digraphical()
            if not states:
                continue
            if not StateSpaceAnalysis(dd, states).irreducible:
                continue
            for st in states:
                dg = Digraph(dd.n, st)
                for tri in induced_triangles(dg):
                    assert find_useful(dg, tri) is not None, (dd.pairs, st, tri)


def _random_theorem1_sequence(rng):
    if rng.random() < 0.5:
        n = rng.choice([28, 30, 34])
        return DegreeSequence([3] * n)
    while True:
        n = rng.randint(40, 60)
        degrees = [rng.choice([1, 2, 3]) for _ in range(n)]
        degrees[0] = 3
        if sum(degrees) % 2:
            degrees[1] = 2 if degrees[1] != 2 else 1
        d = DegreeSequence(degrees)
        if d.hypotheses()["applicable"]:
            return d


def _random_theorem2_sequence(rng):
    if rng.random() < 0.5:
        n = rng.choice([64, 66])
        return DirectedDegreeSequence([(4, 4)] * n)
    while True:
        n = rng.randint(110, 130)
        pairs = [[rng.randint(1, 4), rng.randint(1, 4)] for _ in range(n)]
        pairs[0] = [4, 4]
        diff = sum(a for a, _ in pairs) - sum(b for _, b in pairs)
        guard = 0
        while diff != 0 and guard < 10000:
            i = rng.randrange(n)
            if diff > 0 and pairs[i][1] < 4:
                pairs[i][1] += 1
                diff -= 1
            elif diff < 0 and pairs[i][0] < 4:
                pairs[i][0] += 1
                diff += 1
            guard += 1
        dd = DirectedDegreeSequence(tuple(map(tuple, pairs)))
        if diff == 0 and dd.m >= 16 * dd.r_max**2 and dd.is_digraphical():
            return dd


def test_criterion_8_choice_bound_soundness():
    with criterion(8, "exact completion counts dominate the closed-form bounds"):
        rng = random.Random(88)
        Zu_small = realize(DegreeSequence([3] * 16))
        Zu_big = realize(DegreeSequence([3] * 28))
        Zd_small = realize_directed(DirectedDegreeSequence([(2, 2)] * 16))
        Zd_big = realize_directed(DirectedDegreeSequence([(3, 3)] * 24))
        cases = []
        for i in range(250):
            cases.append((Zu_small if i % 2 else Zu_big, "good" if i % 4 < 2 else None))
        for i in range(250):
            cases.append((Zd_small if i % 2 else Zd_big, "valid" if i % 4 < 2 else None))
        checked = 0
        for base, level in cases:
            L = make_test_encoding(base, rng, level=level)
            mat, n = L.matrix, L.n
            nz = [
                (u, v) for u in range(n) for v in range(n) if u != v and mat[u][v] != 0
            ]
            for _ in range(2):
                a1, b1 = nz[rng.randrange(len(nz))]
                res = choice_count_and_bound(L, (a1, b1), "second_pair")
                assert res["exact"] >= res["bound"], (level, res)
                third = [
                    (a2, b2)
                    for a2, b2 in L.ones_pairs()
                    if len({a1, b1, a2, b2}) == 4
                ]
                if third:
                    a2, b2 = third[rng.randrange(len(third))]
                    res = choice_count_and_bound(L, (a1, b1, a2, b2), "third_pair")
                    assert res["exact"] >= res["bound"], (level, res)
                checked += 1
        assert checked >= 1000


def test_criterion_9_repair_caps():
    with criterion(9, "500+500 generated encodings repair within 3 / 5 switches"):
        rng = random.Random(99)
        for _ in range(500):
            d = _random_theorem1_sequence(rng)
            Z = realize(d)
            L = make_test_encoding(Z, rng)
            res = repair(L)
            assert len(res.switch_log) <= 3, (d.degrees, res.switch_log)
            assert res.result.degree == list(d.degrees)
            res.result.audit()
        for _ in range(500):
            dd = _random_theorem2_sequence(rng)
            Z = realize_directed(dd)
            L = make_test_encoding(Z, rng)
            res = repair(L)
            assert len(res.switch_log) <= 5, (dd.pairs, res.switch_log)
            assert res.result.in_degree == [a for a, _ in dd.pairs]
            assert res.result.out_degree == [b for _, b in dd.pairs]
            res.result.audit()


def test_criterion_10_bound_calculators():
    with criterion(10, "bound product identity, size bounds, 12-digit check"):
        rng = random.Random(1010)
        for seq in (
            DegreeSequence([3] * 28),
            DegreeSequence([2, 2, 1, 1]),
            DirectedDegreeSequence([(2, 2)] * 32),
            DirectedDegreeSequence([(1, 1)] * 4),
        ):
            comps = flow_components(seq)
            poly = comps.load_bound * comps.ell_bound
            for eps in (0.01, 0.001):
                with localcontext(Context(prec=40)):
                    product = Decimal(poly.numerator) / Decimal(poly.denominator) * comps.log_part(eps)
                assert comps.product_bound(eps) == product
        checked = 0
        while checked < 50:
            n = rng.randint(2, 7)
            d = random_graphical_sequence(rng, n, rng.uniform(0.2, 0.8))
            states = enum_states(d)
            if not states:
                continue
            assert log_pi_star_term_bounds(len(states), flow_components(d))
            checked += 1
        d = DegreeSequence([3] * 28)
        assert d.hypotheses()["applicable"]
        value = flow_components(d).product_bound(0.01)
        with mpmath.workprec(200):
            ref = mpmath.mpf(3) ** 14 * mpmath.mpf(84) ** 9 * (
                42 * mpmath.log(84) + mpmath.log(100)
            )
            assert abs(mpmath.mpf(str(value)) - ref) / ref < mpmath.mpf(10) ** -12


def test_criterion_11_counting_identities_everywhere():
    with criterion(11, "counting identities hold on every encoding touched"):
        rng = random.Random(111)
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        alt = Graph(4, [(0, 2), (1, 2), (1, 3)])
        verify_counting_identities(encode(path, path, alt))
        verify_counting_identities(encode(path, alt, alt))
        for enc in enum_good_encodings(Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])):
            verify_counting_identities(enc)
        Zu = realize(DegreeSequence([3] * 28))
        for profile in UNDIRECTED_PROFILES:
            L = make_test_encoding(Zu, rng, profile=profile)
            verify_counting_identities(L)
            work = L.copy()
            for _, tup in repair(L).switch_log:
                apply_3switch(work, tup)
                verify_counting_identities(work)
            assert work.defect_counts() == (0, 0)
        Zd = realize_directed(DirectedDegreeSequence([(4, 4)] * 64))
        for profile in DIRECTED_PROFILES:
            L = make_test_encoding(Zd, rng, profile=profile)
            verify_counting_identities(L)
            work = L.copy()
            for _, tup in repair(L).switch_log:
                apply_3switch(work, tup)
                verify_counting_identities(work)
            assert work.defect_counts() == (0, 0)
