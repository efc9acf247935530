import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import dense_tv_curve, random_digraph_sequence, random_graphical_sequence
from switchmix import (
    CapExceededError,
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    Graph,
    NoMixingError,
    analyze,
    enum_good_encodings,
    enum_states,
)

GOLDEN_CASES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "analyze_exact.json").read_text()
)

# Spaces whose power-iteration gap once missed 1e-12: mixed6, two6, three6,
# mixed7, dir6, two7.
GAP_SPACES = [
    DegreeSequence([1, 1, 2, 2, 3, 3]),
    DegreeSequence([2] * 6),
    DegreeSequence([3] * 6),
    DegreeSequence([1, 1, 1, 2, 2, 2, 3]),
    DirectedDegreeSequence([(1, 1)] * 5 + [(2, 2)]),
    DegreeSequence([2] * 7),
]


def test_enum_counts():
    assert len(enum_states(DegreeSequence([2] * 6))) == 70
    assert len(enum_states(DegreeSequence([1, 2, 2, 1]))) == 2
    assert len(enum_states(DegreeSequence([3, 3, 3, 3]))) == 1
    assert len(enum_states(DirectedDegreeSequence([(1, 1)] * 3))) == 2
    assert len(enum_states(DirectedDegreeSequence([(1, 1)] * 4))) == 9
    assert enum_states(DegreeSequence([3, 3, 1, 1])) == []


def test_enum_cap():
    with pytest.raises(CapExceededError):
        enum_states(DegreeSequence([2] * 6), cap=10)


def test_enum_states_unique_and_exact():
    states = enum_states(DegreeSequence([2, 2, 1, 1, 0]))
    assert len(states) == len(set(states))
    for st in states:
        g = Graph(5, st)
        assert g.degree == [2, 2, 1, 1, 0]


def test_analyze_two_state_exact():
    an = analyze(DegreeSequence([1, 2, 2, 1]))
    assert an.transition_matrix == [
        [Fraction(2, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(2, 3)],
    ]
    curve = an.tv_curve(6)
    assert curve == [Fraction(1, 2) * Fraction(1, 3) ** t for t in range(7)]
    assert an.exact_mixing_time(Fraction(1, 100)) == 4
    assert an.exact_mixing_time(0.01) == 4
    assert abs(an.spectral_gap - 2 / 3) < 1e-9


def test_analyze_single_state():
    an = analyze(DegreeSequence([3, 3, 3, 3]))
    assert an.tv_curve(3) == [Fraction(0)] * 4
    assert an.exact_mixing_time(Fraction(1, 100)) == 0
    assert an.spectral_gap == 1.0


def test_analyze_seventy_state_space():
    an = analyze(DegreeSequence([2] * 6))
    assert len(an.states) == 70
    assert an.is_symmetric()
    assert an.rows_sum_to_one()
    assert an.uniform_is_stationary()
    assert an.min_diagonal() >= Fraction(1, 3)
    curve = an.tv_curve(60)
    assert all(curve[t + 1] <= curve[t] for t in range(60))


def test_analyze_directed_space():
    an = analyze(DirectedDegreeSequence([(1, 1)] * 4))
    assert len(an.states) == 9
    assert an.is_symmetric() and an.uniform_is_stationary()
    assert an.rows_sum_to_one()
    # the double-2-cycle state holds with probability exactly 1/3: the
    # incident-pair floor collapses to ceil(m/2) pairs there
    assert an.min_diagonal() == Fraction(1, 3)
    assert an.min_diagonal() >= an.laziness_floor() == Fraction(2, 6)
    # reducible two-cycle space: the gap detects it
    an2 = analyze(DirectedDegreeSequence([(1, 1)] * 3))
    assert an2.spectral_gap == 0.0
    assert an2.tv_curve(3)[-1] == Fraction(1, 2)


def test_analyze_rejects_bad_start():
    with pytest.raises(ValueError):
        analyze(DegreeSequence([1, 2, 2, 1]), start=((0, 3), (1, 2), (1, 3)))


def test_random_small_spaces_are_well_formed(rng):
    from conftest import count_nonadjacent_edge_pairs, random_graphical_sequence
    from switchmix import Graph

    checked = 0
    while checked < 15:
        n = rng.randint(2, 7)
        d = random_graphical_sequence(rng, n, rng.uniform(0.2, 0.8))
        states = enum_states(d)
        if not states or len(states) > 200:
            continue
        an = analyze(d)
        assert an.is_symmetric()
        assert an.rows_sum_to_one()
        assert an.uniform_is_stationary()
        assert an.min_diagonal() >= an.laziness_floor()
        # every state realizes the same non-adjacent pair count
        for st in states[:10]:
            assert count_nonadjacent_edge_pairs(Graph(n, st)) == d.a
        checked += 1


def test_good_encoding_enumeration_tiny():
    Zpath = Graph(4, [(0, 1), (1, 2), (2, 3)])
    encs = enum_good_encodings(Zpath)
    profiles = {}
    for enc in encs:
        profiles[enc.defect_counts()] = profiles.get(enc.defect_counts(), 0) + 1
        assert enc.is_valid() and enc.is_good() and enc.is_consistent_with(Zpath)
    # C(0,0) is the whole state space; the defect classes are exhaustively
    # empty at this size (goodness plus consistency exclude them)
    assert profiles[(0, 0)] == 2
    assert sum(profiles.values()) == len(encs)
    M = 6
    assert len(encs) <= 2 * M**6 * 2

    Ztri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    encs_tri = enum_good_encodings(Ztri)
    assert len(encs_tri) == 1 and encs_tri[0].defect_counts() == (0, 0)

    Zempty = Graph(3, [])
    encs_e = enum_good_encodings(Zempty)
    assert len(encs_e) == 1
    assert all(v == 0 for row in encs_e[0].matrix for v in row)


def test_good_encoding_defect_classes_nonempty():
    # with degree-3 vertices present, defective good encodings exist
    Z = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])
    assert Z.degree == [3, 3, 2, 2, 2]
    encs = enum_good_encodings(Z)
    profiles = {enc.defect_counts() for enc in encs}
    assert (0, 0) in profiles and len(profiles) > 1
    zero = [e for e in encs if e.defect_counts() == (0, 0)]
    assert len(zero) == len(enum_states(Z.degree_sequence()))


def test_valid_encoding_enumeration_directed():
    Zc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    encs = enum_good_encodings(Zc)
    m = 3
    assert len(encs) <= Fraction(m**8, 8) * 2
    zero = [e for e in encs if e.defect_counts() == (0, 0)]
    assert len(zero) == 2


def test_good_encoding_guard():
    with pytest.raises(CapExceededError):
        enum_good_encodings(Graph(8, [(i, i + 1) for i in range(7)]))


@pytest.mark.parametrize("key", sorted(GOLDEN_CASES))
def test_exact_outputs_match_golden(key):
    """TV(50) and worst-start mixing times recorded from the dense engine."""
    case = GOLDEN_CASES[key]
    if case["directed"]:
        seq = DirectedDegreeSequence(case["degrees"])
    else:
        seq = DegreeSequence(case["degrees"])
    an = analyze(seq, variant=case["variant"])
    assert len(an.states) == case["states"]
    assert an.tv_curve(50)[-1] == Fraction(case["tv_final_exact_50"])
    assert an.exact_mixing_time(Fraction(1, 100)) == case["exact_mixing_time_1_100"]
    assert an.exact_mixing_time(Fraction(1, 4)) == case["exact_mixing_time_1_4"]


def _random_spaces(rng, directed, wanted, max_states=40):
    spaces = []
    while len(spaces) < wanted:
        n = rng.randint(4, 6)
        p = rng.uniform(0.2, 0.7)
        seq = random_digraph_sequence(rng, n, p) if directed else random_graphical_sequence(rng, n, p)
        if directed and seq.sum_in < 2:
            continue
        if not directed and not seq.a:
            continue
        if 2 <= len(enum_states(seq)) <= max_states:
            spaces.append(analyze(seq))
    return spaces


@pytest.mark.parametrize("directed", [False, True])
def test_sparse_engine_matches_dense_oracle(rng, directed):
    """Sparse TV curves equal dense propagation from every start; the
    orbit-reduced worst start equals the maximum over all states."""
    for an in _random_spaces(rng, directed, 10):
        P = an.transition_matrix
        count = len(an.states)
        assert an.nnz == sum(1 for row in P for x in row if x)
        curves = [dense_tv_curve(P, 25, s) for s in range(count)]
        for s, curve in enumerate(curves):
            assert an.tv_curve(25, start_index=s) == curve
        if not an.irreducible:
            with pytest.raises(NoMixingError):
                an.exact_mixing_time(Fraction(1, 4))
            continue
        if an.min_diagonal() == 0:  # possibly periodic
            continue
        for eps in (Fraction(1, 4), Fraction(1, 100)):
            firsts = []
            for s in range(count):
                curve = curves[s]
                while curve[-1] > eps:
                    curve = dense_tv_curve(P, 2 * len(curve), s)
                firsts.append(next(t for t, v in enumerate(curve) if v <= eps))
            assert an.exact_mixing_time(eps) == max(firsts)


def test_orbits_collapse_relabelled_starts():
    an = analyze(DegreeSequence([2] * 7))
    assert len(an.states) == 465
    assert len(an.start_orbits) == 2  # C7 and C3 + C4
    assert an.exact_mixing_time(Fraction(1, 4)) == max(
        next(t for t, v in enumerate(an.tv_curve(60, start_index=s)) if v <= Fraction(1, 4))
        for s in an.start_orbits
    )
    # relabelling the start within a degree class leaves the curve unchanged
    an6 = analyze(DegreeSequence([1, 1, 2, 2, 3, 3]))
    swap = {0: 1, 1: 0}
    for i, st in enumerate(an6.states):
        moved = tuple(sorted(tuple(sorted((swap.get(u, u), swap.get(v, v)))) for u, v in st))
        assert an6.tv_curve(8, start_index=i) == an6.tv_curve(8, start_index=an6.index[moved])


def test_reducible_space_has_no_mixing_time():
    an = analyze(DirectedDegreeSequence([(1, 1)] * 3))
    assert not an.irreducible
    # detected up front: TV stays at 1/2, below this eps, yet no mixing time exists
    with pytest.raises(NoMixingError, match="reducible"):
        an.exact_mixing_time(Fraction(3, 5))


def test_periodic_space_detected_up_front():
    # two sources and two sinks: no state holds and the switch graph is bipartite
    an = analyze(DirectedDegreeSequence([(0, 1), (1, 0), (0, 1), (1, 0)]))
    assert an.irreducible and an.min_diagonal() == 0
    assert min(np.linalg.eigvalsh(np.array(an.transition_matrix, dtype=float))) == pytest.approx(-1)
    # propagating would run all max_steps before giving up
    with pytest.raises(NoMixingError, match="periodic"):
        an.exact_mixing_time(Fraction(1, 100))
    # TV sits at exactly 1/2 from the start, so eps = 1/2 is met at once
    assert an.exact_mixing_time(Fraction(1, 2)) == 0


def _eigvalsh_gap(an):
    vals = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in an.transition_matrix]))
    return 1.0 - max(abs(vals[0]), vals[-2])


@pytest.mark.parametrize("seq", GAP_SPACES, ids=repr)
def test_spectral_gap_matches_dense_eigvalsh(seq):
    an = analyze(seq)
    assert abs(an.spectral_gap - _eigvalsh_gap(an)) <= 1e-12


@pytest.mark.parametrize("seq", [DegreeSequence([1, 2, 2, 1]), *GAP_SPACES], ids=repr)
def test_mixing_time_within_relaxation_sandwich(seq):
    """(t_rel - 1) ln(1/2eps) <= t_mix(eps) <= t_rel ln(1/(eps pi_min)), with
    t_rel the inverse absolute spectral gap (Levin-Peres-Wilmer, ch. 12)."""
    an = analyze(seq)
    t_rel = 1.0 / an.spectral_gap
    for eps in (Fraction(1, 4), Fraction(1, 100)):
        t_mix = an.exact_mixing_time(eps)
        assert (t_rel - 1) * math.log(1 / (2 * eps)) <= t_mix
        assert t_mix <= t_rel * math.log(len(an.states) / eps)

