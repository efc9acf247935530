import json
import math
import pathlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    dense_gap,
    dense_tv_curve,
    least_roots,
    random_digraph_sequence,
    random_graphical_sequence,
    relabelling_orbits_by_tuples,
    states_by_brute_force,
    switch_rows_by_tuples,
    two_colourable,
)
from switchmix import (
    VARIANT_ALL_PAIRS,
    VARIANT_EXACT,
    CapExceededError,
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    Graph,
    NoMixingError,
    NotRealizableError,
    StateSpaceAnalysis,
    analyze,
    enum_good_encodings,
    enum_states,
    realize,
    realize_directed,
)
from switchmix import statespace
from switchmix.statespace import (
    components,
    relabelling_orbits,
    switch_rows,
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


def _enum_oracle_cases():
    """Seeded sequences on at most 6 vertices, both modes: realizable ones
    from random (di)graphs and free draws (odd sums, unbalanced pairs, and
    unrealizable ones).  Each has at most 100000 candidate edge sets, which
    bounds the brute force's cost."""
    rng = random.Random(20171025)
    cases = []
    while len(cases) < 240:
        n = rng.randint(1, 6)
        directed, realizable = rng.random() < 0.5, rng.random() < 0.5
        if directed and realizable:
            seq = random_digraph_sequence(rng, n, rng.uniform(0.1, 0.4))
        elif directed:
            seq = DirectedDegreeSequence(
                [(rng.randint(0, min(n - 1, 2)), rng.randint(0, min(n - 1, 2))) for _ in range(n)]
            )
        elif realizable:
            seq = random_graphical_sequence(rng, n, rng.uniform(0.1, 0.9))
        else:
            seq = DegreeSequence([rng.randint(0, n - 1) for _ in range(n)])
        pairs, size = (n * (n - 1), seq.sum_out) if directed else (n * (n - 1) // 2, seq.M // 2)
        if math.comb(pairs, size) <= 100000:
            cases.append(seq)
    return cases


def test_enum_states_matches_brute_force():
    seen = set()
    for seq in _enum_oracle_cases():
        want = states_by_brute_force(seq)
        assert enum_states(seq) == want, seq
        if isinstance(seq, DirectedDegreeSequence):
            seen.add("unbalanced" if seq.sum_in != seq.sum_out else "directed")
            zero = 0 in (x for p in seq.pairs for x in p)
        else:
            seen.add("odd" if seq.M % 2 else "undirected")
            zero = 0 in seq.degrees
        seen.add("empty" if not want else "nonempty")
        if zero and want:
            seen.add("zero degree")
    assert seen == {"odd", "unbalanced", "directed", "undirected", "empty", "nonempty", "zero degree"}


@pytest.mark.parametrize(
    "seq",
    [DegreeSequence([2] * 6), DegreeSequence([2, 2, 1, 1, 0]), DirectedDegreeSequence([(1, 1)] * 4)],
)
def test_enum_cap_boundary(seq):
    count = len(states_by_brute_force(seq))
    with pytest.raises(CapExceededError, match=f"more than {count - 1} states"):
        enum_states(seq, cap=count - 1)
    assert len(enum_states(seq, cap=count)) == count


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


def test_analyze_rejects_an_unknown_variant():
    # the CLI's spellings ("exact", "all-pairs") are not variants: no chain
    # is picked for them by default
    seq = DegreeSequence([2] * 6)
    assert analyze(seq, variant=VARIANT_EXACT)._denom == 27  # 3a
    assert analyze(seq, variant=VARIANT_ALL_PAIRS)._denom == 45  # 3 binom(6, 2)
    for variant in ("exact", "all-pairs", "bogus"):
        with pytest.raises(ValueError, match="unknown variant"):
            analyze(seq, variant=variant)
    with pytest.raises(ValueError, match="unknown variant"):
        analyze(DirectedDegreeSequence([(1, 1)] * 3), variant="exact")


def test_analyze_rejects_a_sequence_without_realizations():
    for seq in (
        DegreeSequence([3, 1]),
        DegreeSequence([1, 1, 1]),
        DirectedDegreeSequence([(2, 0), (0, 2)]),
    ):
        with pytest.raises(NotRealizableError):
            analyze(seq)


def test_an_empty_space_has_no_analysis():
    for seq in (DegreeSequence([3, 1]), DirectedDegreeSequence([(1, 0), (1, 1)])):
        with pytest.raises(NotRealizableError, match="no realizations"):
            StateSpaceAnalysis(seq, [])


def test_default_start_is_the_greedy_realization():
    for seq, greedy in (
        (DegreeSequence([1, 1, 2, 2, 3, 3]), realize),
        (DirectedDegreeSequence([(1, 1)] * 5), realize_directed),
    ):
        an = analyze(seq)
        start = an.states.index(greedy(seq).canonical())
        assert an.start_index == start
        assert an.tv_curve(12) == an.tv_curve(12, start)


def test_tv_curve_rejects_out_of_range_arguments():
    # a negative start is not read from the end of the states
    an = analyze(DegreeSequence([2] * 6))
    count = len(an.states)
    for horizon, start in ((3, -1), (3, count), (-1, None), (-1, 0)):
        with pytest.raises(ValueError, match="horizon >= 0"):
            an.tv_curve(horizon, start)
    assert len(an.tv_curve(0, count - 1)) == 1


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


def _random_spaces(rng, directed, wanted, max_states=40, variant=VARIANT_EXACT):
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
            spaces.append(analyze(seq, variant=variant))
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
        assert an6.tv_curve(8, start_index=i) == an6.tv_curve(8, start_index=an6.states.index(moved))


def test_reducible_space_has_no_mixing_time():
    an = analyze(DirectedDegreeSequence([(1, 1)] * 3))
    assert not an.irreducible
    # detected up front: TV stays at 1/2, below this eps, yet no mixing time exists
    with pytest.raises(NoMixingError, match="reducible"):
        an.exact_mixing_time(Fraction(3, 5))


def test_mixing_time_checks_eps_and_gives_up_at_the_step_limit(monkeypatch):
    an = analyze(DegreeSequence([2] * 6))
    for eps in (0, 1, 1.5, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="eps must lie in"):
            an.exact_mixing_time(eps)
    assert an.exact_mixing_time(0.01) > 2
    monkeypatch.setattr(statespace, "MAX_MIXING_STEPS", 2)
    with pytest.raises(NoMixingError, match="no mixing within 2 steps"):
        an.exact_mixing_time(0.01)


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
    # three sources and three sinks: the 3! bijections, switched by transpositions
    an = analyze(DirectedDegreeSequence([(0, 1), (1, 0)] * 3))
    assert len(an.states) == 6 and an._periodic()
    assert min(np.linalg.eigvalsh(np.array(an.transition_matrix, dtype=float))) == pytest.approx(-1)


def test_periodic_matches_two_colouring_oracle(balanced_directed_corpus):
    """On every digraphical sequence with at least 2 arcs on at most 5
    vertices (3084 spaces), an irreducible chain is periodic exactly when no
    state holds and its switch graph is two-colourable."""
    spaces = periodic = 0
    for seq, states in balanced_directed_corpus:
        if seq.sum_in < 2 or not seq.is_digraphical():
            continue
        spaces += 1
        an = StateSpaceAnalysis(seq, states)
        if not an.irreducible:
            continue
        rows = switch_rows(an.states, directed=True)
        holds = any(len(row) < an._denom for row in rows)
        assert an._periodic() == (not holds and two_colourable(rows)), seq
        periodic += an._periodic()
    assert spaces == 3084 and periodic == 2


@pytest.mark.parametrize("seq", GAP_SPACES, ids=repr)
def test_spectral_gap_matches_dense_eigvalsh(seq):
    an = analyze(seq)
    assert abs(an.spectral_gap - dense_gap(an)) <= 1e-12


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



@pytest.mark.parametrize(
    "directed, variant",
    [(False, VARIANT_EXACT), (False, VARIANT_ALL_PAIRS), (True, VARIANT_EXACT)],
    ids=["undirected", "all-pairs", "directed"],
)
def test_lanczos_gap_matches_dense_oracle_on_random_spaces(rng, directed, variant):
    for an in _random_spaces(rng, directed, 12, max_states=400, variant=variant):
        assert abs(an.spectral_gap - dense_gap(an)) <= 1e-12


@pytest.mark.parametrize(
    "seq",
    [DegreeSequence([2] * 6), DegreeSequence([3] * 6), DirectedDegreeSequence([(1, 1)] * 5)],
    ids=repr,
)
def test_lanczos_gap_matches_dense_oracle_on_symmetric_spaces(seq):
    """Few distinct eigenvalues: the Krylov space is exhausted after a few steps."""
    an = analyze(seq)
    assert abs(an.spectral_gap - dense_gap(an)) <= 1e-12


def test_lanczos_gap_edge_cases():
    reducible = analyze(DirectedDegreeSequence([(1, 1)] * 3))
    assert reducible.spectral_gap == 0.0 and abs(dense_gap(reducible)) <= 1e-12
    single = analyze(DegreeSequence([3, 3, 3, 3]))
    assert single.spectral_gap == 1.0 == dense_gap(single)
    periodic = analyze(DirectedDegreeSequence([(0, 1), (1, 0), (0, 1), (1, 0)]))
    assert abs(periodic.spectral_gap) < 1e-12 and abs(dense_gap(periodic)) < 1e-12


def test_lanczos_gap_is_reproducible():
    for seq in GAP_SPACES:
        first, second = analyze(seq).spectral_gap, analyze(seq).spectral_gap
        assert first.hex() == second.hex()


def test_lanczos_gap_matches_dense_oracle_on_3507_states():
    an = analyze(DegreeSequence([2] * 8))
    assert len(an.states) == 3507
    assert abs(an.spectral_gap - dense_gap(an)) <= 1e-12


def test_spectral_gap_allocates_no_dense_matrix():
    """The dense 3507 x 3507 float matrix alone would take 98 MB."""
    an = analyze(DegreeSequence([2] * 8))
    tracemalloc.start()
    try:
        an.spectral_gap
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


KERNELS = [statespace._extremes_lists, statespace._extremes_numpy]


def kernel_gap(kernel, an) -> float:
    lowest, highest = kernel(an._rows, an._denom)
    return float(1.0 - max(abs(lowest), highest))


def kernel_spaces(rng) -> list:
    """The gap spaces, the three random families, the symmetric
    early-breakdown spaces, the periodic space (lambda_min = -1) and a
    2-state space."""
    spaces = [analyze(seq) for seq in GAP_SPACES]
    for directed, variant in [(False, VARIANT_EXACT), (False, VARIANT_ALL_PAIRS), (True, VARIANT_EXACT)]:
        spaces += [an for an in _random_spaces(rng, directed, 12, max_states=400, variant=variant) if an.irreducible]
    spaces += [analyze(DirectedDegreeSequence([(1, 1)] * 5))]
    spaces += [analyze(DirectedDegreeSequence([(0, 1), (1, 0), (0, 1), (1, 0)]))]
    spaces += [analyze(DegreeSequence([1, 2, 2, 1]))]
    assert [len(an.states) for an in spaces[-2:]] == [2, 2]
    return spaces


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
def test_each_kernel_matches_dense_oracle(kernel, rng):
    """Both kernels, called directly at every size."""
    for an in kernel_spaces(rng):
        assert abs(kernel_gap(kernel, an) - dense_gap(an)) <= 1e-12, an.seq


def test_the_two_kernels_agree_to_1e_15(rng):
    """One recipe in two arithmetics: only the order of the float sums differs."""
    for an in kernel_spaces(rng):
        assert abs(kernel_gap(KERNELS[0], an) - kernel_gap(KERNELS[1], an)) <= 1e-15, an.seq


def test_numpy_kernel_keeps_no_basis_and_calls_no_lapack(monkeypatch):
    """The ``[2]*8`` gap keeps its bits with no ``eigh`` and no basis growth."""

    def refuse(*args, **kwargs):
        raise AssertionError("the Lanczos kernels call neither eigh nor concatenate")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np, "concatenate", refuse)
    assert analyze(DegreeSequence([2] * 8)).spectral_gap == 0.1898633521852514


def test_numpy_kernel_peaks_under_28_bytes_per_nonzero():
    """Two index arrays and one gathered copy of x, 8 bytes each per non-zero,
    and a few vectors: no basis of k vectors."""
    an = analyze(DegreeSequence([2] * 8))
    tracemalloc.start()
    try:
        statespace._extremes_numpy(an._rows, an._denom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * sum(map(len, an._rows))


def test_list_kernel_stops_two7_within_34_steps(monkeypatch):
    """Inverse iteration at theta - 1e-13 separates the top Ritz value from
    its twin, so the stop test no longer waits for the twin (44 steps at
    theta - 1e-10); each step asks ``_least_ritz`` for both extremes."""
    calls = []
    least_ritz = statespace._least_ritz
    monkeypatch.setattr(statespace, "_least_ritz", lambda alphas, betas: calls.append(1) or least_ritz(alphas, betas))
    an = analyze(DegreeSequence([2] * 7))
    assert kernel_gap(statespace._extremes_lists, an) == 0.22372879366063259
    assert len(calls) // 2 <= 34


def test_rows_up_to_the_crossover_take_the_list_kernel(monkeypatch):
    taken = []
    for kernel in ("_extremes_lists", "_extremes_numpy"):
        monkeypatch.setattr(statespace, kernel, lambda rows, denom, kernel=kernel: taken.append(kernel) or (0.0, 0.0))
    crossover = statespace._LIST_KERNEL_NNZ
    statespace._deflated_extremes([[1] * (crossover - 1), [0]], 1)
    statespace._deflated_extremes([[1] * crossover, [0]], 1)
    assert taken == ["_extremes_lists", "_extremes_numpy"]


def test_analysis_keeps_under_16_bytes_per_nonzero():
    """Rows are neighbour lists over shared index ints: one list slot per
    non-zero, with no per-entry count and no stored diagonal."""
    seq = DegreeSequence([2] * 8)
    states = enum_states(seq)
    tracemalloc.start()
    try:
        an = StateSpaceAnalysis(seq, states)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert an.nnz == 119007
    assert kept < 16 * an.nnz


def test_enum_states_keeps_under_250_bytes_per_state():
    """States share one tuple per vertex pair: each keeps its own tuple of
    references and a list slot, not a fresh tuple per pair."""
    tracemalloc.start()
    try:
        states = enum_states(DegreeSequence([2] * 8))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(states) == 3507
    assert kept < 250 * len(states)


@pytest.mark.parametrize("directed", [False, True])
def test_switch_rows_match_tuple_oracle(rng, directed):
    for an in _random_spaces(rng, directed, 12, max_states=400):
        rows = switch_rows(an.states, directed)
        assert rows == switch_rows_by_tuples(an.states, directed)
        assert all(len(set(row)) == len(row) for row in rows)  # one proposal per neighbour


def test_switch_rows_match_tuple_oracle_on_3507_states():
    states = enum_states(DegreeSequence([2] * 8))
    rows = switch_rows(states)
    assert rows == switch_rows_by_tuples(states)
    assert all(len(set(row)) == len(row) for row in rows)


# Every space the tests above analyse by a fixed sequence.
ANALYSED_SPACES = [
    DegreeSequence([1, 2, 2, 1]),
    DegreeSequence([3, 3, 3, 3]),
    DegreeSequence([2, 2, 1, 1, 0]),
    DegreeSequence([1, 1, 1, 1]),
    DegreeSequence([2] * 8),
    DirectedDegreeSequence([(1, 1)] * 3),
    DirectedDegreeSequence([(1, 1)] * 4),
    DirectedDegreeSequence([(1, 1)] * 5),
    DirectedDegreeSequence([(0, 1), (1, 0), (0, 1), (1, 0)]),
    *GAP_SPACES,
    *(
        (DirectedDegreeSequence if case["directed"] else DegreeSequence)(case["degrees"])
        for case in GOLDEN_CASES.values()
    ),
]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2], [2, 0], [0, 1], [6, 4], [3, 5], [4, 6], [5, 3], []],  # C3, C4, isolated
        [[], [], []],  # isolated vertices
        [[], [4], [3], [4, 2], [3, 1], []],  # the path 1-4-3-2, listed backwards
        [[3], [2, 5], [1], [0, 4], [3], [1]],  # two components, interleaved
        switch_rows(enum_states(DirectedDegreeSequence([(1, 1)] * 3)), directed=True),
    ],
)
def test_components_label_each_class_with_its_least_index(rows):
    links = ((i, j) for i, row in enumerate(rows) for j in row)
    assert components(rows) == least_roots(len(rows), links)


@pytest.mark.parametrize("directed", [False, True])
def test_relabelling_orbits_match_tuple_oracle(rng, directed):
    spaces = [seq for seq in ANALYSED_SPACES if isinstance(seq, DirectedDegreeSequence) == directed]
    spaces += [an.seq for an in _random_spaces(rng, directed, 12, max_states=400)]
    for seq in spaces:
        states = enum_states(seq)
        assert relabelling_orbits(seq, states) == relabelling_orbits_by_tuples(seq, states), seq
