import hashlib
import random
from collections import Counter
from itertools import permutations, product

import pytest

from switchmix import (
    DegreeSequence,
    Digraph,
    DirectedDegreeSequence,
    Encoding,
    Graph,
    RepairStuckError,
    apply_3switch,
    choice_count_and_bound,
    encode,
    enum_good_encodings,
    find_phase_switch,
    load_encoding,
    make_test_encoding,
    realize,
    realize_directed,
    repair,
    save_encoding,
    verify_counting_identities,
)
from switchmix.encoding import (
    DIRECTED_PROFILES,
    UNDIRECTED_PROFILES,
    _shift,
)

PATH = Graph(4, [(0, 1), (1, 2), (2, 3)])
ALT = Graph(4, [(0, 2), (1, 2), (1, 3)])


def test_catalog_structure():
    from switchmix.encoding import _CATALOG_DIRECTED, _CATALOG_UNDIRECTED, _DEFECT_CAPS

    for directed, catalog in ((False, _CATALOG_UNDIRECTED), (True, _CATALOG_DIRECTED)):
        labels = [[lab for *_, lab in tpl] for tpl in catalog]
        assert _DEFECT_CAPS[directed] == (
            max(labs.count(2) for labs in labels),
            max(labs.count(-1) for labs in labels),
            max(map(len, labels)),
        )

    assert len(_CATALOG_UNDIRECTED) == 10
    for tpl in _CATALOG_UNDIRECTED:
        assert len(tpl) == 4
        labels = Counter(lab for *_, lab in tpl)
        assert labels[-1] + labels[2] == 4 and labels[2] in (1, 2)
        # exactly one centre vertex carrying one 2 and two -1 edges
        incid = Counter()
        for u, v, _ in tpl:
            incid[u] += 1
            incid[v] += 1
        centres = [v for v, k in incid.items() if k == 3]
        assert len(centres) == 1
        at_centre = Counter(
            lab for u, v, lab in tpl if centres[0] in (u, v)
        )
        assert at_centre == Counter({-1: 2, 2: 1})

    assert len(_CATALOG_DIRECTED) == 64
    for tpl in _CATALOG_DIRECTED:
        assert len(tpl) == 5
        labels = Counter(lab for *_, lab in tpl)
        assert labels in (Counter({2: 3, -1: 2}), Counter({-1: 3, 2: 2}))
        # one centre with three arcs on a single side
        out_deg = Counter(u for u, _, _ in tpl)
        in_deg = Counter(v for _, v, _ in tpl)
        assert 3 in (*out_deg.values(), *in_deg.values())


def test_profile_tables_and_caps_agree_with_the_catalog():
    # the profile tuples are written out for their draw order, so only this
    # test ties them to the catalog: every (p, q) some template subset has
    from switchmix.encoding import _CATALOG_DIRECTED, _CATALOG_UNDIRECTED, _DEFECT_CAPS

    for catalog, profiles in (
        (_CATALOG_UNDIRECTED, UNDIRECTED_PROFILES),
        (_CATALOG_DIRECTED, DIRECTED_PROFILES),
    ):
        counts = set()
        for tpl in catalog:
            labels = [lab for *_, lab in tpl]
            for mask in range(1 << len(labels)):
                sub = [lab for k, lab in enumerate(labels) if mask >> k & 1]
                counts.add((sub.count(2), sub.count(-1)))
        assert set(profiles) == counts
        assert len(profiles) == len(counts)
    assert _DEFECT_CAPS == {False: (2, 3, 4), True: (3, 3, 5)}


def test_encode_identity():
    L = encode(ALT, ALT, ALT)
    assert L.defect_counts() == (0, 0)
    assert L.is_valid() and L.is_good() and L.is_consistent_with(ALT)
    assert L.as_graph() == ALT


def test_encode_swap_roles():
    # Z equal to one of the pair: L recovers the other
    L = encode(PATH, ALT, ALT)
    assert L.defect_counts() == (0, 0)
    assert L.as_graph() == PATH


def test_encode_full_defect_example():
    L = encode(PATH, PATH, ALT)
    assert L.entry(0, 1) == 2 and L.entry(2, 3) == 2
    assert L.entry(0, 2) == -1 and L.entry(1, 3) == -1
    assert L.defect_counts() == (2, 2)
    assert L.zeta_out[0] == 1 and L.eta_out[0] == 1
    # non-defect edge count: M/2 - 2p + q = 3 - 4 + 2 = 1
    ones = sum(1 for u in range(4) for v in range(u + 1, 4) if L.entry(u, v) == 1)
    assert ones == 1
    verify_counting_identities(L)
    # a 4-cycle of defects matches no catalog configuration
    assert not L.is_valid() and not L.is_good() and L.is_consistent_with(ALT)


def test_encode_rejects_mixed_modes_and_a_defective_store_is_no_graph():
    with pytest.raises(TypeError, match="all three states must be graphs or all digraphs"):
        encode(PATH, PATH, Digraph(4, [(0, 1), (1, 2), (2, 3)]))
    L = encode(PATH, PATH, ALT)
    assert repr(L) == "Encoding(directed=False, n=4, p=2, q=2)"
    with pytest.raises(ValueError, match="encoding still has defects"):
        L.as_graph()
    assert encode(PATH, PATH, PATH).as_graph() == PATH


def test_encode_rejects_mismatched_degrees():
    with pytest.raises(ValueError):
        encode(PATH, PATH, Graph(4, [(0, 1), (0, 2), (0, 3)]))


def test_validity_catalog_cases():
    d = DegreeSequence([2, 2, 2, 2, 2, 2, 2, 2])
    # star of one 2 and two -1 at a centre, plus a disjoint -1: valid
    mat = [[0] * 8 for _ in range(8)]

    def put(u, v, val):
        mat[u][v] = mat[v][u] = val

    put(0, 1, 2)
    put(0, 2, -1)
    put(0, 3, -1)
    put(4, 5, -1)
    # pad with label-1 edges to meet the degree sums
    ones = [(1, 2), (1, 3), (2, 3), (4, 6), (5, 6), (4, 7), (5, 7), (6, 7), (2, 4)]
    for u, v in ones:
        put(u, v, 1)
    # fix row sums: build a fresh target from the matrix itself
    target = DegreeSequence([sum(row) for row in mat])
    L = Encoding(target, mat)
    assert L.defect_counts() == (1, 3)
    assert L.is_valid()

    # five defect edges can never be valid
    put(6, 7, -1)
    target2 = DegreeSequence([sum(row) for row in mat])
    L2 = Encoding(target2, mat)
    assert not L2.is_valid()


def test_goodness_degree_conditions():
    # 2-defect with a degree-1 endpoint: valid but not good
    mat = [[0] * 4 for _ in range(4)]
    mat[0][1] = mat[1][0] = 2
    mat[2][3] = mat[3][2] = 1
    mat[0][2] = mat[2][0] = -1
    target = DegreeSequence([sum(row) for row in mat])
    L = Encoding(target, mat)
    assert L.is_valid()
    assert not L.is_good()  # d_0 = 1 on a 2-defect edge


def test_apply_3switch_plain_graph():
    g = realize(DegreeSequence([2, 2, 2, 2, 1, 1]))
    L = encode(g, g, g)
    tup = find_phase_switch(L, "P3")
    assert tup is None  # no defects: nothing to repair
    # hand-build a legal 3-switch on label-1 edges
    mat = L.matrix
    found = None
    n = L.n
    for a1 in range(n):
        for b1 in range(n):
            if a1 == b1 or mat[a1][b1] != 1:
                continue
            for a2 in range(n):
                for b2 in range(n):
                    if len({a1, b1, a2, b2}) < 4 or mat[a2][b2] != 1 or mat[a2][b1]:
                        continue
                    for a3 in range(n):
                        for b3 in range(n):
                            if len({a1, b1, a2, b2, a3, b3}) < 6:
                                continue
                            if mat[a3][b3] == 1 and not mat[a3][b2] and not mat[a1][b3]:
                                found = (a1, b1, a2, b2, a3, b3)
                                break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found
    before = [row[:] for row in L.matrix]
    apply_3switch(L, found)
    assert L.defect_counts() == (0, 0)
    g2 = L.as_graph()
    assert g2.degree == g.degree
    # and the reverse restores it
    _shift(L, found, -1)
    assert L.matrix == before


def test_apply_3switch_errors():
    L = encode(PATH, PATH, PATH)
    with pytest.raises(ValueError):
        apply_3switch(L, (0, 0, 1, 2, 3, 3))  # repeated vertices
    with pytest.raises(ValueError, match="vertex 4 out of range"):
        apply_3switch(L, (0, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="diagonal entries are fixed at zero"):
        L._set(2, 2, 1)
    with pytest.raises(ValueError, match="entry 3 out of range"):
        L._set(0, 2, 3)
    assert L == encode(PATH, PATH, PATH)
    # decrementing a -1 entry leaves the label range; the call must not mutate
    mat = [[0] * 6 for _ in range(6)]
    mat[0][1] = mat[1][0] = -1
    mat[0][2] = mat[2][0] = 1
    mat[1][3] = mat[3][1] = 1
    mat[4][5] = mat[5][4] = 1
    target = DegreeSequence([sum(row) for row in mat])
    L2 = Encoding(target, mat)
    before = [row[:] for row in L2.matrix]
    with pytest.raises(ValueError):
        apply_3switch(L2, (1, 0, 2, 3, 4, 5))
    assert L2.matrix == before


def test_choice_count_and_bound_path_example():
    L = encode(PATH, PATH, PATH)
    res = choice_count_and_bound(L, (1, 2), "second_pair")
    assert res["exact"] == 0 and res["bound"] <= 0
    # defect-free simplification: bound = M - d_max (d_max + 2)
    d = PATH.degree_sequence()
    assert res["bound"] == d.M - d.d_max * (d.d_max + 2)


def test_choice_count_anchor_validation():
    L = encode(PATH, PATH, PATH)
    with pytest.raises(ValueError, match=r"second_pair anchors are \(a1, b1\)"):
        choice_count_and_bound(L, (0, 1, 2), "second_pair")
    with pytest.raises(ValueError, match=r"third_pair anchors are \(a1, b1, a2, b2\)"):
        choice_count_and_bound(L, (0, 1), "third_pair")
    with pytest.raises(ValueError):
        choice_count_and_bound(L, (0, 2), "second_pair")  # L(0,2)=0
    with pytest.raises(ValueError):
        choice_count_and_bound(L, (0, 1, 1, 3), "third_pair")  # repeated vertex
    with pytest.raises(ValueError):
        choice_count_and_bound(L, (2, 3, 0, 3), "third_pair")
    with pytest.raises(ValueError):
        choice_count_and_bound(L, (0, 1), "both_pairs")


def test_choice_bound_soundness_randomized(rng):
    Zu = realize(DegreeSequence([3] * 16))
    dd = DirectedDegreeSequence([(2, 2)] * 16)
    Zd = realize_directed(dd)
    for _ in range(60):
        for Z, level in ((Zu, "good"), (Zu, None), (Zd, "valid"), (Zd, None)):
            L = make_test_encoding(Z, rng, level=level)
            verify_counting_identities(L)
            mat = L.matrix
            n = L.n
            nz = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and mat[u][v] != 0
            ]
            a1, b1 = nz[rng.randrange(len(nz))]
            res = choice_count_and_bound(L, (a1, b1), "second_pair")
            assert res["exact"] >= res["bound"]
            ones = L.ones_pairs()
            third = [(a2, b2) for a2, b2 in ones if len({a1, b1, a2, b2}) == 4]
            if third:
                a2, b2 = third[rng.randrange(len(third))]
                res = choice_count_and_bound(L, (a1, b1, a2, b2), "third_pair")
                assert res["exact"] >= res["bound"]


def test_find_phase_switch_and_profiles(rng):
    Z = realize(DegreeSequence([3] * 28))
    L = make_test_encoding(Z, rng, profile=(1, 1))
    tup = find_phase_switch(L, "P2")
    assert tup is not None
    apply_3switch(L, tup)
    assert L.defect_counts() == (0, 1)
    assert find_phase_switch(L, "P2") is None  # p = 0 now
    tup = find_phase_switch(L, "P3")
    apply_3switch(L, tup)
    assert L.defect_counts() == (0, 0)
    for phase in ("P1", "P2", "P3"):
        assert find_phase_switch(L, phase) is None


def test_find_phase_switch_directed(rng):
    Z = realize_directed(DirectedDegreeSequence([(2, 2)] * 32))
    L = make_test_encoding(Z, rng, profile=(0, 1))
    tup = find_phase_switch(L, "B")
    assert tup is not None
    apply_3switch(L, tup)
    assert L.defect_counts() == (0, 0)


def test_an_unknown_phase_is_a_value_error():
    cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    directed = encode(cycle, cycle, cycle)
    for L in (encode(ALT, ALT, ALT), directed):
        with pytest.raises(ValueError, match="unknown phase 'P9'"):
            find_phase_switch(L, "P9")
    # a known phase of the other mode is no error, just no switch
    assert find_phase_switch(directed, "P1") is None


def test_find_phase_switch_deterministic(rng):
    Z = realize(DegreeSequence([3] * 28))
    L = make_test_encoding(Z, rng, profile=(1, 0))
    assert find_phase_switch(L, "P2") == find_phase_switch(L.copy(), "P2")


def test_repair_zero_defects_is_noop():
    L = encode(ALT, ALT, ALT)
    res = repair(L)
    assert res.switch_log == [] and res.result == ALT


def test_repair_all_profiles_undirected(rng):
    Z = realize(DegreeSequence([3] * 28))
    for profile in UNDIRECTED_PROFILES:
        L = make_test_encoding(Z, rng, profile=profile)
        res = repair(L)
        assert len(res.switch_log) <= 3
        assert res.result.degree == [3] * 28
        res.result.audit()


def test_repair_all_profiles_directed(rng):
    Z = realize_directed(DirectedDegreeSequence([(4, 4)] * 64))
    for profile in DIRECTED_PROFILES:
        L = make_test_encoding(Z, rng, profile=profile)
        res = repair(L)
        assert len(res.switch_log) <= 5
        assert res.result.in_degree == [4] * 64
        res.result.audit()


def test_repair_stuck_reports_profile():
    # the 4-cycle defect layout on 4 vertices leaves no room for any
    # phase completion: repair must report the stuck profile, not loop
    L = encode(PATH, PATH, ALT)
    with pytest.raises(RepairStuckError) as err:
        repair(L)
    assert err.value.profile == (2, 2)


def test_generator_respects_level_and_consistency(rng):
    Z = realize(DegreeSequence([3] * 20))
    for _ in range(20):
        L = make_test_encoding(Z, rng)
        assert L.is_valid() and L.is_good() and L.is_consistent_with(Z)
        assert L.defect_counts() in UNDIRECTED_PROFILES
        verify_counting_identities(L)


def _generated(Z, seed, profile, level):
    try:
        return make_test_encoding(Z, random.Random(seed), profile=profile, level=level)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "pairs, profile",
    [
        ([(2, 2)] * 14, (1, 2)),
        ([(2, 2)] * 14, (2, 2)),
        ([(2, 2)] * 14, (3, 2)),  # no valid layout: both levels refuse it
        ([(3, 3), (3, 2), (2, 3), (1, 2), (2, 1), (3, 3), (2, 2)] * 3, (2, 1)),
        ([(3, 3), (3, 2), (2, 3), (1, 2), (2, 1), (3, 3), (2, 2)] * 3, None),
    ],
)
def test_a_good_digraph_encoding_is_a_valid_one(pairs, profile):
    # ``is_good`` adds no condition on a digraph, so the two levels draw alike
    Z = realize_directed(DirectedDegreeSequence(pairs))
    for seed in range(3):
        good = _generated(Z, seed, profile, "good")
        assert good == _generated(Z, seed, profile, "valid")
        assert isinstance(good, str) == (profile == (3, 2))


@pytest.mark.parametrize(
    "Z",
    [
        Digraph(3, [(0, 1), (1, 2), (2, 0)]),
        Digraph(3, [(0, 1), (1, 0), (1, 2)]),
        Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4)]),
    ],
)
def test_digraph_enumeration_needs_no_good_filter(Z):
    # the digraphs tests/golden/encodings.json enumerates
    default = [enc.matrix for enc in enum_good_encodings(Z)]
    assert default and default == [enc.matrix for enc in enum_good_encodings(Z, require_good=False)]


def test_serialization_round_trip(tmp_path, rng):
    Z = realize(DegreeSequence([3] * 12))
    L = make_test_encoding(Z, rng, profile=(1, 1))
    csv_path = tmp_path / "enc.csv"
    save_encoding(L, csv_path)
    L2 = load_encoding(csv_path)
    assert L2 == L and L2.defect_counts() == (1, 1)

    Zd = realize_directed(DirectedDegreeSequence([(2, 2)] * 12))
    Ld = make_test_encoding(Zd, rng, profile=(1, 0))
    dcsv = tmp_path / "enc_d.csv"
    save_encoding(Ld, dcsv)
    Ld2 = load_encoding(dcsv)
    assert Ld2 == Ld and Ld2.directed


def test_malformed_sidecar_values_are_value_errors(tmp_path):
    import json

    csv_path = tmp_path / "enc.csv"
    save_encoding(encode(PATH, PATH, ALT), csv_path)
    sidecar = tmp_path / "enc.csv.json"
    good = json.loads(sidecar.read_text())
    for doc, message in (
        ({**good, "n": "4"}, "sidecar field 'n' must be an integer"),
        ({**good, "profile": {"p": 2, "q": 2.0}}, "sidecar field 'q' must be an integer"),
        ({**good, "profile": {"p": 1, "q": 2}}, r"sidecar profile \(1, 2\) does not match matrix \(2, 2\)"),
    ):
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_encoding(csv_path)


def test_counting_identities_catch_a_corrupted_store():
    # a target moved one unit between vertices keeps the entry count but
    # breaks |N+(0)| = d - 2 zeta + eta at vertex 0
    L = encode(PATH, PATH, PATH)
    L.target_out = (2, 1, 2, 1)
    with pytest.raises(ValueError, match=r"\|N\+\(0\)\| breaks the degree identity"):
        verify_counting_identities(L)
    # a 2-entry key laid over a label-1 bit, with the target raised to match
    # the entry count: |N+(0)| holds but the merged mask misses one entry
    cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    L = encode(cycle, cycle, cycle)
    L.two.add((0, 1))
    L.target_out = (3, 1, 1)
    with pytest.raises(ValueError, match=r"\|N\^\+\(0\)\| breaks the degree identity"):
        verify_counting_identities(L)


def _random_encoding(rng, n, directed):
    """A random encoding of its own row/column sums (see ``_random_matrix``)."""
    return Encoding(*_random_matrix(rng, n, directed))


def _random_matrix(rng, n, directed):
    """A random matrix over {-1, 0, 1, 2} (symmetric when undirected) with
    non-negative sums, and the target of its row/column sums."""
    while True:
        mat = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(n) if directed else range(u + 1, n):
                if u != v:
                    mat[u][v] = rng.choice((0, 0, 0, 1, 1, 1, 1, 2, -1))
                    if not directed:
                        mat[v][u] = mat[u][v]
        rows = [sum(row) for row in mat]
        cols = [sum(col) for col in zip(*mat)]
        if min(rows + cols) >= 0:
            target = DirectedDegreeSequence(zip(cols, rows)) if directed else DegreeSequence(rows)
            return target, mat


def _oracle_encodings(rng):
    """Every exhaustive-search output on two spaces per mode, plus random
    matrices with up to five defects and more (never valid undirected)."""
    out = []
    for Z in (
        Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
        Digraph(3, [(0, 1), (1, 2), (2, 0)]),
        Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4)]),
    ):
        out.extend(enum_good_encodings(Z, require_good=False))
    for i in range(300):
        out.append(_random_encoding(rng, rng.randint(4, 8), directed=bool(i % 2)))
    return out


def test_embedder_agrees_with_search_oracle(rng):
    from conftest import embeds_by_search

    from switchmix.encoding import _CATALOGS, _embed

    sizes = Counter()
    for L in _oracle_encodings(rng):
        defects = L._defect_edges()
        sizes[len(defects), L.directed] += 1
        for tpl in _CATALOGS[L.directed]:
            arcs = {lab: [(x, y) for x, y, t in tpl if t == lab] for lab in (2, -1)}
            got = _embed(defects, arcs, L.directed) is not None
            assert got == embeds_by_search(defects, tpl, L.directed), (L.matrix, tpl)
        want = any(embeds_by_search(defects, tpl, L.directed) for tpl in _CATALOGS[L.directed])
        assert L.is_valid() == want
        if len(defects) == 5 and not L.directed:
            assert not want
    # the corpus reaches 5-defect layouts in both modes, and beyond
    assert sizes[5, False] and sizes[5, True] and any(k > 5 for k, _ in sizes)


def _identity_outcome(check, L):
    try:
        check(L)
    except (ValueError, AssertionError) as exc:
        return type(exc)
    return None


def test_counting_identities_agree_with_two_branch_oracle(rng):
    from conftest import counting_identities_by_mode

    for L in _oracle_encodings(rng):
        assert _identity_outcome(verify_counting_identities, L) is None
        assert _identity_outcome(counting_identities_by_mode, L) is None
        # clear one label-1 entry from the bitmasks alone (both mirrored bits
        # when undirected, where ones_in is ones_out): both checks object
        ones = L.ones_pairs()
        if ones:
            broken = L.copy()
            u, w = ones[rng.randrange(len(ones))]
            broken.ones_out[u] &= ~(1 << w)
            broken.ones_in[w] &= ~(1 << u)
            got = _identity_outcome(verify_counting_identities, broken)
            assert got is not None
            assert got == _identity_outcome(counting_identities_by_mode, broken)


def test_one_store_for_both_modes(rng):
    Zu = realize(DegreeSequence([3] * 12))
    Zd = realize_directed(DirectedDegreeSequence([(2, 2)] * 12))
    Lu = make_test_encoding(Zu, rng, profile=(1, 1))
    Ld = make_test_encoding(Zd, rng, profile=(1, 1))
    assert (Lu.directed, Ld.directed) == (False, True)
    # undirected: the in-side counters equal the out-side ones, also in a
    # copy, and a defect counts at both of its ends
    for L in (Lu, Lu.copy()):
        assert L.zeta_in == L.zeta_out and L.eta_in == L.eta_out
        assert (sum(L.zeta_out), sum(L.eta_out)) == (2, 2)
    for L in (Ld, Ld.copy()):
        assert (sum(L.zeta_in), sum(L.zeta_out), sum(L.eta_in), sum(L.eta_out)) == (1, 1, 1, 1)
    assert not any(hasattr(L, name) for L in (Lu, Ld) for name in ("zeta", "eta"))
    copy = Lu.copy()
    apply_3switch(copy, find_phase_switch(copy, "P2"))
    copy.audit()
    Lu.audit()  # the copy's entries are its own
    assert (copy.defect_counts(), Lu.defect_counts()) == ((0, 1), (1, 1))
    # the mode follows from the target; a mode string is no target
    with pytest.raises(TypeError):
        Encoding("undirected", Zu.degree_sequence())
    assert isinstance(encode(Zd, Zd, Zd).as_graph(), Digraph)
    assert encode(Zd, Zd, Zd).as_graph().edges == sorted(Zd.edges)
    assert encode(Zu, Zu, Zu).as_graph() == Zu


def test_ones_index_follows_every_update(rng):
    from conftest import dense_3switch, ones_by_scan

    from switchmix.encoding import _bits

    def check(L, model):
        pairs, outs, ins = ones_by_scan(model)
        assert L.ones_pairs() == pairs
        assert [_bits(m) for m in L.ones_out] == outs
        assert [_bits(m) for m in L.ones_in] == ins
        assert (L.ones_in is L.ones_out) == (not L.directed)

    for directed in (False, True):
        for _ in range(6):
            target, model = _random_matrix(rng, rng.randint(7, 10), directed)
            L = Encoding(target, model)
            check(L, model)
            switched = 0
            for _ in range(150):
                tup = rng.sample(range(L.n), 6)
                if not dense_3switch(model, tup, +1, directed):
                    with pytest.raises(ValueError):
                        apply_3switch(L, tup)
                    continue
                apply_3switch(L, tup)
                switched += 1
                check(L, model)
                L.audit()
            assert switched >= 10
            check(L.copy(), model)
            for _ in range(60):
                u, v = rng.sample(range(L.n), 2)
                val = rng.choice((-1, 0, 1, 2))
                L._set(u, v, val)
                model[u][v] = val
                if not directed:
                    model[v][u] = val
                check(L, model)
            # a bitmask corrupted behind the store's back fails the audit
            L = _random_encoding(rng, 8, directed)
            for side in ("ones_out", "ones_in"):
                broken = L.copy()
                u, v = rng.sample(range(L.n), 2)
                getattr(broken, side)[u] ^= 1 << v
                with pytest.raises(AssertionError):
                    broken.audit()


@pytest.mark.parametrize("directed", [False, True])
def test_store_moves_in_lockstep_with_a_dense_model(directed, rng, tmp_path):
    from conftest import (
        counting_identities_by_mode,
        dense_3switch,
        dense_defect_counts,
        dense_line_counts,
        dense_of,
    )

    if directed:
        Z = realize_directed(DirectedDegreeSequence([(3, 3)] * 10))
    else:
        Z = realize(DegreeSequence([3] * 10))
    L = encode(Z, Z, Z)
    model = dense_of(Z)
    csv_path = tmp_path / "enc.csv"
    refused = 0
    most = [0, 0]
    for _ in range(200):
        # draw until the model finds a legal switch (or reverse); the store
        # must refuse every draw the model refuses, and stay as it was
        while True:
            tup = tuple(rng.sample(range(Z.n), 6))
            sign = rng.choice((1, -1))
            if dense_3switch(model, tup, sign, directed):
                break
            with pytest.raises(ValueError):
                _shift(L, tup, sign)
            refused += 1
        _shift(L, tup, sign)
        assert L.matrix == model
        assert L.defect_counts() == dense_defect_counts(model, directed)
        assert (L.zeta_out, L.zeta_in) == dense_line_counts(model, 2)
        assert (L.eta_out, L.eta_in) == dense_line_counts(model, -1)
        most = [max(pair) for pair in zip(most, L.defect_counts())]
        verify_counting_identities(L)
        counting_identities_by_mode(L, model)
        assert Encoding(L.target, L.matrix) == L
        save_encoding(L, csv_path)
        loaded = load_encoding(csv_path)
        assert loaded == L and loaded.matrix == model
    assert refused >= 100 and min(most) >= 3


def test_phase_switch_is_the_least_match_in_a_dense_scan(rng):
    from switchmix.encoding import _phase_admits

    # labels each phase pins at (a1, b1) and (a2, b1)
    pins = {"P1": (2, -1), "P2": (2, 0), "P3": (1, -1), "A": (2, 0), "B": (1, -1)}

    def least_by_scan(mat, first, second):
        n = len(mat)
        for a1, b1, a2, b2 in product(range(n), repeat=4):
            if len({a1, b1, a2, b2}) != 4 or (mat[a1][b1], mat[a2][b1], mat[a2][b2]) != (first, second, 1):
                continue
            for a3, b3 in product(range(n), repeat=2):
                if len({a1, b1, a2, b2, a3, b3}) == 6 and (mat[a3][b3], mat[a3][b2], mat[a1][b3]) == (1, 0, 0):
                    return (a1, b1, a2, b2, a3, b3)
        return None

    found = 0
    for _ in range(150):
        directed = rng.random() < 0.5
        L = _random_encoding(rng, rng.randint(6, 9), directed)
        mat = L.matrix
        for phase in ("A", "B") if directed else ("P1", "P2", "P3"):
            want = least_by_scan(mat, *pins[phase]) if _phase_admits(L, phase) else None
            assert find_phase_switch(L, phase) == want
            found += want is not None
    assert found > 50


def test_copy_holds_no_dense_matrix():
    import tracemalloc

    Z = realize_directed(DirectedDegreeSequence([(4, 4)] * 130))
    L = make_test_encoding(Z, random.Random(5), profile=(2, 3))
    assert not {"matrix", "zeta_in", "zeta_out", "eta_in", "eta_out"} & set(Encoding.__slots__)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[1]
        copy = L.copy()
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # a dense 130 x 130 matrix alone would take about 150 KB, and four
    # per-vertex counter lists about 4.4 KB
    assert copy == L and allocated < 4 * 1024
    first, second = L.matrix, L.matrix
    assert first == second and first is not second
    assert not any(a is b for a, b in zip(first, second))
    # the counters are fresh lists: writing into one changes nothing
    counters = L.zeta_in, L.zeta_out, L.eta_in, L.eta_out
    zeta_out = L.zeta_out
    zeta_out[0] += 7
    assert L == copy and L.zeta_out != zeta_out
    assert (L.zeta_in, L.zeta_out, L.eta_in, L.eta_out) == counters
    verify_counting_identities(L)


@pytest.mark.parametrize("directed", [False, True])
def test_a_state_of_other_degrees_is_never_consistent(directed):
    # dropping one edge that carries no (-1)-entry keeps L + Z inside
    # {0, 1, 2}, but that Z realizes another degree sequence
    if directed:
        Z = realize_directed(DirectedDegreeSequence([(2, 2)] * 12))
        L = make_test_encoding(Z, random.Random(5), profile=(2, 1))
    else:
        Z = realize(DegreeSequence([3] * 12))
        L = make_test_encoding(Z, random.Random(5), profile=(1, 1))
    assert (0, 1) in Z.edges and (0, 1) not in L.minus
    assert L.is_consistent_with(Z)
    assert not L.is_consistent_with(type(Z)(Z.n, [e for e in Z.edges if e != (0, 1)]))


@pytest.mark.parametrize("directed", [False, True])
def test_encode_and_consistency_agree_with_a_dense_model(directed, rng):
    from conftest import dense_of

    from switchmix import chain

    if directed:
        start = realize_directed(DirectedDegreeSequence([(2, 2)] * 9))
        other = realize_directed(DirectedDegreeSequence([(2, 2)] * 10))
    else:
        start = realize(DegreeSequence([3] * 10))
        other = realize(DegreeSequence([3] * 12))
    n = start.n

    def scrambled(g=start, steps=30):
        g = g.copy()
        chain.advance(g, rng, steps)
        return g

    seen = Counter()
    for _ in range(60):
        G, Gp, Z = scrambled(), scrambled(), scrambled()
        L = encode(G, Gp, Z)
        a, b, c = dense_of(G), dense_of(Gp), dense_of(Z)
        model = [[a[u][v] + b[u][v] - c[u][v] for v in range(n)] for u in range(n)]
        assert L.matrix == model
        L.audit()
        # Z itself, states one step off Z, and far ones
        for W in (Z, scrambled(Z, 1), scrambled(Z, 1), G, scrambled()):
            w = dense_of(W)
            want = all(0 <= model[u][v] + w[u][v] <= 2 for u in range(n) for v in range(n))
            assert L.is_consistent_with(W) == want
            seen[want] += 1
        assert not L.is_consistent_with(other)
    assert seen[True] >= 100 and seen[False] >= 100


def test_indexed_embedder_returns_the_linear_scan_layout(rng):
    from conftest import embed_by_linear_scan

    from switchmix.encoding import _CATALOGS, _embed

    found = 0
    for directed in (False, True):
        for _ in range(400):
            template = rng.choice(_CATALOGS[directed])
            sub = [arc for arc in template if rng.random() < 0.7] or list(template)
            n = rng.randint(5, 9)
            pools = {
                lab: [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12))]
                for lab in (2, -1)
            }
            assert _embed(sub, pools, directed) == embed_by_linear_scan(sub, pools, directed)
            modulus = rng.randint(2, 4)
            for accept in (None, lambda layout: sum(u * v for _, (u, v) in layout) % modulus):
                seen = {}
                for name, embed in (("indexed", _embed), ("scan", embed_by_linear_scan)):
                    calls = seen[name] = []

                    def recorded(layout, accept=accept, calls=calls):
                        calls.append(list(layout))
                        return accept is None or accept(layout)

                    seen[name].append(embed(sub, pools, directed, recorded))
                # same complete maps offered in the same order, same answer
                assert seen["indexed"] == seen["scan"]
                found += seen["scan"][-1] is not None
    assert found > 100


def test_load_matrix_errors_keep_their_wording():
    target = DegreeSequence([1, 1, 0])
    cases = [
        ([[0, 1, 0], [1, 0, 0]], "matrix shape does not match the degree sequence"),
        ([[0, 1, 3], [1, 0, 0], [0, 0, 0]], r"entry 3 at \(0,2\) out of range"),
        ([[0, 1, 0], [1, 5, -2], [0, 0, 0]], "nonzero diagonal"),
        ([[0, 1, 0], [1, 0, -2], [0, 0, 0]], r"entry -2 at \(1,2\) out of range"),
        ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], "matrix not symmetric"),
        ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], "row sums do not match the target degrees"),
    ]
    for matrix, message in cases:
        with pytest.raises(ValueError, match=message):
            Encoding(target, matrix)
    with pytest.raises(ValueError, match="column sums do not match the target in-degrees"):
        Encoding(DirectedDegreeSequence([(0, 1), (1, 0), (0, 0)]), [[0, 0, 1], [0, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize(
    "pairs, n, profile",
    [
        ((3, 3), 16, (3, 0)),
        ((2, 2), 14, (3, 0)),
        ((2, 2), 14, (3, 1)),
        ((2, 2), 14, (3, 2)),
        (2, 14, (2, 1)),
        (2, 14, (2, 2)),
        ((1, 1), 10, (0, 3)),
        ((1, 1), 10, (1, 3)),
    ],
)
def test_unplaceable_profile_fails_before_any_draw(pairs, n, profile):
    # ``pairs`` is each vertex's (in, out) pair, or its degree when undirected.
    # A third directed 2-defect puts two 2-arcs on one side of a catalog
    # centre, which asks for degree 4 there (3 next to the centre's
    # (-1)-arc); every catalog layout of these undirected profiles puts a
    # vertex on a 2-defect and a (-1)-defect, or on two 2-defects, which a
    # good encoding allows only at degree >= 3; three (-1)-arcs need a
    # vertex with two of them on one side, which semi-degree 1 cannot hold
    if isinstance(pairs, tuple):
        Z = realize_directed(DirectedDegreeSequence([pairs] * n))
    else:
        Z = realize(DegreeSequence([pairs] * n))
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="not achievable"):
        make_test_encoding(Z, rng, profile=profile)
    assert rng.getstate() == state


def test_placement_matching_agrees_with_brute_force(rng):
    from switchmix.encoding import _fits

    for _ in range(400):
        degrees = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 6))]
        needs = [(rng.randint(-1, 4), rng.randint(-1, 4)) for _ in range(rng.randint(1, 5))]
        want = any(
            all(d[0] >= i and d[1] >= o for d, (i, o) in zip(pick, needs))
            for pick in permutations(degrees, len(needs))
        )
        assert _fits(needs, Counter(degrees)) == want


def _small_undirected_sequences(count):
    """The first ``count`` graphical sequences of n = 8 or 9 degrees in 1..5."""
    meta = random.Random(0)
    out = []
    while len(out) < count:
        d = DegreeSequence([meta.randint(1, 5) for _ in range(meta.choice((8, 9)))])
        if d.is_graphical():
            out.append(d)
    return out


@pytest.mark.parametrize(
    "tries, profiles, count, outcomes, digest",
    [
        # injections that run out of orientations, calls that run out of restarts
        (None, (None, (0, 3), (1, 3)), 8, {"built": 15, "RuntimeError": 9},
         "84b1dd16d3010a0857be6a0834ff4c6758b26469475f73f1f17a46026059b71f"),
        # one dead-end completion ends an injection's search
        (1, (None, (1, 0), (0, 1), (1, 1)), 2, {"built": 8},
         "b360a72b3fab35acc223d953ca11bff764ee780e900b70a154f2493e60070c71"),
    ],
    ids=["dead-ends", "budget"],
)
def test_generator_paths_no_golden_reaches(monkeypatch, tries, profiles, count, outcomes, digest):
    # small undirected sequences reach the generator's dead ends, which the
    # goldens' corpora do not; the digest covers each call's matrix or
    # exception text and the next draw of its rng
    import switchmix.encoding as encoding

    if tries is not None:
        monkeypatch.setattr(encoding, "_INJECT_TRIES", tries)
    h = hashlib.sha256()
    seen = Counter()
    for seed, d in enumerate(_small_undirected_sequences(count)):
        Z = realize(d)
        for profile in profiles:
            rng = random.Random(seed)
            try:
                out = make_test_encoding(Z, rng, profile=profile).matrix
                seen["built"] += 1
            except RuntimeError as exc:
                out = f"RuntimeError: {exc}"
                seen["RuntimeError"] += 1
            h.update(repr((out, rng.random())).encode())
    assert (dict(seen), h.hexdigest()) == (outcomes, digest)
