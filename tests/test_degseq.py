import itertools
import random

import pytest

from switchmix import DegreeSequence, DirectedDegreeSequence
from switchmix.degseq import load_degrees, parse_degrees, read_degree_file

from conftest import (
    digraphical_by_search,
    erdos_gallai_quadratic,
    fulkerson_quadratic,
    graphical_by_search,
    random_digraph_sequence,
    random_graphical_sequence,
)


def _stats(d):
    return d.M, d.M2, d.a, d.d_min, d.d_max


def test_stats_examples():
    assert _stats(DegreeSequence([3, 3, 3, 3])) == (12, 24, 3, 3, 3)
    assert DegreeSequence([2, 2, 2]).a == 0
    assert _stats(DegreeSequence([0, 0])) == (0, 0, 0, 0, 0)


def test_stats_odd_sum_a_undefined():
    assert DegreeSequence([1, 1, 1]).a is None


def test_degree_sequence_validation():
    with pytest.raises(ValueError):
        DegreeSequence([])
    with pytest.raises(ValueError):
        DegreeSequence([1, -1])
    with pytest.raises(ValueError, match="empty directed degree sequence"):
        DirectedDegreeSequence([])
    with pytest.raises(ValueError, match="non-negative"):
        DirectedDegreeSequence([(1, 0), (-1, 0)])


@pytest.mark.parametrize("bad", [[2.7, 1.2, 1], [2.0, 2], ["3", 1]])
def test_a_non_integral_degree_is_refused_not_truncated(bad):
    with pytest.raises(ValueError, match=f"degree {bad[0]!r} is not an integer"):
        DegreeSequence(bad)
    with pytest.raises(ValueError, match=f"degree {bad[0]!r} is not an integer"):
        DirectedDegreeSequence([(bad[0], 1)] + [(d, d) for d in bad[1:]])
    with pytest.raises(ValueError, match=f"degree {bad[0]!r} is not an integer"):
        DirectedDegreeSequence([(1, bad[0])])


def test_ints_and_bools_pass_as_under_operator_index():
    assert DegreeSequence([True, 1, False]).degrees == (1, 1, 0)
    assert DirectedDegreeSequence([(True, 0), (0, True)]).pairs == ((1, 0), (0, 1))
    assert all(type(d) is int for d in DegreeSequence([True, 1]).degrees)


def test_both_modes_carry_in_and_out_columns():
    d = DegreeSequence([3, 2, 1])
    assert d.ins is d.outs
    assert d.ins == d.degrees == (3, 2, 1)
    dd = DirectedDegreeSequence([(2, 0), (0, 1), (1, 2)])
    assert (dd.ins, dd.outs) == ((2, 0, 1), (0, 1, 2))
    assert dd.pairs == tuple(zip(dd.ins, dd.outs))


def test_repr_eq_and_hash_by_class_and_items():
    d, dd = DegreeSequence([1, 1]), DirectedDegreeSequence([(1, 0), (0, 1)])
    assert repr(d) == "DegreeSequence([1, 1])"
    assert repr(dd) == "DirectedDegreeSequence([(1, 0), (0, 1)])"
    assert hash(d) == hash(("DegreeSequence", (1, 1)))
    assert hash(dd) == hash(("DirectedDegreeSequence", ((1, 0), (0, 1))))
    assert d == DegreeSequence((1, 1)) and dd == DirectedDegreeSequence([[1, 0], [0, 1]])
    assert d != DirectedDegreeSequence([(1, 1), (1, 1)]) and d != (1, 1)


def test_hypotheses_examples():
    assert not DegreeSequence([3, 3, 1, 1]).hypotheses()["graphical"]
    assert DegreeSequence([2, 2, 1, 1]).hypotheses()["graphical"]
    # 9 * 3^2 = 81 > 12
    assert not DegreeSequence([3, 3, 3, 3]).hypotheses()["applicable"]
    assert DegreeSequence([3] * 28).hypotheses()["applicable"]


def test_stable_flag():
    d = DegreeSequence([3, 3, 3, 3])
    # (3-3+1)^2 = 1 <= 4*3*(4-3+1) = 24
    assert d.stable
    assert not DegreeSequence([5, 1, 1, 1, 1, 1]).stable


def test_graphical_matches_search_up_to_n7():
    for n in range(1, 8):
        for combo in itertools.combinations_with_replacement(range(n), n):
            d = DegreeSequence(combo)
            assert d.is_graphical() == graphical_by_search(combo), combo


def test_graphical_matches_search_n8_sample(rng):
    combos = list(itertools.combinations_with_replacement(range(8), 8))
    rng.shuffle(combos)
    for combo in combos[:800]:
        assert DegreeSequence(combo).is_graphical() == graphical_by_search(combo), combo


def test_directed_hypotheses_examples():
    dd = DirectedDegreeSequence([(1, 1), (1, 1), (1, 1)])
    flags = dd.hypotheses()
    assert flags["digraphical"] and not flags["r_max_ok"] and not flags["applicable"]

    dd2 = DirectedDegreeSequence([(2, 0), (0, 2), (1, 1)])
    assert dd2.sum_in == dd2.sum_out == 3
    assert dd2.hypotheses()["digraphical"]

    with pytest.raises(ValueError):
        DirectedDegreeSequence([(1, 0), (0, 0)]).hypotheses()


# (sequence, the one hypothesis it fails or None): each boundary of the
# theorems' hypotheses, met exactly and then missed by the least step
BOUNDARIES = {
    "density_met": (DegreeSequence([4] * 36), None),  # 9 d_max^2 = 144 = M
    "density_missed": (DegreeSequence([4] * 35 + [2]), "density_ok"),  # M = 142
    "d_max_3": (DegreeSequence([3, 3] + [2] * 40), None),
    "d_max_2": (DegreeSequence([2] * 43), "d_max_ok"),
    "d_min_1": (DegreeSequence([1, 1] + [3] * 28), None),
    "d_min_0": (DegreeSequence([0, 0] + [3] * 28), "d_min_ok"),
    "r_density_met": (DirectedDegreeSequence([(2, 2)] * 32), None),  # 16 r_max^2 = 64 = m
    "r_density_missed": (DirectedDegreeSequence([(2, 2)] * 31 + [(1, 1)]), "density_ok"),  # m = 63
    "r_max_2": (DirectedDegreeSequence([(2, 2)] + [(1, 1)] * 63), None),
    "r_max_1": (DirectedDegreeSequence([(1, 1)] * 65), "r_max_ok"),
    "r_min_1": (DirectedDegreeSequence([(2, 2)] * 32 + [(1, 1)]), None),
    "r_min_0": (DirectedDegreeSequence([(2, 2)] * 32 + [(1, 0), (0, 1)]), "r_min_ok"),
}


@pytest.mark.parametrize("case", BOUNDARIES)
def test_hypotheses_at_their_exact_boundaries(case):
    seq, fails = BOUNDARIES[case]
    failed = [name for name, ok in seq.hypotheses().items() if not ok]
    assert failed == ([] if fails is None else [fails, "applicable"])


def test_digraphical_matches_search_n4():
    for n in range(1, 5):
        vals = list(itertools.product(range(n), range(n)))
        for combo in itertools.combinations_with_replacement(vals, n):
            dd = DirectedDegreeSequence(combo)
            assert dd.is_digraphical() == digraphical_by_search(combo), combo


def test_digraphical_matches_search_n5_sample(rng):
    vals = list(itertools.product(range(5), range(5)))
    combos = list(itertools.combinations_with_replacement(vals, 5))
    rng.shuffle(combos)
    checked = 0
    for combo in combos:
        dd = DirectedDegreeSequence(combo)
        if dd.sum_in != dd.sum_out:
            continue
        assert dd.is_digraphical() == digraphical_by_search(combo), combo
        checked += 1
        if checked >= 400:
            break
    assert checked == 400


def test_semi_degree_stats():
    dd = DirectedDegreeSequence([(2, 0), (0, 2), (1, 1)])
    assert dd.r_min == 0 and dd.r_max == 2
    assert dd.m == 3


def test_parsing(tmp_path):
    assert parse_degrees("1,2, 2,1").degrees == (1, 2, 2, 1)
    assert parse_degrees("1:1,2:0", directed=True).pairs == ((1, 1), (2, 0))

    f = tmp_path / "d.txt"
    f.write_text("3\n3\n3\n3\n")
    assert read_degree_file(f).degrees == (3, 3, 3, 3)

    fd = tmp_path / "dd.txt"
    fd.write_text("1 1\n1 1\n1 1\n")
    assert read_degree_file(fd, directed=True).pairs == ((1, 1), (1, 1), (1, 1))

    assert load_degrees(str(f)).degrees == (3, 3, 3, 3)
    assert load_degrees("2,2,2").degrees == (2, 2, 2)

    # blank lines are skipped; a file of nothing else holds no degrees
    f.write_text("1\n\n  \n1\n")
    assert read_degree_file(f).degrees == (1, 1)
    f.write_text("\n\n")
    with pytest.raises(ValueError, match="no degrees in"):
        read_degree_file(f)


@pytest.mark.parametrize("directed", [False, True])
def test_sequences_carry_their_mode(directed, tmp_path):
    from switchmix import Digraph, Encoding, Graph

    spec, line = ("1:1,1:1", "1 1\n") if directed else ("1,1", "1\n")
    f = tmp_path / "d.txt"
    f.write_text(line * 2)
    store = Digraph(2, [(0, 1), (1, 0)]) if directed else Graph(2, [(0, 1)])
    seqs = [
        parse_degrees(spec, directed=directed),
        read_degree_file(f, directed=directed),
        load_degrees(spec, directed=directed),
        load_degrees(str(f), directed=directed),
        store.degree_sequence(),
    ]
    assert len(set(seqs)) == 1
    assert all(seq.directed is directed for seq in seqs)
    assert Encoding(seqs[0]).directed is directed
    with pytest.raises(AttributeError):
        seqs[0].directed = not directed


def test_a_degree_file_is_read_line_by_line(tmp_path):
    import tracemalloc

    f = tmp_path / "big.txt"
    f.write_text("10\n" * 100_000)
    tracemalloc.start()
    try:
        degrees = read_degree_file(f).degrees
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degrees == (10,) * 100_000
    # one int per line, not every line's split() list held until the end (22 MB)
    assert peak < 5_000_000
    # each line is checked as it is read, so the first bad line decides the message
    f.write_text("3\nx\n3 3\n")
    with pytest.raises(ValueError, match="invalid literal"):
        read_degree_file(f)
    f.write_text("3\n3 3\nx\n")
    with pytest.raises(ValueError, match="expected one integer per line, got '3 3'"):
        read_degree_file(f)


def test_hypotheses_are_the_flags_validate_and_bound_read(capsys):
    import json

    from switchmix.cli import main

    cases = [
        DegreeSequence([3] * 28),  # applicable
        DegreeSequence([3, 3, 3, 3]),  # 9 * 3^2 = 81 > 12
        DegreeSequence([3, 3, 1, 1]),  # not graphical
        DegreeSequence([2] * 40),  # d_max < 3
        DirectedDegreeSequence([(2, 2)] * 64),  # 16 * 2^2 = 64 <= m = 128
        DirectedDegreeSequence([(1, 1)] * 3),  # r_max < 2
        DirectedDegreeSequence([(3, 0), (0, 3)]),  # r_min = 0 and not digraphical
    ]
    for seq in cases:
        flags = seq.hypotheses()
        assert flags["applicable"] == all(v for k, v in flags.items() if k != "applicable")
        if seq.directed:
            spec = ["--directed", "--degrees", ",".join(f"{a}:{b}" for a, b in seq.pairs)]
        else:
            spec = ["--degrees", ",".join(map(str, seq.degrees))]
        main(["validate", *spec])
        doc = json.loads(capsys.readouterr().out)
        validated = doc.get("result") or doc["error"]
        assert main(["bound", *spec]) == 0
        applicability = json.loads(capsys.readouterr().out)["result"]["applicability"]
        if seq.directed:
            assert set(flags) == {"digraphical", "r_min_ok", "r_max_ok", "density_ok", "applicable"}
            assert validated["digraphical"] == flags["digraphical"]
            assert (validated["digraphical"] and validated["theorem2_degree_ok"]) == flags["applicable"]
            assert applicability.pop("note").startswith("switch-irreducibility")
        else:
            assert set(flags) == {"graphical", "d_min_ok", "d_max_ok", "density_ok", "applicable"}
            assert validated["graphical"] == flags["graphical"]
            assert validated["theorem1_applicable"] == flags["applicable"]
            assert validated["stable"] == seq.stable
        assert applicability == flags
    assert DegreeSequence([3] * 28).hypotheses()["applicable"]
    assert DirectedDegreeSequence([(2, 2)] * 64).hypotheses()["applicable"]
    with pytest.raises(ValueError):
        DirectedDegreeSequence([(1, 0), (0, 0)]).hypotheses()


def _eg_violations(degrees):
    """The k at which the quadratic Erdos-Gallai inequality fails."""
    d = sorted(degrees, reverse=True)
    n = len(d)
    return [
        k
        for k in range(1, n + 1)
        if sum(d[:k]) > k * (k - 1) + sum(min(k, x) for x in d[k:])
    ]


def _fulkerson_violations(pairs):
    """The k at which the quadratic Fulkerson inequality fails."""
    ps = sorted(pairs, key=lambda p: (p[1], p[0]), reverse=True)
    n = len(ps)
    return [
        k
        for k in range(1, n + 1)
        if sum(b for _, b in ps[:k])
        > sum(min(a, k - 1) for a, _ in ps[:k]) + sum(min(a, k) for a, _ in ps[k:])
    ]


def _moved_unit(rng, degrees):
    """The same degrees with one unit moved to a random vertex or to a largest one."""
    d = list(degrees)
    src = rng.choice([v for v in range(len(d)) if d[v]])
    d[src] -= 1
    d[rng.choice((rng.randrange(len(d)), d.index(max(d))))] += 1
    return d


def test_graphical_matches_quadratic_oracle_random():
    rng = random.Random(41)
    sizes = [rng.randint(1, 40) for _ in range(400)] + [rng.randint(100, 300) for _ in range(12)]
    outcomes = {True: 0, False: 0}
    for n in sizes:
        d = list(random_graphical_sequence(rng, n, rng.uniform(0.02, 0.98)).degrees)
        for _ in range(rng.randint(0, 3)):
            if any(d):
                d = _moved_unit(rng, d)
        if rng.random() < 0.2:
            d[rng.randrange(n)] += 2 * rng.randint(1, n)
        expected = erdos_gallai_quadratic(d)
        assert DegreeSequence(d).is_graphical() == expected, d
        outcomes[expected] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_digraphical_matches_quadratic_oracle_random():
    rng = random.Random(43)
    sizes = [rng.randint(1, 40) for _ in range(400)] + [rng.randint(100, 300) for _ in range(12)]
    outcomes = {True: 0, False: 0}
    for n in sizes:
        pairs = [list(p) for p in random_digraph_sequence(rng, n, rng.uniform(0.02, 0.98)).pairs]
        for _ in range(rng.randint(0, 3)):
            side = rng.randrange(2)
            if any(p[side] for p in pairs):
                for p, x in zip(pairs, _moved_unit(rng, [p[side] for p in pairs])):
                    p[side] = x
        if rng.random() < 0.2:
            v, extra = rng.randrange(n), rng.randint(1, n + 2)
            pairs[v][0] += extra
            pairs[rng.randrange(n)][1] += extra
        expected = fulkerson_quadratic(pairs)
        assert DirectedDegreeSequence(pairs).is_digraphical() == expected, pairs
        outcomes[expected] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_graphical_single_violation_boundary():
    # graphical sequences with one unit of degree moved so that exactly one k fails
    rng = random.Random(47)
    found = 0
    for _ in range(3000):
        n = rng.randint(3, 14)
        d = list(random_graphical_sequence(rng, n, rng.uniform(0.1, 0.9)).degrees)
        if not any(d):
            continue
        moved = _moved_unit(rng, d)
        if len(_eg_violations(moved)) == 1:
            found += 1
            assert not DegreeSequence(moved).is_graphical(), moved
            assert not erdos_gallai_quadratic(moved)
    assert found > 50


def test_digraphical_single_violation_boundary():
    # digraphical sequences with one out-unit moved so that exactly one k fails
    rng = random.Random(61)
    found = 0
    for _ in range(3000):
        n = rng.randint(3, 12)
        pairs = [list(p) for p in random_digraph_sequence(rng, n, rng.uniform(0.1, 0.9)).pairs]
        if not any(b for _, b in pairs):
            continue
        for p, b in zip(pairs, _moved_unit(rng, [b for _, b in pairs])):
            p[1] = b
        if len(_fulkerson_violations(pairs)) == 1:
            found += 1
            assert not DirectedDegreeSequence(pairs).is_digraphical(), pairs
            assert not fulkerson_quadratic(pairs)
    assert found > 50


def test_degree_layer_edge_cases():
    for degrees, expected in [
        ([0], True),
        ([1], False),
        ([2], False),
        ([0] * 6, True),
        ([0, 0, 1, 1], True),
        ([0, 0, 2, 0], False),
        ([3, 3, 3, 3], True),
        ([4, 1, 1, 1, 1], True),
        ([5, 1, 1, 1, 1, 1, 0], True),
        ([6, 2, 1, 1, 1, 1], False),  # degree >= n
        ([10**14 + 1, 1], False),
        ([10**14, 10**14], False),
    ]:
        assert DegreeSequence(degrees).is_graphical() is expected, degrees
        assert erdos_gallai_quadratic(degrees) is expected, degrees
    for pairs, expected in [
        ([(0, 0)], True),
        ([(1, 1)], False),
        ([(0, 0)] * 5, True),
        ([(0, 1), (1, 0), (0, 0)], True),
        ([(2, 2)] * 3, True),
        ([(3, 3)] * 3, False),  # semi-degree >= n
        ([(10**14, 1), (1, 10**14)], False),
        ([(10**14, 10**14), (10**14, 10**14)], False),
    ]:
        assert DirectedDegreeSequence(pairs).is_digraphical() is expected, pairs
        assert fulkerson_quadratic(pairs) is expected, pairs
