"""Self-check of the benchmark's own oracles and bookkeeping.

    python3 bench/selfcheck.py

Checks that the brute-force enumerators reproduce the known labelled
counts, that the edge-list parser rejects loops, repeated edges and wrong
degrees, that the degree tests agree with brute force on small sequences,
that the span arithmetic gives the right self times, and that the metric
names in BENCHMARK.json match what run.py prints.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def _rejects(text, directed, degrees=None):
    try:
        n, pairs = oracles.parse_edge_list(text, directed)
        if degrees is not None:
            oracles.check_degrees(n, pairs, degrees, directed)
    except ValueError:
        return True
    return False


@check
def known_counts():
    # labelled 2-regular graphs (OEIS A001205) and 3-regular graphs on 6 vertices
    for degrees, count in (([2] * 6, 70), ([3] * 6, 70), ([2] * 7, 465), ([2] * 8, 3507)):
        got = len(oracles.enumerate_graphs(degrees))
        assert got == count, (degrees, got, count)
    # 1-in 1-out digraphs are derangements: 2, 9, 44, 265
    for n, count in ((3, 2), (4, 9), (5, 44), (6, 265)):
        assert len(oracles.enumerate_digraphs([(1, 1)] * n)) == count, n


@check
def parser_rejects_bad_files():
    good = "n 4\n0 1\n1 2\n2 3\n"
    assert not _rejects(good, False, [1, 2, 2, 1])
    assert _rejects("n 4\n0 1\n1 1\n", False), "loop"
    assert _rejects("n 4\n0 1\n1 0\n", False), "undirected duplicate written backwards"
    assert _rejects("n 4\n0 1\n0 1\n", True), "directed duplicate"
    assert not _rejects("n 4\n0 1\n1 0\n", True, [(1, 1), (1, 1), (0, 0), (0, 0)]), "antiparallel arcs are simple"
    assert _rejects("n 4\n0 4\n", False), "vertex out of range"
    assert _rejects("0 1\n", False), "missing header"
    assert _rejects(good, False, [1, 2, 1, 2]), "wrong degrees"
    assert _rejects(good, False, [1, 2, 2]), "wrong vertex count"
    assert _rejects("n 3\n0 1\n1 2\n", True, [(0, 1), (1, 1), (0, 1)]), "wrong in/out degrees"


@check
def degree_tests_match_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        degrees = [rng.randint(0, n - 1) for _ in range(n)]
        assert oracles.graphical(degrees) == bool(oracles.enumerate_graphs(degrees)), degrees
    for _ in range(150):
        n = rng.randint(1, 4)
        pairs = [(rng.randint(0, n - 1), rng.randint(0, n - 1)) for _ in range(n)]
        assert oracles.digraphical(pairs) == bool(oracles.enumerate_digraphs(pairs)), pairs


@check
def switch_relation_is_symmetric_and_exact():
    for degrees, directed in (([1, 1, 2, 2, 3, 3], False), ([(1, 1)] * 4 + [(2, 2)], True)):
        space = oracles.Space(degrees, directed)
        edges = {(i, j) for i, nb in enumerate(space.neighbours) for j in nb}
        assert all((j, i) in edges for i, j in edges), "switch relation not symmetric"
        assert all(len(nb) == len(set(nb)) for nb in space.neighbours), "a neighbour reached twice"
        # each move changes exactly two edges
        for i, nb in enumerate(space.neighbours):
            for j in nb:
                assert len(set(space.states[i]) - set(space.states[j])) == 2
    path = oracles.Space([1, 2, 2, 1], False)
    assert path.size == 2 and path.tv_one_step_exact() == [Fraction(1, 6)] * 2
    for t in range(6):
        assert abs(path.tv_from_all_starts(t)[0] - 0.5 * 3.0**-t) < 1e-15
    assert abs(path.spectral_gap() - 2 / 3) < 1e-15


@check
def one_step_tv_agrees_with_eigh():
    space = oracles.Space([2] * 6, False)
    exact = [float(x) for x in space.tv_one_step_exact()]
    approx = space.tv_from_all_starts(1)
    assert max(abs(a - b) for a, b in zip(exact, approx)) < 1e-12


@check
def self_time_arithmetic():
    rec = tracing.Recorder()

    def leaf():
        time.sleep(0.01)

    traced_leaf = rec.wrap("graph.leaf", leaf)

    def outer():
        time.sleep(0.02)
        traced_leaf()
        traced_leaf()

    rec.wrap("chain.outer", outer)()
    with tempfile.TemporaryDirectory() as tmp:
        rec.dump(Path(tmp) / "t", {"startup_s": 0.5})
        s = tracing.summarize([Path(tmp) / "t"])
    assert s["calls"] == {"chain.outer": 1, "graph.leaf": 2}, s["calls"]
    assert 0.02 <= s["self"]["chain"] < 0.03 and 0.02 <= s["self"]["graph"] < 0.03, s["self"]
    assert abs(s["total"]["chain.outer"] - s["self"]["chain"] - s["total"]["graph.leaf"]) < 1e-9
    assert s["startup_s"] == 0.5


@check
def benchmark_json_matches_run():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


@check
def chi_square_score():
    assert oracles.chi_square_z([100] * 70, 100) < 0
    skewed = [150] * 35 + [50] * 35
    assert oracles.chi_square_z(skewed, 100) > 5


def main():
    for fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            print(f"selfcheck FAILED: {fn.__name__}: {exc}")
            return 1
        print(f"ok  {fn.__name__}")
    print(f"selfcheck: {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
