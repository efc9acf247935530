"""Pinned encoding outputs: generated matrices, repair logs, choice counts,
catalog flags, exhaustive enumerations and ``repair-encoding`` documents.

Every number here comes from seeded generators, so the whole file must be
reproduced byte for byte.  It was generated before the undirected and
directed encoding code paths were merged into one; regenerate it
(``PYTHONPATH=src python tests/test_encoding_golden.py``) only for a change
that is meant to alter encodings, and say so.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import tempfile

from switchmix import (
    DegreeSequence,
    DirectedDegreeSequence,
    Digraph,
    Graph,
    RepairStuckError,
    choice_count_and_bound,
    encode,
    enum_good_encodings,
    make_test_encoding,
    realize,
    realize_directed,
    repair,
    save_encoding,
    verify_counting_identities,
)
from switchmix.cli import main
from switchmix.graph import write_edge_list

from conftest import render_golden

GOLDEN = pathlib.Path(__file__).parent / "golden" / "encodings.json"

SYMBOL = {-1: "-", 0: "0", 1: "1", 2: "2"}

PATH = Graph(4, [(0, 1), (1, 2), (2, 3)])
ALT = Graph(4, [(0, 2), (1, 2), (1, 3)])
SPACE5 = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])


def _starts():
    return {
        "u3x20": realize(DegreeSequence([3] * 20)),
        "u_mixed": realize(DegreeSequence([3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 3, 3, 2, 2, 3, 1])),
        "d22x14": realize_directed(DirectedDegreeSequence([(2, 2)] * 14)),
        "d44x24": realize_directed(DirectedDegreeSequence([(4, 4)] * 24)),
        "d_mixed": realize_directed(
            DirectedDegreeSequence([(3, 3), (3, 2), (2, 3), (1, 2), (2, 1), (3, 3), (2, 2)] * 3)
        ),
    }


def _generation_cases():
    """(start name, profile, level, seed): explicit and free profiles, every level."""
    out = []
    seed = 0
    undirected_profiles = [(p, q) for p in range(3) for q in range(4) if p + q <= 3] + [(1, 3), (2, 2)]
    directed_profiles = [(p, q) for p in range(4) for q in range(4) if p + q <= 5 and (p, q) != (3, 3)]
    for name, profiles in (("u3x20", undirected_profiles), ("d44x24", directed_profiles)):
        for profile in profiles:
            seed += 1
            out.append((name, profile, "good", seed))
    for name in ("u3x20", "u_mixed"):
        for profile in ((1, 1), (2, 1), (0, 3)):
            for level in ("valid", None):
                seed += 1
                out.append((name, profile, level, seed))
    for name in ("d22x14", "d_mixed"):
        for profile in ((1, 2), (2, 2), (2, 1)):
            for level in ("valid", None):
                seed += 1
                out.append((name, profile, level, seed))
    for name in ("u3x20", "u_mixed", "d22x14", "d_mixed"):
        for level in ("good", "valid", None):
            for _ in range(3):
                seed += 1
                out.append((name, None, level, seed))
    return out


def _anchors(L, rng):
    """(a1, b1) on a non-zero entry; (a2, b2) on a 1-entry, four distinct vertices."""
    mat, n = L.matrix, L.n
    nonzero = [(u, v) for u in range(n) for v in range(n) if u != v and mat[u][v] != 0]
    a1, b1 = nonzero[rng.randrange(len(nonzero))]
    ones = [(u, v) for u in range(n) for v in range(n) if mat[u][v] == 1 and len({a1, b1, u, v}) == 4]
    return (a1, b1), ones[rng.randrange(len(ones))]


def _matrix_rows(mat):
    return ["".join(SYMBOL[x] for x in row) for row in mat]


def _repair_record(L):
    try:
        res = repair(L)
    except RepairStuckError as exc:
        return {"stuck": list(exc.profile), "log": [[ph, list(t)] for ph, t in exc.log]}
    return {"log": [[ph, list(t)] for ph, t in res.switch_log], "result": [list(e) for e in res.result.edges]}


def _profile_record(L):
    """Defect counts, sorted defect keys and the per-vertex counters: ``zeta``
    and ``eta`` on a graph, the four sided ones on a digraph, the other
    mode's fields None."""
    p, q = L.defect_counts()
    sided = {"zeta_in": L.zeta_in, "zeta_out": L.zeta_out, "eta_in": L.eta_in, "eta_out": L.eta_out}
    if L.directed:
        counters = {"zeta": None, "eta": None, **sided}
    else:
        counters = {"zeta": L.zeta_out, "eta": L.eta_out, **dict.fromkeys(sided)}
    return {"p": p, "q": q, "two_defects": sorted(L.two), "minus_defects": sorted(L.minus), **counters}


def _generation_record(Z, profile, level, seed):
    try:
        L = make_test_encoding(Z, random.Random(seed), profile=profile, level=level)
    except (RuntimeError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    verify_counting_identities(L)
    first, second = _anchors(L, random.Random(seed + 1000))
    return {
        "matrix": _matrix_rows(L.matrix),
        "profile": _profile_record(L),
        "valid": L.is_valid(),
        "good": L.is_good(),
        "repair": _repair_record(L),
        "second_pair": [list(first), choice_count_and_bound(L, first, "second_pair")],
        "third_pair": [list(first + second), choice_count_and_bound(L, first + second, "third_pair")],
    }


def _enumeration_record(Z, require_good):
    """``require_good`` None takes the enumerator's default."""
    encs = enum_good_encodings(Z) if require_good is None else enum_good_encodings(Z, require_good)
    digest = hashlib.sha256()
    classes = {}
    for enc in encs:
        digest.update(repr(enc.matrix).encode())
        key = "%d,%d" % enc.defect_counts()
        classes[key] = classes.get(key, 0) + 1
        assert enc.is_valid() and (not require_good or enc.is_good())
    return {"count": len(encs), "classes": classes, "sha256": digest.hexdigest()}


def _cli_document(Z, L, *extra):
    """repair-encoding on files in a fresh directory, timestamp removed."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            save_encoding(L, "enc.csv")
            write_edge_list(Z, "z.txt")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["repair-encoding", "--encoding", "enc.csv", "--z", "z.txt", *extra])
        finally:
            os.chdir(cwd)
    doc = json.loads(buf.getvalue())
    doc["manifest"].pop("timestamp_utc")
    return {"exit": code, "document": doc}


def build():
    starts = _starts()
    out = {}
    for name, profile, level, seed in _generation_cases():
        key = f"make/{name}/{'free' if profile is None else '%d,%d' % profile}/{level}/{seed}"
        out[key] = _generation_record(starts[name], profile, level, seed)
    for name, Z in (("path4", PATH), ("triangle", Graph(3, [(0, 1), (1, 2), (0, 2)])),
                    ("empty3", Graph(3, [])), ("space5", SPACE5),
                    ("hexagon_chord", Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])),
                    ("cycle3", Digraph(3, [(0, 1), (1, 2), (2, 0)])),
                    ("pair_d3", Digraph(3, [(0, 1), (1, 0), (1, 2)])),
                    ("pentagon_chords", Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (2, 4)]))):
        for require_good in (None, True, False):
            out[f"enum/{name}/{require_good}"] = _enumeration_record(Z, require_good)
    cu = starts["u3x20"]
    cd = starts["d22x14"]
    out["cli/undirected"] = _cli_document(cu, make_test_encoding(cu, random.Random(5), profile=(1, 1)))
    out["cli/directed"] = _cli_document(cd, make_test_encoding(cd, random.Random(6), profile=(2, 1)))
    out["cli/directed_out"] = _cli_document(
        cd, make_test_encoding(cd, random.Random(7), profile=(1, 2)), "--out", "r.txt"
    )
    out["cli/stuck"] = _cli_document(ALT, encode(PATH, PATH, ALT))
    return out



def test_encodings_match_golden_file():
    assert render_golden(build()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(build()), encoding="utf-8")
