"""Pinned chain trajectories: raw edge arrays, sampled states and replica documents.

The order of the stored edge array decides which pair a random index draw
picks, so it is part of the trajectory for a given seed.  The golden file
was generated before the graph store and the step kernel were rewritten;
regenerate it (``PYTHONPATH=src python tests/test_trajectories.py``) only
for a change that is meant to alter trajectories, and say so.
"""

import contextlib
import io
import json
import pathlib
import random

from switchmix import (
    VARIANT_ALL_PAIRS,
    VARIANT_EXACT,
    DegreeSequence,
    DirectedDegreeSequence,
    advance,
    realize,
    realize_directed,
    sample,
)
from switchmix.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trajectories.json"

SMALL = [2] * 6
MID = [i % 5 + 1 for i in range(40)]
SMALL_DIRECTED = [(1, 1)] * 5 + [(2, 2)]
MID_DIRECTED = [(i % 3 + 1, (i + 1) % 3 + 1) for i in range(30)]

# name -> (start, variant or None for directed, steps, sample plan)
CASES = {
    "small_exact": (SMALL, VARIANT_EXACT, 5000, dict(steps=10, thinning=3, count=20, stream=0)),
    "small_all_pairs": (SMALL, VARIANT_ALL_PAIRS, 5000, dict(steps=10, thinning=3, count=20, stream=0)),
    "small_directed": (SMALL_DIRECTED, None, 5000, dict(steps=10, thinning=3, count=20, stream=0)),
    "mid_exact": (MID, VARIANT_EXACT, 20000, dict(steps=2000, thinning=500, count=3, stream=1)),
    "mid_all_pairs": (MID, VARIANT_ALL_PAIRS, 20000, dict(steps=2000, thinning=500, count=3, stream=1)),
    "mid_directed": (MID_DIRECTED, None, 20000, dict(steps=2000, thinning=500, count=3, stream=1)),
}

REPLICA_RUNS = {
    "undirected": ["sample", "--degrees", "2,2,2,2,2,2", "--count", "4", "--steps", "10",
                   "--seed", "7", "--replicas", "2"],
    "directed": ["sample", "--directed", "--degrees", "1:1,1:1,1:1,1:1,2:2", "--count", "3",
                 "--steps", "25", "--thin", "2", "--seed", "11", "--replicas", "2"],
}


def _start(degrees, variant):
    if variant is None:
        return realize_directed(DirectedDegreeSequence(degrees))
    return realize(DegreeSequence(degrees))


def _raw_run(degrees, variant, steps, seed):
    g = _start(degrees, variant)
    a = g.degree_sequence().a if variant == VARIANT_EXACT else None
    accepted = advance(g, random.Random(seed), steps, a)
    return {"accepted": accepted, "edges": [list(e) for e in g.edges]}


def _sampled(degrees, variant, plan, seed):
    states = sample(
        _start(degrees, variant),
        plan["count"],
        steps=plan["steps"],
        seed=seed,
        variant=variant or VARIANT_EXACT,
        thinning=plan["thinning"],
        stream=plan["stream"],
    )
    return [[list(e) for e in state] for state in states]


def _replica_document(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    doc = json.loads(buf.getvalue())
    doc["manifest"].pop("timestamp_utc")
    return doc


def build():
    out = {"raw": {}, "sampled": {}, "replica_documents": {}}
    for seed, (name, (degrees, variant, steps, plan)) in enumerate(sorted(CASES.items()), start=3):
        out["raw"][name] = _raw_run(degrees, variant, steps, seed)
        out["sampled"][name] = _sampled(degrees, variant, plan, seed)
    for name, argv in REPLICA_RUNS.items():
        out["replica_documents"][name] = _replica_document(argv)
    return out


def _render(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), indent=0) + "\n"


def test_trajectories_match_golden_file():
    assert _render(build()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(_render(build()), encoding="utf-8")
