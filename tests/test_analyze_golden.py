"""Pinned ``analyze`` documents: the whole result block on eight fixed spaces.

The block holds ``nnz``, the orbit count, the flags, ``min_diagonal``, the
spectral gap, the TV curve, its last exact value and the exact mixing time.
The gap is stored as its float repr, so a change to the Lanczos product's
summation order shows even in the last bit.  The golden file was generated
before the exact engine's rows became neighbour lists; regenerate it
(``PYTHONPATH=src python tests/test_analyze_golden.py``) only for a change
that is meant to alter these documents, and say so.
"""

import io
import json
import pathlib
from contextlib import redirect_stdout

from switchmix.cli import main

from conftest import render_golden

GOLDEN = pathlib.Path(__file__).parent / "golden" / "analyze_docs.json"

COMMON = ["--horizon", "30", "--mixing-cap", "1000"]

# name -> the analyze arguments after the subcommand
CASES = {
    "path4": ["--degrees", "1,2,2,1"],
    "mixed6": ["--degrees", "1,1,2,2,3,3"],
    "two6": ["--degrees", "2,2,2,2,2,2"],
    "two6_all_pairs": ["--degrees", "2,2,2,2,2,2", "--variant", "all-pairs"],
    "three6": ["--degrees", "3,3,3,3,3,3"],
    "dir6": ["--directed", "--degrees", "1:1,1:1,1:1,1:1,1:1,2:2"],
    "dir_ones4": ["--directed", "--degrees", "1:1,1:1,1:1,1:1"],
    # two sources and two sinks: no state holds and the switch graph is bipartite
    "dir_periodic": ["--directed", "--degrees", "0:1,1:0,0:1,1:0"],
    "dir_reducible": ["--directed", "--degrees", "1:1,1:1,1:1"],
}


def result_block(argv) -> dict:
    """The ``analyze`` result block, with the gap as its float repr."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", *argv, *COMMON]) == 0
    result = json.loads(out.getvalue())["result"]
    result["spectral_gap"] = repr(result["spectral_gap"])
    return result


def build(cases) -> dict:
    return {name: {"argv": argv, "result": result_block(argv)} for name, argv in cases.items()}



def test_analyze_documents_match_golden_file():
    text = GOLDEN.read_text(encoding="utf-8")
    stored = json.loads(text)
    assert stored.keys() == CASES.keys()
    assert render_golden(build({name: case["argv"] for name, case in stored.items()})) == text


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(build(CASES)), encoding="utf-8")
