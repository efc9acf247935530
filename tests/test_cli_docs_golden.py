"""Pinned CLI documents that no other golden covers: ``validate``,
``realize``, ``irreducible`` and ``bound``, results and errors, in both modes.

Each case stores its exit code, its result or error block and its manifest
without the timestamp.  Every input is an inline spec, so no manifest holds
a file digest.  The golden file was generated before ``validate`` stopped
reading its flags through a second method; regenerate it (``PYTHONPATH=src
python tests/test_cli_docs_golden.py``) only for a change that is meant to
alter these documents, and say so.
"""

import io
import json
import pathlib
from contextlib import redirect_stdout

from switchmix.cli import main

from conftest import render_golden

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_docs.json"

THREES28 = ",".join(["3"] * 28)
TWOTWO64 = ",".join(["2:2"] * 64)

# name -> the full argument list
CASES = {
    "validate_graphical": ["validate", "--degrees", "2,2,2,2,2,2"],
    "validate_applicable": ["validate", "--degrees", THREES28],
    "validate_not_graphical": ["validate", "--degrees", "3,3,1,1"],
    "validate_odd_sum": ["validate", "--degrees", "1,1,1"],
    # (5 - 1 + 1)^2 = 25 > 4 * 1 * (6 - 5 + 1) = 8
    "validate_unstable": ["validate", "--degrees", "5,1,1,1,1,1"],
    "validate_directed": ["validate", "--directed", "--degrees", "1:1,1:1,1:1"],
    "validate_directed_applicable": ["validate", "--directed", "--degrees", TWOTWO64],
    "validate_directed_not_digraphical": ["validate", "--directed", "--degrees", "3:0,0:3"],
    "validate_directed_unbalanced": ["validate", "--directed", "--degrees", "1:0,0:0"],
    "realize": ["realize", "--degrees", "3,3,2,2,2"],
    "realize_directed": ["realize", "--directed", "--degrees", "1:2,2:1,1:1"],
    "irreducible": ["irreducible", "--degrees", "2,2,2,2,2,2"],
    "irreducible_directed": ["irreducible", "--directed", "--degrees", "1:1,1:1,1:1,1:1"],
    # the two directed 3-cycles are two frozen components
    "irreducible_directed_reducible": ["irreducible", "--directed", "--degrees", "1:1,1:1,1:1"],
    "irreducible_cap": ["irreducible", "--degrees", "3,3,3,3,3,3,3,3", "--cap", "5"],
    "irreducible_directed_cap": ["irreducible", "--directed", "--degrees", "2:2,2:2,2:2,2:2,2:2", "--cap", "3"],
    "bound_directed": ["bound", "--directed", "--degrees", TWOTWO64],
    "bound_directed_small": ["bound", "--directed", "--degrees", "1:1,1:1,1:1", "--eps", "0.25"],
    "bound_directed_unbalanced": ["bound", "--directed", "--degrees", "1:0,0:0"],
}


def document(argv) -> dict:
    """Exit code, result or error block, and manifest without its timestamp."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    doc = json.loads(out.getvalue())
    doc["manifest"].pop("timestamp_utc")
    return {"argv": argv, "code": code, **doc}


def build(cases) -> dict:
    return {name: document(argv) for name, argv in cases.items()}


def test_cli_documents_match_golden_file():
    text = GOLDEN.read_text(encoding="utf-8")
    stored = json.loads(text)
    assert stored.keys() == CASES.keys()
    assert render_golden(build({name: case["argv"] for name, case in stored.items()})) == text


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(build(CASES)), encoding="utf-8")
