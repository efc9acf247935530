"""Import footprint: the package loads submodules on demand, and each CLI
subcommand loads only the modules it runs."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import switchmix

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

PUBLIC = [
    "CapExceededError", "DEFAULT_CAP",
    "DegreeSequence", "Digraph", "DirectedDegreeSequence", "Encoding", "FlowComponents",
    "FrozenChainError", "Graph", "LamarPartition", "NoMixingError", "NotRealizableError",
    "RepairResult", "RepairStuckError", "StateSpaceAnalysis", "UsefulWitness",
    "VARIANT_ALL_PAIRS", "VARIANT_EXACT", "advance", "analyze", "apply_3switch",
    "choice_count_and_bound", "derive_seed", "encode",
    "enum_good_encodings", "enum_states", "find_phase_switch",
    "find_useful", "flow_components", "induced_triangles", "lamar_classes", "load_degrees",
    "load_encoding", "make_test_encoding", "parse_degrees",
    "read_degree_file", "read_digraph", "read_graph", "realize", "realize_directed",
    "repair", "sample", "save_encoding",
    "verify_counting_identities", "write_edge_list",
]

# Runs one subcommand in a fresh interpreter and prints what it imported.
# Modules loaded before the probe starts (a site hook may load some) are
# not the subcommand's, so they are not counted.
PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
from switchmix.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(set(sys.modules) - before)}))
"""

HEAVY = {"numpy", "mpmath", "switchmix.encoding", "switchmix.statespace",
         "switchmix.irreducibility", "switchmix.bounds"}

# No subcommand loads these: the library's records are NamedTuples, and
# hashlib digests input files, which no case below names (all degrees are inline).
NEVER = {"dataclasses", "inspect", "hashlib"}

CASES = {
    "validate": (["--degrees", "2,2,1,1"], set(), HEAVY),
    "realize": (["--degrees", "2,2,1,1"], set(), HEAVY),
    "sample": (["--degrees", "2,2,2,2,2,2", "--count", "2", "--steps", "5"], set(), HEAVY),
    # a space this small takes the spectral gap's list kernel, which needs no numpy
    "analyze": (["--degrees", "2,2,2,2,2", "--horizon", "3"], set(),
                {"numpy", "mpmath", "switchmix.encoding", "switchmix.bounds"}),
    "irreducible": (["--directed", "--degrees", "1:1,1:1,1:1"], set(),
                    {"numpy", "mpmath", "switchmix.encoding", "switchmix.bounds"}),
    "bound": (["--degrees", "3,3,3,3"], {"switchmix.bounds"},
              {"numpy", "mpmath", "switchmix.encoding", "switchmix.statespace"}),
}


def loaded_by(subcommand, *argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, subcommand, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0, (subcommand, proc.stderr)
    return set(report["modules"])


@pytest.mark.parametrize("subcommand", sorted(CASES))
def test_subcommand_import_footprint(subcommand):
    argv, required, forbidden = CASES[subcommand]
    forbidden = forbidden | NEVER
    modules = loaded_by(subcommand, *argv)
    if subcommand == "validate":
        assert {m for m in modules if m.startswith("switchmix")} == {
            "switchmix", "switchmix.cli", "switchmix.degseq"
        }
    assert not forbidden & modules, sorted(forbidden & modules)
    assert required <= modules


def test_public_names():
    assert sorted(switchmix.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(switchmix))
    for name in PUBLIC:
        assert getattr(switchmix, name) is not None, name
    namespace = {}
    exec("from switchmix import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    with pytest.raises(AttributeError):
        switchmix.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from switchmix import no_such_name", {})


def test_public_names_follow_their_submodule(monkeypatch):
    # nothing is cached in the package namespace, so a rebinding on the
    # submodule (as a tracer does) is what the package hands out
    from switchmix import chain

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    original = chain.sample
    monkeypatch.setattr(chain, "sample", wrapped)
    assert switchmix.sample is wrapped
    from switchmix import sample

    assert sample is wrapped
