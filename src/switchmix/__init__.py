"""Switch Markov chain sampling of graphs and digraphs with fixed degrees.

Uniform sampling via edge switches, plus an exact desk-scale analysis
toolkit: state-space enumeration, rational transition matrices,
total-variation curves, defect-encoding machinery, and closed-form
mixing-time bound calculators.

The public names below are resolved from their submodules on first use
(PEP 562), so ``import switchmix`` loads none of them and a program pays
only for the modules it touches.  Each access reads the submodule's current
binding; nothing is cached in this namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ("FlowComponents", "flow_components"),
    "chain": (
        "VARIANT_ALL_PAIRS",
        "VARIANT_EXACT",
        "FrozenChainError",
        "advance",
        "derive_seed",
        "sample",
    ),
    "construct": ("realize", "realize_directed"),
    "degseq": (
        "DEFAULT_CAP",
        "CapExceededError",
        "DegreeSequence",
        "DirectedDegreeSequence",
        "NotRealizableError",
        "load_degrees",
        "parse_degrees",
        "read_degree_file",
    ),
    "encoding": (
        "Encoding",
        "RepairResult",
        "RepairStuckError",
        "apply_3switch",
        "choice_count_and_bound",
        "encode",
        "enum_good_encodings",
        "find_phase_switch",
        "load_encoding",
        "make_test_encoding",
        "repair",
        "save_encoding",
        "verify_counting_identities",
    ),
    "graph": ("Digraph", "Graph", "read_digraph", "read_graph", "write_edge_list"),
    "irreducibility": (
        "LamarPartition",
        "UsefulWitness",
        "find_useful",
        "induced_triangles",
        "lamar_classes",
    ),
    "statespace": (
        "NoMixingError",
        "StateSpaceAnalysis",
        "analyze",
        "enum_states",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
