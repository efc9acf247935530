"""Switch Markov chain sampling of graphs and digraphs with fixed degrees.

Uniform sampling via edge switches, plus an exact desk-scale analysis
toolkit: state-space enumeration, rational transition matrices,
total-variation curves, defect-encoding machinery, and closed-form
mixing-time bound calculators.
"""

from .bounds import BoundReport, FlowComponents, flow_components, mixing_bound
from .chain import (
    VARIANT_ALL_PAIRS,
    VARIANT_EXACT,
    ChainRun,
    FrozenChainError,
    advance,
    derive_seed,
    sample,
    step_directed,
    step_undirected,
    switch_neighbours,
    transition_probability,
)
from .construct import realize, realize_directed
from .degseq import (
    DegreeSequence,
    DirectedDegreeSequence,
    NotRealizableError,
    classify,
    classify_directed,
    load_degrees,
    parse_degrees,
    read_degree_file,
    stats,
)
from .encoding import (
    DefectProfile,
    Encoding,
    RepairResult,
    RepairStuckError,
    apply_3switch,
    choice_count_and_bound,
    defect_profile,
    encode,
    enum_good_encodings,
    find_phase_switch,
    load_encoding,
    make_test_encoding,
    repair,
    save_encoding,
    validate,
    verify_counting_identities,
)
from .graph import Digraph, Graph, read_digraph, read_graph, write_edge_list
from .irreducibility import (
    LamarPartition,
    UsefulWitness,
    find_useful,
    induced_triangles,
    lamar_classes,
    switch_connectivity,
)
from .statespace import (
    DEFAULT_CAP,
    CapExceededError,
    NoMixingError,
    StateSpaceAnalysis,
    analyze,
    enum_states,
)

__version__ = "0.1.0"
