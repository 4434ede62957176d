"""Commutative monoids presented by finite directed graphs.

A directed graph presents a commutative monoid: one generator per
vertex, and one relation per non-sink identifying it with the sum of
its edge targets.  This package decides the word problem for such
monoids with replayable proofs, enumerates the lattice of hereditary
saturated vertex sets and the order-ideals it classifies, builds
composition series with classified simple quotients, computes the group
completion by integer Smith normal form, and checks order-theoretic
properties within explicit bounds.

The class-model layer (``knuth_bendix``, ``enumeration`` and
``properties``) is imported the first time one of its names is used, so
a process that never asks a class-model question does not compile it.
"""

import importlib

from .errors import (
    CapExceeded,
    ElementFormatError,
    GraphFormatError,
    GraphMonoidError,
)
from .graphs import (
    Graph,
    Path,
    completion,
    format_graph_text,
    graph_from_json,
    graph_to_json,
    hereditary_closure,
    hsat_closure,
    is_acyclic,
    is_cofinal,
    is_hereditary,
    parse_graph_text,
    saturate,
    sink_distribution,
    sinks,
    tree,
)
from .elements import (
    MonoidElement,
    elements_up_to,
    format_element,
    from_counts,
    parse_element,
    vertex_element,
    zero,
)
from .ktheory import (
    Block,
    FiltrationLevel,
    GroupPresentation,
    RelationMatrix,
    determinant,
    grothendieck_group,
    group_image,
    matricial_filtration,
    path_counts,
    positive_cone_probe,
    relation_matrix,
    smith_normal_form,
    verify_smith,
)
from .certificates import (
    Certificate,
    check_certificate,
    distinctness_certificate,
    leq_obstruction,
    support_closure,
)
from .rewriting import (
    DEFAULT_DEPTH,
    DEFAULT_REDUCT_CAP,
    Distinct,
    Equal,
    Refinement,
    RewriteTrace,
    Unknown,
    apply_rewrite,
    decide_eq,
    exhaustive_reducts,
    normal_form,
    r_of,
    reduct_set,
    refine,
    split,
    successors,
    validate_trace,
)
from .lattice import (
    DEFAULT_LATTICE_CAP,
    CompositionSeries,
    HSatSet,
    LatticeReport,
    SeriesStep,
    SimpleClass,
    classify_simple,
    composition_series,
    enumerate_hsat,
    join,
    lattice_report,
    meet,
    order_ideal_membership,
    phi_psi_roundtrip,
    quotient_graph,
    restriction_graph,
    validate_series,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "CapExceeded",
    "Certificate",
    "ClassModel",
    "CompositionSeries",
    "DEFAULT_CLASS_CAP",
    "DEFAULT_DEPTH",
    "DEFAULT_LATTICE_CAP",
    "DEFAULT_N_BOUND",
    "DEFAULT_REDUCT_CAP",
    "DEFAULT_SIZE_BOUND",
    "Distinct",
    "ElementFormatError",
    "Equal",
    "FiltrationLevel",
    "Graph",
    "GraphFormatError",
    "GraphMonoidError",
    "GroupPresentation",
    "HSatSet",
    "LatticeReport",
    "LeqFalse",
    "LeqTrue",
    "LeqUnknown",
    "MonoidElement",
    "Path",
    "PropertyReport",
    "Refinement",
    "RelationMatrix",
    "RewriteTrace",
    "SeriesStep",
    "SimpleClass",
    "Unknown",
    "apply_rewrite",
    "bounded_class_count",
    "check_certificate",
    "check_refinement",
    "check_separativity",
    "check_unperforation",
    "class_model",
    "classify_simple",
    "completion",
    "composition_series",
    "decide_eq",
    "determinant",
    "distinctness_certificate",
    "elements_up_to",
    "enumerate_hsat",
    "exhaustive_reducts",
    "format_element",
    "format_graph_text",
    "from_counts",
    "graph_from_json",
    "graph_to_json",
    "grothendieck_group",
    "group_image",
    "hereditary_closure",
    "hsat_closure",
    "ideal_membership",
    "is_acyclic",
    "is_cofinal",
    "is_hereditary",
    "is_prime",
    "join",
    "lattice_report",
    "leq",
    "leq_obstruction",
    "matricial_filtration",
    "meet",
    "normal_form",
    "order_ideal_membership",
    "parse_element",
    "parse_graph_text",
    "path_counts",
    "phi_psi_roundtrip",
    "positive_cone_probe",
    "primes_up_to",
    "quotient_bounded_class_count",
    "quotient_graph",
    "r_of",
    "reduct_set",
    "refine",
    "relation_matrix",
    "restriction_graph",
    "saturate",
    "sink_distribution",
    "sinks",
    "smith_normal_form",
    "split",
    "successors",
    "support_closure",
    "tree",
    "validate_series",
    "validate_trace",
    "verify_smith",
    "vertex_element",
    "zero",
]

# the class-model names and their modules, resolved on first use by
# ``__getattr__`` (PEP 562)
_LAZY = {
    "DEFAULT_CLASS_CAP": "enumeration",
    "ClassModel": "enumeration",
    "bounded_class_count": "enumeration",
    "class_model": "enumeration",
    "ideal_membership": "enumeration",
    "quotient_bounded_class_count": "enumeration",
    "DEFAULT_N_BOUND": "properties",
    "DEFAULT_SIZE_BOUND": "properties",
    "LeqFalse": "properties",
    "LeqTrue": "properties",
    "LeqUnknown": "properties",
    "PropertyReport": "properties",
    "check_refinement": "properties",
    "check_separativity": "properties",
    "check_unperforation": "properties",
    "is_prime": "properties",
    "leq": "properties",
    "primes_up_to": "properties",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
