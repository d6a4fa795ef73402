"""Qualitative calculus of ambiguity over finite frames.

Interval structures pair a lower and an upper set-valued map over a frame of
atomic propositions; the gap between them is an ambiguity map, selectors cut
incidence maps out of basic assignments, and exact rational probabilities
turn all of it into belief and plausibility values.
"""

from .ambiguity import AmbiguityMap, ambiguity_from_interval, check_ambiguity_axioms
from .documents import document_for, dumps, load_object, loads, parse_document, render_document
from .errors import (
    AmbicalcError,
    AmbiguityAxiomViolation,
    AssignmentAxiomViolation,
    AxiomViolation,
    DualityViolation,
    DuplicateElement,
    FrameMismatch,
    IncidenceAxiomViolation,
    IncompatiblePair,
    InternalInvariantFailure,
    MaskOutOfRange,
    ParseError,
    SchemaError,
    SelectorDomainError,
    SpaceMismatch,
    UnknownElement,
    UpperAxiomViolation,
    UsageError,
    ValidationError,
)
from .frames import Frame, SituationSpace
from .harness import (
    FailureCase,
    FuzzReport,
    GenConfig,
    PropertyStat,
    fuzz,
    gen_assignment,
    gen_pointmap,
    gen_probability,
    universes_for,
)
from .incidence import (
    IncidenceMap,
    PointMap,
    Selector,
    check_compatibility,
    check_incidence_axioms,
    check_sandwich,
    compose_interval,
    decompose_interval,
    incidence_from_map,
    incidence_from_pointmap,
    select_incidence,
)
from .interval import (
    BasicAssignment,
    IntervalStructure,
    SetValuedMap,
    check_assignment,
    check_duality,
    check_lower_axioms,
    check_structure,
    check_upper_axioms,
    dual_map,
    extract_assignment,
    lower_table_from_cells,
    make_interval_structure,
    structure_from_assignment,
)
from .numeric import (
    BeliefReport,
    MassFunction,
    ProbabilityAssignment,
    belief_from_structure,
    check_belief_identity,
    fishburn_report,
    mass_from_structure,
    parse_rational,
    render_rational,
    structure_from_mass,
)
from .oracle import (
    oracle_ambiguity_table,
    oracle_extract_table,
    oracle_lower_table,
    oracle_upper_table,
    oracle_verify,
)
from .reports import AxiomReport, Verdict, Witness
from .sweeps import derive_seed

__version__ = "0.1.0"
