"""Information-theoretic inheritance between property-defined concepts.

Two engines score how much knowing "x is F" tells you about "x is W":
an exact one over an enumerated joint distribution of binary properties,
and an approximate one over compressed description lengths. Closed forms
for the mutually-exclusive and pure-extension special cases double as
oracles for both.
"""

from .algorithmic import (
    AlgorithmicInheritance,
    ComplexityEstimate,
    Compressor,
    algorithmic_inheritance,
    canonical_serialize,
    deflate_compressor,
    estimate_complexities,
    get_compressor,
    identity_compressor,
    quantize_degree,
)
from .closed_forms import (
    ExclusiveCaseParams,
    ExtensionalPair,
    exclusive_algorithmic,
    exclusive_shannon,
    extensional_inheritance,
    framework_discrepancy,
    singleton_reduction_check,
)
from .errors import (
    CompressorFailure,
    EmptyAntecedent,
    EmptyTable,
    IntensionError,
    InvalidConcept,
    InvalidDegree,
    InvalidOverlap,
    InvalidProperty,
    ParseError,
    SubsetTooLarge,
    UniverseTooLarge,
    UnknownProperty,
    ZeroOverlap,
)
from .files import load_concepts, load_world, parse_concepts, parse_world
from .model import (
    Concept,
    DegreeMismatchWarning,
    WorldModel,
    build_exclusive_world,
    build_independent_world,
    degree_mismatches,
    joint_event_probability,
    world_from_instances,
)
from .shannon import (
    InteractionReport,
    ShannonInheritance,
    binary_entropy,
    concept_pair_entropies,
    interaction_information,
    shannon_inheritance,
    total_interaction_adjustment,
)

__version__ = "0.1.0"
