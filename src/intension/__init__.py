"""Information-theoretic inheritance between property-defined concepts.

Two engines score how much knowing "x is F" tells you about "x is W":
an exact one over an enumerated joint distribution of binary properties,
and an approximate one over compressed description lengths. Closed forms
for the mutually-exclusive and pure-extension special cases double as
oracles for both. The top level holds the names of the README's Library
example; everything else is imported from its submodule.
"""

from .algorithmic import algorithmic_inheritance, deflate_compressor
from .model import Concept, build_independent_world
from .shannon import interaction_information, shannon_inheritance

__version__ = "0.1.0"
