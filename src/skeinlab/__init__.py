"""skeinlab: exact computations in the Kauffman-bracket stated skein algebra
of the bigon, its quantum coordinate algebra presentation, and the planar
matching correspondence between them.
"""

from .scalar import HalfLaurent, format_scalar
from .diagram import (
    BasisTangle,
    DiagramError,
    SkeinElement,
    SliceWord,
    StatedWord,
    reduce,
    resolve_crossings,
)
from .bigon_skein import (
    TensorElement,
    antipode,
    braided_opposite_mul,
    comul,
    counit,
    generator,
    ht_coaction,
    inv_edge,
    mul,
    r_form,
    rot_star,
    t_form,
    t_inv_form,
    theta_form,
)
from .quantum_sl2 import HopfElement, PBWMonomial, from_skein, normalize, pairing, to_skein
from .comodule_rt import Comodule, multiplicity, quantum_plane_Vn, rt_evaluate, standard_V
from .internal_skein import Matching, check_st_naturality, entry_value, enumerate_matchings, st_map, st_rank
from .excision import gluing_excision_check, invariants_subspace
from .syntax import ParseError, format_diagram, format_element, parse_diagram, parse_element, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "HalfLaurent",
    "format_scalar",
    "parse_scalar",
    "BasisTangle",
    "DiagramError",
    "SkeinElement",
    "SliceWord",
    "StatedWord",
    "reduce",
    "resolve_crossings",
    "TensorElement",
    "antipode",
    "braided_opposite_mul",
    "comul",
    "counit",
    "generator",
    "ht_coaction",
    "inv_edge",
    "mul",
    "r_form",
    "rot_star",
    "t_form",
    "t_inv_form",
    "theta_form",
    "HopfElement",
    "PBWMonomial",
    "from_skein",
    "normalize",
    "pairing",
    "to_skein",
    "Comodule",
    "multiplicity",
    "quantum_plane_Vn",
    "rt_evaluate",
    "standard_V",
    "Matching",
    "check_st_naturality",
    "entry_value",
    "enumerate_matchings",
    "st_map",
    "st_rank",
    "gluing_excision_check",
    "invariants_subspace",
    "ParseError",
    "format_diagram",
    "format_element",
    "parse_diagram",
    "parse_element",
    "__version__",
]
