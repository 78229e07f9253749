"""latticelab: structure theory of finite lattices at desk scale.

Build lattices from cover relations, decide the property zoo
(distributivity, the semidistributive laws, join-extremality,
left-modularity, EL-shellability), construct the classical witnesses
(perspectivity, canonical join representations, left-modular labelings),
and enumerate all small lattices up to isomorphism into a classified
atlas.
"""

from .atlas import (
    AtlasEntry,
    ImplicationReport,
    HuntReport,
    build_atlas,
    check_implications,
    entry_lattice,
    enumerate_lattices,
    enumerate_lattices_naive,
    hunt_questions,
    read_atlas,
    write_atlas,
    write_csv,
)
from .classify import ClassificationRecord, classify
from .errors import LatticeError
from .irreducibles import (
    JoinIrreducible,
    KappaData,
    canonical_join_rep,
    gamma,
    is_perspective,
    join_irreducible_ids,
    join_irreducibles,
    kappa_data,
    length,
    maximal_chains,
    meet_irreducibles,
    perspectivity_witness_recursive,
    perspectivity_witness_scan,
)
from .io import format_covers, parse_covers, to_dot
from .lattice import Interval, Lattice, dual, ideal_lattice, interval, try_lattice
from .poset import (
    MAX_ELEMENTS,
    FinitePoset,
    canonical_form,
    canonicalize,
    is_isomorphic,
    poset_from_canonical,
    poset_from_covers,
    transitive_reduce,
)
from .properties import (
    Violation,
    is_distributive,
    is_join_semidistributive,
    is_meet_semidistributive,
    is_semidistributive,
    left_modular_chain,
    left_modular_elements,
)
from .shellability import (
    DEFAULT_EL_BUDGET,
    ELSearchResult,
    ELVerdict,
    disconnected_skeleton,
    el_search,
    is_el_labeling,
    is_el_labeling_naive,
    is_increasing,
    label_vector,
    lm_labeling,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
