"""Desk-scale laboratory for topologies on finite function spaces and
hyperspaces of open sets."""

from .errors import (
    BudgetExceeded,
    GroundTooLarge,
    MalformedInput,
    MismatchedBase,
    MismatchedGround,
    NotATopology,
    NotOpen,
    NotZRepresentable,
    TopolabError,
    UnknownQuestion,
)
from .finspace import (
    FinSpace,
    LocalProfile,
    SubsetFamily,
    chain,
    closure_of,
    discrete,
    enumerate_topologies,
    generate_from_subbasis,
    indiscrete,
    interior_of,
    is_open_in_product,
    local_profile,
    make_space,
    product,
    separation_profile,
    sierpinski,
    subspace,
)
from .mapspace import (
    ContMap,
    MapSet,
    RelativeProfile,
    enumerate_continuous,
    o_z_family,
    relative_profile,
    sierpinski_correspondence,
    way_below_z,
    z_topology,
)
from .hypertop import (
    HyperSpace,
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    up_family,
    z_scott,
)
from .fntop import (
    NAMED,
    Comparison,
    FnTopology,
    compare_topologies,
    evaluation_witness,
    kset_topology,
    lift_open_family,
    named_function_topology,
)
from .reports import VerdictReport, fam_tag, pair_tag, suite_to_json
from .duality import DualSpace, is_admissible_on_ozy, t_of_tau, tau_of_t
from .checkers import (
    composition_check,
    is_admissible,
    refute_splitting,
    theorem_suite,
)
from .explorer import QUESTION_IDS, QuestionProbe, question_search

__all__ = [name for name in dir() if not name.startswith("_")]
