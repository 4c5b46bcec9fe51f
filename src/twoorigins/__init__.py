"""Differentiable structures on the line with two origins.

Exact germ and jet algebra at the branch point, double-coset bookkeeping in
finite groups, explicit diffeomorphisms between the standard structures, and
a numeric engine that glues interval charts and certifies smoothness of the
result. The CLI entry point lives in twoorigins.cli.
"""

from .cosets import (
    CELLS,
    CosetPartition,
    FiniteGroup,
    IntersectionType,
    PairClassification,
    Subgroup,
    WreathElement,
    classify_wa_pair,
    coset_membership_equiv,
    double_cosets,
    intersection_type,
    pm_double_cosets,
    wreath_act,
    wreath_mul,
)
from .dline import (
    EXCHANGE,
    FIX,
    ORIGIN,
    ORIGIN_TILDE,
    ChartL,
    DiffeoL,
    MinimalAtlas,
    PointL,
    SpecialMinimalAtlas,
    apply_diffeo,
    build_diffeo,
    classification_to_json,
    compose_diffeo,
    diffeo_classes,
    hausdorff_closure,
    identity_diffeo,
    is_orientable,
    phi_ex,
    phi_fix,
    psi,
    same_structure,
    transition_extension,
)
from .errors import (
    DomainError,
    GlueInfeasible,
    IncompatiblePresentations,
    InvalidAtlas,
    NotJoinable,
    TwoOriginsError,
)
from .germs import (
    K_MAX,
    NONEXISTENT,
    Germ,
    Jet,
    NumericGerm,
    Obstruction,
    SmoothnessReport,
    Tri,
    compose,
    evaluate,
    fixed_near_zero,
    flip_germ,
    germ_equal,
    germ_from_json,
    germ_match,
    germ_to_json,
    identity_germ,
    in_diff,
    in_jdiff,
    invert,
    jet_of,
    make_wa,
    one_sided_jet,
    poly_germ,
    sandwich_smoothness,
    smoothness_at_zero,
)
from .join import (
    TOL_SCHEDULE,
    AffineMap,
    ChainAtlas,
    CollapseResult,
    ComposedMap,
    GlueReport,
    IdentityMap,
    IntervalChart,
    JoinResult,
    NumericDiffeo,
    PiecewiseMonotone,
    SmoothCert,
    bump_plateau,
    chain_from_json,
    collapse_chain,
    collapse_to_json,
    glue_auto,
    glue_id_and_diff,
    join_charts,
    verify_ck_numeric,
)
from .realnum import REAL_TOL, is_integral, real_eq, real_json, real_pow, real_sqrt, to_real

__version__ = "0.1.0"
