"""Differentiable structures on the line with two origins.

Exact germ and jet algebra at the branch point, double-coset bookkeeping in
finite groups, explicit diffeomorphisms between the standard structures, and
a numeric engine that glues interval charts and certifies smoothness of the
result. The CLI entry point lives in twoorigins.cli.

Importing the package loads no submodule: each public name below is looked
up in its module on first access (PEP 562), so a process pays to compile
only the layers it uses.
"""

import importlib

#: module -> the public names it defines
_EXPORTS = {
    "cosets": ("CELLS", "CosetPartition", "FiniteGroup", "IntersectionType", "PairClassification",
               "Subgroup", "WreathElement", "classify_wa_pair", "coset_membership_equiv",
               "double_cosets", "intersection_type", "pm_double_cosets", "wreath_act",
               "wreath_mul"),
    "dline": ("EXCHANGE", "FIX", "ORIGIN", "ORIGIN_TILDE", "ChartL", "DiffeoL", "MinimalAtlas",
              "PointL", "SpecialMinimalAtlas", "apply_diffeo", "build_diffeo",
              "classification_to_json", "compose_diffeo", "diffeo_classes", "hausdorff_closure",
              "identity_diffeo", "is_orientable", "phi_ex", "phi_fix", "psi", "same_structure",
              "transition_extension"),
    "errors": ("DomainError", "GlueInfeasible", "IncompatiblePresentations", "InvalidAtlas",
               "NotJoinable", "TwoOriginsError"),
    "germs": ("K_MAX", "NONEXISTENT", "Germ", "Jet", "NumericGerm", "Obstruction",
              "SmoothnessReport", "Tri", "compose", "evaluate", "fixed_near_zero", "flip_germ",
              "germ_equal", "germ_from_json", "germ_match", "germ_to_json", "identity_germ",
              "in_diff", "in_jdiff", "invert", "jet_of", "make_wa", "one_sided_jet", "poly_germ",
              "sandwich_smoothness", "smoothness_at_zero"),
    "join": ("TOL_SCHEDULE", "AffineMap", "ChainAtlas", "CollapseResult", "ComposedMap",
             "GlueReport", "IdentityMap", "IntervalChart", "JoinResult", "NumericDiffeo",
             "PiecewiseMonotone", "SmoothCert", "bump_plateau", "chain_from_json",
             "collapse_chain", "collapse_to_json", "glue_auto", "glue_id_and_diff", "join_charts",
             "verify_ck_numeric"),
    "realnum": ("REAL_TOL", "is_integral", "real_eq", "real_json", "real_pow", "real_sqrt",
                "to_real"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
