"""groupinv: geometric end-invariants of finitely generated groups,
exact twisted-conjugacy counts, and R-infinity verdicts with derivation traces.

Typical use::

    from groupinv import parse_group_expr, lookup_invariants, decide

    expr = parse_group_expr("BS(1,2) x F(3)")
    lookup_invariants(expr).omega_at(1)   # one rational surviving direction
    decide(expr).conclusion               # 'RInfinity', with a trace
"""

__version__ = "0.1.0"

from .abelian import (
    FGAbelianAutomorphism,
    FiniteGroupTable,
    INFINITE,
    brute_force_twisted_classes,
    fixed_subgroup_trivial,
    reidemeister_number,
    smith_normal_form,
    verify_central_extension,
)
from .ballprobe import (
    BallGraph,
    ProbeReport,
    connectivity_probe,
    cone_subgraph,
    enumerate_ball,
    halfspace_subgraph,
    probe_direction_scan,
)
from .catalog import KnownInvariants, lookup_invariants
from .cones import (
    ConeShape,
    RationalCone,
    check_finite12,
    cone_rays,
    omega_from_sigma,
    omega_of_product,
    sigma1_complement_of_product,
)
from .expressions import (
    FinitePresentation,
    GroupAtom,
    GroupExpr,
    abelianization_of_presentation,
    hom_rank,
    parse_group_expr,
)
from .rinf import (
    ExtensionSpec,
    Verdict,
    decide,
    decide_free_product,
    decide_gk,
    decide_main,
    decide_product,
    decide_text,
    propagate_extension,
)
from .spheres import (
    Direction,
    SphereSet,
    antipode,
    complement,
    empty_set,
    full_sphere,
    join,
    points_set,
    union,
)

__all__ = [
    "BallGraph", "ConeShape", "Direction", "ExtensionSpec", "FGAbelianAutomorphism",
    "FiniteGroupTable", "FinitePresentation", "GroupAtom", "GroupExpr", "INFINITE",
    "KnownInvariants", "ProbeReport", "RationalCone", "SphereSet", "Verdict",
    "abelianization_of_presentation", "antipode", "brute_force_twisted_classes",
    "check_finite12", "complement", "cone_rays", "cone_subgraph",
    "connectivity_probe", "decide", "decide_free_product", "decide_gk", "decide_main",
    "decide_product", "decide_text", "empty_set", "enumerate_ball",
    "fixed_subgroup_trivial", "full_sphere", "halfspace_subgraph", "hom_rank",
    "join", "lookup_invariants", "omega_from_sigma", "omega_of_product",
    "parse_group_expr", "points_set", "probe_direction_scan",
    "propagate_extension", "reidemeister_number", "sigma1_complement_of_product",
    "smith_normal_form", "union", "verify_central_extension",
]
