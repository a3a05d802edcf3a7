"""evolflow: evolution maps for compactly supported diffeomorphism groups."""

from .lp_space import (
    TimeGrid,
    LpSample,
    Seminorm,
    euclidean,
    sup_norm,
    weighted,
    lp_seminorm,
    ess_sup_seminorm,
    weak_integral,
    subdivide,
)
from .ac_path import (
    AcPath,
    ContinuousTrace,
    SmoothMap,
    ac_eval,
    ac_phi,
    ac_phi_inv,
    ac_embed,
    ac_reparam,
    ac_superpose,
    ac_distance,
)
from .vector_field import (
    CompactField,
    PeriodicField,
    vf_eval,
    vf_jacobian,
    vf_alpha,
    vf_compose_displacement,
    save_field,
    load_field,
)
from .diff_group import (
    GroupElement,
    GroupPath,
    star,
    inverse,
    d_rho,
    in_chart_check,
    group_path_distance,
)
from .evolution import (
    TimeVelocity,
    EvolutionResult,
    apply_along,
    apply_T,
    contraction_bound,
    picard_point,
    local_evolve,
    evolve,
    flow_point,
    residual,
    continuity_probe,
)
from .manifold_paths import (
    ManifoldAcPath,
    SectionTuple,
    chart_psi,
    chart_psi_inv,
    transition,
    section_embed,
    section_glue,
    const_path,
    point_eval,
    evolve_torus,
)

__version__ = "0.1.0"
