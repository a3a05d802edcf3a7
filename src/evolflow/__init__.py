"""evolflow: evolution maps for compactly supported diffeomorphism groups."""

from .lp_space import (
    TimeGrid,
    LpSample,
    Seminorm,
    euclidean,
    lp_seminorm,
    ess_sup_seminorm,
    weak_integral,
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
    group_path_distance,
)
from .evolution import (
    TimeVelocity,
    EvolutionResult,
    apply_T,
    contraction_bound,
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
    point_eval,
)

__version__ = "0.1.0"
