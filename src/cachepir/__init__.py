"""Cache-aided private information retrieval with unknown uncoded prefetching.

Exact-rational download-cost bounds, explicit GF(2) query-plan construction
with memory-sharing, seeded end-to-end retrieval simulation, and
privacy/decodability/cost audits.
"""

from .bounds import (
    CornerPoint,
    CurvePoint,
    Params,
    Rational,
    asymptotic_gain,
    asymptotic_outer,
    binom,
    collinearity_check,
    corner_cost,
    corner_download_total,
    corner_message_length,
    corner_point,
    corner_points,
    corner_ratio,
    curve_point,
    exact_tradeoff_k3,
    gap,
    inner_bound,
    inner_corner,
    known_prefetch_cost,
    matching_region,
    outer_bound,
    worst_case_gap,
)
from .scheme import (
    BitRef,
    ContractViolation,
    Equation,
    PlanDraw,
    QueryPlan,
    RoundCounts,
    RoundProfile,
    SplitSpec,
    build_corner_plan,
    compose_plans,
    corner_equations,
    draw_plan,
    first_non_canonical,
    is_canonical,
    relabel,
    round_profile,
    split_for_ratio,
)
from .protocol import (
    CacheState,
    DecodeError,
    MessageStore,
    Transcript,
    answer,
    check_transcript,
    decode,
    prefetch,
    random_store,
    retrieve,
)
from .audit import (
    PrivacyReport,
    bias_mixture_assignment,
    drop_undesired_equation,
    enumerate_privacy,
    montecarlo_privacy,
    plan_signature,
    skip_message_symmetry,
    sort_queries,
    structural_symmetry,
    verify_cost,
    verify_decodability,
)

__version__ = "0.1.0"
