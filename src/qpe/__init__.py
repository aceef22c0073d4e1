"""Positive-evidence order on quantum states and channels.

A partial order under which Bayesian conditioning moves states upward,
together with the Renyi entropies and sandwiched divergences that measure
the movement, domain-theoretic approximation witnesses, and the lift of all
of it to channels through their Choi states.
"""
from .config import DEFAULT_CONFIG, ToleranceConfig
from .exceptions import (
    BadAlpha,
    BadParameter,
    DegenerateDraw,
    DimensionMismatch,
    InputFormatError,
    InvalidState,
    NegativeEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
    NonpositiveScalar,
    NotAChain,
    NotBelow,
    NotCPTP,
    NotConverged,
    OverflowingInput,
    PreconditionViolated,
    QpeError,
    SupportViolation,
    ZeroEvidence,
    ZeroProbability,
)
from .linalg import (
    FAILS,
    HOLDS,
    MARGINAL,
    OrderVerdict,
    fidelity,
    is_psd,
    matrix_power,
    operator_norm,
    partial_trace,
    partial_transpose,
    schatten_norm,
    tensor,
)
from .states import (
    DensityMatrix,
    Effect,
    Eigenspace,
    bottom_eigenspace_nonzero,
    kernel,
    min_entropy,
    random_state,
    rank_of,
    subspace_intersects,
    top_eigenspace,
    top_eigenvalue,
)
from .orders import (
    as_probability_vector,
    classical_pe_leq,
    eigenvalue_shadow,
    f_renormalized_leq,
    lev_leq,
    majorizes,
    primed_leq,
    qpe_leq,
)
from .bayes import (
    TransitivityReport,
    classical_solve_evidence,
    classical_update,
    fls_update,
    measurement_monotone_check,
    random_agreeing_effect,
    reconstruct_effect,
    sequential_solve_effect,
    sequential_transitivity_demo,
    sequential_update,
)
from .divergence import (
    DivergenceValue,
    classical_max_divergence,
    effect_probability,
    max_divergence,
    order_divergence_gap,
    povm_distinguishability_lower_bound,
    renyi_divergence,
    renyi_entropy,
)
from .domain import (
    CERTIFIED_BELOW,
    NOT_BELOW,
    UNKNOWN,
    WayBelowWitness,
    depolarize,
    directed_supremum,
    mixing_monotone_check,
    way_below_witness,
)
from .channels import (
    Channel,
    channel_compose,
    channel_max_divergence,
    channel_mix,
    channel_qpe_leq,
    channel_tensor,
    entanglement_fidelity,
    extended_output,
    jamiolkowski_properties_check,
    maximally_entangled,
    to_choi,
)
from .oracle import (
    CounterexampleReport,
    PartialTraceReport,
    ProbeResult,
    channel_order_oracle,
    choi_form_output,
    counterexample_suite,
    diagonal_order_oracle,
    partial_trace_counterexample,
    psd_probe,
    qpe_order_oracle,
    random_effect_lower_bound,
    shannon_entropy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
