"""Positive-evidence order on quantum states and channels.

A partial order under which Bayesian conditioning moves states upward,
together with the Renyi entropies and sandwiched divergences that measure
the movement, domain-theoretic approximation witnesses, and the lift of all
of it to channels through their Choi states.

config, exceptions, linalg, states, orders and channels load with the
package. bayes, divergence, domain and oracle load on first use: the CLI's
handlers import the ones they call, so a command loads only what it runs,
and the first read of one of their names here loads all four (the module
__getattr__ below). states and channels stay eager because
bench/tracer.py finds the constructors it wraps (its CONSTRUCTORS) in
sys.modules when it installs.
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
    CERTIFIED_BELOW,
    FAILS,
    HOLDS,
    MARGINAL,
    NOT_BELOW,
    UNKNOWN,
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

__version__ = "0.1.0"

# the names of the modules loaded on first use, by module
_LAZY = {
    "bayes": (
        "TransitivityReport",
        "classical_solve_evidence",
        "classical_update",
        "fls_update",
        "measurement_monotone_check",
        "random_agreeing_effect",
        "reconstruct_effect",
        "sequential_solve_effect",
        "sequential_transitivity_demo",
        "sequential_update",
    ),
    "divergence": (
        "DivergenceValue",
        "classical_max_divergence",
        "effect_probability",
        "max_divergence",
        "order_divergence_gap",
        "povm_distinguishability_lower_bound",
        "renyi_divergence",
        "renyi_entropy",
    ),
    "domain": (
        "WayBelowWitness",
        "depolarize",
        "directed_supremum",
        "mixing_monotone_check",
        "way_below_witness",
    ),
    "oracle": (
        "CounterexampleReport",
        "PartialTraceReport",
        "ProbeResult",
        "channel_order_oracle",
        "choi_form_output",
        "counterexample_suite",
        "diagonal_order_oracle",
        "partial_trace_counterexample",
        "psd_probe",
        "qpe_order_oracle",
        "random_effect_lower_bound",
        "shannon_entropy",
    ),
}
_LAZY_NAMES = frozenset(name for module, names in _LAZY.items() for name in (module, *names))

__all__ = sorted({*(name for name in dir() if not name.startswith("_")), *_LAZY_NAMES})


def __getattr__(name):
    """On the first read of a lazy name, load the four lazy modules, bind
    every name they give here and remove this hook, so every later read is
    a plain lookup: CPython 3.11 specializes attribute reads only on a
    module whose namespace holds no __getattr__."""
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module, names in _LAZY.items():
        loaded = import_module(f"{__name__}.{module}")
        namespace[module] = loaded
        namespace.update((each, getattr(loaded, each)) for each in names)
    namespace.pop("__getattr__", None)  # a racing first read may have removed it
    return namespace[name]


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})
