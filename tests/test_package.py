"""The package namespace: every public name, eager or loaded on first use."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpe

PUBLIC_NAMES = [
    "BadAlpha", "BadParameter", "CERTIFIED_BELOW", "Channel", "CounterexampleReport",
    "DEFAULT_CONFIG", "DegenerateDraw", "DensityMatrix", "DimensionMismatch",
    "DivergenceValue", "Effect", "Eigenspace", "FAILS", "HOLDS", "InputFormatError",
    "InvalidState", "MARGINAL", "NOT_BELOW", "NegativeEigenvalue", "NonFiniteInput",
    "NonHermitianInput", "NonpositiveScalar", "NotAChain", "NotBelow", "NotCPTP",
    "NotConverged", "OrderVerdict", "OverflowingInput", "PartialTraceReport",
    "PreconditionViolated", "ProbeResult", "QpeError", "SupportViolation",
    "ToleranceConfig", "TransitivityReport", "UNKNOWN", "WayBelowWitness", "ZeroEvidence",
    "ZeroProbability", "as_probability_vector", "bayes", "bottom_eigenspace_nonzero",
    "channel_compose", "channel_max_divergence", "channel_mix", "channel_order_oracle",
    "channel_qpe_leq", "channel_tensor", "channels", "choi_form_output",
    "classical_max_divergence", "classical_pe_leq", "classical_solve_evidence",
    "classical_update", "config", "counterexample_suite", "depolarize",
    "diagonal_order_oracle", "directed_supremum", "divergence", "domain",
    "effect_probability", "eigenvalue_shadow", "entanglement_fidelity", "exceptions",
    "extended_output", "f_renormalized_leq", "fidelity", "fls_update", "is_psd",
    "jamiolkowski_properties_check", "kernel", "lev_leq", "linalg", "majorizes",
    "matrix_power", "max_divergence", "maximally_entangled", "measurement_monotone_check",
    "min_entropy", "mixing_monotone_check", "operator_norm", "oracle",
    "order_divergence_gap", "orders", "partial_trace", "partial_trace_counterexample",
    "partial_transpose", "povm_distinguishability_lower_bound", "primed_leq", "psd_probe",
    "qpe_leq", "qpe_order_oracle", "random_agreeing_effect", "random_effect_lower_bound",
    "random_state", "rank_of", "reconstruct_effect", "renyi_divergence", "renyi_entropy",
    "schatten_norm", "sequential_solve_effect", "sequential_transitivity_demo",
    "sequential_update", "shannon_entropy", "states", "subspace_intersects", "tensor",
    "to_choi", "top_eigenspace", "top_eigenvalue", "way_below_witness",
]
SUBMODULES = ["bayes", "channels", "config", "divergence", "domain", "exceptions",
              "linalg", "oracle", "orders", "states"]
EAGER = ["config", "exceptions", "linalg", "states", "orders", "channels"]


def test_all_lists_every_public_name_in_order():
    assert len(PUBLIC_NAMES) == 112
    assert qpe.__all__ == PUBLIC_NAMES


def test_every_name_resolves_is_stored_and_listed():
    listed = set(dir(qpe))
    for name in PUBLIC_NAMES:
        getattr(qpe, name)
        assert name in vars(qpe)  # stored: the next read is a plain lookup
        assert name in listed
    for name in SUBMODULES:
        assert getattr(qpe, name) is sys.modules[f"qpe.{name}"]


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from qpe import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qpe.no_such_name
    assert not hasattr(qpe, "cli_main")


def test_a_lazy_name_is_the_defining_modules_object():
    from qpe.divergence import max_divergence
    from qpe.domain import CERTIFIED_BELOW, way_below_witness

    assert qpe.max_divergence is max_divergence
    assert qpe.way_below_witness is way_below_witness
    assert qpe.CERTIFIED_BELOW is CERTIFIED_BELOW is qpe.linalg.CERTIFIED_BELOW


def test_import_alone_loads_states_and_channels():
    # bench/tracer.py's CONSTRUCTORS loop reads qpe.states and qpe.channels
    # out of sys.modules when it installs, so both must load with the package
    probe = ("import sys, qpe\n"
             "loaded = lambda: sorted(m for m in sys.modules if m.startswith('qpe.'))\n"
             "print(*[name for name in dir(qpe) if not name.startswith('_')])\n"
             "print(*loaded())\n"
             "qpe.max_divergence\n"
             "print(*loaded(), '__getattr__' in vars(qpe))\n")
    src = str(Path(qpe.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    listed, eager, (*after_read, hook_kept) = (line.split() for line in done.stdout.splitlines())
    assert listed == PUBLIC_NAMES  # before any name is read
    assert set(eager) == {f"qpe.{name}" for name in EAGER}
    # the first lazy read loads all four lazy modules and removes the hook,
    # so later reads are plain (specializable) module attribute reads
    assert set(after_read) == {f"qpe.{name}" for name in SUBMODULES}
    assert hook_kept == "False"
