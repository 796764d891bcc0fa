"""Counterfactual identification for response-function causal models.

Exact-rational causal core, classical and coherent oracle simulators,
partial-identification linear programs, and an epistemically restricted
bit-pair model of the binary scenario.

The names below are resolved lazily (PEP 562): ``import cforacle`` loads
no submodule, and the first access to an exported name imports the one
submodule that defines it.  So the exact layers never pull in numpy.
"""

from importlib import import_module

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "classical": (
            "ConditionalEstimates", "SampleLog", "estimate_conditionals",
            "make_rng", "simulate_log",
        ),
        "core": (
            "DEFAULT_ENUMERATION_CAP", "ConfoundedModel", "CounterfactualQuery",
            "Evidence", "FunctionDistribution", "FunctionTable", "conditional",
            "conditional_counterfactual", "enumerate_functions",
            "joint_counterfactual",
        ),
        "errors": (
            "CfOracleError", "ContractViolationError", "DomainError",
            "EnumerationCapError", "ExtractionError", "InfeasibleSystemError",
            "InternalCheckError", "MeasurementInconsistencyError",
            "UnboundedProgramError", "UndefinedConditionalError",
            "UnsupportedTableError", "ValidationError",
        ),
        "identify": (
            "BINARY_SCENARIOS", "Bounds", "ConstraintLevel", "ConstraintSystem",
            "IdentifiabilityResult", "LinearTarget", "binary_forward_measurements",
            "build_constraints", "is_identifiable", "lp_bounds",
            "lp_bounds_with_witnesses", "restricted_tail_model",
            "scenario_probability_exact", "solution_family_direction",
            "solve_binary_pF",
        ),
        "modelio": ("load_model", "parse_model", "save_model"),
        "quantum": (
            "Amplitudes", "DensityMatrix", "MeasurementEffect", "bell_effect",
            "build_rho_xy", "computational_effect", "extract_two_way",
            "measure", "scenario_probability_simulated", "tomography_sweep",
        ),
        "report": ("Claim", "ReproductionReport"),
        "reproduce": (
            "constant_mixture", "permutation_mixture", "reproduce_appendix_b",
            "reproduce_appendix_e_general",
        ),
        "toy": (
            "ToyEpistemicState", "apply_oracle_mixture", "toy_measure",
            "toy_prepare", "toy_scenario_probability",
            "verify_binary_equivalence",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # An unknown name must raise AttributeError: ``from cforacle import
    # classical`` then falls back to importing the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
