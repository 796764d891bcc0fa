"""Counterfactual identification for response-function causal models.

Exact-rational causal core, classical and coherent oracle simulators,
partial-identification linear programs, and an epistemically restricted
bit-pair model of the binary scenario.
"""

from .classical import (
    ClassicalQueryRecord,
    ConditionalEstimates,
    SampleLog,
    estimate_conditionals,
    make_rng,
    query,
    simulate_log,
)
from .core import (
    DEFAULT_ENUMERATION_CAP,
    ConfoundedModel,
    CounterfactualQuery,
    Evidence,
    FunctionDistribution,
    FunctionTable,
    abduct_act_predict,
    conditional,
    conditional_counterfactual,
    do_conditional,
    embed_square,
    enumerate_functions,
    joint_counterfactual,
    observational_joint,
)
from .errors import (
    CfOracleError,
    ContractViolationError,
    DomainError,
    EnumerationCapError,
    ExtractionError,
    InfeasibleSystemError,
    InternalCheckError,
    MeasurementInconsistencyError,
    UnboundedProgramError,
    UndefinedConditionalError,
    UnsupportedTableError,
    ValidationError,
)
from .identify import (
    Bounds,
    ConstraintLevel,
    ConstraintSystem,
    IdentifiabilityResult,
    LinearTarget,
    build_constraints,
    constant_mixture,
    is_identifiable,
    lp_bounds,
    lp_bounds_with_witnesses,
    permutation_mixture,
    reproduce_appendix_b,
    reproduce_appendix_e_general,
    restricted_tail_model,
    solution_family_direction,
    vertex_bounds,
)
from .modelio import load_model, parse_model, save_model
from .quantum import (
    Amplitudes,
    BINARY_SCENARIOS,
    DensityMatrix,
    MeasurementEffect,
    apply_oracle,
    bell_effect,
    binary_forward_measurements,
    build_rho_xy,
    computational_effect,
    extract_two_way,
    measure,
    measure_shots,
    scenario_probability_exact,
    scenario_probability_simulated,
    solve_binary_pF,
    tomography_sweep,
)
from .report import Claim, ReproductionReport
from .toy import (
    ToyEpistemicState,
    ToyOraclePermutation,
    apply_oracle_mixture,
    is_valid_epistemic_state,
    toy_measure,
    toy_oracle,
    toy_prepare,
    toy_scenario_probability,
    verify_binary_equivalence,
)

__version__ = "0.1.0"
