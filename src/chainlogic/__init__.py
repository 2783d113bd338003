"""Consistent-histories engine with a two-qubit counterfactual scenario.

The package is layered: qm (states, projectors, decompositions), histories
(chain operators and the consistency condition), tree (branching schedules,
pruning, compatibility, export), hardy (the two-qubit scenario in particle
and apparatus modes), counterfactual (pivot substitution and the locality
contrast), sweep (parameter families), cli (the chainlogic command).
"""

from .counterfactual import (
    CounterfactualQuery,
    CounterfactualVerdict,
    LocalityReport,
    PivotPath,
    evaluate_counterfactual,
    evaluate_switch_counterfactual,
    find_pivot,
    locality_report,
)
from .errors import (
    ChainLogicError,
    ConfigError,
    DegenerateBasisError,
    DegenerateSpanError,
    DimensionMismatchError,
    DuplicateLabelError,
    FrameworkViolationError,
    InternalConsistencyError,
    KindMismatchError,
    NotAHardyStateError,
    NumericalFaultError,
    PvmCompletenessError,
    PvmOrthogonalityError,
    ScheduleError,
    VacuousPremiseError,
)
from .hardy import (
    HardyAmplitudes,
    HardyScenario,
    MeasurementSetting,
    NoSignalingReport,
    PredictionReport,
    build_measurement_scenario,
    conditional_outcome_table,
    hardy_settings,
    hardy_state,
    joint_probability_table,
    measurement_unitary,
    no_signaling_report,
    verify_hardy_predictions,
)
from .histories import (
    History,
    HistoryEvent,
    HistoryFamily,
    TimeGrid,
    chain_operator,
    consistency_matrix,
    family_distribution,
    history_probability,
)
from .qm import (
    DensityOperator,
    LocalUnitary,
    ProjectiveDecomposition,
    Projector,
    StateVector,
    Tolerances,
    basis_state,
    embed_operator,
    projector_from_span,
    projector_onto,
    tensor_product,
    validate_pvm,
)
from .sweep import (
    S4Maximum,
    SweepRow,
    family_amplitudes,
    maximize_s4,
    parameter_sweep,
)
from .tree import (
    BranchNode,
    ClassicalChoice,
    FrameworkTree,
    TreeConsistencyReport,
    build_tree,
    check_compatibility,
    enforce_single_framework,
    export_tree,
    import_tree_json,
    prune_zero_branches,
    to_history_family,
    tree_consistency,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
