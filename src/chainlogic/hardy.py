"""Two-qubit Hardy scenario: state, derived bases, measurement schedule.

The state a|00> + b|01> + c|10> has no |11> component.  Each side owns two
alternative measurement settings; the left settings are ML1 (computational
basis) and ML2 (the basis whose plus outcome is orthogonal to a|0> + c|1>),
the right settings are MR1 and MR2.  The right-hand outcome naming is
deliberately flipped: MR1+ registers |1>, and MR2- registers the vector
orthogonal to a|0> + b|1>.  With those conventions three joint outcomes are
exactly forbidden,

    P(ML1- and MR1+) = 0      (no |11> component)
    P(ML1+ and MR2-) = 0      (MR2- kills a|0> + b|1>)
    P(ML2+ and MR1-) = 0      (ML2+ kills a|0> + c|1>)

while the fourth joint P(ML2+ and MR2-) is strictly positive for any triple
with all three amplitudes nonzero.

Two scenario modes share one branching schedule over times 0..4 (left
setting, left outcome, right setting, right outcome):

  * particle mode, dimension 4: the setting choices are classical branch
    weights and the outcome projectors act on the qubits directly;
  * apparatus mode, dimension 144: each side adds a six-state register
    (ready1, ready2, p1+, p1-, p2+, p2-) prepared in a superposition of the
    two ready states, a measurement unitary copies the outcome into the
    matching pointer state, and every branching projects registers only.
    The whole scenario is then one quantum framework, and the orthogonal
    pointer states make the full leaf family consistent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBasisError,
    InternalConsistencyError,
    NotAHardyStateError,
    ScheduleError,
)
from .histories import TimeGrid
from .qm import (
    DensityOperator,
    Projector,
    StateVector,
    Tolerances,
    embed_operator,
    identity,
    outer,
)
from .tree import (
    ClassicalChoice,
    FrameworkTree,
    TreeConsistencyReport,
    build_tree,
    prune_zero_branches,
    tree_consistency,
)

STRICT_AMPLITUDE_FLOOR = 1e-9

L_SETTINGS = ("ML1", "ML2")
R_SETTINGS = ("MR1", "MR2")
OUTCOME_SIGNS = ("+", "-")

REGISTER_LABELS = ("ready1", "ready2", "p1+", "p1-", "p2+", "p2-")
_READY = {1: 0, 2: 1}
_POINTER = {(1, "+"): 2, (1, "-"): 3, (2, "+"): 4, (2, "-"): 5}


@dataclass(frozen=True)
class HardyAmplitudes:
    """Normalized amplitude triple (a, b, c) of a|00> + b|01> + c|10>."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        norm_sq = abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2
        if not math.isfinite(norm_sq):
            raise ValueError("amplitudes must be finite")
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(
                f"amplitudes must be normalized within 1e-12, |.|^2 = {norm_sq!r}")

    @property
    def triple(self) -> tuple[complex, complex, complex]:
        return (self.a, self.b, self.c)

    @property
    def is_strict(self) -> bool:
        """True when every amplitude magnitude clears the strictness floor."""
        return all(abs(x) > STRICT_AMPLITUDE_FLOOR for x in self.triple)

    @classmethod
    def from_unnormalized(cls, a: complex, b: complex, c: complex) -> "HardyAmplitudes":
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero triple")
        return cls(a / norm, b / norm, c / norm)

    @classmethod
    def equal(cls) -> "HardyAmplitudes":
        r = 1.0 / math.sqrt(3.0)
        return cls(r, r, r)

    @classmethod
    def symmetric_outer(cls, b: float) -> "HardyAmplitudes":
        """Real triple with a = c, parametrized by b in (0, 1)."""
        if not 0.0 < b < 1.0:
            raise ValueError("symmetric_outer needs 0 < b < 1")
        a = math.sqrt((1.0 - b * b) / 2.0)
        return cls(a, b, a)

    @classmethod
    def equal_tail(cls, b: float) -> "HardyAmplitudes":
        """Real triple with b = c, parametrized by b in (0, 1/sqrt(2))."""
        if not 0.0 < b < math.sqrt(0.5):
            raise ValueError("equal_tail needs 0 < b < 1/sqrt(2)")
        a = math.sqrt(1.0 - 2.0 * b * b)
        return cls(a, b, b)

    @classmethod
    def random(cls, rng: np.random.Generator,
               floor: float = 0.05) -> "HardyAmplitudes":
        """Random complex strict triple; rejection keeps every magnitude
        above ``floor`` so conditional ratios stay well scaled."""
        while True:
            raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            raw = raw / np.linalg.norm(raw)
            if min(abs(x) for x in raw) > floor:
                return cls(*raw)


def hardy_state(amplitudes: HardyAmplitudes) -> StateVector:
    """The two-qubit state, left qubit on the slow index."""
    a, b, c = amplitudes.triple
    return StateVector(np.array([a, b, c, 0.0], dtype=np.complex128))


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rotate so the first nonzero component is real and positive."""
    for x in v:
        if abs(x) > 1e-12:
            return v * (np.conj(x) / abs(x))
    raise ValueError("cannot phase-fix the zero vector")


def _unit_orthogonal(w: np.ndarray) -> np.ndarray:
    return np.array([np.conj(w[1]), -np.conj(w[0])], dtype=np.complex128) \
        / np.linalg.norm(w)


@dataclass(frozen=True, eq=False)
class DerivedBases:
    """The two derived qubit bases, phase convention: first nonzero component
    of every vector is real positive."""

    d1_plus: np.ndarray
    d1_minus: np.ndarray
    d2_plus: np.ndarray
    d2_minus: np.ndarray

    def __post_init__(self) -> None:
        for name in ("d1_plus", "d1_minus", "d2_plus", "d2_minus"):
            arr = np.array(getattr(self, name), dtype=np.complex128)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def derive_hardy_bases(amplitudes: HardyAmplitudes, *,
                       require_strict: bool = True) -> DerivedBases:
    """Bases that realize the joint-outcome zeros.

    d1_plus is the unit vector orthogonal to a|0> + c|1> (left side),
    d2_plus the one orthogonal to a|0> + b|1> (right side); the minus
    partners complete each basis.  The strictness precondition is checked
    before degeneracy, so a triple with b = 0 fails as not-a-Hardy-state
    rather than as a degenerate d2 construction.
    """
    if require_strict and not amplitudes.is_strict:
        raise NotAHardyStateError(
            "amplitude triple is not strict: every magnitude must exceed "
            f"{STRICT_AMPLITUDE_FLOOR:.0e}")
    a, b, c = amplitudes.triple
    w1 = np.array([a, c], dtype=np.complex128)
    w2 = np.array([a, b], dtype=np.complex128)
    if np.linalg.norm(w1) <= STRICT_AMPLITUDE_FLOOR:
        raise DegenerateBasisError("a and c both vanish; the d1 basis is undefined")
    if np.linalg.norm(w2) <= STRICT_AMPLITUDE_FLOOR:
        raise DegenerateBasisError("a and b both vanish; the d2 basis is undefined")
    return DerivedBases(
        d1_plus=_phase_fixed(_unit_orthogonal(w1)),
        d1_minus=_phase_fixed(w1 / np.linalg.norm(w1)),
        d2_plus=_phase_fixed(_unit_orthogonal(w2)),
        d2_minus=_phase_fixed(w2 / np.linalg.norm(w2)),
    )


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """A named single-qubit setting: orthonormal (plus, minus) outcome pair."""

    side: str
    name: str
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self) -> None:
        if self.side not in ("L", "R"):
            raise ValueError("side must be 'L' or 'R'")
        for attr in ("plus", "minus"):
            arr = np.array(getattr(self, attr), dtype=np.complex128)
            if arr.shape != (2,):
                raise ValueError("outcome vectors must be single-qubit")
            object.__setattr__(self, attr, arr)
        gram = np.array([
            [np.vdot(self.plus, self.plus), np.vdot(self.plus, self.minus)],
            [np.vdot(self.minus, self.plus), np.vdot(self.minus, self.minus)],
        ])
        if np.abs(gram - identity(2)).max() > 1e-10:
            raise ValueError(f"setting {self.name}: outcome pair is not orthonormal")
        self.plus.setflags(write=False)
        self.minus.setflags(write=False)

    def vector(self, sign: str) -> np.ndarray:
        if sign == "+":
            return self.plus
        if sign == "-":
            return self.minus
        raise ValueError(f"unknown outcome sign {sign!r}")


def hardy_settings(amplitudes: HardyAmplitudes, *,
                   require_strict: bool = False
                   ) -> tuple[MeasurementSetting, ...]:
    """The four settings (ML1, ML2, MR1, MR2) for this triple.

    Outcome conventions follow the module docstring: MR1+ registers |1>,
    MR2+ registers the normalized a|0> + b|1> (so MR2- is its orthogonal
    complement), while the left side maps + to |0> (ML1) and to d1_plus
    (ML2).
    """
    bases = derive_hardy_bases(amplitudes, require_strict=require_strict)
    z0 = np.array([1.0, 0.0], dtype=np.complex128)
    z1 = np.array([0.0, 1.0], dtype=np.complex128)
    return (
        MeasurementSetting(side="L", name="ML1", plus=z0, minus=z1),
        MeasurementSetting(side="L", name="ML2", plus=bases.d1_plus,
                           minus=bases.d1_minus),
        MeasurementSetting(side="R", name="MR1", plus=z1, minus=z0),
        MeasurementSetting(side="R", name="MR2", plus=bases.d2_minus,
                           minus=bases.d2_plus),
    )


def measurement_unitary(setting1: MeasurementSetting,
                        setting2: MeasurementSetting,
                        completion_seed: int | None = None) -> np.ndarray:
    """12x12 unitary on qubit x register for one side.

    Maps |outcome of setting k> |ready_k> to the same qubit state with the
    register moved to the matching pointer, for k in {1, 2}.  The action on
    the orthogonal complement is an arbitrary completion; ``completion_seed``
    selects a different one (reachable amplitudes never depend on it because
    the register starts inside span{ready1, ready2}).
    """
    reg = identity(6)
    columns_in, columns_out = [], []
    for k, setting in ((1, setting1), (2, setting2)):
        for sign in OUTCOME_SIGNS:
            qubit = setting.vector(sign)
            columns_in.append(np.kron(qubit, reg[_READY[k]]))
            columns_out.append(np.kron(qubit, reg[_POINTER[(k, sign)]]))
    a = np.column_stack(columns_in)
    b = np.column_stack(columns_out)
    a_perp = np.linalg.svd(a, full_matrices=True)[0][:, 4:]
    b_perp = np.linalg.svd(b, full_matrices=True)[0][:, 4:]
    if completion_seed is None:
        mix = identity(8)
    else:
        rng = np.random.default_rng(completion_seed)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, r = np.linalg.qr(z)
        mix = q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
    u = b @ a.conj().T + b_perp @ mix @ a_perp.conj().T
    defect = np.abs(u.conj().T @ u - identity(12)).max()
    if defect > 1e-12:
        raise InternalConsistencyError(
            f"measurement unitary failed unitarity by {defect:.3e}")
    return u


@dataclass(frozen=True, eq=False)
class ApparatusModel:
    """Register sizes, choice amplitudes, and the two measurement unitaries."""

    choice_amplitudes_l: tuple[complex, complex]
    choice_amplitudes_r: tuple[complex, complex]
    unitary_l: np.ndarray
    unitary_r: np.ndarray
    completion_seed: int | None = None

    register_dim: int = field(default=6, init=False)

    def ready_state(self, side: str) -> np.ndarray:
        alpha, beta = (self.choice_amplitudes_l if side == "L"
                       else self.choice_amplitudes_r)
        vec = np.zeros(6, dtype=np.complex128)
        vec[0], vec[1] = alpha, beta
        return vec / np.linalg.norm(vec)


ChoiceWeights = tuple[tuple[float, float], tuple[float, float]]
DEFAULT_CHOICE_WEIGHTS: ChoiceWeights = ((0.5, 0.5), (0.5, 0.5))


@dataclass(frozen=True, eq=False)
class HardyScenario:
    """A built scenario: settings, schedule, trees, and consistency report."""

    amplitudes: HardyAmplitudes | None
    settings: tuple[MeasurementSetting, ...]
    choice_weights: ChoiceWeights
    mode: str
    tolerances: Tolerances
    grid: TimeGrid
    unpruned_tree: FrameworkTree
    tree: FrameworkTree
    consistency: TreeConsistencyReport
    apparatus: ApparatusModel | None = None

    @property
    def dim(self) -> int:
        return self.grid.dim

    def setting(self, name: str) -> MeasurementSetting:
        for setting in self.settings:
            if setting.name == name:
                return setting
        raise KeyError(name)


def _validate_choice_weights(weights: ChoiceWeights) -> ChoiceWeights:
    out = []
    for side, labels, pair in zip("LR", (L_SETTINGS, R_SETTINGS), weights):
        try:
            choice = ClassicalChoice(tuple(zip(labels, pair)))
        except ScheduleError as exc:
            raise ConfigError(f"choice weights for side {side}: {exc}") from exc
        out.append(tuple(weight for _, weight in choice.members))
    return (out[0], out[1])


def _qubit_projector(setting: MeasurementSetting, sign: str) -> Projector:
    p = outer(setting.vector(sign))
    if setting.side == "L":
        return Projector(np.kron(p, identity(2)))
    return Projector(np.kron(identity(2), p))


def _particle_schedule(settings, weights):
    by_name = {s.name: s for s in settings}

    def outcome_layer(path):
        setting = by_name[path[-1]]
        return [(setting.name + sign, _qubit_projector(setting, sign))
                for sign in OUTCOME_SIGNS]

    return [
        ClassicalChoice((("ML1", weights[0][0]), ("ML2", weights[0][1]))),
        outcome_layer,
        ClassicalChoice((("MR1", weights[1][0]), ("MR2", weights[1][1]))),
        outcome_layer,
    ]


_APPARATUS_DIMS = (2, 2, 6, 6)  # qubit L, qubit R, register L, register R


@functools.cache
def _register_projector(side: str, index: int) -> Projector:
    site = 2 if side == "L" else 3
    reg = np.zeros(6)
    reg[index] = 1.0
    return Projector(embed_operator(outer(reg), _APPARATUS_DIMS, (site,)))


def _apparatus_schedule(settings):
    setting_number = {"ML1": 1, "ML2": 2, "MR1": 1, "MR2": 2}

    def outcome_layer(path):
        name = path[-1]
        side = "L" if name in L_SETTINGS else "R"
        k = setting_number[name]
        return [(name + sign, _register_projector(side, _POINTER[(k, sign)]))
                for sign in OUTCOME_SIGNS]

    return [
        [("ML1", _register_projector("L", 0)), ("ML2", _register_projector("L", 1))],
        outcome_layer,
        [("MR1", _register_projector("R", 0)), ("MR2", _register_projector("R", 1))],
        outcome_layer,
    ]


def build_measurement_scenario(
        amplitudes: HardyAmplitudes | None = None, *,
        state: StateVector | DensityOperator | None = None,
        settings: Sequence[MeasurementSetting] | None = None,
        choice_weights: ChoiceWeights = DEFAULT_CHOICE_WEIGHTS,
        mode: str = "apparatus",
        tolerances: Tolerances = Tolerances(),
        completion_seed: int | None = None) -> HardyScenario:
    """Build, prune, and consistency-check a full scenario.

    Either pass ``amplitudes`` (settings and the pair state are derived), or
    pass an explicit 4-dimensional ``state`` together with all four
    ``settings`` for a custom scenario.  The amplitude route tolerates
    degenerate triples such as b = 0 (the scenario builds; prediction
    reports then flag it), only basis constructions that are genuinely
    undefined raise.
    """
    if mode not in ("particle", "apparatus"):
        raise ConfigError(f"unknown mode {mode!r}")
    weights = _validate_choice_weights(choice_weights)

    if amplitudes is not None:
        if state is not None or settings is not None:
            raise ConfigError("pass either amplitudes or an explicit state "
                              "with settings, not both")
        pair_state: StateVector | DensityOperator = hardy_state(amplitudes)
        setting_tuple = hardy_settings(amplitudes)
    else:
        if state is None or settings is None:
            raise ConfigError("custom scenarios need both state and settings")
        pair_state = state
        setting_tuple = tuple(settings)
        names = tuple(s.name for s in setting_tuple)
        if names != ("ML1", "ML2", "MR1", "MR2"):
            raise ConfigError("settings must be (ML1, ML2, MR1, MR2), in order")
    pair_dim = pair_state.dim
    if pair_dim != 4:
        raise ConfigError("the pair state must be 4-dimensional")

    times = (0.0, 1.0, 2.0, 3.0, 4.0)
    apparatus = None
    if mode == "particle":
        grid = TimeGrid.identity(times, 4)
        schedule = _particle_schedule(setting_tuple, weights)
        rho: StateVector | DensityOperator = pair_state
    else:
        amps_l = tuple(math.sqrt(w) for w in weights[0])
        amps_r = tuple(math.sqrt(w) for w in weights[1])
        by_name = {s.name: s for s in setting_tuple}
        u_l = measurement_unitary(by_name["ML1"], by_name["ML2"], completion_seed)
        u_r = measurement_unitary(by_name["MR1"], by_name["MR2"], completion_seed)
        apparatus = ApparatusModel(
            choice_amplitudes_l=amps_l, choice_amplitudes_r=amps_r,
            unitary_l=u_l, unitary_r=u_r, completion_seed=completion_seed)
        chi_l = apparatus.ready_state("L")
        chi_r = apparatus.ready_state("R")
        if isinstance(pair_state, StateVector):
            full = np.einsum("lr,m,n->lmrn",
                             pair_state.normalized().amps.reshape(2, 2),
                             chi_l, chi_r)
            # einsum produced (qL, regL, qR, regR); reorder to the module
            # convention (qL, qR, regL, regR)
            rho = StateVector(full.transpose(0, 2, 1, 3).reshape(144))
        else:
            rho = pair_state.tensor(DensityOperator.from_state(
                StateVector(np.kron(chi_l, chi_r))))
        dim = 144
        u_l_full = embed_operator(u_l, _APPARATUS_DIMS, (0, 2))
        u_r_full = embed_operator(u_r, _APPARATUS_DIMS, (1, 3))
        grid = TimeGrid(times, (identity(dim), u_l_full, identity(dim), u_r_full))
        schedule = _apparatus_schedule(setting_tuple)

    unpruned = build_tree(grid, schedule, rho, residual_tol=tolerances.prune)
    pruned = prune_zero_branches(unpruned, tolerances.prune)
    report = tree_consistency(pruned, tolerances.consistency)
    if not report.consistent:
        raise InternalConsistencyError(
            "scenario tree failed its own consistency check "
            f"(worst off-diagonal {report.worst_magnitude:.3e})")
    return HardyScenario(
        amplitudes=amplitudes, settings=setting_tuple, choice_weights=weights,
        mode=mode, tolerances=tolerances, grid=grid, unpruned_tree=unpruned,
        tree=pruned, consistency=report, apparatus=apparatus)


JointKey = tuple[str, str, str, str]


def scenario_keys() -> tuple[JointKey, ...]:
    keys = []
    for ls in L_SETTINGS:
        for lo in OUTCOME_SIGNS:
            for rs in R_SETTINGS:
                for ro in OUTCOME_SIGNS:
                    keys.append((ls, ls + lo, rs, rs + ro))
    return tuple(keys)


def joint_probability_table(scenario: HardyScenario) -> dict[JointKey, float]:
    """All sixteen joint leaf probabilities (pruned branches contribute 0)."""
    found = {path: prob for path, prob in scenario.tree.leaf_probabilities()}
    return {key: found.get(key, 0.0) for key in scenario_keys()}


def conditional_outcome_table(
        scenario: HardyScenario) -> dict[tuple[str, str], dict[tuple[str, str], float]]:
    """Outcome distributions conditioned on each setting combination.

    Classical choice weights are divided out; a setting combination with
    zero weight yields NaN entries.
    """
    joint = joint_probability_table(scenario)
    w_l = dict(zip(L_SETTINGS, scenario.choice_weights[0]))
    w_r = dict(zip(R_SETTINGS, scenario.choice_weights[1]))
    table: dict[tuple[str, str], dict[tuple[str, str], float]] = {}
    for ls in L_SETTINGS:
        for rs in R_SETTINGS:
            weight = w_l[ls] * w_r[rs]
            cell = {}
            for lo in OUTCOME_SIGNS:
                for ro in OUTCOME_SIGNS:
                    value = joint[(ls, ls + lo, rs, rs + ro)]
                    cell[(ls + lo, rs + ro)] = value / weight if weight > 0 \
                        else float("nan")
            table[(ls, rs)] = cell
    return table


@dataclass(frozen=True)
class PredictionReport:
    """The three joint zeros and the strictly positive fourth joint.

    Values are conditional on the respective setting combination.
    """

    s1: float
    s2: float
    s3: float
    s4: float
    tol: float

    @property
    def zeros_pass(self) -> bool:
        values = (self.s1, self.s2, self.s3)
        return all(math.isfinite(v) and v < self.tol for v in values)

    @property
    def s4_pass(self) -> bool:
        return math.isfinite(self.s4) and self.s4 > self.tol

    @property
    def is_hardy(self) -> bool:
        return self.zeros_pass and self.s4_pass

    @property
    def flag(self) -> str | None:
        if self.is_hardy:
            return None
        if self.zeros_pass and not self.s4_pass:
            return "not a Hardy state: the fourth joint probability vanishes"
        return "not a Hardy state: a joint zero fails"


def verify_hardy_predictions(scenario: HardyScenario,
                             tol: float | None = None) -> PredictionReport:
    """Evaluate the four defining joint probabilities from the pruned tree."""
    tol = scenario.tolerances.consistency if tol is None else float(tol)
    cond = conditional_outcome_table(scenario)
    return PredictionReport(
        s1=cond[("ML1", "MR1")][("ML1-", "MR1+")],
        s2=cond[("ML1", "MR2")][("ML1+", "MR2-")],
        s3=cond[("ML2", "MR1")][("ML2+", "MR1-")],
        s4=cond[("ML2", "MR2")][("ML2+", "MR2-")],
        tol=tol)


@dataclass(frozen=True)
class NoSignalingReport:
    """Outcome marginals of each side against the far side's setting."""

    right_marginals: dict[str, dict[str, dict[str, float]]]
    left_marginals: dict[str, dict[str, dict[str, float]]]
    max_discrepancy: float
    tol: float

    @property
    def passes(self) -> bool:
        return self.max_discrepancy < self.tol


def no_signaling_report(scenario: HardyScenario,
                        tol: float | None = None) -> NoSignalingReport:
    """Marginal distributions of one side must not depend on the far setting."""
    tol = scenario.tolerances.consistency if tol is None else float(tol)
    cond = conditional_outcome_table(scenario)
    right: dict[str, dict[str, dict[str, float]]] = {}
    left: dict[str, dict[str, dict[str, float]]] = {}
    for rs in R_SETTINGS:
        right[rs] = {}
        for ls in L_SETTINGS:
            cell = cond[(ls, rs)]
            right[rs][ls] = {
                rs + ro: sum(cell[(ls + lo, rs + ro)] for lo in OUTCOME_SIGNS)
                for ro in OUTCOME_SIGNS}
    for ls in L_SETTINGS:
        left[ls] = {}
        for rs in R_SETTINGS:
            cell = cond[(ls, rs)]
            left[ls][rs] = {
                ls + lo: sum(cell[(ls + lo, rs + ro)] for ro in OUTCOME_SIGNS)
                for lo in OUTCOME_SIGNS}
    diffs = []
    for rs in R_SETTINGS:
        pair = [right[rs][ls] for ls in L_SETTINGS]
        diffs.extend(abs(pair[0][key] - pair[1][key]) for key in pair[0])
    for ls in L_SETTINGS:
        pair = [left[ls][rs] for rs in R_SETTINGS]
        diffs.extend(abs(pair[0][key] - pair[1][key]) for key in pair[0])
    # np.max propagates NaN from zero-weight settings; plain max() would not
    worst = float(np.max(diffs))
    return NoSignalingReport(right_marginals=right, left_marginals=left,
                             max_discrepancy=worst, tol=tol)
