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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBasisError,
    InternalConsistencyError,
    NotAHardyStateError,
    NumericalFaultError,
    ScheduleError,
)
from .histories import TimeGrid
from .qm import (
    ALGEBRA_TOL,
    DensityOperator,
    LocalUnitary,
    Projector,
    StateVector,
    Tolerances,
    identity,
    outer,
    unitarity_defect,
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
# Largest | |a|^2 + |b|^2 + |c|^2 - 1 | accepted for an amplitude triple.
AMPLITUDE_NORM_TOL = 1e-12
# Components at or below this magnitude are skipped when fixing a phase.
PHASE_FIX_FLOOR = 1e-12
# Largest Gram-matrix defect accepted for a setting's outcome pair.
SETTING_GRAM_TOL = 1e-10

L_SETTINGS = ("ML1", "ML2")
R_SETTINGS = ("MR1", "MR2")
OUTCOME_SIGNS = ("+", "-")

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
        if abs(norm_sq - 1.0) > AMPLITUDE_NORM_TOL:
            raise ValueError(
                f"amplitudes must be normalized within {AMPLITUDE_NORM_TOL:g}, "
                f"|.|^2 = {norm_sq!r}")

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
        above ``floor`` so conditional ratios stay well scaled.  A unit
        triple's smallest magnitude is at most 1/sqrt(3), so ``floor`` must
        lie in [0, 1/sqrt(3))."""
        if not 0.0 <= floor < 1.0 / math.sqrt(3.0):
            raise ValueError("random needs 0 <= floor < 1/sqrt(3)")
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
        if abs(x) > PHASE_FIX_FLOOR:
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
        defect = np.abs(gram - identity(2)).max()
        if not defect <= SETTING_GRAM_TOL:  # a NaN defect is refused too
            raise ValueError(f"setting {self.name}: outcome pair is not orthonormal")
        self.plus.setflags(write=False)
        self.minus.setflags(write=False)

    def vector(self, sign: str) -> np.ndarray:
        if sign == "+":
            return self.plus
        if sign == "-":
            return self.minus
        raise ValueError(f"unknown outcome sign {sign!r}")

    @functools.cached_property
    def _qubit_projectors(self) -> dict[str, Projector]:
        """Each outcome's projector on the pair, P (x) I for a left setting
        and I (x) P for a right one, made once per setting.  The broadcast
        multiply forms the products np.kron forms, bit for bit."""
        projectors = {}
        for sign in OUTCOME_SIGNS:
            p = outer(self.vector(sign))
            if self.side == "L":
                product = p[:, None, :, None] * _I2[None, :, None, :]
            else:
                product = _I2[:, None, :, None] * p[None, :, None, :]
            projectors[sign] = Projector(product.reshape(4, 4))
        return projectors


_I2 = identity(2)
_I2.setflags(write=False)
# the computational-basis settings, the same for every triple
ML1 = MeasurementSetting(side="L", name="ML1", plus=_I2[0], minus=_I2[1])
MR1 = MeasurementSetting(side="R", name="MR1", plus=_I2[1], minus=_I2[0])


def hardy_settings(amplitudes: HardyAmplitudes) -> tuple[MeasurementSetting, ...]:
    """The four settings (ML1, ML2, MR1, MR2) for this triple; ML1 and MR1
    are the shared module constants.

    Outcome conventions follow the module docstring: MR1+ registers |1>,
    MR2+ registers the normalized a|0> + b|1> (so MR2- is its orthogonal
    complement), while the left side maps + to |0> (ML1) and to d1_plus
    (ML2).
    """
    bases = derive_hardy_bases(amplitudes, require_strict=False)
    return (
        ML1,
        MeasurementSetting(side="L", name="ML2", plus=bases.d1_plus,
                           minus=bases.d1_minus),
        MR1,
        MeasurementSetting(side="R", name="MR2", plus=bases.d2_minus,
                           minus=bases.d2_plus),
    )


# One side's qubit x register space as (qubit, register), flat index 6q + r.
# Setting columns (1, +), (1, -), (2, +), (2, -): the ready state each starts
# in, the pointer it ends in, and the column of its partner outcome.
_COLUMNS = np.arange(4)
_START = np.array([0, 0, 1, 1])
_END = np.array([_POINTER[(k, sign)] for k in (1, 2) for sign in OUTCOME_SIGNS])
_PARTNER = np.array([1, 0, 3, 2])
# C^2 x span{p1+, p1-, p2+, p2-}, as flat indices: a_perp for every setting
_POINTER_COLUMNS = np.array([6 * q + r for q in range(2) for r in range(2, 6)])
# b_perp's last four columns, C^2 x span{ready1, ready2}; its first four are
# the partner outcomes
_READY_SECTOR = np.zeros((2, 6, 8), dtype=np.complex128)
_READY_SECTOR[[0, 0, 1, 1], [0, 1, 0, 1], [4, 5, 6, 7]] = 1.0
_READY_SECTOR.setflags(write=False)


def measurement_unitary(setting1: MeasurementSetting,
                        setting2: MeasurementSetting,
                        completion_seed: int | None = None) -> np.ndarray:
    """12x12 unitary on qubit x register for one side.

    Maps |outcome of setting k> |ready_k> to the same qubit state with the
    register moved to the matching pointer, for k in {1, 2}: with the four
    such columns in a (inputs) and b (outputs), U = b a^H + b_perp M a_perp^H.
    Both complements are exact.  span(a) is C^2 x span{ready1, ready2} for
    every setting pair, so a_perp is the constant C^2 x span{p1+, p1-, p2+,
    p2-}; b_perp is the partner outcome at each pointer (k, sign) together
    with C^2 x span{ready1, ready2}.  M is the identity, or with
    ``completion_seed`` a seeded random unitary.  a_perp has no entry in the
    ready sector, so the columns on it, the only ones a register that starts
    there reaches, are exactly b a^H: no seed changes a reachable amplitude,
    bit for bit.
    """
    outcomes = np.array([setting1.plus, setting1.minus,
                         setting2.plus, setting2.minus]).T  # (qubit, column)
    a, b = np.zeros((2, 2, 6, 4), dtype=np.complex128)
    a[:, _START, _COLUMNS] = outcomes
    b[:, _END, _COLUMNS] = outcomes
    u = b.reshape(12, 4) @ a.reshape(12, 4).conj().T
    b_perp = _READY_SECTOR.copy()
    b_perp[:, _END, _COLUMNS] = outcomes[:, _PARTNER]
    b_perp = b_perp.reshape(12, 8)
    # a_perp^H selects the pointer columns, where b a^H is zero
    u[:, _POINTER_COLUMNS] = (b_perp if completion_seed is None
                              else b_perp @ _completion_mix(completion_seed))
    defect = unitarity_defect(u)
    if not defect <= ALGEBRA_TOL:
        raise NumericalFaultError(
            f"measurement unitary failed unitarity by {defect:.3e}")
    return u


@functools.lru_cache(maxsize=1)
def _completion_mix(seed: int) -> np.ndarray:
    """The seeded 8x8 unitary, read-only.  The two sides of one build ask
    for the same seed back to back, so one entry lets them share a draw."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, r = np.linalg.qr(z)
    mix = q @ np.diag(r.diagonal() / np.abs(r.diagonal()))
    mix.setflags(write=False)
    return mix


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

    @property
    def dim(self) -> int:
        return self.grid.dim

    def setting(self, name: str) -> MeasurementSetting:
        for setting in self.settings:
            if setting.name == name:
                return setting
        raise KeyError(name)


def _validate_choice_weights(weights: ChoiceWeights) -> list[ClassicalChoice]:
    """The setting choices, left then right; bad weights raise ``ConfigError``."""
    choices = []
    for side, labels, pair in zip("LR", (L_SETTINGS, R_SETTINGS), weights):
        try:
            choices.append(ClassicalChoice(tuple(zip(labels, pair))))
        except ScheduleError as exc:
            raise ConfigError(f"choice weights for side {side}: {exc}") from exc
    return choices


def _qubit_projector(setting: MeasurementSetting, sign: str) -> Projector:
    return setting._qubit_projectors[sign]


_APPARATUS_DIMS = (2, 2, 6, 6)  # qubit L, qubit R, register L, register R
_SETTING_NUMBER = {"ML1": 1, "ML2": 2, "MR1": 1, "MR2": 2}
# the time steps where neither side measures
_UNMOVED = LocalUnitary(identity(1), _APPARATUS_DIMS, ())
_TIMES = (0.0, 1.0, 2.0, 3.0, 4.0)
# particle mode evolves nothing between its times
_PARTICLE_GRID = TimeGrid.identity(_TIMES, 4)


@functools.cache
def _register_projector(side: str, index: int) -> Projector:
    """|index><index| on one side's register, identity elsewhere: a
    diagonal projector, 1 where that register reads ``index``."""
    site = 2 if side == "L" else 3
    mask = np.zeros(_APPARATUS_DIMS)
    mask[(slice(None),) * site + (index,)] = 1.0
    return Projector(mask.ravel())


def _pointer_projector(setting: MeasurementSetting, sign: str) -> Projector:
    return _register_projector(setting.side,
                               _POINTER[(_SETTING_NUMBER[setting.name], sign)])


def _schedule(settings, left_choice, right_choice, outcome_projector):
    """Left setting, left outcome, right setting, right outcome.  Each
    setting's (+, -) outcome pair is built once; every branch through that
    setting declares the same two projectors."""
    outcomes = {s.name: [(s.name + sign, outcome_projector(s, sign))
                         for sign in OUTCOME_SIGNS] for s in settings}

    def outcome_layer(path):
        return outcomes[path[-1]]

    return [left_choice, outcome_layer, right_choice, outcome_layer]


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
    choices = _validate_choice_weights(choice_weights)
    weights = tuple(tuple(w for _, w in choice.members) for choice in choices)

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
        if tuple(s.side for s in setting_tuple) != ("L", "L", "R", "R"):
            raise ConfigError("settings ML1 and ML2 must have side 'L', "
                              "MR1 and MR2 side 'R'")
    pair_dim = pair_state.dim
    if pair_dim != 4:
        raise ConfigError("the pair state must be 4-dimensional")

    if mode == "particle":
        grid = _PARTICLE_GRID
        schedule = _schedule(setting_tuple, *choices, _qubit_projector)
        rho: StateVector | DensityOperator = pair_state
    else:
        # both routes hand over (ML1, ML2, MR1, MR2), in that order
        u_l = measurement_unitary(*setting_tuple[:2], completion_seed)
        u_r = measurement_unitary(*setting_tuple[2:], completion_seed)
        # each register starts in sqrt(w1)|ready1> + sqrt(w2)|ready2>
        chi_l, chi_r = np.zeros((2, 6), dtype=np.complex128)
        for chi, pair in ((chi_l, weights[0]), (chi_r, weights[1])):
            chi[:2] = [math.sqrt(w) for w in pair]
            chi /= np.linalg.norm(chi)
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
        grid = TimeGrid(_TIMES, (
            _UNMOVED, LocalUnitary(u_l, _APPARATUS_DIMS, (0, 2)),
            _UNMOVED, LocalUnitary(u_r, _APPARATUS_DIMS, (1, 3))))
        schedule = _schedule(
            setting_tuple,
            [("ML1", _register_projector("L", 0)), ("ML2", _register_projector("L", 1))],
            [("MR1", _register_projector("R", 0)), ("MR2", _register_projector("R", 1))],
            _pointer_projector)

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
        tree=pruned, consistency=report)


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
    w_l = dict(zip(L_SETTINGS, scenario.choice_weights[0]))
    w_r = dict(zip(R_SETTINGS, scenario.choice_weights[1]))
    table: dict[tuple[str, str], dict[tuple[str, str], float]] = {}
    for (ls, l_out, rs, r_out), value in joint_probability_table(scenario).items():
        weight = w_l[ls] * w_r[rs]
        table.setdefault((ls, rs), {})[(l_out, r_out)] = \
            value / weight if weight > 0 else float("nan")
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


def verify_hardy_predictions(scenario: HardyScenario) -> PredictionReport:
    """Evaluate the four defining joint probabilities from the pruned tree,
    against the scenario's consistency tolerance."""
    cond = conditional_outcome_table(scenario)
    return PredictionReport(
        s1=cond[("ML1", "MR1")][("ML1-", "MR1+")],
        s2=cond[("ML1", "MR2")][("ML1+", "MR2-")],
        s3=cond[("ML2", "MR1")][("ML2+", "MR1-")],
        s4=cond[("ML2", "MR2")][("ML2+", "MR2-")],
        tol=scenario.tolerances.consistency)


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


def no_signaling_report(scenario: HardyScenario) -> NoSignalingReport:
    """Marginal distributions of one side must not depend on the far setting,
    within the scenario's consistency tolerance."""
    cond = conditional_outcome_table(scenario)
    # marginals[side][near setting][far setting][near outcome], side 0 the
    # left: each sums the far side's outcomes in OUTCOME_SIGNS order
    marginals: tuple[dict[str, dict[str, dict[str, float]]], ...] = ({}, {})
    for settings, cell in cond.items():
        for side, near in enumerate(settings):
            far = settings[1 - side]
            marginal = marginals[side].setdefault(near, {}).setdefault(far, {})
            for outcomes, value in cell.items():
                marginal[outcomes[side]] = marginal.get(outcomes[side], 0) + value
    diffs = [abs(first[key] - second[key]) for by_near in marginals
             for first, second in (pair.values() for pair in by_near.values())
             for key in first]
    # np.max propagates NaN from zero-weight settings; plain max() would not
    worst = float(np.max(diffs))
    return NoSignalingReport(right_marginals=marginals[1],
                             left_marginals=marginals[0],
                             max_discrepancy=worst,
                             tol=scenario.tolerances.consistency)
