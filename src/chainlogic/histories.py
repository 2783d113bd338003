"""Histories over a time grid: chain operators, the consistency matrix, and
Born weights for history families.

A history assigns exactly one projector to every time after the initial one.
Its chain operator is the time-ordered product of event projectors and
inter-time evolutions; the consistency matrix collects the pairwise overlaps
Tr(F_g^dagger rho F_k), whose off-diagonals must all vanish (within
tolerance, in magnitude) for the family to count as a single framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FrameworkViolationError,
    InternalConsistencyError,
)
from .qm import (
    ALGEBRA_TOL,
    SPECTRAL_TOL,
    DensityOperator,
    Projector,
    identity,
)

NEGATIVITY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times with one unitary per interval.

    ``evolutions[i]`` maps states at ``times[i]`` to states at ``times[i+1]``.
    Times are abstract ordering labels with no physical units.
    """

    times: tuple[float, ...]
    evolutions: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if len(times) < 2:
            raise ValueError("time grid needs at least an initial and one later time")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if len(self.evolutions) != len(times) - 1:
            raise ValueError("need exactly one evolution per time interval")
        frozen = []
        dim = None
        for i, u in enumerate(self.evolutions):
            arr = np.asarray(u, dtype=np.complex128)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"evolution {i} is not a square matrix")
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise DimensionMismatchError("evolutions act on different spaces")
            defect = np.abs(arr.conj().T @ arr - identity(dim)).max()
            if defect > ALGEBRA_TOL:
                raise ValueError(f"evolution {i} is not unitary (defect {defect:.3e})")
            arr = np.array(arr)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "evolutions", tuple(frozen))

    @classmethod
    def identity(cls, times: Sequence[float], dim: int) -> "TimeGrid":
        steps = len(tuple(times)) - 1
        return cls(tuple(times), tuple(identity(dim) for _ in range(steps)))

    @property
    def dim(self) -> int:
        return self.evolutions[0].shape[0]

    @property
    def nsteps(self) -> int:
        return len(self.evolutions)

    def evolution(self, time_index: int) -> np.ndarray:
        """Unitary carrying ``times[time_index - 1]`` to ``times[time_index]``."""
        if not 1 <= time_index <= self.nsteps:
            raise ValueError(f"time index {time_index} out of range")
        return self.evolutions[time_index - 1]


@dataclass(frozen=True)
class HistoryEvent:
    time_index: int
    label: str
    projector: Projector


@dataclass(frozen=True, eq=False)
class History:
    """One projector per time after the initial one, in time order."""

    grid: TimeGrid
    events: tuple[HistoryEvent, ...]

    def __post_init__(self) -> None:
        events = tuple(self.events)
        expected = tuple(range(1, self.grid.nsteps + 1))
        if tuple(ev.time_index for ev in events) != expected:
            raise ValueError(
                "history must carry exactly one event per time index "
                f"{expected[0]}..{expected[-1]}, in order")
        for ev in events:
            if ev.projector.dim != self.grid.dim:
                raise DimensionMismatchError(
                    f"event at time index {ev.time_index} has dim "
                    f"{ev.projector.dim}, grid dim is {self.grid.dim}")
        object.__setattr__(self, "events", events)

    @property
    def label(self) -> str:
        return " / ".join(ev.label for ev in self.events)


def chain_operator(history: History) -> np.ndarray:
    """P_f U(f,f-1) ... P_1 U(1,0) as a dense matrix."""
    out = identity(history.grid.dim)
    for ev in history.events:
        out = ev.projector.matrix @ (history.grid.evolution(ev.time_index) @ out)
    return out


def chain_apply(history: History, vector: np.ndarray) -> np.ndarray:
    """Chain operator applied to a vector, or to each column of a matrix,
    without forming the operator."""
    out = np.asarray(vector, dtype=np.complex128)
    for ev in history.events:
        out = ev.projector.matrix @ (history.grid.evolution(ev.time_index) @ out)
    return out


def _clamped_probability(value: float, floor: float = NEGATIVITY_FLOOR) -> float:
    if value < -floor:
        raise InternalConsistencyError(
            f"probability {value:.3e} is below the negativity floor")
    return max(value, 0.0)


def history_probability(history: History, rho: DensityOperator) -> float:
    """Born weight Tr(F rho F^dagger) of a single history: with rho = A A^dagger
    it is the squared Frobenius norm of F A."""
    if rho.dim != history.grid.dim:
        raise DimensionMismatchError("state and grid dimensions differ")
    branch = chain_apply(history, rho.factor)
    return _clamped_probability(float(np.vdot(branch, branch).real))


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """Histories over one grid and one initial condition.

    At each time the projectors appearing across the family must be drawn
    from a single decomposition: pairwise they are either (numerically)
    identical or orthogonal.
    """

    grid: TimeGrid
    rho: DensityOperator
    histories: tuple[History, ...]

    def __post_init__(self) -> None:
        histories = tuple(self.histories)
        if not histories:
            raise ValueError("family needs at least one history")
        for h in histories:
            if h.grid is not self.grid and h.grid.times != self.grid.times:
                raise ValueError("all histories must share the family grid")
        if self.rho.dim != self.grid.dim:
            raise DimensionMismatchError("initial condition dim differs from grid dim")
        for t in range(1, self.grid.nsteps + 1):
            distinct: list[tuple[str, np.ndarray]] = []
            for h in histories:
                proj = h.events[t - 1].projector
                if not any(m is proj.matrix for _, m in distinct):
                    distinct.append((h.events[t - 1].label, proj.matrix))
            for i in range(len(distinct)):
                for j in range(i + 1, len(distinct)):
                    pa, pb = distinct[i][1], distinct[j][1]
                    if np.abs(pa - pb).max() <= ALGEBRA_TOL:
                        continue
                    if np.abs(pa @ pb).max() > ALGEBRA_TOL:
                        raise ValueError(
                            f"projectors {distinct[i][0]!r} and {distinct[j][0]!r} "
                            f"at time index {t} are neither equal nor orthogonal; "
                            "the family does not come from one decomposition")
        object.__setattr__(self, "histories", histories)

    def __len__(self) -> int:
        return len(self.histories)


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Pairwise chain overlaps and the verdict they imply."""

    matrix: np.ndarray
    tol: float
    consistent: bool
    worst_offdiagonal: tuple[int, int, float] | None

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else "inconsistent"

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()


def consistency_matrix(family: HistoryFamily,
                       tol: float = SPECTRAL_TOL) -> ConsistencyReport:
    """M[g, k] = Tr(F_g^dagger F_k rho) for all history pairs.

    The family is consistent iff every off-diagonal magnitude is below
    ``tol`` (strong condition: complex parts must vanish, not just the real
    ones).  A single-history family is trivially consistent.  With
    rho = A A^dagger each entry is Tr((F_g A)^dagger (F_k A)).
    """
    k = len(family.histories)
    branches = np.array([chain_apply(h, family.rho.factor)
                         for h in family.histories]).reshape(k, -1)
    matrix = branches.conj() @ branches.T
    worst: tuple[int, int, float] | None = None
    if k > 1:
        off = np.abs(matrix - np.diag(np.diag(matrix)))
        g, j = np.unravel_index(int(off.argmax()), off.shape)
        worst = (int(g), int(j), float(off[g, j]))
    consistent = worst is None or worst[2] < tol
    return ConsistencyReport(matrix=matrix, tol=tol, consistent=consistent,
                             worst_offdiagonal=worst)


def family_distribution(family: HistoryFamily,
                        tol: float = SPECTRAL_TOL) -> tuple[tuple[int, float], ...]:
    """Probabilities of the family's histories, index-keyed.

    Refuses inconsistent families: probability talk is meaningful only inside
    a single framework.  For exhaustive families the values sum to 1.
    """
    report = consistency_matrix(family, tol)
    if not report.consistent:
        g, k, magnitude = report.worst_offdiagonal
        raise FrameworkViolationError(
            f"family is inconsistent: |M[{g},{k}]| = {magnitude:.6e} >= {tol:.1e}",
            worst=magnitude)
    return tuple(
        (i, _clamped_probability(float(report.matrix[i, i].real)))
        for i in range(len(family.histories)))
