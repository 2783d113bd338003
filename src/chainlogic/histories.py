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
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FrameworkViolationError,
    NumericalFaultError,
)
from .qm import (
    ALGEBRA_TOL,
    SPECTRAL_TOL,
    DensityOperator,
    LocalUnitary,
    Projector,
    identity,
    pair_defects,
    unitarity_defect,
)

NEGATIVITY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times with one unitary per interval.

    ``evolutions[i]`` maps states at ``times[i]`` to states at ``times[i+1]``.
    Times are abstract ordering labels with no physical units.  Each step is
    one of three kinds, told apart by what is passed for it:

      * dense: a square array, checked U^dagger U = I at its own size;
      * local: a ``LocalUnitary``, checked at the size of its ``op`` and
        embedded once with ``embed_operator``, then applied as that dense
        matrix.  The small check covers the embedding: it is op (x) I
        followed by a permutation P of the basis, so its U^dagger U is
        P ((op^dagger op) (x) I) P^T, the same entries moved, and its defect
        is op's;
      * identity: a ``LocalUnitary`` whose ``op`` is exactly the identity
        (``TimeGrid.identity`` passes the one on no sites).  It holds no
        matrix and ``evolve`` returns its input, equal entry for entry to
        I @ x (which may only flip the sign of a zero).

    ``evolve`` is the one way propagation applies a step; ``evolution``
    gives the step's matrix, building the identity only when asked.
    """

    times: tuple[float, ...]
    evolutions: tuple[np.ndarray | LocalUnitary, ...]
    # per step, the matrix evolve applies, or None for an identity step
    _applied: tuple[np.ndarray | None, ...] = field(init=False, repr=False)
    _dim: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if len(times) < 2:
            raise ValueError("time grid needs at least an initial and one later time")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if len(self.evolutions) != len(times) - 1:
            raise ValueError("need exactly one evolution per time interval")
        steps: list[np.ndarray | LocalUnitary] = []
        applied: list[np.ndarray | None] = []
        dim = None
        for i, u in enumerate(self.evolutions):
            if isinstance(u, LocalUnitary):
                step_dim, matrix = u.dim, None if u.is_identity else u.embedded()
            else:
                u = np.array(u, dtype=np.complex128)
                if u.ndim != 2 or u.shape[0] != u.shape[1]:
                    raise ValueError(f"evolution {i} is not a square matrix")
                defect = unitarity_defect(u)
                if not defect <= ALGEBRA_TOL:
                    raise ValueError(
                        f"evolution {i} is not unitary (defect {defect:.3e})")
                step_dim, matrix = len(u), u
            if dim is None:
                dim = step_dim
            elif step_dim != dim:
                raise DimensionMismatchError("evolutions act on different spaces")
            if matrix is not None:
                matrix.setflags(write=False)
            steps.append(u)
            applied.append(matrix)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "evolutions", tuple(steps))
        object.__setattr__(self, "_applied", tuple(applied))
        object.__setattr__(self, "_dim", dim)

    @classmethod
    def identity(cls, times: Sequence[float], dim: int) -> "TimeGrid":
        steps = len(tuple(times)) - 1
        return cls(tuple(times), (LocalUnitary(identity(1), (dim,), ()),) * steps)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def nsteps(self) -> int:
        return len(self.evolutions)

    def _step(self, time_index: int) -> np.ndarray | None:
        if not 1 <= time_index <= self.nsteps:
            raise ValueError(f"time index {time_index} out of range")
        return self._applied[time_index - 1]

    def evolution(self, time_index: int) -> np.ndarray:
        """Unitary carrying ``times[time_index - 1]`` to ``times[time_index]``."""
        u = self._step(time_index)
        return identity(self._dim) if u is None else u

    def evolve(self, time_index: int, x: np.ndarray) -> np.ndarray:
        """``x`` (a vector or a matrix of columns) carried from
        ``times[time_index - 1]`` to ``times[time_index]``: ``x`` itself
        across an identity step, else U @ x."""
        u = self._step(time_index)
        return x if u is None else u @ x


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
    return chain_apply(history, identity(history.grid.dim))


def chain_apply(history: History, vector: np.ndarray) -> np.ndarray:
    """Chain operator applied to a vector, or to each column of a matrix,
    without forming the operator."""
    out = np.asarray(vector, dtype=np.complex128)
    for ev in history.events:
        out = ev.projector.apply(history.grid.evolve(ev.time_index, out))
    return out


def _clamped_probability(value: float, floor: float = NEGATIVITY_FLOOR) -> float:
    if value < -floor:
        raise NumericalFaultError(
            f"probability {value:.3e} is below the negativity floor")
    return max(value, 0.0)


def history_probability(history: History, rho: DensityOperator) -> float:
    """Born weight Tr(F rho F^dagger) of a single history: with rho = A A^dagger
    it is the squared Frobenius norm of F A."""
    if rho.dim != history.grid.dim:
        raise DimensionMismatchError("state and grid dimensions differ")
    branch = chain_apply(history, rho.factor)
    return _clamped_probability(float(np.vdot(branch, branch).real))


def decomposition_at(t: int, events: Iterable[tuple[str, Projector]]
                     ) -> list[tuple[str, Projector]]:
    """The distinct projectors (by object) among the labeled ``events`` at
    time index ``t``, each with the first label it came with; raises
    ``ValueError`` unless they are pairwise (numerically) equal or orthogonal.
    Each projector copies what it is built from, so two projectors share no
    array and object identity is the identity of their entries."""
    distinct: list[tuple[str, Projector]] = []
    for label, proj in events:
        if not any(p is proj for _, p in distinct):
            distinct.append((label, proj))
    for i, (label_a, a) in enumerate(distinct):
        for label_b, b in distinct[i + 1:]:
            difference, cross = pair_defects(a, b)
            if difference > ALGEBRA_TOL and cross > ALGEBRA_TOL:
                raise ValueError(
                    f"projectors {label_a!r} and {label_b!r} at time index {t} "
                    "are neither equal nor orthogonal; the family does not "
                    "come from one decomposition")
    return distinct


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """Histories over one grid and one initial condition.

    At each time the projectors appearing across the family must be drawn
    from a single decomposition: pairwise they are either (numerically)
    identical or orthogonal.  The pair values come from ``qm.pair_defects``,
    so projectors shared between families are compared only once.
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
        for t, events in enumerate(zip(*(h.events for h in histories)), start=1):
            decomposition_at(t, ((ev.label, ev.projector) for ev in events))
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


def consistency_matrix(family: HistoryFamily,
                       tol: float = SPECTRAL_TOL) -> ConsistencyReport:
    """M[g, k] = Tr(F_g^dagger F_k rho) for all history pairs.

    The family is consistent iff every off-diagonal magnitude is below
    ``tol`` (strong condition: complex parts must vanish, not just the real
    ones).  A single-history family is trivially consistent.  With
    rho = A A^dagger each entry is Tr((F_g A)^dagger (F_k A)).
    """
    return gram_consistency([chain_apply(h, family.rho.factor)
                             for h in family.histories], tol)


def gram_consistency(kets: Sequence[np.ndarray],
                     tol: float = SPECTRAL_TOL) -> ConsistencyReport:
    """``consistency_matrix`` from the chain kets F_g A, one per history."""
    k = len(kets)
    branches = np.array(kets).reshape(k, -1)
    matrix = branches.conj() @ branches.T
    worst: tuple[int, int, float] | None = None
    if k > 1:
        # over g < j only: the diagonal and lower triangle are masked below
        # every magnitude, so two distinct histories are named even when
        # every off-diagonal entry is 0
        off = np.abs(matrix)
        off[np.tri(k, dtype=bool)] = -1.0
        g, j = divmod(int(off.argmax()), k)
        worst = (g, j, float(off[g, j]))
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
