"""Dense complex linear algebra for small finite Hilbert spaces.

States and operators are numpy arrays wrapped in thin frozen dataclasses that
validate their defining identities once, at construction, and are immutable
afterwards.  Tensor ordering convention: the leftmost factor is the slow
index, so ``basis_state(2,0) x basis_state(2,1)`` occupies index 1 of 4.
All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateSpanError,
    DimensionMismatchError,
    DuplicateLabelError,
    KindMismatchError,
    PvmCompletenessError,
    PvmOrthogonalityError,
)

# Algebraic identities (hermiticity, idempotence, completeness, unitarity).
ALGEBRA_TOL = 1e-12
# Spectra, consistency verdicts and other derived numerical checks.
SPECTRAL_TOL = 1e-10
# Residual norm below which a vector counts as dependent on a partial basis.
SPAN_DEPENDENCE_CUTOFF = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Per-run numerical tolerances."""

    consistency: float = SPECTRAL_TOL
    prune: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("consistency", "prune"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0 < value < 1):
                raise ValueError(f"tolerance {name!r} must lie in (0, 1), got {value!r}")

    @classmethod
    def from_mapping(cls, data: Mapping[str, float]) -> "Tolerances":
        unknown = set(data) - {"consistency", "prune"}
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})


def _frozen_complex(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")


def dagger(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().T


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def outer(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector, dtype=np.complex128)
    return np.outer(v, v.conj())


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry magnitude of ab - ba."""
    return float(np.abs(a @ b - b @ a).max())


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector with strictly positive norm."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amps, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("state vector must be a non-empty 1-d array")
        _require_finite(arr, "state vector")
        if np.linalg.norm(arr) == 0.0:
            raise ValueError("state vector must have nonzero norm")
        object.__setattr__(self, "amps", _frozen_complex(arr))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self, tol: float = ALGEBRA_TOL) -> bool:
        return abs(self.norm**2 - 1.0) < tol

    def normalized(self) -> "StateVector":
        return StateVector(self.amps / self.norm)

    def tensor(self, other: "StateVector") -> "StateVector":
        if not isinstance(other, StateVector):
            raise KindMismatchError("tensor of a state with a non-state")
        return StateVector(np.kron(self.amps, other.amps))


def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent matrix, validated at construction."""

    matrix: np.ndarray
    atol: float = field(default=ALGEBRA_TOL, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("projector must be a square matrix")
        _require_finite(arr, "projector")
        if np.abs(arr - arr.conj().T).max() > self.atol:
            raise ValueError("projector is not hermitian within tolerance")
        if np.abs(arr @ arr - arr).max() > self.atol:
            raise ValueError("projector is not idempotent within tolerance")
        object.__setattr__(self, "matrix", _frozen_complex(arr))

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    def tensor(self, other: "Projector") -> "Projector":
        if not isinstance(other, Projector):
            raise KindMismatchError("tensor of a projector with a non-projector")
        return Projector(np.kron(self.matrix, other.matrix))


def identity_projector(dim: int) -> Projector:
    return Projector(identity(dim))


def projector_onto(vector: StateVector) -> Projector:
    """Rank-1 projector onto the ray of ``vector``."""
    v = vector.amps / vector.norm
    return Projector(np.outer(v, v.conj()))


def projector_from_span(vectors: Sequence[StateVector]) -> Projector:
    """Projector onto the span of the given linearly independent vectors.

    Uses modified Gram-Schmidt with a second orthogonalization pass; a
    residual below ``SPAN_DEPENDENCE_CUTOFF`` relative to the input norm
    raises ``DegenerateSpanError``.  The result depends only on the span,
    not on the particular basis supplied.
    """
    if not vectors:
        raise DegenerateSpanError("span of no vectors is not a projector input")
    dim = vectors[0].dim
    basis: list[np.ndarray] = []
    for i, vec in enumerate(vectors):
        if vec.dim != dim:
            raise DimensionMismatchError(
                f"span vector {i} has dim {vec.dim}, expected {dim}")
        w = np.array(vec.amps, dtype=np.complex128)
        for _ in range(2):
            for u in basis:
                w = w - u * np.vdot(u, w)
        residual = np.linalg.norm(w)
        if residual < SPAN_DEPENDENCE_CUTOFF * vec.norm:
            raise DegenerateSpanError(
                f"vector {i} is linearly dependent on the preceding ones "
                f"(residual {residual:.3e})")
        basis.append(w / residual)
    total = np.zeros((dim, dim), dtype=np.complex128)
    for u in basis:
        total += np.outer(u, u.conj())
    return Projector(total)


def numerical_rank_cutoff(eigenvalues: np.ndarray, dim: int) -> float:
    """Eigenvalues at or below this count as zero (``matrix_rank``'s rule)."""
    return float(eigenvalues.max()) * dim * np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator.

    ``factor`` is a private square-root factor A, ``matrix`` = A A^dagger: the
    state vector for an operator built from one, else a (dim, r) matrix of
    the eigenvectors above ``numerical_rank_cutoff`` scaled by sqrt-eigenvalues.
    A factor passed in skips the eigendecomposition and is trusted.
    """

    matrix: np.ndarray
    factor: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density operator must be a square matrix")
        _require_finite(arr, "density operator")
        if np.abs(arr - arr.conj().T).max() > ALGEBRA_TOL:
            raise ValueError("density operator is not hermitian within tolerance")
        if abs(np.trace(arr).real - 1.0) > ALGEBRA_TOL or abs(np.trace(arr).imag) > ALGEBRA_TOL:
            raise ValueError("density operator trace is not 1 within tolerance")
        hermitian = (arr + arr.conj().T) / 2.0
        if self.factor is None:
            eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
            keep = eigenvalues > numerical_rank_cutoff(eigenvalues, len(arr))
            factor = eigenvectors[:, keep] * np.sqrt(eigenvalues[keep])
        else:
            eigenvalues = np.linalg.eigvalsh(hermitian)
            factor = self.factor
        if eigenvalues.min() < -SPECTRAL_TOL:
            raise ValueError("density operator has an eigenvalue below the negativity floor")
        object.__setattr__(self, "matrix", _frozen_complex(arr))
        object.__setattr__(self, "factor", _frozen_complex(factor))

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityOperator":
        if not state.is_normalized():
            raise ValueError("density operator requires a normalized state vector")
        return cls(outer(state.amps), factor=state.amps)

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        if not isinstance(other, DensityOperator):
            raise KindMismatchError("tensor of a density operator with a different kind")
        a, b = self.factor, other.factor
        if a.ndim != b.ndim:  # one side pure: treat its vector as a column
            a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
        return DensityOperator(np.kron(self.matrix, other.matrix),
                               factor=np.kron(a, b))


@dataclass(frozen=True, eq=False)
class ProjectiveDecomposition:
    """Labeled projectors, pairwise orthogonal and summing to the identity."""

    members: tuple[tuple[str, Projector], ...]
    atol: float = field(default=ALGEBRA_TOL, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple((str(l), p) for l, p in self.members))
        _check_pvm(self.members, atol=self.atol, complete=True)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.members)

    def projector(self, label: str) -> Projector:
        for member_label, proj in self.members:
            if member_label == label:
                return proj
        raise KeyError(label)


def _check_pvm(members: Sequence[tuple[str, Projector]], *, atol: float,
               complete: bool) -> None:
    if not members:
        raise PvmCompletenessError("decomposition has no members")
    labels = [label for label, _ in members]
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabelError(f"duplicate decomposition label {label!r}")
        seen.add(label)
    dim = members[0][1].dim
    for label, proj in members:
        if proj.dim != dim:
            raise DimensionMismatchError(
                f"member {label!r} has dim {proj.dim}, expected {dim}")
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            cross = np.abs(members[i][1].matrix @ members[j][1].matrix).max()
            if cross > atol:
                raise PvmOrthogonalityError(
                    f"members {labels[i]!r} and {labels[j]!r} are not orthogonal "
                    f"(max |PQ| = {cross:.3e})")
    if complete:
        total = sum(proj.matrix for _, proj in members)
        defect = np.abs(total - identity(dim)).max()
        if defect > atol:
            raise PvmCompletenessError(
                f"members sum to identity only within {defect:.3e}")


def validate_pvm(members: Sequence[tuple[str, Projector]],
                 atol: float = ALGEBRA_TOL) -> ProjectiveDecomposition:
    """Validate members as a complete projective decomposition.

    Raises ``PvmOrthogonalityError``, ``PvmCompletenessError`` or
    ``DuplicateLabelError`` depending on which requirement fails.
    """
    return ProjectiveDecomposition(tuple(members), atol=atol)


def tensor_product(left, right):
    """Kind-preserving tensor product; mixing kinds is an error."""
    if isinstance(left, StateVector) and isinstance(right, StateVector):
        return left.tensor(right)
    if isinstance(left, Projector) and isinstance(right, Projector):
        return left.tensor(right)
    if isinstance(left, DensityOperator) and isinstance(right, DensityOperator):
        return left.tensor(right)
    if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
        if left.ndim != right.ndim or left.ndim not in (1, 2):
            raise KindMismatchError("tensor of arrays with different ranks")
        return np.kron(left, right)
    raise KindMismatchError(
        f"tensor of mixed kinds: {type(left).__name__} with {type(right).__name__}")


def embed_operator(op: np.ndarray, dims: Sequence[int],
                   sites: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on ``sites`` (in that order) into the full
    tensor product space with factor dimensions ``dims``.

    ``op`` must be square with dimension equal to the product of the site
    dimensions.  Identity acts on all remaining factors.
    """
    dims = tuple(int(d) for d in dims)
    sites = tuple(int(s) for s in sites)
    if len(set(sites)) != len(sites):
        raise ValueError("embedding sites must be distinct")
    if any(not 0 <= s < len(dims) for s in sites):
        raise ValueError("embedding site out of range")
    op = np.asarray(op, dtype=np.complex128)
    site_dim = int(np.prod([dims[s] for s in sites])) if sites else 1
    if op.shape != (site_dim, site_dim):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match site dims product {site_dim}")
    rest = [i for i in range(len(dims)) if i not in sites]
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1
    full = np.kron(op, identity(rest_dim))
    # full now lives on factor order sites + rest; permute back to 0..n-1
    order = list(sites) + rest
    perm_dims = [dims[i] for i in order]
    inverse = np.argsort(order)
    tens = full.reshape(perm_dims + perm_dims)
    n = len(dims)
    tens = tens.transpose(list(inverse) + [n + i for i in inverse])
    total = int(np.prod(dims))
    return np.ascontiguousarray(tens.reshape(total, total))
