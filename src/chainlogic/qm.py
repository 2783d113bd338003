"""Complex linear algebra for small finite Hilbert spaces.

States and operators are numpy arrays wrapped in thin frozen dataclasses that
validate their defining identities once, at construction, and are immutable
afterwards.  Tensor ordering convention: the leftmost factor is the slow
index, so ``basis_state(2,0) x basis_state(2,1)`` occupies index 1 of 4.
All functions are pure.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
# Smallest consistency tolerance a run configuration may set: about 45 ulps
# of 1, so the rounding in a report's sums of probabilities (a few ulps)
# never fails a check.
CONSISTENCY_TOL_FLOOR = 1e-14
# Residual norm below which a vector counts as dependent on a partial basis.
SPAN_DEPENDENCE_CUTOFF = 1e-10
# Branch weight below which a branch counts as zero and is pruned.
DEFAULT_PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Per-run numerical tolerances."""

    consistency: float = SPECTRAL_TOL
    prune: float = DEFAULT_PRUNE_TOL

    def __post_init__(self) -> None:
        for name in ("consistency", "prune"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0 < value < 1):
                raise ValueError(f"tolerance {name!r} must lie in (0, 1), got {value!r}")


def _frozen_complex(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def outer(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector, dtype=np.complex128)
    return np.outer(v, v.conj())


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry magnitude of ab - ba."""
    return float(np.abs(a @ b - b @ a).max())


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry magnitude of U^dagger U - I for a square ``u``; NaN when
    ``u`` has a non-finite entry, so callers refuse ``not defect <= tol``."""
    return float(np.abs(u.conj().T @ u - identity(len(u))).max())


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

    def is_normalized(self) -> bool:
        return abs(self.norm**2 - 1.0) < ALGEBRA_TOL

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
    """An orthogonal projector, validated at construction.  It has one of two
    kinds, told apart by what is passed as ``entries``:

      * dense: a square matrix, checked hermitian and idempotent within
        ``ALGEBRA_TOL``;
      * diagonal: a 1-D array d standing for diag(d), checked finite, real
        within ``ALGEBRA_TOL`` and d^2 = d within ``ALGEBRA_TOL``.  These are
        the dense checks read off the diagonal: diag(d) has zero off-diagonal
        entries, so with d real it is hermitian, and diag(d)^2 = diag(d^2),
        so d^2 = d makes it idempotent.  d is stored as its real part, and
        ``matrix`` is built only when it is read.

    ``apply`` is the one way a projector acts on a vector or a matrix of
    columns.
    """

    entries: np.ndarray  # a square matrix, or the diagonal of one

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim == 1:
            if arr.size == 0:
                raise ValueError("projector diagonal must be non-empty")
            _require_finite(arr, "projector")
            if np.abs(arr.imag).max() > ALGEBRA_TOL:
                raise ValueError("projector diagonal is not real within tolerance")
            arr = arr.real
            if np.abs(arr * arr - arr).max() > ALGEBRA_TOL:
                raise ValueError("projector is not idempotent within tolerance")
        else:
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("projector must be a square matrix or a diagonal")
            _require_finite(arr, "projector")
            if np.abs(arr - arr.conj().T).max() > ALGEBRA_TOL:
                raise ValueError("projector is not hermitian within tolerance")
            if np.abs(arr @ arr - arr).max() > ALGEBRA_TOL:
                raise ValueError("projector is not idempotent within tolerance")
        object.__setattr__(self, "entries", _frozen_complex(arr))

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def diagonal(self) -> np.ndarray | None:
        """d of a diagonal projector diag(d); None for a dense one."""
        return self.entries if self.entries.ndim == 1 else None

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self.entries.ndim == 2:
            return self.entries
        built = np.diag(self.entries)
        built.setflags(write=False)
        return built

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P @ x for a vector or a (dim, r) matrix of columns ``x``.  A
        diagonal projector scales the rows of ``x`` by d, which equals
        diag(d) @ x entry for entry: each entry of that product is the one
        product d_i x_ij plus exact zeros (which may flip the sign of a zero).
        """
        d = self.diagonal
        if d is None:
            return self.matrix @ x
        return d * x if x.ndim == 1 else d[:, None] * x

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

    ``factor`` is a square-root factor A, ``matrix`` = A A^dagger: a state
    vector, or a (dim, r) matrix whose columns are the eigenvectors above
    ``numerical_rank_cutoff`` scaled by sqrt-eigenvalues.  It is never given.

    ``DensityOperator(matrix)`` checks the matrix for finiteness, hermiticity
    and unit trace, eigendecomposes it, refuses an eigenvalue below
    -``SPECTRAL_TOL`` and keeps the matrix as ``entries``.

    ``from_state`` and ``tensor`` store only the factor (``entries`` is None)
    and build ``matrix`` when first read.  ``from_state`` checks the vector's
    norm within ``ALGEBRA_TOL``: ``outer(v)`` is hermitian by construction,
    its trace is |v|^2 and its spectrum {|v|^2, 0, ...}, so that is the trace
    check and no eigenvalue can be negative.  ``tensor`` stores the kron of
    its operands' factors and keeps the operands, whose matrices' kron is its
    matrix.  Both operands passed their checks, so the product is hermitian,
    its trace is the product of two unit traces and its eigenvalues are
    products lambda * mu with mu <= 1, none below -``SPECTRAL_TOL``.
    """

    entries: np.ndarray | None
    factor: np.ndarray = field(init=False, repr=False)
    _operands: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density operator must be a square matrix")
        _require_finite(arr, "density operator")
        if np.abs(arr - arr.conj().T).max() > ALGEBRA_TOL:
            raise ValueError("density operator is not hermitian within tolerance")
        if abs(np.trace(arr).real - 1.0) > ALGEBRA_TOL or abs(np.trace(arr).imag) > ALGEBRA_TOL:
            raise ValueError("density operator trace is not 1 within tolerance")
        eigenvalues, eigenvectors = np.linalg.eigh((arr + arr.conj().T) / 2.0)
        if eigenvalues.min() < -SPECTRAL_TOL:
            raise ValueError(
                "density operator has an eigenvalue below the negativity floor")
        keep = eigenvalues > numerical_rank_cutoff(eigenvalues, len(arr))
        factor = eigenvectors[:, keep] * np.sqrt(eigenvalues[keep])
        object.__setattr__(self, "entries", _frozen_complex(arr))
        object.__setattr__(self, "factor", _frozen_complex(factor))

    @classmethod
    def _from_factor(cls, factor: np.ndarray,
                     operands: tuple | None = None) -> "DensityOperator":
        # the callers' checks cover the operator (see the class docstring)
        rho = object.__new__(cls)
        object.__setattr__(rho, "entries", None)
        object.__setattr__(rho, "factor", factor)
        object.__setattr__(rho, "_operands", operands)
        return rho

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self.entries is not None:
            return self.entries
        if self._operands is None:
            built = outer(self.factor)
        else:
            left, right = self._operands
            built = np.kron(left.matrix, right.matrix)
        built.setflags(write=False)
        return built

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityOperator":
        if not state.is_normalized():
            raise ValueError("density operator requires a normalized state vector")
        return cls._from_factor(state.amps)  # already read-only complex

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        if not isinstance(other, DensityOperator):
            raise KindMismatchError("tensor of a density operator with a different kind")
        a, b = self.factor, other.factor
        if a.ndim != b.ndim:  # one side pure: treat its vector as a column
            a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
        return DensityOperator._from_factor(_frozen_complex(np.kron(a, b)),
                                            (self, other))


@dataclass(frozen=True, eq=False)
class ProjectiveDecomposition:
    """Labeled projectors, pairwise orthogonal and summing to the identity."""

    members: tuple[tuple[str, Projector], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple((str(l), p) for l, p in self.members))
        _check_pvm(self.members, complete=True)

    def __iter__(self):
        return iter(self.members)

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


# Projector -> {other projector -> (max |P - Q|, max |PQ|)}, keyed weakly on
# both sides so that a memo entry never keeps a projector alive.
_PAIR_DEFECTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _compute_pair_defects(p: Projector, q: Projector) -> tuple[float, float]:
    a, b = p.diagonal, q.diagonal
    if a is not None and b is not None:
        # the off-diagonal entries of P - Q and PQ are zero
        return float(np.abs(a - b).max()), float(np.abs(a * b).max())
    return (float(np.abs(p.matrix - q.matrix).max()),
            float(np.abs(p.matrix @ q.matrix).max()))


def pair_defects(p: Projector, q: Projector) -> tuple[float, float]:
    """(max |P - Q|, max |PQ|) for an ordered projector pair.

    Projectors are frozen with read-only entries, so the pair's values never
    change: each is computed once per process while both projectors live,
    and callers compare the raw values against their own tolerance.  Two
    diagonal projectors are compared on their diagonals, which gives the
    dense values bit for bit.
    """
    row = _PAIR_DEFECTS.get(p)
    if row is None:
        row = _PAIR_DEFECTS[p] = weakref.WeakKeyDictionary()
    found = row.get(q)
    if found is None:
        found = row[q] = _compute_pair_defects(p, q)
    return found


def _check_pvm(members: Sequence[tuple[str, Projector]], *,
               complete: bool) -> None:
    """Refuse empty, duplicate-labelled, mixed-dimension or non-orthogonal
    members, and with ``complete`` members that do not sum to the identity.

    Orthogonality reads max |PQ| of each member pair from ``pair_defects``,
    so a layer of already-checked projectors costs no matrix product.
    """
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
            cross = pair_defects(members[i][1], members[j][1])[1]
            if cross > ALGEBRA_TOL:
                raise PvmOrthogonalityError(
                    f"members {labels[i]!r} and {labels[j]!r} are not orthogonal "
                    f"(max |PQ| = {cross:.3e})")
    if complete:
        total = sum(proj.matrix for _, proj in members)
        defect = np.abs(total - identity(dim)).max()
        if defect > ALGEBRA_TOL:
            raise PvmCompletenessError(
                f"members sum to identity only within {defect:.3e}")


def validate_pvm(members: Sequence[tuple[str, Projector]]) -> ProjectiveDecomposition:
    """Validate members as a complete projective decomposition.

    Raises ``PvmOrthogonalityError``, ``PvmCompletenessError`` or
    ``DuplicateLabelError`` depending on which requirement fails.
    """
    return ProjectiveDecomposition(tuple(members))


def tensor_product(left, right):
    """Kronecker product of two vectors or of two matrices, nothing else."""
    if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
        if left.ndim != right.ndim or left.ndim not in (1, 2):
            raise KindMismatchError("tensor of arrays with different ranks")
        return np.kron(left, right)
    raise KindMismatchError(
        f"tensor_product takes two arrays, got {type(left).__name__} "
        f"and {type(right).__name__}")


def _embedding(op: np.ndarray, dims: Sequence[int], sites: Sequence[int]
               ) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """(op, dims, sites) as complex array and int tuples; refuses repeated or
    out-of-range sites and an ``op`` that is not square over the site dims."""
    dims = tuple(int(d) for d in dims)
    sites = tuple(int(s) for s in sites)
    if len(set(sites)) != len(sites):
        raise ValueError("embedding sites must be distinct")
    if any(not 0 <= s < len(dims) for s in sites):
        raise ValueError("embedding site out of range")
    op = np.asarray(op, dtype=np.complex128)
    site_dim = math.prod(dims[s] for s in sites)
    if op.shape != (site_dim, site_dim):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match site dims product {site_dim}")
    return op, dims, sites


def embed_operator(op: np.ndarray, dims: Sequence[int],
                   sites: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on ``sites`` (in that order) into the full
    tensor product space with factor dimensions ``dims``.

    ``op`` must be square with dimension equal to the product of the site
    dimensions.  Identity acts on all remaining factors.

    The nonzero entries of the result are those of op (x) I, with rows and
    columns in the original factor order: entry (i, j) is op[i_sites,
    j_sites] where i and j agree on every other factor, else 0.  They are
    written into zeros through one strided view of the result, so no kron
    or transpose copy is made.
    """
    op, dims, sites = _embedding(op, dims, sites)
    total = math.prod(dims)
    out = np.zeros((total, total), dtype=np.complex128)
    # col[k]: bytes that one step of factor k's column index moves in out;
    # one step of its row index moves total times as far
    col = [math.prod(dims[k + 1:]) * out.itemsize for k in range(len(dims))]
    site_dims = [dims[s] for s in sites]
    rest = [k for k in range(len(dims)) if k not in sites]
    # view axes: the sites' row indices, the sites' column indices, then one
    # axis per other factor that steps its row and column index together
    # (the diagonal of its identity); op broadcasts over those last axes
    view = np.lib.stride_tricks.as_strided(
        out,
        shape=site_dims * 2 + [dims[k] for k in rest],
        strides=([col[s] * total for s in sites] + [col[s] for s in sites]
                 + [col[k] * (total + 1) for k in rest]))
    view[...] = op.reshape(site_dims * 2 + [1] * len(rest))
    return out


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A unitary ``op`` on the factors ``sites`` of a tensor-product space
    with factor dimensions ``dims``, and the identity on every other factor.

    ``op`` is checked U^dagger U = I at its own size, against
    ``ALGEBRA_TOL``; ``embedded`` gives the operator on the whole space.
    With ``op`` exactly the identity it is the identity of the whole space,
    whose shortest form is ``LocalUnitary(identity(1), dims, ())``.
    """

    op: np.ndarray
    dims: tuple[int, ...]
    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        op, dims, sites = _embedding(self.op, self.dims, self.sites)
        defect = unitarity_defect(op)
        if not defect <= ALGEBRA_TOL:
            raise ValueError(
                f"local operator on sites {sites} is not unitary "
                f"(defect {defect:.3e})")
        object.__setattr__(self, "op", _frozen_complex(op))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sites", sites)

    def __repr__(self) -> str:
        return f"LocalUnitary(dims={self.dims}, sites={self.sites})"

    @functools.cached_property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @functools.cached_property
    def is_identity(self) -> bool:
        """True when ``op`` is exactly the identity, entry for entry."""
        return bool(np.array_equal(self.op, identity(len(self.op))))

    def embedded(self) -> np.ndarray:
        return embed_operator(self.op, self.dims, self.sites)
