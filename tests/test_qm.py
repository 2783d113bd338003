from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from chainlogic.errors import (
    DegenerateSpanError,
    DimensionMismatchError,
    DuplicateLabelError,
    KindMismatchError,
    PvmCompletenessError,
    PvmOrthogonalityError,
)
from chainlogic.hardy import HardyAmplitudes, hardy_state
from chainlogic.qm import (
    DensityOperator,
    ProjectiveDecomposition,
    Projector,
    StateVector,
    Tolerances,
    basis_state,
    commutator_norm,
    embed_operator,
    identity,
    identity_projector,
    outer,
    projector_from_span,
    projector_onto,
    tensor_product,
    validate_pvm,
)
from strategies import unit_vectors

S = 1.0 / np.sqrt(2.0)


class TestStateVector:
    def test_basics(self):
        v = StateVector(np.array([3.0, 4.0j]))
        assert v.dim == 2
        assert v.norm == pytest.approx(5.0)
        assert not v.is_normalized()
        assert v.normalized().is_normalized()

    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(3))
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            StateVector(np.ones((2, 2)))

    def test_amps_are_immutable(self):
        v = basis_state(2, 0)
        with pytest.raises(ValueError):
            v.amps[0] = 7.0

    def test_tensor_ordering(self):
        left = basis_state(2, 0)
        right = basis_state(2, 1)
        assert np.argmax(np.abs(left.tensor(right).amps)) == 1
        with pytest.raises(KindMismatchError):
            left.tensor(np.ones(2))

    def test_basis_state_bounds(self):
        with pytest.raises(ValueError):
            basis_state(2, 2)


class TestProjector:
    def test_valid_rank_one(self):
        p = Projector(outer(np.array([S, S])))
        assert p.dim == 2
        assert p.rank == 1

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            Projector(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projector(0.5 * identity(2))

    def test_tensor(self):
        p = Projector(np.diag([1.0, 0.0]))
        q = p.tensor(identity_projector(2))
        assert q.dim == 4
        assert q.rank == 2

    def test_projector_onto_normalizes(self):
        p = projector_onto(StateVector(np.array([2.0, 0.0])))
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]))


class TestProjectorFromSpan:
    def test_depends_only_on_span(self):
        u = StateVector(np.array([1.0, 0.0, 0.0]))
        v = StateVector(np.array([0.0, 1.0, 0.0]))
        w = StateVector(np.array([1.0, 1.0, 0.0]))
        p1 = projector_from_span([u, v])
        p2 = projector_from_span([w, StateVector(np.array([1.0, -1.0, 0.0]))])
        assert np.abs(p1.matrix - p2.matrix).max() < 1e-12
        assert p1.rank == 2

    def test_dependent_vectors_raise(self):
        u = StateVector(np.array([1.0, 1.0]))
        with pytest.raises(DegenerateSpanError):
            projector_from_span([u, StateVector(np.array([2.0, 2.0]))])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            projector_from_span([basis_state(2, 0), basis_state(3, 0)])

    @given(unit_vectors(dim=4), unit_vectors(dim=4))
    def test_result_is_projector(self, u, v):
        try:
            p = projector_from_span([StateVector(u), StateVector(v)])
        except DegenerateSpanError:
            return
        m = p.matrix
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.abs(m @ m - m).max() < 1e-12
        assert np.abs(m @ u - u).max() < 1e-10
        assert np.abs(m @ v - v).max() < 1e-10


class TestDensityOperator:
    def test_from_state_keeps_fast_path(self):
        rho = DensityOperator.from_state(basis_state(2, 0))
        assert rho.factor.shape == (2,)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_trace_and_positivity_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="hermitian"):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_tensor_combines_pure_vectors(self):
        rho = DensityOperator.from_state(basis_state(2, 0))
        sigma = DensityOperator.from_state(basis_state(3, 2))
        tau = rho.tensor(sigma)
        assert tau.dim == 6
        assert tau.factor.shape == (6,)
        assert np.argmax(np.abs(tau.factor)) == 2


def reconstruction_error(rho: DensityOperator) -> float:
    """Max-entry distance between A A^dagger and the operator's matrix."""
    a = rho.factor.reshape(rho.dim, -1)
    return float(np.abs(a @ a.conj().T - rho.matrix).max())


def noisy_hardy_pair() -> DensityOperator:
    psi = hardy_state(HardyAmplitudes.equal()).amps
    return DensityOperator(0.95 * outer(psi) + 0.05 * identity(4) / 4.0)


def pure_register(rng: np.random.Generator) -> DensityOperator:
    """A pure state of the two 6-level apparatus registers."""
    v = rng.normal(size=36) + 1j * rng.normal(size=36)
    return DensityOperator.from_state(StateVector(v / np.linalg.norm(v)))


class TestDensityFactor:
    def test_full_rank_state(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityOperator(m / np.trace(m).real)
        assert rho.factor.shape == (4, 4)
        assert reconstruction_error(rho) < 1e-12

    def test_noisy_pair_with_pure_register_has_four_columns(self, rng):
        rho = noisy_hardy_pair().tensor(pure_register(rng))
        assert rho.factor.shape == (144, 4)
        assert reconstruction_error(rho) < 1e-12

    def test_pure_matrix_gives_one_column(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = DensityOperator(outer(v / np.linalg.norm(v)))
        assert rho.factor.shape == (4, 1)
        assert reconstruction_error(rho) < 1e-12

    def test_mixed_tensor_pure_matches_kron_and_einsum(self, rng):
        pair, register = noisy_hardy_pair(), pure_register(rng)
        rho = pair.tensor(register)
        # the (qL, qR) x (regL, regR) product written out index by index
        reference = np.einsum("lrLR,mnMN->lrmnLRMN",
                              pair.matrix.reshape(2, 2, 2, 2),
                              register.matrix.reshape(6, 6, 6, 6))
        assert np.array_equal(rho.matrix, np.kron(pair.matrix, register.matrix))
        assert np.array_equal(rho.matrix, reference.reshape(144, 144))
        flipped = register.tensor(pair)  # pure on the left
        assert flipped.factor.shape == (144, 4)
        assert reconstruction_error(flipped) < 1e-12


class TestProjectiveDecomposition:
    def _zbasis(self):
        return [("up", Projector(np.diag([1.0, 0.0]))),
                ("down", Projector(np.diag([0.0, 1.0])))]

    def test_valid(self):
        decomposition = validate_pvm(self._zbasis())
        assert decomposition.labels == ("up", "down")
        assert decomposition.dim == 2
        assert decomposition.projector("down").rank == 1
        with pytest.raises(KeyError):
            decomposition.projector("sideways")

    def test_duplicate_labels(self):
        members = self._zbasis()
        members[1] = ("up", members[1][1])
        with pytest.raises(DuplicateLabelError):
            validate_pvm(members)

    def test_orthogonality_required(self):
        x_plus = Projector(outer(np.array([S, S])))
        with pytest.raises(PvmOrthogonalityError):
            validate_pvm([("up", Projector(np.diag([1.0, 0.0]))),
                          ("diag", x_plus)])

    def test_completeness_required(self):
        with pytest.raises(PvmCompletenessError):
            validate_pvm([("up", Projector(np.diag([1.0, 0.0])))])
        with pytest.raises(PvmCompletenessError):
            ProjectiveDecomposition(())


class TestTensorAndEmbed:
    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            tensor_product(basis_state(2, 0), identity_projector(2))

    def test_array_pair(self):
        out = tensor_product(np.eye(2), np.eye(3))
        assert out.shape == (6, 6)

    def test_embed_single_site(self):
        op = np.diag([1.0, -1.0])
        full = embed_operator(op, (2, 3), (0,))
        assert np.allclose(full, np.kron(op, np.eye(3)))
        full = embed_operator(np.eye(3), (2, 3), (1,))
        assert np.allclose(full, np.eye(6))

    def test_embed_permutes_correctly(self, rng):
        # acting on sites (0, 2) of (2, 2, 2) must equal a swap of the
        # kron ordering (op x I) with middle and last factors exchanged
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        full = embed_operator(op, (2, 2, 2), (0, 2))
        reference = np.kron(op, np.eye(2)).reshape([2] * 6)
        reference = reference.transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
        assert np.abs(full - reference).max() < 1e-12

    def test_embed_site_order_matters(self, rng):
        op = rng.standard_normal((4, 4))
        a = embed_operator(op, (2, 2), (0, 1))
        b = embed_operator(op, (2, 2), (1, 0))
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * i + j, 2 * j + i] = 1.0
        assert np.abs(b - swap @ a @ swap).max() < 1e-12

    def test_embed_validation(self):
        with pytest.raises(DimensionMismatchError):
            embed_operator(np.eye(3), (2, 2), (0,))
        with pytest.raises(ValueError):
            embed_operator(np.eye(4), (2, 2), (0, 0))
        with pytest.raises(ValueError):
            embed_operator(np.eye(2), (2, 2), (5,))


class TestTolerances:
    def test_defaults_and_mapping(self):
        tol = Tolerances.from_mapping({"consistency": 1e-8})
        assert tol.consistency == 1e-8
        assert tol.prune == Tolerances().prune
        with pytest.raises(ValueError, match="unknown"):
            Tolerances.from_mapping({"algebra": 1e-12})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            Tolerances.from_mapping({"slack": 0.1})

    def test_bounds(self):
        with pytest.raises(ValueError):
            Tolerances(consistency=0.0)
        with pytest.raises(ValueError):
            Tolerances(prune=2.0)


def test_commutator_norm_zx():
    z = np.diag([1.0, 0.0])
    x = outer(np.array([S, S]))
    assert commutator_norm(z, x) == pytest.approx(0.5)
    assert commutator_norm(z, np.diag([0.0, 1.0])) == 0.0
