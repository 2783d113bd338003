from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainlogic.errors import (
    DegenerateSpanError,
    DimensionMismatchError,
    DuplicateLabelError,
    KindMismatchError,
    PvmCompletenessError,
    PvmOrthogonalityError,
)
from chainlogic import qm
from chainlogic.hardy import (
    HardyAmplitudes,
    build_measurement_scenario,
    hardy_state,
)
from chainlogic.qm import (
    ALGEBRA_TOL,
    DensityOperator,
    ProjectiveDecomposition,
    Projector,
    StateVector,
    Tolerances,
    _check_pvm,
    basis_state,
    commutator_norm,
    embed_operator,
    identity,
    identity_projector,
    outer,
    pair_defects,
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


REGISTER_MASK = np.tile([0.0, 1.0, 0.0, 0.0, 1.0, 0.0], 4)


def random_columns(rng: np.random.Generator, dim: int, r: int) -> np.ndarray:
    return rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))


class TestDiagonalProjector:
    """A 1-D array is the diagonal d of diag(d); its checks, its action and
    its pair values are those of the dense diag(d)."""

    def kinds(self) -> list[Projector]:
        span = projector_from_span([StateVector(np.arange(1.0, 25.0)),
                                    StateVector(np.ones(24))])
        return [Projector(REGISTER_MASK), Projector(np.diag(REGISTER_MASK)), span]

    @pytest.mark.parametrize("r", [None, 1, 3])
    def test_apply_equals_the_matrix_product(self, rng, r):
        for p in self.kinds():
            x = random_columns(rng, 24, 1 if r is None else r)
            if r is None:
                x = x[:, 0]
            assert np.array_equal(p.apply(x), p.matrix @ x)

    def test_kind_follows_what_is_passed(self):
        diagonal, dense, _ = self.kinds()
        assert np.array_equal(diagonal.diagonal, REGISTER_MASK)
        assert dense.diagonal is None  # a 2-D input is never scanned
        assert np.array_equal(diagonal.matrix, dense.matrix)
        assert diagonal.matrix.dtype == np.complex128
        assert not diagonal.matrix.flags.writeable

    @pytest.mark.parametrize("entries, message", [
        ([1.0, np.nan], "non-finite"),
        ([np.inf, 0.0], "non-finite"),
        ([1.0, 1e-9j], "not real"),
        ([1.0, 0.5], "not idempotent"),
        ([1.0, -1.0], "not idempotent"),
        ([], "non-empty"),
    ])
    def test_refuses_bad_diagonals(self, entries, message):
        with pytest.raises(ValueError, match=message):
            Projector(np.array(entries, dtype=complex))

    def test_keeps_the_real_part_of_a_diagonal_within_tolerance(self):
        p = Projector(np.array([1.0 + 0.1 * ALGEBRA_TOL * 1j, 0.0]))
        assert np.array_equal(p.diagonal, [1.0, 0.0])

    def test_same_values_as_the_dense_form(self):
        d = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        e = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        forms = [(Projector(d), Projector(e)),
                 (Projector(np.diag(d)), Projector(np.diag(e)))]
        (p_diag, q_diag), (p_dense, q_dense) = forms
        assert pair_defects(p_diag, q_diag) == pair_defects(p_dense, q_dense)
        assert pair_defects(p_diag, p_diag) == pair_defects(p_dense, p_dense)
        assert p_diag.rank == p_dense.rank == 2
        rest = 1.0 - d - e
        _check_pvm([("p", p_diag), ("q", q_diag), ("r", Projector(rest))],
                   complete=True)
        _check_pvm([("p", p_dense), ("q", q_dense),
                    ("r", Projector(np.diag(rest)))], complete=True)
        messages = []
        for p, q in forms:
            with pytest.raises(PvmCompletenessError) as info:
                _check_pvm([("p", p), ("q", q)], complete=True)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


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

    def test_from_state_requires_a_normalized_vector(self):
        with pytest.raises(ValueError, match="normalized"):
            DensityOperator.from_state(StateVector(np.array([1.0, 1.0])))

    def test_from_state_matrix_is_the_outer_product(self, rng):
        v = rng.standard_normal(144) + 1j * rng.standard_normal(144)
        state = StateVector(v / np.linalg.norm(v))
        rho = DensityOperator.from_state(state)
        assert rho.entries is None and rho.dim == 144
        assert np.array_equal(rho.matrix, outer(state.amps))
        assert rho.matrix is rho.matrix  # built once, on first read

    def test_factor_cannot_be_passed_in(self):
        # a factor is computed, never taken: one that did not match the
        # matrix would grow trees from another state than `matrix` reports
        with pytest.raises(TypeError):
            DensityOperator(np.eye(2) / 2, factor=np.array([[1.0], [0.0]]))
        with pytest.raises(TypeError):
            DensityOperator(None, factor=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="square matrix"):
            DensityOperator(None)

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


def mixed_register(rng: np.random.Generator) -> DensityOperator:
    """A rank-2 mixed state of the two 6-level apparatus registers."""
    q, _ = np.linalg.qr(rng.normal(size=(36, 2)) + 1j * rng.normal(size=(36, 2)))
    return DensityOperator(0.7 * outer(q[:, 0]) + 0.3 * outer(q[:, 1]))


def pure_pair() -> DensityOperator:
    return DensityOperator.from_state(hardy_state(HardyAmplitudes.equal()))


# (left, right, product factor shape); the noisy pair has rank 4
TENSOR_OPERANDS = {
    "mixed-pure": (lambda rng: (noisy_hardy_pair(), pure_register(rng)), (144, 4)),
    "pure-mixed": (lambda rng: (pure_register(rng), noisy_hardy_pair()), (144, 4)),
    "mixed-mixed": (lambda rng: (noisy_hardy_pair(), mixed_register(rng)), (144, 8)),
    "pure-pure": (lambda rng: (pure_pair(), pure_register(rng)), (144,)),
}


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

    @pytest.mark.parametrize("kinds", sorted(TENSOR_OPERANDS))
    def test_tensor_stores_only_the_factor(self, rng, kinds):
        make, shape = TENSOR_OPERANDS[kinds]
        left, right = make(rng)
        product = left.tensor(right)
        assert "matrix" not in vars(product)
        assert product.entries is None
        assert product.factor.shape == shape
        # built on first read, the same bits as the kron of the two matrices
        assert np.array_equal(product.matrix, np.kron(left.matrix, right.matrix))
        assert not product.matrix.flags.writeable
        assert reconstruction_error(product) < 1e-12


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


def tilted(angle: float) -> Projector:
    return Projector(outer(np.array([np.cos(angle), np.sin(angle)])))


class TestPairDefects:
    def test_values_match_direct_computation(self):
        p, q = tilted(0.3), tilted(1.1)
        difference, cross = pair_defects(p, q)
        assert difference == np.abs(p.matrix - q.matrix).max()
        assert cross == np.abs(p.matrix @ q.matrix).max()
        assert pair_defects(p, q) == (difference, cross)
        assert pair_defects(q, p)[1] == np.abs(q.matrix @ p.matrix).max()

    def test_repeated_apparatus_build_computes_no_pair(self, monkeypatch):
        build_measurement_scenario(HardyAmplitudes.equal(), mode="apparatus")
        computed = []
        compute = qm._compute_pair_defects

        def spy(p, q):
            computed.append((p, q))
            return compute(p, q)

        monkeypatch.setattr(qm, "_compute_pair_defects", spy)
        build_measurement_scenario(
            HardyAmplitudes.from_unnormalized(0.6, 0.5, 0.4), mode="apparatus")
        assert computed == []

    def test_memo_holds_no_projector_alive(self):
        # earlier tests' cyclic garbage would otherwise drop rows below
        gc.collect()
        p, q, r = tilted(0.2), tilted(0.7), tilted(1.3)
        pair_defects(p, q)
        pair_defects(q, r)
        entries = len(qm._PAIR_DEFECTS)
        dead_p, dead_r = weakref.ref(p), weakref.ref(r)
        del p, r
        gc.collect()
        assert dead_p() is None and dead_r() is None
        assert len(qm._PAIR_DEFECTS) == entries - 1
        assert len(qm._PAIR_DEFECTS[q]) == 0

    def test_orthogonality_error_reports_the_same_value(self):
        up, diag = Projector(np.diag([1.0, 0.0])), tilted(np.pi / 4)
        expected = f"(max |PQ| = {np.abs(up.matrix @ diag.matrix).max():.3e})"
        for _ in range(2):  # computed, then read from the memo
            with pytest.raises(PvmOrthogonalityError) as info:
                validate_pvm([("up", up), ("diag", diag)])
            assert str(info.value).endswith(expected)


def kron_and_permute(op: np.ndarray, dims: tuple[int, ...],
                     sites: tuple[int, ...]) -> np.ndarray:
    """Reference embedding: op (x) I on the factor order sites + rest, then
    the tensor axes permuted back to 0..n-1."""
    rest = [i for i in range(len(dims)) if i not in sites]
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1
    full = np.kron(op, np.eye(rest_dim, dtype=np.complex128))
    order = list(sites) + rest
    perm_dims = [dims[i] for i in order]
    inverse = list(np.argsort(order))
    n = len(dims)
    tens = full.reshape(perm_dims + perm_dims)
    tens = tens.transpose(inverse + [n + i for i in inverse])
    total = int(np.prod(dims))
    return tens.reshape(total, total)


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

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4).flatmap(
        lambda dims: st.tuples(st.just(tuple(dims)), st.permutations(
            range(len(dims))).flatmap(lambda order: st.integers(
                0, len(dims)).map(lambda k: tuple(order[:k]))))),
        st.integers(0, 2**32 - 1))
    def test_embed_equals_kron_and_permute(self, dims_sites, seed):
        dims, sites = dims_sites
        site_dim = int(np.prod([dims[s] for s in sites])) if sites else 1
        rng = np.random.default_rng(seed)
        op = (rng.standard_normal((site_dim, site_dim))
              + 1j * rng.standard_normal((site_dim, site_dim)))
        assert np.array_equal(embed_operator(op, dims, sites),
                              kron_and_permute(op, dims, sites))

    def test_embed_validation(self):
        with pytest.raises(DimensionMismatchError):
            embed_operator(np.eye(3), (2, 2), (0,))
        with pytest.raises(ValueError):
            embed_operator(np.eye(4), (2, 2), (0, 0))
        with pytest.raises(ValueError):
            embed_operator(np.eye(2), (2, 2), (5,))


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances(consistency=1e-8)
        assert tol.consistency == 1e-8
        assert tol.prune == Tolerances().prune

    def test_bounds(self):
        with pytest.raises(ValueError):
            Tolerances(consistency=0.0)
        with pytest.raises(ValueError):
            Tolerances(prune=2.0)
        # a string is not a number, whatever it spells
        with pytest.raises(ValueError, match="must lie in"):
            Tolerances(consistency="1e-3")


def test_commutator_norm_zx():
    z = np.diag([1.0, 0.0])
    x = outer(np.array([S, S]))
    assert commutator_norm(z, x) == pytest.approx(0.5)
    assert commutator_norm(z, np.diag([0.0, 1.0])) == 0.0
