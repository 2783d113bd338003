from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from chainlogic.errors import (
    DimensionMismatchError,
    FrameworkViolationError,
    NumericalFaultError,
)
from chainlogic.histories import (
    NEGATIVITY_FLOOR,
    History,
    HistoryEvent,
    HistoryFamily,
    TimeGrid,
    chain_apply,
    chain_operator,
    consistency_matrix,
    family_distribution,
    _clamped_probability,
    history_probability,
)
from chainlogic.qm import (
    DensityOperator,
    LocalUnitary,
    Projector,
    StateVector,
    basis_state,
    embed_operator,
    identity,
    outer,
)

S = 1.0 / np.sqrt(2.0)
X_PLUS = np.array([S, S])
X_MINUS = np.array([S, -S])
Z_PLUS = np.array([1.0, 0.0])
Z_MINUS = np.array([0.0, 1.0])


def qubit_grid(steps: int) -> TimeGrid:
    return TimeGrid.identity(tuple(float(t) for t in range(steps + 1)), 2)


def history_of(grid: TimeGrid, *vectors: np.ndarray,
               labels: tuple[str, ...] | None = None) -> History:
    events = tuple(
        HistoryEvent(time_index=i + 1,
                     label=labels[i] if labels else f"e{i + 1}",
                     projector=Projector(outer(v)))
        for i, v in enumerate(vectors))
    return History(grid=grid, events=events)


class TestTimeGrid:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            TimeGrid.identity((0.0, 1.0, 1.0), 2)
        with pytest.raises(ValueError):
            TimeGrid.identity((0.0,), 2)

    def test_requires_unitaries(self):
        with pytest.raises(ValueError,
                           match=r"evolution 0 is not unitary \(defect 7.500e-01\)"):
            TimeGrid((0.0, 1.0), (np.diag([1.0, 0.5]),))

    def test_refuses_non_finite_dense_step(self):
        with pytest.raises(ValueError,
                           match=r"evolution 1 is not unitary \(defect nan\)"):
            TimeGrid((0.0, 1.0, 2.0), (identity(2), np.diag([1.0, np.nan])))

    @pytest.mark.parametrize("op, defect", [
        (np.diag([1.0, 0.5]), "7.500e-01"), (np.diag([np.nan, 1.0]), "nan"),
    ], ids=["shrinking", "non-finite"])
    def test_local_step_checked_at_its_own_size(self, op, defect):
        with pytest.raises(ValueError, match=r"local operator on sites \(1,\) "
                           rf"is not unitary \(defect {defect}\)"):
            TimeGrid((0.0, 1.0), (LocalUnitary(op, (3, 2), (1,)),))

    def test_local_step_is_its_embedding(self, rng):
        q = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        grid = TimeGrid((0.0, 1.0, 2.0),
                        (LocalUnitary(q, (2, 3, 2), (2, 0)), identity(12)))
        assert np.array_equal(grid.evolution(1),
                              embed_operator(q, (2, 3, 2), (2, 0)))
        x = rng.standard_normal((12, 2)) + 0j
        assert np.array_equal(grid.evolve(1, x), grid.evolution(1) @ x)

    def test_identity_steps_hold_no_matrix(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 3)
        x = np.arange(3, dtype=complex)
        for t in (1, 2):
            assert np.array_equal(grid.evolution(t), identity(3))
            assert grid.evolve(t, x) is x
        with pytest.raises(ValueError, match="out of range"):
            grid.evolve(3, x)

    def test_steps_share_one_space(self):
        with pytest.raises(DimensionMismatchError):
            TimeGrid((0.0, 1.0, 2.0),
                     (identity(4), LocalUnitary(identity(2), (2, 3), (0,))))

    def test_evolution_indexing(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        grid = TimeGrid((0.0, 1.0, 2.0), (u, identity(2)))
        assert np.allclose(grid.evolution(1), u)
        assert np.allclose(grid.evolution(2), identity(2))
        with pytest.raises(ValueError):
            grid.evolution(0)
        with pytest.raises(ValueError):
            grid.evolution(3)


class TestHistory:
    def test_event_indices_must_cover_grid(self):
        grid = qubit_grid(2)
        events = (HistoryEvent(1, "a", Projector(outer(Z_PLUS))),)
        with pytest.raises(ValueError):
            History(grid=grid, events=events)

    def test_label_joins_events(self):
        grid = qubit_grid(2)
        h = history_of(grid, X_PLUS, Z_PLUS, labels=("x+", "z+"))
        assert h.label == "x+ / z+"


class TestChainOperator:
    def test_projector_product_with_trivial_evolution(self):
        # two-event chain: project onto +z, then onto +x
        grid = qubit_grid(2)
        h = history_of(grid, Z_PLUS, X_PLUS)
        expected = 0.5 * np.array([[1.0, 0.0], [1.0, 0.0]])
        assert np.abs(chain_operator(h) - expected).max() < 1e-12

    def test_evolution_is_interleaved(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        grid = TimeGrid((0.0, 1.0), (flip,))
        h = history_of(grid, Z_MINUS)
        v = chain_apply(h, Z_PLUS.astype(complex))
        assert np.abs(v - Z_MINUS).max() < 1e-12

    def test_probability_pure_equals_mixed(self):
        grid = qubit_grid(2)
        h = history_of(grid, X_PLUS, Z_PLUS)
        state = basis_state(2, 0)
        p_pure = history_probability(h, DensityOperator.from_state(state))
        p_mixed = history_probability(
            h, DensityOperator(outer(state.amps)))
        assert p_pure == pytest.approx(0.25, abs=1e-12)
        assert p_mixed == pytest.approx(p_pure, abs=1e-12)

    def test_negativity_floor_is_a_numerical_fault(self):
        assert _clamped_probability(-0.5 * NEGATIVITY_FLOOR) == 0.0
        with pytest.raises(NumericalFaultError, match="negativity floor"):
            _clamped_probability(-2.0 * NEGATIVITY_FLOOR)


def rank_two_state() -> DensityOperator:
    v = np.array([0.6, 0.8j])
    w = np.array([S, -S])
    return DensityOperator(0.7 * outer(v) + 0.3 * outer(w))


class TestMixedState:
    """The factor route against Tr(F_g^dagger F_k rho) from dense chains."""

    @staticmethod
    def family() -> HistoryFamily:
        theta = 0.3
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        grid = TimeGrid((0.0, 1.0, 2.0, 3.0), (u, u, u))
        histories = tuple(
            history_of(grid, v1, v2, v3, labels=(s1, s2, s3))
            for s1, v1 in (("x+", X_PLUS), ("x-", X_MINUS))
            for s2, v2 in (("z+", Z_PLUS), ("z-", Z_MINUS))
            for s3, v3 in (("x+", X_PLUS), ("x-", X_MINUS)))
        return HistoryFamily(grid=grid, rho=rank_two_state(),
                             histories=histories)

    def test_state_has_two_factor_columns(self):
        assert rank_two_state().factor.shape == (2, 2)

    def test_consistency_matrix_matches_dense(self):
        family = self.family()
        rho = family.rho.matrix
        chains = [chain_operator(h) for h in family.histories]
        want = np.array([[np.trace(f_g.conj().T @ f_k @ rho) for f_k in chains]
                         for f_g in chains])
        got = consistency_matrix(family).matrix
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(want - np.diag(np.diag(want))).max() > 1e-3

    def test_history_probability_matches_dense(self):
        family = self.family()
        for h in family.histories:
            f = chain_operator(h)
            want = np.trace(f @ family.rho.matrix @ f.conj().T).real
            assert history_probability(h, family.rho) == pytest.approx(
                want, abs=1e-12)


def xzx_family() -> HistoryFamily:
    grid = qubit_grid(3)
    histories = []
    for s1, v1 in (("x+", X_PLUS), ("x-", X_MINUS)):
        for s2, v2 in (("z+", Z_PLUS), ("z-", Z_MINUS)):
            for s3, v3 in (("x+", X_PLUS), ("x-", X_MINUS)):
                histories.append(history_of(grid, v1, v2, v3,
                                            labels=(s1, s2, s3)))
    return HistoryFamily(grid=grid, rho=DensityOperator.from_state(
        basis_state(2, 0)), histories=tuple(histories))


class TestConsistency:
    def test_xzx_family_is_inconsistent(self):
        report = consistency_matrix(xzx_family())
        assert not report.consistent
        assert report.worst_offdiagonal is not None
        _, _, worst = report.worst_offdiagonal
        assert worst == pytest.approx(oracles.xzx_worst_offdiagonal(),
                                      abs=1e-12)
        assert worst == pytest.approx(0.125, abs=1e-12)

    def test_xzx_specific_entry(self):
        family = xzx_family()
        report = consistency_matrix(family)
        labels = [h.label for h in family.histories]
        g = labels.index("x+ / z+ / x+")
        k = labels.index("x+ / z- / x+")
        assert abs(report.matrix[g, k]) == pytest.approx(
            oracles.xzx_consistency_entry(), abs=1e-12)

    def test_diagonal_sums_to_one(self):
        report = consistency_matrix(xzx_family())
        assert np.trace(report.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_zx_family_is_consistent(self):
        grid = qubit_grid(2)
        histories = tuple(
            history_of(grid, v1, v2, labels=(l1, l2))
            for l1, v1 in (("z+", Z_PLUS), ("z-", Z_MINUS))
            for l2, v2 in (("x+", X_PLUS), ("x-", X_MINUS)))
        family = HistoryFamily(grid=grid,
                               rho=DensityOperator.from_state(basis_state(2, 0)),
                               histories=histories)
        report = consistency_matrix(family)
        assert report.consistent
        distribution = family_distribution(family)
        assert sum(p for _, p in distribution) == pytest.approx(1.0, abs=1e-12)

    def test_family_distribution_refuses_inconsistent(self):
        with pytest.raises(FrameworkViolationError) as excinfo:
            family_distribution(xzx_family())
        assert excinfo.value.worst == pytest.approx(0.125, abs=1e-12)

    def test_pure_and_mixed_consistency_agree(self):
        family = xzx_family()
        mixed = HistoryFamily(grid=family.grid,
                              rho=DensityOperator(family.rho.matrix),
                              histories=family.histories)
        m_pure = consistency_matrix(family).matrix
        m_mixed = consistency_matrix(mixed).matrix
        assert np.abs(m_pure - m_mixed).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_consistency_matrix_is_gram_like(self, seed):
        # with random unitary evolutions the matrix must stay hermitian
        # with a unit trace and nonnegative diagonal
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))
        grid = TimeGrid((0.0, 1.0, 2.0), (q1, q2))
        histories = tuple(
            history_of(grid, v1, v2, labels=(l1, l2))
            for l1, v1 in (("z+", Z_PLUS), ("z-", Z_MINUS))
            for l2, v2 in (("x+", X_PLUS), ("x-", X_MINUS)))
        family = HistoryFamily(grid=grid,
                               rho=DensityOperator.from_state(basis_state(2, 0)),
                               histories=histories)
        m = consistency_matrix(family).matrix
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert min(m.diagonal().real) > -1e-12


class TestFamilyValidation:
    def test_projectors_must_be_equal_or_orthogonal(self):
        grid = qubit_grid(1)
        tilted = np.array([np.cos(0.3), np.sin(0.3)])
        histories = (history_of(grid, Z_PLUS, labels=("z+",)),
                     history_of(grid, tilted, labels=("t",)))
        with pytest.raises(ValueError, match="neither equal nor orthogonal"):
            HistoryFamily(grid=grid,
                          rho=DensityOperator.from_state(basis_state(2, 0)),
                          histories=histories)

    def test_verdicts_hold_for_memoized_pairs(self):
        grid = qubit_grid(1)
        rho = DensityOperator.from_state(basis_state(2, 0))
        tilted = np.array([np.cos(0.3), np.sin(0.3)])
        bad = (history_of(grid, Z_PLUS, labels=("z+",)),
               history_of(grid, tilted, labels=("t",)))
        # distinct projector objects with equal matrices count as one event
        good = (history_of(grid, Z_PLUS, labels=("z+",)),
                history_of(grid, Z_PLUS, labels=("z+",)),
                history_of(grid, Z_MINUS, labels=("z-",)))
        for _ in range(2):  # computed, then read from the memo
            with pytest.raises(ValueError, match="neither equal nor orthogonal"):
                HistoryFamily(grid=grid, rho=rho, histories=bad)
            assert len(HistoryFamily(grid=grid, rho=rho, histories=good)) == 3

    def test_dim_mismatch(self):
        grid = qubit_grid(1)
        history = history_of(grid, Z_PLUS)
        rho4 = DensityOperator.from_state(basis_state(4, 0))
        with pytest.raises(Exception):
            HistoryFamily(grid=grid, rho=rho4, histories=(history,))
