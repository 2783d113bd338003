from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from chainlogic.errors import ConfigError, DegenerateBasisError
from chainlogic.hardy import (
    L_SETTINGS,
    OUTCOME_SIGNS,
    R_SETTINGS,
    HardyAmplitudes,
    build_measurement_scenario,
    conditional_outcome_table,
    hardy_settings,
    hardy_state,
    joint_probability_table,
    measurement_unitary,
    no_signaling_report,
    scenario_keys,
    verify_hardy_predictions,
)
from chainlogic import hardy as hardy_module
from chainlogic import qm
from chainlogic.counterfactual import locality_report
from chainlogic.histories import TimeGrid
from chainlogic.qm import LocalUnitary, Projector, StateVector, embed_operator, outer
from chainlogic.tree import ClassicalChoice
from strategies import strict_triples

EQUAL = HardyAmplitudes.equal()


def oracle_key(key):
    """Package joint key -> oracle conditional key (bare outcome signs)."""
    ls, lo, rs, ro = key
    return (ls, lo[-1], rs, ro[-1])


class TestAmplitudes:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            HardyAmplitudes(1.0, 1.0, 1.0)

    def test_from_unnormalized(self):
        amps = HardyAmplitudes.from_unnormalized(1.0, 1.0, 1.0)
        assert amps.a == pytest.approx(1.0 / math.sqrt(3.0))
        with pytest.raises(ValueError):
            HardyAmplitudes.from_unnormalized(0.0, 0.0, 0.0)

    def test_families(self):
        outer_family = HardyAmplitudes.symmetric_outer(0.3)
        assert outer_family.a == outer_family.c
        tail = HardyAmplitudes.equal_tail(0.3)
        assert tail.b == tail.c
        with pytest.raises(ValueError):
            HardyAmplitudes.symmetric_outer(1.0)
        with pytest.raises(ValueError):
            HardyAmplitudes.equal_tail(0.8)

    def test_random_respects_floor(self, rng):
        for _ in range(25):
            amps = HardyAmplitudes.random(rng, floor=0.1)
            assert min(abs(x) for x in amps.triple) > 0.1
            assert amps.is_strict

    @pytest.mark.parametrize("floor", [0.6, 1.0 / math.sqrt(3.0), -0.1, math.nan])
    def test_random_refuses_a_floor_no_triple_clears(self, floor):
        class NoDraws:
            def standard_normal(self, size):
                raise AssertionError("drew before checking the floor")

        with pytest.raises(ValueError, match="floor"):
            HardyAmplitudes.random(NoDraws(), floor=floor)

    def test_strictness(self):
        assert EQUAL.is_strict
        weak = HardyAmplitudes(math.sqrt(0.5), 0.0, math.sqrt(0.5))
        assert not weak.is_strict

    def test_state_vector(self):
        state = hardy_state(EQUAL)
        assert state.dim == 4
        assert state.amps[3] == 0.0


class TestDerivedBases:
    """ML2 and MR2 as ``hardy_settings`` derives them."""

    def test_orthonormal_pairs(self):
        _, ml2, _, mr2 = hardy_settings(EQUAL)
        for plus, minus in ((ml2.plus, ml2.minus), (mr2.plus, mr2.minus)):
            assert abs(np.vdot(plus, plus) - 1.0) < 1e-12
            assert abs(np.vdot(minus, minus) - 1.0) < 1e-12
            assert abs(np.vdot(plus, minus)) < 1e-12

    def test_defining_orthogonality(self):
        a, b, c = EQUAL.triple
        _, ml2, _, mr2 = hardy_settings(EQUAL)
        assert abs(np.vdot(ml2.plus, np.array([a, c]))) < 1e-12
        assert abs(np.vdot(mr2.minus, np.array([a, b]))) < 1e-12

    def test_phase_convention(self):
        amps = HardyAmplitudes.from_unnormalized(0.3 + 0.4j, -0.5, 0.6j)
        _, ml2, _, mr2 = hardy_settings(amps)
        for vec in (ml2.plus, ml2.minus, mr2.plus, mr2.minus):
            first = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
            assert abs(first.imag) < 1e-12
            assert first.real > 0.0

    def test_non_strict_triple_still_derives(self):
        # b = 0 is not a strict triple, yet both derived bases are defined
        degenerate = HardyAmplitudes(math.sqrt(0.5), 0.0, math.sqrt(0.5))
        _, _, _, mr2 = hardy_settings(degenerate)
        assert abs(np.vdot(mr2.plus, mr2.minus)) < 1e-12

    def test_genuinely_degenerate_basis(self):
        middle_only = HardyAmplitudes(0.0, 1.0, 0.0)
        with pytest.raises(DegenerateBasisError, match="the ML2 basis"):
            hardy_settings(middle_only)
        with pytest.raises(DegenerateBasisError, match="the MR2 basis"):
            hardy_settings(HardyAmplitudes(0.0, 0.0, 1.0))

    @given(strict_triples())
    def test_matches_oracle_vectors(self, amps):
        _, ml2, _, mr2 = hardy_settings(amps)
        reference = oracles.outcome_vectors(*amps.triple)
        pairs = ((ml2.plus, reference[("ML2", "+")]),
                 (ml2.minus, reference[("ML2", "-")]),
                 (mr2.plus, reference[("MR2", "+")]),
                 (mr2.minus, reference[("MR2", "-")]))
        for ours, theirs in pairs:
            # compare up to phase via the rank-1 projectors
            assert np.abs(outer(ours) - outer(theirs)).max() < 1e-12


class TestSettings:
    def test_names_and_sides(self):
        settings_tuple = hardy_settings(EQUAL)
        assert tuple(s.name for s in settings_tuple) == ("ML1", "ML2",
                                                         "MR1", "MR2")
        assert tuple(s.side for s in settings_tuple) == ("L", "L", "R", "R")

    def test_right_side_outcome_flip(self):
        ml1, ml2, mr1, mr2 = hardy_settings(EQUAL)
        assert np.allclose(ml1.plus, [1.0, 0.0])
        assert np.allclose(mr1.plus, [0.0, 1.0])  # MR1+ registers |1>
        a, b, _ = EQUAL.triple
        w2 = np.array([a, b]) / np.linalg.norm([a, b])
        assert np.abs(outer(mr2.plus) - outer(w2)).max() < 1e-12

    def test_vector_lookup(self):
        ml1 = hardy_settings(EQUAL)[0]
        assert np.allclose(ml1.vector("-"), [0.0, 1.0])
        with pytest.raises(ValueError):
            ml1.vector("0")

    def test_nan_outcome_vector_is_refused(self):
        # refused when the setting is made, before any mode builds from it
        ml2 = hardy_settings(EQUAL)[1]
        with pytest.raises(ValueError, match="ML2: outcome pair is not orthonormal"):
            hardy_module.MeasurementSetting(side="L", name="ML2",
                                            plus=[np.nan, 0.0], minus=ml2.minus)

    def test_qubit_projectors_are_the_kron_products(self):
        # P (x) I and I (x) P by broadcasting: the same bytes np.kron gives
        rng = np.random.default_rng(4021)
        for _ in range(200):
            for setting in hardy_settings(HardyAmplitudes.random(rng)):
                for sign in OUTCOME_SIGNS:
                    p = outer(setting.vector(sign))
                    expected = (np.kron(p, qm.identity(2)) if setting.side == "L"
                                else np.kron(qm.identity(2), p))
                    got = hardy_module._qubit_projector(setting, sign).matrix
                    assert got.tobytes() == expected.tobytes()

    def test_computational_settings_and_particle_grid_are_shared(self):
        first, second = (build_measurement_scenario(amps, mode="particle")
                         for amps in (EQUAL, HardyAmplitudes.equal_tail(0.3)))
        for index in (0, 2):  # ML1, MR1
            assert first.settings[index] is second.settings[index]
        assert first.settings[1] is not second.settings[1]
        assert first.grid is second.grid
        ml1 = first.settings[0]
        with pytest.raises(ValueError, match="read-only"):
            ml1.plus[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            hardy_module._qubit_projector(ml1, "+").entries[0, 0] = 0.0


class TestMeasurementUnitary:
    def test_unitary_and_pointer_mapping(self):
        ml1, ml2, _, _ = hardy_settings(EQUAL)
        u = measurement_unitary(ml1, ml2)
        assert np.abs(u.conj().T @ u - np.eye(12)).max() < 1e-12
        reg = np.eye(6)
        cases = ((ml1.plus, 0, 2), (ml1.minus, 0, 3),
                 (ml2.plus, 1, 4), (ml2.minus, 1, 5))
        for qubit, ready, pointer in cases:
            mapped = u @ np.kron(qubit, reg[ready])
            expected = np.kron(qubit, reg[pointer])
            assert np.abs(mapped - expected).max() < 1e-12

    @given(strict_triples())
    @settings(max_examples=40, deadline=None)
    def test_reachable_columns_are_b_a_dagger_from_kron_columns(self, amplitudes):
        # reference: a and b as the kron of qubit and register columns
        reg = np.eye(6)
        ready = [0, 1, 6, 7]
        ml1, ml2, mr1, mr2 = hardy_settings(amplitudes)
        for pair in ((ml1, ml2), (mr1, mr2)):
            a = np.column_stack([np.kron(s.vector(sign), reg[k])
                                 for k, s in enumerate(pair) for sign in "+-"])
            b = np.column_stack([np.kron(s.vector(sign), reg[2 + 2 * k + j])
                                 for k, s in enumerate(pair)
                                 for j, sign in enumerate("+-")])
            expected = (b @ a.conj().T)[:, ready]
            for seed in (None, 3):
                u = measurement_unitary(*pair, completion_seed=seed)
                assert np.array_equal(u[:, ready], expected)
                assert np.abs(u.conj().T @ u - np.eye(12)).max() < 1e-12

    def test_completion_seed_changes_only_unreachable_sector(self):
        ml1, ml2, _, _ = hardy_settings(EQUAL)
        u_default = measurement_unitary(ml1, ml2)
        u_seeded = measurement_unitary(ml1, ml2, completion_seed=11)
        assert np.abs(u_default - u_seeded).max() > 1e-3
        reg = np.eye(6)
        ready_block = [np.kron(q, reg[r])
                       for q in (ml1.plus, ml1.minus, ml2.plus, ml2.minus)
                       for r in (0, 1)]
        for vec in ready_block:
            assert np.array_equal(u_default @ vec, u_seeded @ vec)


class TestScenario:
    @pytest.mark.parametrize("mode,dim", [("particle", 4), ("apparatus", 144)])
    def test_shape(self, mode, dim):
        scenario = build_measurement_scenario(EQUAL, mode=mode)
        assert scenario.dim == dim
        assert len(scenario.unpruned_tree.leaves()) == 16
        assert len(scenario.tree.leaves()) == 13
        assert scenario.consistency.consistent

    @pytest.mark.parametrize("mode", ["particle", "apparatus"])
    def test_joint_table_matches_oracle(self, mode):
        scenario = build_measurement_scenario(EQUAL, mode=mode)
        ours = joint_probability_table(scenario)
        theirs = oracles.joint_table(*EQUAL.triple)
        assert set(map(oracle_key, ours)) == set(theirs)
        for key, value in ours.items():
            assert value == pytest.approx(theirs[oracle_key(key)], abs=1e-12)

    def test_block_structure_differs_by_mode(self):
        particle = build_measurement_scenario(EQUAL, mode="particle")
        apparatus = build_measurement_scenario(EQUAL, mode="apparatus")
        assert len(particle.consistency.blocks) == 4
        assert len(apparatus.consistency.blocks) == 1
        assert particle.tree.choice_time_indices == (1, 3)
        assert apparatus.tree.choice_time_indices == ()

    def test_setting_lookup(self):
        scenario = build_measurement_scenario(EQUAL, mode="particle")
        assert scenario.setting("MR2").side == "R"
        with pytest.raises(KeyError):
            scenario.setting("MX1")

    def test_custom_weights_scale_joint_but_not_conditional(self):
        weights = ((0.3, 0.7), (0.6, 0.4))
        scenario = build_measurement_scenario(EQUAL, mode="particle",
                                              choice_weights=weights)
        ours = joint_probability_table(scenario)
        theirs = oracles.joint_table(*EQUAL.triple, w_l=(0.3, 0.7),
                                     w_r=(0.6, 0.4))
        for key, value in ours.items():
            assert value == pytest.approx(theirs[oracle_key(key)], abs=1e-12)
        conditional = conditional_outcome_table(scenario)
        reference = oracles.conditional_table(*EQUAL.triple)
        for (ls, rs), cell in conditional.items():
            for (lo, ro), value in cell.items():
                assert value == pytest.approx(
                    reference[(ls, lo[-1], rs, ro[-1])], abs=1e-12)

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigError):
            build_measurement_scenario(EQUAL, choice_weights=((0.5, 0.6),
                                                              (0.5, 0.5)))
        with pytest.raises(ConfigError):
            build_measurement_scenario(EQUAL, choice_weights=((-0.1, 1.1),
                                                              (0.5, 0.5)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            build_measurement_scenario(EQUAL, mode="wave")

    def test_custom_state_route(self):
        settings_tuple = hardy_settings(EQUAL)
        scenario = build_measurement_scenario(
            state=hardy_state(EQUAL), settings=settings_tuple,
            mode="particle")
        assert scenario.amplitudes is None
        ours = joint_probability_table(scenario)
        theirs = oracles.joint_table(*EQUAL.triple)
        for key, value in ours.items():
            assert value == pytest.approx(theirs[oracle_key(key)], abs=1e-12)

    def test_custom_route_validation(self):
        settings_tuple = hardy_settings(EQUAL)
        with pytest.raises(ConfigError, match="not both"):
            build_measurement_scenario(EQUAL, state=hardy_state(EQUAL),
                                       settings=settings_tuple)
        with pytest.raises(ConfigError, match="both state and settings"):
            build_measurement_scenario(state=hardy_state(EQUAL))
        with pytest.raises(ConfigError, match="in order"):
            build_measurement_scenario(state=hardy_state(EQUAL),
                                       settings=settings_tuple[::-1])
        with pytest.raises(ConfigError, match="4-dimensional"):
            build_measurement_scenario(state=StateVector(np.ones(2)),
                                       settings=settings_tuple)

    @pytest.mark.parametrize("mode", ["particle", "apparatus"])
    @pytest.mark.parametrize("index", range(4))
    def test_custom_route_refuses_a_setting_on_the_wrong_side(self, mode, index):
        # particle mode places a setting by its side, apparatus mode by its
        # name, so a contradicting side would make the two modes disagree
        settings_list = list(hardy_settings(EQUAL))
        wrong = "R" if settings_list[index].side == "L" else "L"
        settings_list[index] = dataclasses.replace(settings_list[index],
                                                   side=wrong)
        with pytest.raises(ConfigError, match="side"):
            build_measurement_scenario(state=hardy_state(EQUAL),
                                       settings=settings_list, mode=mode)

    def test_scenario_keys_order(self):
        keys = scenario_keys()
        assert len(keys) == 16
        assert keys[0] == ("ML1", "ML1+", "MR1", "MR1+")
        assert keys[-1] == ("ML2", "ML2-", "MR2", "MR2-")
        for ls, lo, rs, ro in keys:
            assert ls in L_SETTINGS and rs in R_SETTINGS
            assert lo[-1] in OUTCOME_SIGNS and ro[-1] in OUTCOME_SIGNS


def spy_on_spectral_calls(monkeypatch) -> list[str]:
    """Record every later np.linalg.eigh / eigvalsh call by name."""
    calls: list[str] = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestNoSpectralCheckOnBuiltStates:
    """Every density operator a scenario builds comes with its factor, so no
    build eigendecomposes one: the spectrum is checked only where a user
    hands in a bare matrix."""

    @pytest.mark.parametrize("mode", ["particle", "apparatus"])
    def test_pure_state(self, monkeypatch, mode):
        calls = spy_on_spectral_calls(monkeypatch)
        build_measurement_scenario(EQUAL, mode=mode)
        assert calls == []

    @pytest.mark.parametrize("mode", ["particle", "apparatus"])
    def test_mixed_state(self, monkeypatch, mode):
        psi = hardy_state(EQUAL).amps
        noisy = qm.DensityOperator(0.95 * outer(psi)
                                   + 0.05 * qm.identity(4) / 4.0)
        calls = spy_on_spectral_calls(monkeypatch)
        scenario = build_measurement_scenario(
            state=noisy, settings=hardy_settings(EQUAL), mode=mode)
        assert calls == []
        assert verify_hardy_predictions(scenario).s4 > 0.0


def test_mixed_apparatus_build_and_query_form_no_dense_state():
    # the 144-dim state is formed as its factor alone (entries None), and its
    # 144x144 matrix is built only if something reads it
    psi = hardy_state(EQUAL).amps
    noisy = qm.DensityOperator(0.95 * outer(psi) + 0.05 * qm.identity(4) / 4.0)
    scenario = build_measurement_scenario(
        state=noisy, settings=hardy_settings(EQUAL), mode="apparatus")
    assert locality_report(scenario).no_signaling.passes
    assert scenario.tree.rho.dim == 144
    assert scenario.tree.rho.entries is None
    assert "matrix" not in vars(scenario.tree.rho)


def test_seeded_apparatus_build_draws_once_and_runs_no_svd(monkeypatch):
    # both complements of the measurement unitary are written down, and the
    # two sides share one seeded draw
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    draws = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    hardy_module._completion_mix.cache_clear()
    scenario = build_measurement_scenario(EQUAL, mode="apparatus",
                                          completion_seed=5)
    assert verify_hardy_predictions(scenario).is_hardy
    assert draws == [(5,)]


class TestSchedule:
    def test_particle_build_makes_each_event_once(self, monkeypatch):
        made: dict[str, list] = {"projector": [], "pair": [], "choice": []}
        for cls, key in ((Projector, "projector"), (ClassicalChoice, "choice")):
            def counting(self, original=cls.__post_init__, key=key):
                made[key].append(self)
                original(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        compute = qm._compute_pair_defects

        def spy(p, q):
            made["pair"].append((p, q))
            return compute(p, q)

        monkeypatch.setattr(qm, "_compute_pair_defects", spy)
        # the first build makes whatever the process has not made yet; the
        # second makes only what its amplitudes change
        build_measurement_scenario(EQUAL, mode="particle")
        for events in made.values():
            events.clear()
        scenario = build_measurement_scenario(HardyAmplitudes.equal_tail(0.3),
                                              mode="particle")
        # the four ML2 and MR2 outcome events, plus the identity
        # tree_consistency puts at the choice times; one (+, -) pair check
        # per new setting.  ML1 and MR1 are shared constants.
        assert len(made["projector"]) == 5
        assert len(made["pair"]) == 2
        assert len(made["choice"]) == 2
        # a left setting opens one outcome layer, a right setting one per
        # left (setting, outcome) branch
        for names, time_index, count in ((L_SETTINGS, 2, 1), (R_SETTINGS, 4, 4)):
            for name in names:
                layers = [node.children for prefix, node
                          in scenario.unpruned_tree.grown.items()
                          if len(prefix) == time_index - 1
                          and prefix[-1] == name]
                assert len(layers) == count
                first = layers[0]
                assert [m.label for m in first] == [name + "+", name + "-"]
                assert all(m.projector is f.projector for members in layers
                           for m, f in zip(members, first))

    def test_choice_weights_read_from_the_choice_layers(self):
        scenario = build_measurement_scenario(
            EQUAL, mode="particle", choice_weights=((0.25, 0.75), (1, 0)))
        assert scenario.choice_weights == ((0.25, 0.75), (1.0, 0.0))
        assert all(type(w) is float for pair in scenario.choice_weights
                   for w in pair)


class TestPredictions:
    def test_equal_amplitudes(self):
        scenario = build_measurement_scenario(EQUAL, mode="particle")
        report = verify_hardy_predictions(scenario)
        assert report.s1 < 1e-12
        assert report.s2 < 1e-12
        assert report.s3 < 1e-12
        assert report.s4 == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert report.is_hardy
        assert report.flag is None

    def test_degenerate_middle_amplitude_flagged(self):
        weak = HardyAmplitudes(math.sqrt(0.5), 0.0, math.sqrt(0.5))
        scenario = build_measurement_scenario(weak, mode="particle")
        report = verify_hardy_predictions(scenario)
        assert report.zeros_pass
        assert not report.s4_pass
        assert not report.is_hardy
        assert "fourth" in report.flag

    def test_zero_weight_setting_pair_flagged(self):
        # the CLI refuses zero weights; the library leaves the conditionals
        # of a never-chosen setting undefined
        scenario = build_measurement_scenario(
            EQUAL, mode="particle", choice_weights=((1.0, 0.0), (0.5, 0.5)))
        report = verify_hardy_predictions(scenario)
        assert math.isnan(report.s3) and math.isnan(report.s4)
        assert not report.is_hardy
        assert "zero choice weight" in report.flag

    @pytest.mark.parametrize("mode", ["particle", "apparatus"])
    def test_failed_joint_zero_flagged(self, mode):
        # the uniform product state with the equal triple's settings
        scenario = build_measurement_scenario(
            state=StateVector([0.5, 0.5, 0.5, 0.5]),
            settings=hardy_settings(HardyAmplitudes.equal()), mode=mode)
        report = verify_hardy_predictions(scenario)
        assert report.s1 == pytest.approx(0.25, abs=1e-12)
        assert not report.zeros_pass and not report.is_hardy
        assert report.flag == "not a Hardy state: a joint zero fails"

    @given(strict_triples())
    @settings(max_examples=25)
    def test_matches_oracle_for_random_triples(self, amps):
        scenario = build_measurement_scenario(amps, mode="particle")
        report = verify_hardy_predictions(scenario)
        assert report.s1 < 1e-12 and report.s2 < 1e-12 and report.s3 < 1e-12
        expected = oracles.joint_outcome_probability(*amps.triple,
                                                     "ML2", "+", "MR2", "-")
        assert report.s4 == pytest.approx(expected, abs=1e-12)
        assert report.s4 == pytest.approx(
            oracles.s4_closed_form(*amps.triple), abs=1e-12)


class TestNoSignaling:
    @pytest.mark.parametrize("mode", ["particle", "apparatus"])
    def test_marginals_are_setting_independent(self, mode):
        scenario = build_measurement_scenario(EQUAL, mode=mode)
        report = no_signaling_report(scenario)
        assert report.max_discrepancy < 1e-12
        assert report.passes

    def test_marginals_match_oracle(self):
        scenario = build_measurement_scenario(EQUAL, mode="particle")
        report = no_signaling_report(scenario)
        cond = oracles.conditional_table(*EQUAL.triple)
        for rs in R_SETTINGS:
            for ls in L_SETTINGS:
                for ro in OUTCOME_SIGNS:
                    expected = sum(cond[(ls, lo, rs, ro)]
                                   for lo in OUTCOME_SIGNS)
                    ours = report.right_marginals[rs][ls][rs + ro]
                    assert ours == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("mode", ["particle", "apparatus"])
    def test_both_sides_sum_the_conditional_table(self, mode):
        scenario = build_measurement_scenario(
            HardyAmplitudes.from_unnormalized(0.6, 0.5 + 0.2j, 0.4), mode=mode,
            choice_weights=((0.3, 0.7), (0.6, 0.4)))
        report = no_signaling_report(scenario)
        cond = conditional_outcome_table(scenario)
        left = {ls: {rs: {ls + lo: sum(cond[(ls, rs)][(ls + lo, rs + ro)]
                                       for ro in OUTCOME_SIGNS)
                          for lo in OUTCOME_SIGNS}
                     for rs in R_SETTINGS}
                for ls in L_SETTINGS}
        right = {rs: {ls: {rs + ro: sum(cond[(ls, rs)][(ls + lo, rs + ro)]
                                        for lo in OUTCOME_SIGNS)
                           for ro in OUTCOME_SIGNS}
                      for ls in L_SETTINGS}
                 for rs in R_SETTINGS}
        assert report.left_marginals == left
        assert report.right_marginals == right

    def test_zero_weight_setting_yields_nan(self):
        for mode, weights, (ls, rs) in [
                ("particle", ((1.0, 0.0), (0.5, 0.5)), ("ML2", "MR1")),
                ("apparatus", ((0.5, 0.5), (0.0, 1.0)), ("ML1", "MR1"))]:
            scenario = build_measurement_scenario(
                EQUAL, mode=mode, choice_weights=weights)
            table = conditional_outcome_table(scenario)
            assert math.isnan(table[(ls, rs)][(ls + "+", rs + "+")])
            report = no_signaling_report(scenario)
            assert not report.passes  # NaN discrepancies cannot certify anything


def all_dense(times, steps):
    """The reference grid: every step an explicit 144x144 matrix, the
    identity steps included."""
    return TimeGrid(times, tuple(embed_operator(s.op, s.dims, s.sites)
                                 for s in steps))


class TestStructuredGrid:
    """The apparatus grid skips its identity steps and checks its measurement
    steps at 12x12; the all-dense grid multiplies and checks every step at
    144x144.  Both must grow the same tree, entry for entry."""

    @pytest.mark.parametrize("kwargs", [
        dict(amplitudes=EQUAL),
        dict(amplitudes=HardyAmplitudes.random(np.random.default_rng(5)),
             choice_weights=((0.3, 0.7), (0.8, 0.2)), completion_seed=4),
        dict(state=qm.DensityOperator(0.9 * outer(hardy_state(EQUAL).amps)
                                      + 0.1 * qm.identity(4) / 4.0),
             settings=hardy_settings(EQUAL)),
    ], ids=["equal", "random-uneven-seeded", "mixed"])
    def test_same_tree_as_the_all_dense_grid(self, monkeypatch, kwargs):
        structured = build_measurement_scenario(mode="apparatus", **kwargs)
        monkeypatch.setattr(hardy_module, "TimeGrid", all_dense)
        dense = build_measurement_scenario(mode="apparatus", **kwargs)
        assert [type(u) for u in structured.grid.evolutions] == [LocalUnitary] * 4
        assert all(isinstance(u, np.ndarray) for u in dense.grid.evolutions)
        for t in range(1, 5):
            assert np.array_equal(structured.grid.evolution(t),
                                  dense.grid.evolution(t))
        grown = structured.unpruned_tree.grown
        assert grown.keys() == dense.unpruned_tree.grown.keys()
        for path, node in grown.items():
            other = dense.unpruned_tree.grown[path]
            assert np.array_equal(node.state, other.state), path
            assert np.array_equal(node.ket, other.ket), path
            assert node.prob == other.prob, path
        assert (structured.tree.leaf_probabilities()
                == dense.tree.leaf_probabilities())
        assert (structured.consistency.worst_magnitude
                == dense.consistency.worst_magnitude)
        ours, theirs = locality_report(structured), locality_report(dense)
        for setting in ("ML1", "ML2"):
            assert ours.verdict(setting) == theirs.verdict(setting)


class TestApparatusMode:
    def test_register_projectors_are_the_embedded_register_states(self):
        for side, site in (("L", 2), ("R", 3)):
            for index in range(6):
                # a fresh, uncached projector: reading .matrix builds it
                p = hardy_module._register_projector.__wrapped__(side, index)
                reg = np.zeros(6)
                reg[index] = 1.0
                assert p.diagonal is not None
                assert np.array_equal(p.matrix, embed_operator(
                    outer(reg), (2, 2, 6, 6), (site,)))

    def test_completion_seed_leaves_probabilities_alone(self):
        base = build_measurement_scenario(EQUAL, mode="apparatus")
        seeded = build_measurement_scenario(EQUAL, mode="apparatus",
                                            completion_seed=99)
        assert joint_probability_table(base) == joint_probability_table(seeded)

    def test_register_states_encode_choice_weights(self):
        scenario = build_measurement_scenario(
            EQUAL, mode="apparatus", choice_weights=((0.25, 0.75), (0.5, 0.5)))
        # populations of the left register (qubit L, qubit R, register L,
        # register R)
        amps = scenario.tree.rho.factor.reshape(2, 2, 6, 6)
        population = (np.abs(amps) ** 2).sum(axis=(0, 1, 3))
        assert population[0] == pytest.approx(0.25, abs=1e-12)
        assert population[1] == pytest.approx(0.75, abs=1e-12)
        assert population[2:].max() == 0.0

    def test_joint_table_matches_weighted_oracle(self):
        weights = ((0.25, 0.75), (0.6, 0.4))
        scenario = build_measurement_scenario(EQUAL, mode="apparatus",
                                              choice_weights=weights)
        ours = joint_probability_table(scenario)
        theirs = oracles.joint_table(*EQUAL.triple, w_l=weights[0],
                                     w_r=weights[1])
        for key, value in ours.items():
            assert value == pytest.approx(theirs[oracle_key(key)], abs=1e-12)
