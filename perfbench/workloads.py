"""The benchmark's four workloads.

Each workload is one closed-loop client.  ``prepare(i)`` makes the input of
op ``i`` together with its expected output (untimed), ``op(item)`` is the
timed call into chainlogic, and ``check(item, out)`` returns ``None`` when
the output matches the reference, else a one-line description of the
mismatch.

Inputs come from ``numpy.random.default_rng`` seeded with the run's seed
(per-op inputs with the seed and the op index), never from the workload
name.  Expected values come from the brute-force oracles in
``tests/oracles.py`` or, for counterfactual queries, from a particle-mode
twin of each apparatus scenario evaluated at set-up.

chainlogic functions are always called through their module
(``hardy.build_measurement_scenario``), so the traced run's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np

from chainlogic import cli, counterfactual, errors, hardy, qm, sweep

# Agreement required of every probability against its reference.
PROB_TOL = 1e-9
# A joint probability the scenario forbids must read below this.
ZERO_TOL = 1e-10

L_SETTINGS = ("ML1", "ML2")
R_SETTINGS = ("MR1", "MR2")
SIGNS = ("+", "-")
SWAP = {"ML1": "ML2", "ML2": "ML1", "MR1": "MR2", "MR2": "MR1"}
# Full records (left setting, left outcome, right setting, right outcome).
RECORDS = tuple((ls, ls + lo, rs, rs + ro) for ls in L_SETTINGS for lo in SIGNS
                for rs in R_SETTINGS for ro in SIGNS)
# The three joint outcomes of probability zero that define a Hardy state.
FORBIDDEN = (("ML1", "ML1-", "MR1", "MR1+"), ("ML1", "ML1+", "MR2", "MR2-"),
             ("ML2", "ML2+", "MR1", "MR1-"))


def strict_triple(rng: np.random.Generator,
                  floor: float = 0.15) -> tuple[complex, complex, complex]:
    """Normalized complex triple with every magnitude above ``floor``."""
    while True:
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        raw = raw / np.linalg.norm(raw)
        if np.abs(raw).min() > floor:
            return tuple(complex(x) for x in raw)


def uneven_weights(rng: np.random.Generator):
    """Setting-choice weights ((wL1, wL2), (wR1, wR2)), away from 0 and 1."""
    left, right = (float(w) for w in rng.uniform(0.15, 0.85, size=2))
    return ((left, 1.0 - left), (right, 1.0 - right))


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= PROB_TOL


class Workload:
    name = ""

    def __init__(self, seed: int, oracles, scratch_dir) -> None:
        self.seed = seed
        self.oracles = oracles

    def op_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def prepare(self, index: int):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ParticleCli(Workload):
    """``hardy --json`` and ``counterfactual --both --json`` via ``cli.main``."""

    name = "particle_cli"
    CONFIGS = 24
    # One hardy op to two counterfactual ops: the median then falls inside
    # the counterfactual cluster instead of in the gap between the two.
    COMMANDS = (("hardy",), ("counterfactual", "--both"),
                ("counterfactual", "--both"))

    def __init__(self, seed, oracles, scratch_dir) -> None:
        super().__init__(seed, oracles, scratch_dir)
        self._tmp = tempfile.TemporaryDirectory(prefix="configs-", dir=scratch_dir)
        rng = np.random.default_rng(seed)
        self.configs = []
        for k in range(self.CONFIGS):
            a, b, c = strict_triple(rng)
            weights = uneven_weights(rng)
            path = os.path.join(self._tmp.name, f"config{k:02d}.json")
            with open(path, "w") as out:
                json.dump({"schema": 1,
                           "amplitudes": [[x.real, x.imag] for x in (a, b, c)],
                           "choice_weights": [list(w) for w in weights],
                           "mode": "particle"}, out)
            self.configs.append((
                path,
                oracles.s4_closed_form(a, b, c),
                oracles.right_outcome_given_left(a, b, c, "ML2", "+", "MR2", "-")))

    def prepare(self, index):
        return (self.COMMANDS[index % len(self.COMMANDS)],
                *self.configs[index % len(self.configs)])

    def op(self, item):
        command, path = item[0], item[1]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*command, "--json", "--config", path])
        return code, stdout.getvalue()

    def check(self, item, out):
        command, _, s4, p_minus = item
        code, text = out
        if code != 0:
            return f"{command[0]} exited {code}"
        doc = json.loads(text)
        if command[0] == "hardy":
            pred = doc["predictions"]
            if not _close(pred["s4"], s4):
                return f"s4 {pred['s4']!r}, expected {s4!r}"
            worst = max(pred["s1"], pred["s2"], pred["s3"])
            if not worst < ZERO_TOL:
                return f"a forbidden joint reads {worst!r}"
            if not (pred["is_hardy"] and doc["no_signaling"]["passes"]):
                return "hardy report fails its own pattern"
            return None
        ml1, ml2 = doc["ml1"], doc["ml2"]
        if (ml1["kind"], ml1["outcome"]) != ("necessary", "MR2+"):
            return f"ML1 verdict {ml1['kind']}({ml1['outcome']})"
        if ml2["kind"] != "possible":
            return f"ML2 verdict {ml2['kind']}"
        if doc["demonstrated"] is not True:
            return "locality contrast not demonstrated"
        pivot = [p for p in ml2["pivots"] if p["path"] == ["ML2", "ML2+"]]
        got = pivot[0]["outcomes"].get("MR2-", 0.0) if pivot else float("nan")
        if not _close(got, p_minus):
            return f"P(MR2- | ML2+) {got!r}, expected {p_minus!r}"
        return None

    def close(self):
        self._tmp.cleanup()


class ApparatusBuild(Workload):
    """Build an apparatus scenario and verify its predictions, as one step
    of ``maximize_s4`` in apparatus mode does."""

    name = "apparatus_build"
    # Parameter ranges that keep every amplitude well above the strict floor.
    RANGES = {"symmetric_outer": (0.15, 0.85), "equal_tail": (0.15, 0.6)}

    def prepare(self, index):
        rng = self.op_rng(index)
        family = tuple(self.RANGES)[index % 2]
        parameter = float(rng.uniform(*self.RANGES[family]))
        weights = uneven_weights(rng)
        completion_seed = int(rng.integers(0, 2**31))
        triple = {"symmetric_outer": self.oracles.symmetric_outer_triple,
                  "equal_tail": self.oracles.equal_tail_triple}[family](parameter)
        return (family, parameter, weights, completion_seed,
                self.oracles.s4_closed_form(*triple))

    def op(self, item):
        family, parameter, weights, completion_seed, _ = item
        scenario = hardy.build_measurement_scenario(
            sweep.family_amplitudes(family, parameter), mode="apparatus",
            choice_weights=weights, completion_seed=completion_seed)
        return hardy.verify_hardy_predictions(scenario)

    def check(self, item, report):
        s4 = item[-1]
        if not _close(report.s4, s4):
            return f"s4 {report.s4!r}, expected {s4!r}"
        worst = max(report.s1, report.s2, report.s3)
        if not worst < ZERO_TOL:
            return f"a forbidden joint reads {worst!r}"
        return None


def _verdict_problem(got, want) -> str | None:
    """Difference between two counterfactual verdicts, or None."""
    if (got.kind, got.outcome) != (want.kind, want.outcome):
        return f"verdict {got.kind}({got.outcome}), expected {want.kind}({want.outcome})"
    if set(got.distribution) != set(want.distribution):
        return f"outcomes {sorted(got.distribution)}, expected {sorted(want.distribution)}"
    for outcome, value in want.distribution.items():
        if not _close(got.distribution[outcome], value):
            return f"P({outcome}) {got.distribution[outcome]!r}, expected {value!r}"
    if not _close(got.premise_probability, want.premise_probability):
        return "premise probability differs"
    if tuple(got.impossible_outcomes) != tuple(want.impossible_outcomes):
        return "impossible outcomes differ"
    return None


class ApparatusQuery(Workload):
    """Reads on prebuilt apparatus trees: locality reports and seeded
    counterfactual queries, some with vacuous premises."""

    name = "apparatus_query"
    SCENARIOS = 4
    LOCALITY_REPORTS = 12
    # (pivot time, premise times, vacuous, count).  The pool's make-up is
    # fixed so that its cost does not depend on the seed; only the records
    # behind the premises, the amplitudes and the weights are drawn.
    TEMPLATES = (
        (3, (1, 3, 4), False, 12),
        (3, (1, 2, 3, 4), False, 10),
        (1, (1, 2, 3, 4), False, 10),
        (1, (2, 4), False, 10),
        (3, (1, 2, 3, 4), True, 3),
        (1, (1, 2, 3, 4), True, 3),
    )

    def __init__(self, seed, oracles, scratch_dir) -> None:
        super().__init__(seed, oracles, scratch_dir)
        rng = np.random.default_rng(seed)
        self.scenarios = []
        for _ in range(self.SCENARIOS):
            amplitudes = hardy.HardyAmplitudes(*strict_triple(rng))
            weights = uneven_weights(rng)
            built = hardy.build_measurement_scenario(
                amplitudes, mode="apparatus", choice_weights=weights,
                completion_seed=int(rng.integers(0, 2**31)))
            twin = hardy.build_measurement_scenario(
                amplitudes, mode="particle", choice_weights=weights)
            self.scenarios.append((built, twin))
        pool = [("locality", k % self.SCENARIOS,
                 counterfactual.locality_report(self.scenarios[k % self.SCENARIOS][1]))
                for k in range(self.LOCALITY_REPORTS)]
        for pivot_time, times, vacuous, count in self.TEMPLATES:
            for _ in range(count):
                pool.append(self._draw_query(rng, pivot_time, times, vacuous,
                                             len(pool) % self.SCENARIOS))
        self.pool = [pool[k] for k in rng.permutation(len(pool))]

    def _draw_query(self, rng, pivot_time, times, vacuous, scenario):
        """A query whose full record is a forbidden joint when ``vacuous``.

        Every premise template fixes the setting at each outcome it names,
        so it is vacuous exactly when its record is one of the three joint
        outcomes the Hardy state forbids.
        """
        records = [r for r in RECORDS if (r in FORBIDDEN) == vacuous]
        labels = dict(zip((1, 2, 3, 4), records[rng.integers(len(records))]))
        query = counterfactual.CounterfactualQuery(
            premise={t: labels[t] for t in times}, pivot_time=pivot_time,
            alternative=SWAP[labels[pivot_time]])
        try:
            expected = counterfactual.evaluate_counterfactual(
                self.scenarios[scenario][1].tree, query)
        except errors.VacuousPremiseError as exc:
            expected = exc
        return ("query", scenario, query, vacuous, expected)

    def prepare(self, index):
        return self.pool[index % len(self.pool)]

    def op(self, item):
        kind, scenario, *rest = item
        built = self.scenarios[scenario][0]
        if kind == "locality":
            return counterfactual.locality_report(built)
        try:
            return counterfactual.evaluate_counterfactual(built.tree, rest[0])
        except errors.VacuousPremiseError as exc:
            return exc

    def check(self, item, out):
        if item[0] == "locality":
            expected = item[-1]
            for setting in L_SETTINGS:
                problem = _verdict_problem(out.verdict(setting),
                                           expected.verdict(setting))
                if problem:
                    return f"{setting}: {problem}"
            if not (out.demonstrated and expected.demonstrated
                    and out.no_signaling.passes):
                return "locality contrast not demonstrated"
            return None
        vacuous, expected = item[-2:]
        if vacuous:
            if isinstance(out, errors.VacuousPremiseError) \
                    and isinstance(expected, errors.VacuousPremiseError):
                return None
            return "vacuous premise did not raise in both modes"
        if isinstance(expected, Exception):
            return f"particle twin raised {expected!r}"
        if isinstance(out, Exception):
            return f"raised {out!r}"
        return _verdict_problem(out, expected)


class MixedApparatus(Workload):
    """Apparatus scenario from a noisy density operator, then its locality
    report: the only route through the density-matrix branches."""

    name = "mixed_apparatus"

    def prepare(self, index):
        rng = self.op_rng(index)
        a, b, c = strict_triple(rng)
        noise = float(rng.uniform(0.01, 0.10))
        weights = uneven_weights(rng)
        psi = self.oracles.hardy_vector(a, b, c)
        rho = (1.0 - noise) * np.outer(psi, psi.conj()) + noise * np.eye(4) / 4.0
        vectors = self.oracles.outcome_vectors(a, b, c)
        settings = tuple(("L" if name in L_SETTINGS else "R", name,
                          vectors[(name, "+")], vectors[(name, "-")])
                         for name in L_SETTINGS + R_SETTINGS)
        weight = dict(zip(L_SETTINGS + R_SETTINGS, weights[0] + weights[1]))
        expected = {}
        for ls in L_SETTINGS:
            for lo in SIGNS:
                for rs in R_SETTINGS:
                    for ro in SIGNS:
                        pair = np.kron(vectors[(ls, lo)], vectors[(rs, ro)])
                        born = float(np.vdot(pair, rho @ pair).real)
                        expected[(ls, ls + lo, rs, rs + ro)] = \
                            weight[ls] * weight[rs] * born
        return rho, settings, weights, expected

    def op(self, item):
        rho, settings, weights, _ = item
        scenario = hardy.build_measurement_scenario(
            state=qm.DensityOperator(rho),
            settings=[hardy.MeasurementSetting(side=side, name=name, plus=plus,
                                               minus=minus)
                      for side, name, plus, minus in settings],
            choice_weights=weights, mode="apparatus")
        report = counterfactual.locality_report(scenario)
        return dict(scenario.tree.leaf_probabilities()), report

    def check(self, item, out):
        joint, report = out
        expected = item[-1]
        if set(joint) - set(expected):
            return f"unexpected leaves {sorted(set(joint) - set(expected))}"
        for key, want in expected.items():
            got = joint.get(key, 0.0)
            if not _close(got, want):
                return f"P{key} {got!r}, Born rule gives {want!r}"
        if not report.no_signaling.passes:
            return "no-signaling check fails"
        return None


WORKLOADS = {cls.name: cls for cls in
             (ParticleCli, ApparatusBuild, ApparatusQuery, MixedApparatus)}
