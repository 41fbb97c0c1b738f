"""Acceptance gate.

Seven criteria, one printed pass/fail line each (run with ``pytest -s``
to see them). The sweep grid for a system consists of every pairwise
distance value, halved and doubled; the oracle enumerates chains of up
to 8 points. Checks that need a coarse resolution use the largest grid
value as delta_coarse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from chainshadow import (
    HOLDS,
    ShadowVerdict,
    OracleVerdict,
    brute_force_oracle,
    cantor_identity,
    check_shadowing_property,
    check_slimit_property,
    invariant_core,
    is_limit_shadowed,
    is_shadowed,
    refine_ladder,
    validate_pseudo_orbit,
)
from chainshadow.shadow import DEFAULT_STATE_CAP
from chainshadow.verify import _Answers, _class_denseness, _initial_classes_shadow
from conftest import sweep_values
from corpus import standard_corpus
from small_scope import inverse_identity

ORACLE_MAX_LEN = 8


@dataclass(frozen=True)
class SweepCell:
    automaton: ShadowVerdict
    oracle: OracleVerdict


@dataclass(frozen=True)
class Sweep:
    corpus: tuple
    cells: dict  # (name, prop, delta, eps) -> SweepCell
    elapsed: float


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    corpus = standard_corpus()
    cells = {}
    started = time.perf_counter()
    for name, system in corpus:
        values = sweep_values(system)
        for delta in values:
            for eps in values:
                for prop, check in (
                    ("shadowing", check_shadowing_property),
                    ("slimit", check_slimit_property),
                ):
                    cells[(name, prop, delta, eps)] = SweepCell(
                        check(system, delta, eps),
                        brute_force_oracle(system, delta, eps, prop, ORACLE_MAX_LEN),
                    )
    return Sweep(corpus, cells, time.perf_counter() - started)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}{suffix}")


def cores_shadow(system, delta, eps, classes) -> bool:
    """Whether the restricted shadowing check passes on the nonempty
    invariant core of each class: what the harness's class checks read
    from (S) instead of searching."""
    cores = filter(None, (invariant_core(system, cls) for cls in classes))
    return all(check_shadowing_property(system, delta, eps, domain=core).passed for core in cores)


def test_criterion_1_oracle_equivalence(sweep):
    mismatches = [
        key
        for key, cell in sweep.cells.items()
        if cell.automaton.passed != cell.oracle.passed
    ]
    ok = not mismatches and sweep.elapsed < 60
    report(
        1,
        "oracle equivalence on the corpus grid",
        ok,
        f"{len(sweep.cells)} comparisons in {sweep.elapsed:.1f}s",
    )
    assert mismatches == []
    assert sweep.elapsed < 60


def test_criterion_2_slimit_implies_shadowing(sweep):
    violations = []
    for name, system in sweep.corpus:
        values = sweep_values(system)
        for delta in values:
            for eps in values:
                slimit = sweep.cells[(name, "slimit", delta, eps)].automaton
                shadowing = sweep.cells[(name, "shadowing", delta, eps)].automaton
                if slimit.passed and not shadowing.passed:
                    violations.append((name, delta, eps))
    report(2, "slimit pass implies shadowing pass", not violations,
           f"{len(sweep.cells) // 2} parameter pairs")
    assert violations == []


def test_criterion_3_every_coarse_class_contains_a_shadowing_class(sweep):
    failures = []
    checked = 0
    for name, system in sweep.corpus:
        # One system's answers serve every cell, as they serve a harness grid.
        ans = _Answers(system, DEFAULT_STATE_CAP)
        values = sweep_values(system)
        coarse = values[-1]
        for delta in values:
            for eps in values:
                if not sweep.cells[(name, "slimit", delta, eps)].automaton.passed:
                    continue
                result = _class_denseness(ans, coarse, delta, eps)
                checked += 1
                entries = result.details["coarse_classes"]
                fine = ans.decomposition(delta).classes
                certifiers = [fine[e["certifier"]] for e in entries if e["certifier"] is not None]
                if result.status != HOLDS or not cores_shadow(system, delta, eps, certifiers):
                    failures.append((name, delta, eps, result.status))
    # pinned identity-on-endpoints analog: below the minimum gap every
    # singleton class certifies itself
    for depth in (1, 2, 3):
        system = cantor_identity(depth)
        scale = Fraction(1, 3**depth)
        result = _class_denseness(_Answers(system, DEFAULT_STATE_CAP), scale, scale, scale)
        checked += 1
        entries = result.details["coarse_classes"]
        if result.status != HOLDS or len(entries) != 2**depth or any(
            e["certifier"] is None or e["fine_classes"] != [e["coarse"]]
            for e in entries
        ):
            failures.append((f"cantor-identity:{depth}", scale, scale, result.status))
    report(3, "coarse classes contain shadowing classes", not failures,
           f"{checked} non-vacuous checks")
    assert failures == []


def test_criterion_4_initial_classes_shadow(sweep):
    failures = []
    checked = 0
    for name, system in sweep.corpus:
        ans = _Answers(system, DEFAULT_STATE_CAP)
        values = sweep_values(system)
        for delta in values:
            # The harness records the inverse map's terminal classes as f's
            # initial classes without computing them; this computes them.
            if system.invertible and not inverse_identity(system, delta):
                failures.append((name, delta, "inverse cross-check"))
            for eps in values:
                if not sweep.cells[(name, "slimit", delta, eps)].automaton.passed:
                    continue
                result = _initial_classes_shadow(ans, delta, eps)
                checked += 1
                classes = ans.decomposition(delta).classes
                initial = [classes[i] for i in result.details["initial_classes"]]
                if result.status != HOLDS or not cores_shadow(system, delta, eps, initial):
                    failures.append((name, delta, eps, result.status))
    report(4, "initial classes pass restricted shadowing", not failures,
           f"{checked} non-vacuous checks")
    assert failures == []


def test_criterion_5_strictness_witness(sweep):
    shadowing = sweep.cells[("parallel-cycles", "shadowing", Fraction(1), Fraction(1))]
    slimit = sweep.cells[("parallel-cycles", "slimit", Fraction(1), Fraction(1))]
    ok = (
        shadowing.automaton.passed
        and shadowing.oracle.passed
        and not slimit.automaton.passed
        and not slimit.oracle.passed
        and slimit.automaton.witness.points == (0, 4)
        and slimit.automaton.witness.tail_start == 1
        and slimit.oracle.witness.points == (0, 4)
    )
    report(5, "parallel-cycles splits the two properties at delta=eps=1", ok,
           "witness prefix (a, e2)")
    assert shadowing.automaton.passed and shadowing.oracle.passed
    assert not slimit.automaton.passed and not slimit.oracle.passed
    assert slimit.automaton.witness.points == (0, 4)
    assert slimit.automaton.witness.tail_start == 1
    assert slimit.oracle.witness.points == (0, 4)


def ladder_deltas(system) -> list[Fraction]:
    values = sorted(sweep_values(system), reverse=True)
    picks = sorted({values[0], values[len(values) // 4],
                    values[len(values) // 2], values[3 * len(values) // 4],
                    values[-1]}, reverse=True)
    while len(picks) < 5:
        picks.append(picks[-1] / 2)
    return picks[:5]


def test_criterion_6_ladder_laws(sweep):
    problems = []
    for name, system in sweep.corpus:
        ladder = refine_ladder(system, ladder_deltas(system))
        assert len(ladder.deltas) == 5
        for coarse, fine, mapping in zip(
            ladder.levels, ladder.levels[1:], ladder.refinement
        ):
            if not fine.cr <= coarse.cr:
                problems.append((name, "recurrence containment"))
            for child, parent in enumerate(mapping):
                if not fine.classes[child] <= coarse.classes[parent]:
                    problems.append((name, "class containment"))
    pinned = refine_ladder(cantor_identity(2), [1, Fraction(1, 4), Fraction(1, 20)])
    if pinned.class_counts() != (1, 2, 4):
        problems.append(("cantor-identity:2", pinned.class_counts()))
    report(6, "ladder monotonicity and containment", not problems,
           f"{len(sweep.corpus)} systems, 5-step ladders")
    assert problems == []


def test_criterion_7_witness_round_trip(sweep):
    corpus = dict(sweep.corpus)
    failures = []
    total = 0
    for (name, prop, delta, eps), cell in sweep.cells.items():
        system = corpus[name]
        for verdict in (cell.automaton, cell.oracle):
            if verdict.passed:
                continue
            total += 1
            witness = verdict.witness
            if witness is None or not validate_pseudo_orbit(system, witness):
                failures.append((name, prop, delta, eps, "invalid witness"))
                continue
            if prop == "shadowing":
                rejected = is_shadowed(system, witness, eps) is None
            else:
                rejected = is_limit_shadowed(system, witness, eps) is None
            if not rejected:
                failures.append((name, prop, delta, eps, "witness not rejected"))
    report(7, "witness round-trip on every failure", not failures,
           f"{total} failing verdicts re-validated")
    assert total > 0
    assert failures == []
