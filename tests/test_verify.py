"""Theorem harness: statuses, certifiers, witnesses, vacuity, determinism."""

from __future__ import annotations

import inspect
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainshadow import (
    FAILS,
    HOLDS,
    FiniteMetricSystem,
    VACUOUS,
    BadParams,
    GridEntry,
    HarnessReport,
    Inconclusive,
    PseudoOrbit,
    ShadowVerdict,
    brute_force_oracle,
    build_delta_graph,
    cantor_identity,
    check_shadowing_property,
    decompose,
    check_slimit_property,
    default_grid,
    invariant_core,
    is_shadowed,
    make_system,
    parse_generator_string,
    rotation,
    run_harness,
    validate_pseudo_orbit,
)
from chainshadow import cli
from chainshadow import shadow as shadow_mod
from chainshadow import verify as verify_mod
from chainshadow.system import _Table
from chainshadow.verify import (
    _class_denseness,
    _initial_classes_shadow,
    _isolated_implies_shadowing,
    _slimit_implies_shadowing,
    _slimit_violation,
)
from conftest import metric_systems, system_and_scales
from corpus import shortest_path_metric, standard_corpus
import small_scope
from small_scope import (
    CoreLaws,
    explored,
    inverse_classes,
    inverse_identity,
    law_counterexamples,
    level_ends,
    same_decisions,
    tables,
)


def _alone(check, system, *params, state_cap=shadow_mod.DEFAULT_STATE_CAP):
    """One of the harness's checks at ``params``, on answers of its own."""
    return check(verify_mod._Answers(system, state_cap), *verify_mod._rationals(*params))


class TestImplication:
    def test_both_pass(self):
        system = cantor_identity(2)
        result = _alone(_slimit_implies_shadowing, system, Fraction(1, 20), Fraction(1, 20))
        assert result.status == HOLDS
        assert result.details == {"slimit_pass": True, "shadowing_pass": True}

    def test_vacuous_antecedent_still_holds(self, parallel):
        result = _alone(_slimit_implies_shadowing, parallel, 1, 1)
        assert result.status == HOLDS
        assert result.details == {"slimit_pass": False, "shadowing_pass": True}

    def test_params_are_strings(self, parallel):
        result = _alone(_slimit_implies_shadowing, parallel, Fraction(1, 2), 1)
        assert result.params == {"delta": "1/2", "eps": "1"}


class TestClassDenseness:
    def test_cantor_clusters(self):
        system = cantor_identity(2)
        result = _alone(
            _class_denseness, system, Fraction(1, 4), Fraction(1, 20), Fraction(1, 20)
        )
        assert result.status == HOLDS
        entries = result.details["coarse_classes"]
        assert len(entries) == 2
        for entry in entries:
            assert len(entry["fine_classes"]) == 2
            assert entry["certifier"] in entry["fine_classes"]
            assert entry["degenerate"] == []

    def test_vacuous_when_slimit_fails(self, parallel):
        result = _alone(_class_denseness, parallel, 1, 1, 1)
        assert result.status == VACUOUS

    def test_north_south_certified_by_fixed_points(self, ns6):
        result = _alone(_class_denseness, ns6, Fraction(1, 2), Fraction(1, 24), Fraction(1, 2)
        )
        assert result.status == HOLDS
        for entry in result.details["coarse_classes"]:
            assert entry["certifier"] is not None

    @given(system_and_scales(max_n=7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_maximal_first_matches_the_class_order(self, data, more):
        """Maximal-first order read from one OR of reach masks is the stable
        sort on "some other class of the subset lies above"."""
        system, delta, _ = data
        dec = decompose(build_delta_graph(system, delta))
        subset = more.draw(st.lists(st.sampled_from(range(len(dec.classes))), unique=True))
        below = [any(dec.class_reach[k] >> j & 1 for k in subset if k != j) for j in subset]
        expected = [j for _, j in sorted(zip(below, subset), key=lambda pair: pair[0])]
        assert verify_mod._maximal_first(dec, subset) == expected


class TestInitialClasses:
    def test_rotation_holds_with_cross_check(self):
        system = rotation(4, 1)
        result = _alone(_initial_classes_shadow, system, 0, Fraction(1, 4))
        assert result.status == HOLDS
        assert result.details["inverse_cross_check"] is True
        assert result.details["checked"] == [{"class": 0, "pass": True}]

    def test_vacuous_when_slimit_fails(self, parallel):
        result = _alone(_initial_classes_shadow, parallel, 1, 1)
        assert result.status == VACUOUS

    def test_north_south_source_class(self, ns6):
        result = _alone(_initial_classes_shadow, ns6, Fraction(1, 24), Fraction(1, 2)
        )
        assert result.status == HOLDS
        assert result.details["inverse_cross_check"] is None
        assert result.details["checked"] == [{"class": 0, "pass": True}]

    def test_far_cycles_both_initial(self, far_cycles):
        result = _alone(_initial_classes_shadow, far_cycles, Fraction(1, 10), Fraction(1, 10))
        assert result.status == HOLDS
        assert [c["class"] for c in result.details["checked"]] == [0, 1]
        assert result.details["inverse_cross_check"] is True


def _identity_scales(system) -> list[Fraction]:
    """0, each distance value, each half and a delta past the diameter."""
    values = system.distance_values
    return sorted({Fraction(0), *values, *(v / 2 for v in values), system.diameter + 1})


class TestInverseIdentity:
    """On a symmetric table and a bijective map f, the terminal classes of
    the inverse map's delta graph are f's initial classes, and f maps each
    class onto itself, at every delta: what ``inverse_cross_check`` records
    without computing it."""

    @staticmethod
    def _holds(system):
        assert system.invertible
        for delta in _identity_scales(system):
            assert inverse_identity(system, delta), delta

    @pytest.mark.parametrize(
        "name, system",
        [(name, system) for name, system in standard_corpus() if system.invertible],
        ids=[name for name, system in standard_corpus() if system.invertible],
    )
    def test_invertible_corpus_systems(self, name, system):
        self._holds(system)

    def test_every_rotation_on_at_most_twelve_points(self):
        for n in range(1, 13):
            for k in range(n):
                self._holds(rotation(n, k))

    @given(metric_systems(max_n=7, bijective=True))
    @settings(max_examples=100, deadline=None)
    def test_random_tables_and_permutations(self, system):
        self._holds(system)

    def test_an_asymmetric_table_breaks_it(self):
        """Handed in unchecked, a table with d(0, 1) = 1 and d(1, 0) = 4 breaks
        the identity at delta 1: the axiom checks are what make
        ``inverse_cross_check`` constant."""
        rows = ((0, 1, 2, 4), (4, 0, 3, 4), (3, 1, 0, 1), (3, 4, 3, 0))
        system = FiniteMetricSystem(4, map=(2, 0, 1, 3), invertible=True, _metric=_Table(rows, 1))
        terminal, initial, _ = inverse_classes(system, Fraction(1))
        assert initial == {frozenset({0, 1, 2})} and terminal == {frozenset({3})}


class TestIsolatedClasses:
    def test_far_cycles_hold(self, far_cycles):
        result = _alone(
            _isolated_implies_shadowing, far_cycles, Fraction(1, 10), Fraction(1, 10)
        )
        assert result.status == HOLDS
        assert result.details["isolated_classes"] == [0, 1]
        assert result.details["margin"] == "3/10"

    def test_vacuous_when_shadowing_fails(self, parallel):
        result = _alone(_isolated_implies_shadowing, parallel, 1, Fraction(1, 2))
        assert result.status == VACUOUS

    def test_single_class_counts_as_isolated(self, parallel):
        result = _alone(_isolated_implies_shadowing, parallel, 1, 1)
        assert result.status == HOLDS
        assert result.details["isolated_classes"] == [0]

    def test_margin_excludes_close_classes(self, far_cycles):
        result = _alone(_isolated_implies_shadowing, far_cycles, Fraction(1, 10), 2)
        assert result.status == HOLDS
        assert result.details["isolated_classes"] == []  # margin 41/10 beats sep 4


class TestSlimitViolation:
    def test_parallel_cycles_canonical_witness(self, parallel):
        violation = _alone(_slimit_violation, parallel, 1, 1)
        assert violation is not None
        assert violation.orbit.points == (0, 4)
        assert violation.orbit.tail_start == 1
        # at delta=1 the start re-enters the recurrent set, and the single
        # class is trivially initial
        assert violation.starts_outside_cr is False
        assert violation.tail_class_initial is True
        assert validate_pseudo_orbit(parallel, violation.orbit)

    def test_absent_at_exact_orbit_scale(self, parallel):
        # below the re-entry scale pseudo-orbits are exact orbits
        assert _alone(_slimit_violation, parallel, Fraction(1, 2), Fraction(1, 2)) is None

    def test_absent_when_property_holds(self):
        system = cantor_identity(2)
        assert _alone(_slimit_violation, system, Fraction(1, 20), Fraction(1, 20)) is None

    def test_oracle_confirms_witness(self, parallel):
        violation = _alone(_slimit_violation, parallel, 1, 1)
        oracle = brute_force_oracle(parallel, 1, 1, "slimit")
        assert not oracle.passed
        assert oracle.witness.points == violation.orbit.points


class TestCertifierReproducibility:
    def test_certifying_class_reproduces_pass(self, ns6):
        from chainshadow import (
            build_delta_graph,
            check_shadowing_property,
            decompose,
            invariant_core,
        )

        delta, eps = Fraction(1, 24), Fraction(1, 2)
        result = _alone(_class_denseness, ns6, Fraction(1, 2), delta, eps)
        assert result.status == HOLDS
        fine = decompose(build_delta_graph(ns6, delta))
        for entry in result.details["coarse_classes"]:
            core = invariant_core(ns6, fine.classes[entry["certifier"]])
            assert core
            assert check_shadowing_property(ns6, delta, eps, domain=core).passed


class TestCoreLaws:
    """(S) and (I) of ``small_scope.CoreLaws``: the laws that the harness's
    class checks state instead of searching."""

    @pytest.mark.parametrize("law", ["(S)", "(I)"])
    @settings(max_examples=100, deadline=None)
    @given(case=system_and_scales())
    def test_random_tables_keep_the_law(self, law, case):
        assert law_counterexamples(*case, law) == []

    def test_the_laws_need_their_hypotheses(self):
        """On the growing four-point line with map (0, 3, 2, 0) at delta 1
        and eps 4, whole-system shadowing passes and slimit fails. The
        class core {0, 1, 3} lies inside the recurrent set, and its
        separation, 2, is at most eps. Shadowing fails on it, so (S) with
        shadowing in place of slimit, or (I) with no margin, is false.

        The failing witness, the 1-pseudo-orbit (0, 1, 3) in the core, is
        shadowed within 4 by the fixed point 2 outside the core and by no
        point of the core: plain shadowing does not give the core the
        shadowing property that the paper's conclusion asks for."""
        system = make_system(tables(4)["growing"], (0, 3, 2, 0))
        core = frozenset({0, 1, 3})
        laws = CoreLaws(system, 1)
        whole = (check_slimit_property(system, 1, 4), check_shadowing_property(system, 1, 4))
        assert [verdict.passed for verdict in whole] == [False, True]
        assert core <= laws.recurrent and laws.separation[core] == 2
        restricted = check_shadowing_property(system, 1, 4, domain=core)
        assert not restricted.passed
        witness = restricted.witness
        assert set(witness.points) <= core and validate_pseudo_orbit(system, witness)
        assert is_shadowed(system, witness, 4, domain=core) is None
        assert is_shadowed(system, witness, 4) == 2
        assert laws.laws(whole, core, 4) == []
        assert law_counterexamples(system, 1, 4, "(S)") == []
        assert law_counterexamples(system, 1, 4, "(I)") == []

    def test_a_broken_restricted_checker_breaks_a_law(self, monkeypatch):
        """A restricted checker that fails every proper domain must surface
        as a counterexample to (S); the harness, which asks no restricted
        question, reports as before."""
        real = shadow_mod.check_shadowing_property

        def sabotaged(system, delta, eps, domain=None, **kwargs):
            verdict = real(system, delta, eps, domain=domain, **kwargs)
            if domain is None:
                return verdict
            return ShadowVerdict(
                "shadowing", verdict.delta, verdict.eps, False,
                PseudoOrbit.plain((min(domain),), verdict.delta), verdict.states_explored,
            )

        # Two 3-cycles: at delta 0 slimit passes, and the class cores are
        # proper subsets of the recurrent set.
        system = rotation(6, 2)
        expected = json.dumps(run_harness(system, "rot").to_json())
        for module in (small_scope, shadow_mod):
            monkeypatch.setattr(module, "check_shadowing_property", sabotaged)
        assert law_counterexamples(system, 0, Fraction(1, 4), "(S)") == [
            frozenset({0, 2, 4}),
            frozenset({1, 3, 5}),
        ]
        assert json.dumps(run_harness(system, "rot").to_json()) == expected


# Positioned generators at small sizes: every rotation on at most 8
# points, and the other three up to 16.
SMALL_POSITIONED = (
    [f"rotation:{n}:{k}" for n in range(1, 9) for k in range(n)]
    + [f"{name}:{n}" for name in ("tent", "doubling") for n in range(1, 17)]
    + [f"north-south:{n}" for n in range(3, 17)]
)


def _empty_cores(system, dec) -> tuple[list[int], list[int]]:
    """The classes of ``dec`` whose invariant core is empty, as the
    harness's class checks list them (``degenerate``), and as
    ``invariant_core`` finds them."""
    result = verify_mod._check_class_cores(
        verify_mod._Answers(system, None), "rule", {}, dec, range(len(dec.classes)),
        {"degenerate": []},
    )
    return result.details["degenerate"], [
        i for i, cls in enumerate(dec.classes) if not invariant_core(system, cls)
    ]


class TestPeriodicPointRule:
    """The harness's class checks read a class core as empty exactly when
    the class holds no periodic point of the map; each test compares that
    rule with ``bool(invariant_core(system, cls))``."""

    @staticmethod
    def scales(system) -> list[Fraction]:
        """Every distance value and half the least one."""
        values = system.distance_values
        return [values[0] / 2, *values] if values else [Fraction(0)]

    def empty_counts(self, system) -> tuple[int, int]:
        """(classes, classes with an empty core) over ``scales``; the first
        difference between the rule and ``invariant_core`` fails."""
        periodic = system._periodic
        classes = empty = 0
        for delta in self.scales(system):
            dec = decompose(build_delta_graph(system, delta))
            harness, cores = _empty_cores(system, dec)
            assert harness == cores, delta
            assert [i for i, cls in enumerate(dec.classes) if periodic.isdisjoint(cls)] == cores
            classes += len(dec.classes)
            empty += len(cores)
        return classes, empty

    def test_the_periodic_points_are_the_points_on_cycles(self):
        for _, system in standard_corpus():
            on_cycles = {p for p in system.points if p in system.orbit(system.map[p], system.n)}
            assert system._periodic == on_cycles

    def test_every_corpus_class(self):
        counts = [self.empty_counts(system) for _, system in standard_corpus()]
        assert sum(empty for _, empty in counts) > 0
        assert sum(classes - empty for classes, empty in counts) > 0

    @pytest.mark.parametrize("gen", SMALL_POSITIONED)
    def test_every_class_of_a_positioned_generator(self, gen):
        self.empty_counts(parse_generator_string(gen))

    @pytest.mark.parametrize("delta", [Fraction(7, 32), Fraction(3, 16)])
    def test_north_south_classes_with_empty_cores(self, delta):
        """The negative controls: on north-south:8 the classes {2} and {6}
        hold no periodic point (the map sends 2 to 3 and 6 to 7), and their
        cores are empty."""
        system = parse_generator_string("north-south:8")
        dec = decompose(build_delta_graph(system, delta))
        assert [sorted(cls) for cls in dec.classes] == [[0, 1, 5], [2], [3, 4, 7], [6]]
        assert _empty_cores(system, dec) == ([1, 3], [1, 3])

    def test_a_core_beyond_the_periodic_points(self):
        """The positive control: on the growing four-point line with map
        (0, 3, 2, 0) at delta 1, the class {0, 1, 3} holds the fixed point
        0, and its core is the whole class."""
        system = make_system(tables(4)["growing"], (0, 3, 2, 0))
        dec = decompose(build_delta_graph(system, 1))
        assert dec.classes[0] == {0, 1, 3} and system._periodic & dec.classes[0] == {0}
        assert invariant_core(system, dec.classes[0]) == {0, 1, 3}
        assert _empty_cores(system, dec) == ([], [])


class TestHarness:
    def test_default_grid_shape(self, parallel):
        grid = default_grid(parallel)
        assert all(isinstance(e, GridEntry) for e in grid)
        assert all(e.delta_fine <= e.delta_coarse for e in grid)

    def test_parallel_cycles_report(self, parallel):
        report = run_harness(parallel, "parallel-cycles")
        assert report.nonvacuous_failures == 0
        payload = report.to_json()
        assert payload["system"] == "parallel-cycles"
        statuses = {
            r["status"] for entry in payload["entries"] for r in entry["results"]
        }
        assert statuses <= {HOLDS, VACUOUS}
        assert any(
            entry["slimit_violation"] is not None for entry in payload["entries"]
        )

    def test_one_point_system(self):
        """A one-point system has no distance values, so its grid is the one
        entry (0, 0, 0)."""
        report = run_harness(rotation(1, 0), "one")
        assert report.entries == (GridEntry(0, 0, 0),)
        assert [r.status for r in report.results[0]] == [HOLDS] * 4
        assert report.violations == (None,)

    def test_grid_validation(self, parallel):
        with pytest.raises(BadParams):
            run_harness(parallel, grid=[(Fraction(1, 2), 1, 1)])

    @pytest.mark.parametrize(
        "call",
        [
            # A grid entry is three values: not a string of three digits,
            # and not four values of which the last would be dropped.
            lambda: run_harness(rotation(4, 1), grid=["211"]),
            lambda: run_harness(rotation(4, 1), grid=[(1, 1, 1, 99)]),
            lambda: run_harness(rotation(4, 1), grid=[(1, 1)]),
            lambda: run_harness(rotation(4, 1), grid=[5]),
            lambda: run_harness(rotation(4, 1), grid=5),
            lambda: shortest_path_metric(3, [(0, 1)]),
            lambda: shortest_path_metric(2, 5),
            lambda: shortest_path_metric(2, [5]),
        ],
        ids=[
            "grid-string-entry",
            "grid-four-values",
            "grid-two-values",
            "grid-int-entry",
            "grid-int",
            "edge-pair",
            "edges-int",
            "edge-int",
        ],
    )
    def test_malformed_arguments_raise_bad_params(self, call):
        with pytest.raises(BadParams):
            call()

    def test_failure_counting(self, parallel):
        report = run_harness(parallel, "pc")
        flat = [r for bundle in report.results for r in bundle]
        assert sum(r.status == FAILS for r in flat) == report.nonvacuous_failures


class TestSharedAnswers:
    """One harness run computes each verdict pair and decomposition once,
    and answers exactly as its checks do when each has answers of its own."""

    @pytest.mark.parametrize("name", ["cantor-identity:3", "north-south:6"])
    def test_no_question_is_asked_twice(self, monkeypatch, name):
        system = dict(standard_corpus())[name]
        asked = []

        def counting(kind, real):
            def wrapper(system, delta, *args):
                # The joint decider asks the slimit and the shadowing
                # question at once; a delta graph is asked at delta alone.
                asked.append((kind, id(system), delta, *args[:2]))
                return real(system, delta, *args)

            return wrapper

        for kind, attr in [("both", "_decide"), ("graph", "build_delta_graph")]:
            monkeypatch.setattr(verify_mod, attr, counting(kind, getattr(verify_mod, attr)))
        report = run_harness(system, name)
        assert report.results
        assert {kind for kind, *_ in asked} == {"both", "graph"}
        assert len(asked) == len(set(asked))

    @pytest.mark.parametrize(
        "name, system", standard_corpus(), ids=[name for name, _ in standard_corpus()]
    )
    def test_each_theorem_asks_one_joint_search(self, monkeypatch, name, system):
        """On answers of its own, each of the harness's five functions, and
        all five in a row at one (delta, eps), runs ``_decide`` once: both
        properties on the whole system, in witness mode. No public check
        is called."""
        searches = []
        real = verify_mod._decide

        def counting(system, delta, eps, domain, state_cap, props, exact=True):
            searches.append((domain, props, exact))
            return real(system, delta, eps, domain, state_cap, props, exact)

        monkeypatch.setattr(verify_mod, "_decide", counting)
        for attr in ("check_slimit_property", "check_shadowing_property"):
            monkeypatch.setattr(verify_mod, attr, mock.Mock(side_effect=AssertionError(attr)))
        checks = [
            lambda ans, coarse, fine, eps: _slimit_implies_shadowing(ans, fine, eps),
            _class_denseness,
            lambda ans, coarse, fine, eps: _initial_classes_shadow(ans, fine, eps),
            lambda ans, coarse, fine, eps: _isolated_implies_shadowing(ans, fine, eps),
            lambda ans, coarse, fine, eps: _slimit_violation(ans, fine, eps),
        ]
        joint = (None, ("slimit", "shadowing"), False)
        for coarse, fine, eps in default_grid(system):
            for run in [[check] for check in checks] + [checks]:
                searches.clear()
                ans = verify_mod._Answers(system, shadow_mod.DEFAULT_STATE_CAP)
                for check in run:
                    check(ans, coarse, fine, eps)
                assert searches == [joint]

    @pytest.mark.parametrize("name", ["cantor-identity:7", "north-south:64"])
    def test_every_question_is_asked_of_the_whole_system(self, monkeypatch, name):
        """Every verdict of the harness is decided by ``_decide`` on the
        whole system; (S) and (I) answer the class cores. Only two
        searches run on each system: every verdict at the finest entry,
        half the least distance, and at the coarse eps, the diameter, is
        answered without one."""
        system = parse_generator_string(name)
        domains = []
        real = shadow_mod._decide

        def counting(system, delta, eps, domain, *args):
            domains.append(domain)
            return real(system, delta, eps, domain, *args)

        # The harness's joint searches call verify's own reference to it.
        monkeypatch.setattr(shadow_mod, "_decide", counting)
        monkeypatch.setattr(verify_mod, "_decide", counting)
        runs = []
        for attr in ("_explore", "_explore_orbits"):
            runs.append(mock.Mock(wraps=getattr(shadow_mod, attr)))
            monkeypatch.setattr(shadow_mod, attr, runs[-1])
        run_harness(system, name)
        assert sum(run.call_count for run in runs) == 2
        assert domains and set(domains) == {None}

    @pytest.mark.parametrize(
        "name, system", standard_corpus(), ids=[name for name, _ in standard_corpus()]
    )
    def test_every_core_answer_is_the_search_verdict(self, name, system):
        """On each class core of the default grid, and on the whole system,
        ``_decide``, forced or not, answers as its search run directly, at
        caps None, |C| - 1 and |C|, for both properties in exact and
        witness mode."""
        for coarse, fine, eps in default_grid(system):
            for delta in (coarse, fine):
                classes = decompose(build_delta_graph(system, delta)).classes
                cores = {invariant_core(system, cls) for cls in classes} - {frozenset()}
                for core in [None, *sorted(cores, key=min)]:
                    assert same_decisions(system, delta, eps, core, f"{name} {core}")

    @pytest.mark.parametrize("crossed", [False, True], ids=["default", "crossed"])
    @pytest.mark.parametrize(
        "name, system", standard_corpus(), ids=[name for name, _ in standard_corpus()]
    )
    def test_harness_matches_checks_on_their_own_answers(self, name, system, crossed):
        grid = default_grid(system)
        if crossed:
            # Every fine delta against every eps, so that entries share a
            # delta but not an eps.
            values = [entry.eps for entry in grid]
            grid = tuple(GridEntry(grid[0].delta_coarse, d, e) for d in values for e in values)
        results = tuple(
            (
                _alone(_slimit_implies_shadowing, system, fine, eps, state_cap=None),
                _alone(_class_denseness, system, coarse, fine, eps, state_cap=None),
                _alone(_initial_classes_shadow, system, fine, eps, state_cap=None),
                _alone(_isolated_implies_shadowing, system, fine, eps, state_cap=None),
            )
            for coarse, fine, eps in grid
        )
        violations = tuple(
            _alone(_slimit_violation, system, fine, eps, state_cap=None) for _, fine, eps in grid
        )
        expected = HarnessReport(name, grid, results, violations).to_json()
        assert json.dumps(run_harness(system, name, grid).to_json()) == json.dumps(expected)


def _exact_joint_searches(monkeypatch, counts: set[int]):
    """Make the harness's joint searches exact, as the public checks are,
    and add to ``counts`` the count at the end of each level of each of
    those searches that ``_explore`` runs."""
    real = shadow_mod._decide
    real_first = shadow_mod._first_failing

    def level_end(failing, found, states, parents, count):
        # The exact search calls this once per level, with the count so far.
        counts.add(count)
        return real_first(failing, found, states, parents, count)

    def exact_search(system, delta, eps, domain, state_cap, props, exact=True):
        with monkeypatch.context() as patch:
            patch.setattr(shadow_mod, "_first_failing", level_end)
            return real(system, delta, eps, domain, state_cap, props)

    monkeypatch.setattr(verify_mod, "_decide", exact_search)


def _report_or_cap(system, grid, cap):
    try:
        return json.dumps(run_harness(system, "system", grid, state_cap=cap).to_json())
    except Inconclusive as exc:
        return ("inconclusive", exc.states_explored, str(exc))


class TestWitnessMode:
    """The harness's joint searches stop at the first failing state of each
    property; the harness answers, ``Inconclusive`` included, as it does
    when those searches are exact."""

    @pytest.mark.parametrize("crossed", [False, True], ids=["default", "crossed"])
    @pytest.mark.parametrize(
        "name, system", standard_corpus(), ids=[name for name, _ in standard_corpus()]
    )
    def test_same_report_and_caps_as_the_exact_search(self, monkeypatch, name, system, crossed):
        grid = default_grid(system)
        if crossed:
            values = [entry.eps for entry in grid]
            grid = tuple(GridEntry(grid[0].delta_coarse, d, e) for d in values for e in values)
        counts: set[int] = set()
        caps = [None]
        with monkeypatch.context() as patch:
            _exact_joint_searches(patch, counts)
            run_harness(system, name, grid, state_cap=None)
            caps += sorted({cap for c in counts for cap in (c - 1, c)})
            expected = [_report_or_cap(system, grid, cap) for cap in caps]
        assert [_report_or_cap(system, grid, cap) for cap in caps] == expected
        assert isinstance(expected[0], str)

    def test_the_hook_sees_every_level(self, monkeypatch):
        """``_exact_joint_searches`` reads its caps off the level ends, so it
        must see every level of the exact search, also those where no state
        passes the screen: at delta = eps = 127/496 on north-south:64, one
        count for each level of the plain BFS up to the level that ends at
        11,655 states, where both properties first fail."""
        system = parse_generator_string("north-south:64")
        v = Fraction(127, 496)
        counts: set[int] = set()
        _exact_joint_searches(monkeypatch, counts)
        verify_mod._decide(system, v, v, None, None, ("slimit", "shadowing"), False)
        ends = level_ends(system, v, v)
        assert 11655 in ends
        assert sorted(counts) == [end for end in ends if end <= 11655]

    def test_the_search_stops_inside_the_level(self):
        """At delta = eps = 127/496 on north-south:64 both properties first
        fail in the level of states 2,045 to 11,655. The exact joint search
        counts that whole level; the harness's search stops at 5,463 with
        the same witnesses, where ``_explore`` run directly in witness mode
        stops."""
        system = parse_generator_string("north-south:64")
        v = Fraction(127, 496)
        props = ("slimit", "shadowing")
        exact = shadow_mod._decide(system, v, v, None, None, props)
        early = shadow_mod._decide(system, v, v, None, None, props, False)
        full = (1 << system.n) - 1
        asymp = shadow_mod._asymp_masks(system, system._balls(v, full, full))
        failing = (lambda p, y: y & asymp[p] == 0, lambda p, y: y == 0)
        states, _ = explored(system, v, v, None, failing, None, False)
        assert [verdict.states_explored for verdict in exact] == [11655, 11655]
        assert len(states) == early[1].states_explored == 5463
        assert early[0].states_explored < early[1].states_explored
        assert [verdict.witness for verdict in early] == [verdict.witness for verdict in exact]


# Each public function that can run the subset-automaton search, called on
# parallel-cycles at delta = eps = 1 with any keywords given.
_CAPPED = [
    (check_shadowing_property, (1, 1)),
    (check_slimit_property, (1, 1)),
    (run_harness, ()),
]


class TestDefaultStateCap:
    """The API stops at the CLI's state cap unless told otherwise."""

    def test_every_search_defaults_to_the_cli_cap(self):
        assert shadow_mod.DEFAULT_STATE_CAP == 1_000_000
        assert cli.DEFAULT_STATE_CAP is shadow_mod.DEFAULT_STATE_CAP
        for fn, _ in _CAPPED:
            default = inspect.signature(fn).parameters["state_cap"].default
            assert default == shadow_mod.DEFAULT_STATE_CAP, fn.__name__

    @pytest.mark.parametrize("fn, args", _CAPPED, ids=[fn.__name__ for fn, _ in _CAPPED])
    def test_the_cap_reaches_the_search(self, monkeypatch, parallel, fn, args):
        """The cap reaches the search, and the count without a search
        (``_forced_count``) that may raise it first."""
        caps = []

        def recording(name):
            real = getattr(shadow_mod, name)

            def wrapper(*args):
                caps.append(args[4])  # state_cap, the fifth argument of both
                return real(*args)

            monkeypatch.setattr(shadow_mod, name, wrapper)

        recording("_forced_count")
        recording("_explore")
        fn(parallel, *args)
        fn(parallel, *args, state_cap=None)
        explicit = len(caps)
        assert caps and set(caps) == {shadow_mod.DEFAULT_STATE_CAP, None}
        # parallel-cycles has five start states, so a cap of 4 stops at once.
        with pytest.raises(Inconclusive) as err:
            fn(parallel, *args, state_cap=4)
        assert err.value.states_explored == 5
        assert caps[explicit:] and set(caps[explicit:]) == {4}


def test_the_readme_python_example_prints_what_it_says(capsys):
    """The example in the README's "Python API" section runs, and each line
    it prints is the comment on its ``print`` call."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Python API\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    said = [line.rsplit("# ", 1)[1] for line in example.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == said
    assert said == ["[[1, 2], [3, 4]]", "False (0, 4)", "False", "0"]
