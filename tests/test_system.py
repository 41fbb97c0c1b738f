"""System validation, generators, and grid discretization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from chainshadow import (
    BadParams,
    GridSystem1D,
    InvalidSystem,
    UnknownGenerator,
    build_corpus_system,
    cantor_identity,
    discretize,
    doubling,
    make_system,
    metric_violations,
    north_south,
    parse_generator_string,
    rotation,
    shortest_path_metric,
    standard_corpus,
    system_from_json,
    tent,
    validate_system,
)
from chainshadow.bits import to_frozenset
from conftest import metric_systems, sweep_values


class TestValidation:
    def test_singleton_fixed_point(self):
        system = validate_system({"n": 1, "dist": [[0]], "map": [0]})
        assert system.n == 1 and system.map == (0,)

    def test_two_cycle_invertible(self):
        system = validate_system(
            {"n": 2, "dist": [[0, 1], [1, 0]], "map": [1, 0], "invertible": True}
        )
        assert system.invertible

    def test_triangle_violation(self):
        spec = {
            "n": 3,
            "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            "map": [0, 1, 2],
        }
        with pytest.raises(InvalidSystem) as err:
            validate_system(spec)
        kinds = {(v.kind, v.indices) for v in err.value.violations}
        assert ("triangle", (0, 1, 2)) in kinds

    def test_symmetry_and_identity_violations(self):
        dist = [[0, 2], [1, 0]]
        violations = metric_violations(
            [[Fraction(a) for a in row] for row in dist], (0, 1), False
        )
        assert any(v.kind == "symmetry" for v in violations)
        bad_diag = [[Fraction(1)]]
        assert any(v.kind == "identity" for v in metric_violations(bad_diag, (0,), False))

    def test_positivity_violation(self):
        dist = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
        assert any(v.kind == "positivity" for v in metric_violations(dist, (0, 1), False))

    def test_map_not_total(self):
        with pytest.raises(InvalidSystem) as err:
            make_system([[0, 1], [1, 0]], (0, 5))
        assert any(v.kind == "map_not_total" and v.indices == (1,) for v in err.value.violations)

    def test_not_bijective_when_flagged(self):
        with pytest.raises(InvalidSystem) as err:
            make_system([[0, 1], [1, 0]], (0, 0), invertible=True)
        assert any(v.kind == "not_bijective" for v in err.value.violations)

    def test_n_mismatch(self):
        with pytest.raises(BadParams):
            validate_system({"n": 3, "dist": [[0, 1], [1, 0]], "map": [0, 1]})

    def test_floats_rejected(self):
        with pytest.raises(BadParams):
            make_system([[0, 0.5], [0.5, 0]], (0, 1))

    def test_json_round_trip(self):
        system = rotation(5, 2)
        import json

        again = system_from_json(json.dumps(system.to_spec()))
        assert again == system

    @given(metric_systems())
    @settings(max_examples=40)
    def test_random_specs_pass_all_axioms(self, system):
        assert metric_violations(system.dist, system.map, system.invertible) == []


class TestDistanceOrder:
    @given(metric_systems())
    @settings(max_examples=40)
    def test_ball_is_the_closed_ball(self, system):
        radii = [Fraction(0), *sweep_values(system), system.diameter + 1]
        for p in system.points:
            row = system.dist[p]
            order = list(system.nearest_first(p))
            assert sorted(order) == list(system.points)
            assert [row[q] for q in order] == sorted(row)
            for r in radii:
                expected = {q for q in system.points if row[q] <= r}
                assert to_frozenset(system.ball(p, r)) == expected

    def test_nearest_first_is_read_only(self):
        system = rotation(4, 1)
        assert list(system.nearest_first(0)) == [0, 1, 3, 2]
        with pytest.raises(TypeError):
            system.nearest_first(0)[0] = 2
        assert system.ball(0, Fraction(1, 4)) == 0b1011


class TestGenerators:
    def test_cantor_level_one(self):
        system = cantor_identity(1)
        assert system.n == 2
        assert system.dist[0][1] == Fraction(2, 3)
        assert system.map == (0, 1) and system.invertible

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_cantor_size_and_min_gap(self, depth):
        system = cantor_identity(depth)
        assert system.n == 2**depth
        if depth:
            assert system.min_gap == Fraction(2, 3**depth)

    def test_rotation_orbit_covers_cycle(self):
        system = rotation(4, 1)
        assert system.orbit(0, 5) == (0, 1, 2, 3, 0)
        assert system.dist[0][2] == Fraction(1, 2)
        assert system.dist[0][3] == Fraction(1, 4)

    def test_parallel_cycles_table(self, parallel):
        assert parallel.map == (2, 2, 1, 4, 3)
        assert parallel.d(0, 1) == 1 and parallel.d(0, 3) == 2
        assert parallel.d(1, 3) == 1 and parallel.d(2, 4) == 1
        assert parallel.d(1, 4) == 4 and parallel.d(2, 3) == 4
        assert not parallel.invertible

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_north_south_shape(self, n):
        system = north_south(n)
        fixed = [p for p in system.points if system.map[p] == p]
        assert len(fixed) == 2  # one source, one sink
        landings = {system.orbit(q, n + 1)[-1] for q in system.points if q not in fixed}
        assert len(landings) == 1 and landings.pop() in fixed

    def test_generator_param_forms(self):
        by_list = build_corpus_system("rotation", [4, 1])
        by_dict = build_corpus_system("rotation", {"n": 4, "k": 1})
        by_string = parse_generator_string("rotation:4:1")
        assert by_list == by_dict == by_string

    def test_generator_errors(self):
        with pytest.raises(UnknownGenerator):
            build_corpus_system("solenoid", [3])
        with pytest.raises(BadParams):
            build_corpus_system("rotation", [4])
        with pytest.raises(BadParams):
            build_corpus_system("north-south", [2])
        with pytest.raises(BadParams):
            build_corpus_system("cantor-identity", [-1])

    def test_corpus_members_are_valid(self):
        for name, system in standard_corpus():
            assert metric_violations(system.dist, system.map, system.invertible) == [], name
            assert system.n <= 12


class TestGrids:
    def test_doubling_four_cells(self):
        system = doubling(4)
        # centers 1/8,3/8,5/8,7/8; image of 1/8 is 1/4, equidistant to the
        # first two centers, so the tie goes to index 0
        assert system.map == (0, 2, 0, 2)
        assert system.quantization == Fraction(1, 8)

    def test_tent_two_cells(self):
        assert tent(2).map == (0, 0)

    def test_identity_grid_fixes_everything(self):
        system = discretize(GridSystem1D(5, "interval", "identity"))
        assert system.map == tuple(range(5))

    def test_discretize_deterministic(self):
        assert doubling(8) == doubling(8)

    def test_quantization_floor(self):
        with pytest.raises(BadParams):
            GridSystem1D(4, "circle", "doubling", quantization=Fraction(1, 100))
        grid = GridSystem1D(4, "circle", "doubling", quantization=Fraction(1, 4))
        assert discretize(grid).quantization == Fraction(1, 4)

    def test_rotation_formula_needs_angle(self):
        with pytest.raises(BadParams):
            GridSystem1D(4, "circle", "rotation")
        grid = GridSystem1D(4, "circle", "rotation", params=(Fraction(1, 4),))
        assert discretize(grid).map == (1, 2, 3, 0)

    def test_circle_metric_wraps(self):
        grid = GridSystem1D(4, "circle", "identity")
        assert grid.metric(Fraction(1, 8), Fraction(7, 8)) == Fraction(1, 4)


class TestShortestPathMetric:
    def test_completion_is_a_metric(self):
        dist = shortest_path_metric(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        assert dist[0][2] == 2  # direct weight 5 shortcut through the middle
        assert metric_violations(
            tuple(tuple(row) for row in dist), (0, 1, 2), False
        ) == []

    def test_disconnected_rejected(self):
        with pytest.raises(BadParams):
            shortest_path_metric(3, [(0, 1, 1)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(BadParams):
            shortest_path_metric(2, [(0, 1, 0)])
