"""System validation and generators, the grid maps included."""

from __future__ import annotations

import json
import math
import random
import re
import tracemalloc
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from operator import sub
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainshadow import (
    BadParams,
    FiniteMetricSystem,
    InvalidSystem,
    PseudoOrbit,
    UnknownGenerator,
    Violation,
    brute_force_oracle,
    build_corpus_system,
    build_delta_graph,
    cantor_identity,
    check_shadowing_property,
    check_slimit_property,
    decompose,
    decomposition_dot,
    decomposition_report,
    doubling,
    first_violation,
    format_rational,
    hausdorff_distance,
    invariant_core,
    load_system,
    make_system,
    north_south,
    parse_generator_string,
    parse_rational,
    refine_ladder,
    rotation,
    run_harness,
    tent,
    validate_pseudo_orbit,
    validate_system,
)
from chainshadow import cli
from chainshadow import system as system_mod
from chainshadow.bits import to_frozenset
from chainshadow.rational import check_collection, parse_int
from conftest import metric_systems, sweep_values, widest_table
from corpus import shortest_path_metric, standard_corpus
from positions_scope import random_positions, systems
from small_scope import reachable_states


def metric_violations(dist, fmap, invertible):
    """The violated axioms that ``make_system`` raises in
    ``InvalidSystem.violations``, from the same read and check, so that a
    valid or an empty table can be asked too: [] for those."""
    table, fmap = system_mod._read(dist, fmap)
    return system_mod._violations(table, fmap, system_mod._check_invertible(invertible))


def reference_violations(dist, fmap, invertible):
    """The axiom check on Fractions, with the O(n^3) triangle loop: the
    reference that ``metric_violations`` must match, order included."""
    n = len(dist)
    out = []

    def add(kind, *indices):
        if len(out) < 50:
            out.append(Violation(kind, tuple(indices)))

    for i in range(n):
        if dist[i][i] != 0:
            add("identity", i, i)
        for j in range(i):
            if dist[i][j] <= 0:
                add("positivity", i, j)
            if dist[i][j] != dist[j][i]:
                add("symmetry", i, j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    add("triangle", i, j, k)
    total = True
    for i, target in enumerate(fmap):
        if not isinstance(target, int) or isinstance(target, bool) or not 0 <= target < n:
            add("map_not_total", i)
            total = False
    if total and invertible and len(set(fmap)) != n:
        add("not_bijective")
    return out


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(2**62), 2**62), st.integers(2**40, 2**61 - 1)),
)


@st.composite
def square_tables(draw, max_n: int = 8):
    """Square tables of mixed small and huge denominators, zero and negative
    entries, mostly (not always) symmetric with a zero diagonal."""
    n = draw(st.integers(1, max_n))
    dist = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            dist[i][i] = Fraction(0)
            for j in range(i):
                dist[i][j] = dist[j][i]
    fmap = tuple(draw(st.integers(-1, n)) for _ in range(n))
    return tuple(map(tuple, dist)), fmap, draw(st.booleans())


def scalar_triangle_pairs(rows):
    """The pairs (i, j) whose largest row_i[k] - row_j[k] exceeds
    row_i[j]: the one-pair-at-a-time test that ``_triangle_pairs`` must
    match on integer rows."""
    return [
        (i, j)
        for i, row_i in enumerate(rows)
        for j, row_j in enumerate(rows)
        if max(map(sub, row_i, row_j)) > row_i[j]
    ]


def all_triangle_pairs(rows):
    """Every pair that ``_triangle_pairs`` flags, from the first row."""
    return list(system_mod._triangle_pairs(rows, system_mod._lanes(rows), 0))


@st.composite
def integer_rows(draw, max_n: int = 7):
    """Square integer tables whose entries reach +-2**b and +-(2**b - 1)
    for a drawn b, negative, zero and asymmetric entries included; half of
    them are symmetric with a zero diagonal."""
    n = draw(st.integers(1, max_n))
    bound = 2 ** draw(st.integers(0, 70))
    edges = st.sampled_from([0, bound - 1, 1 - bound, bound, -bound])
    entries = st.one_of(edges, st.integers(-bound, bound))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
            for j in range(i):
                rows[i][j] = rows[j][i]
    return tuple(map(tuple, rows))


def _extreme_rows(m: int):
    """A table whose lanes reach both ends of their range when m is the
    largest |entry|: row_j[k] - row_i[k] + row_i[j] runs from -3m to 3m."""
    return ((m, -m, m), (-m, m, -m), (m, m, -m))


def symmetric_rows(rows):
    """``rows`` as a table that passes identity, positivity and symmetry:
    a zero diagonal and, on both sides of it, the |entry| above it, or 1
    for 0."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = out[j][i] = abs(rows[i][j]) or 1
    return tuple(map(tuple, out))


def _extreme_metric_rows(m: int):
    """Symmetric tables of positive entries of at most m whose pair lanes
    row_i[j] + row_k[j] - d(i, k) reach both ends of their range, 2 - m and
    2m - 1, and 0, where no point breaks the inequality."""
    return (
        ((0, m, 1), (m, 0, 1), (1, 1, 0)),
        ((0, 1, m), (1, 0, m), (m, m, 0)),
        ((0, m, m), (m, 0, m), (m, m, 0)),
    )


@st.composite
def stretched_metric_rows(draw):
    """The integer rows of a valid system, with, now and then, one pair
    i < j stretched to 3 times the largest entry."""
    system = draw(metric_systems())
    rows = [list(row) for row in system._metric.rows]
    if system.n > 1 and draw(st.booleans()):
        pair = st.lists(st.integers(0, system.n - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(draw(pair))
        rows[i][j] = rows[j][i] = 3 * max(map(max, rows))
    return tuple(map(tuple, rows))


def _with_extreme_metric_examples(test):
    """``test`` with each ``_extreme_metric_rows`` table as an example, at
    the widths of ``_extreme_rows``'s examples."""
    for m in (2**4 - 1, 2**4, 2**61 - 1, 2**61):
        for rows in _extreme_metric_rows(m):
            test = example(rows)(test)
    return test


def assert_first_row(rows) -> None:
    """The pair check flags no row when the scalar test finds no pair, and
    otherwise the row of its first pair."""
    pairs = scalar_triangle_pairs(rows)
    found = system_mod._first_triangle_row(rows, system_mod._lanes(rows))
    assert found == (pairs[0][0] if pairs else None)


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

    def test_system_object_is_not_a_description(self):
        with pytest.raises(BadParams, match="system spec must be a mapping"):
            validate_system(rotation(4, 1))

    def test_n_mismatch(self):
        with pytest.raises(BadParams):
            validate_system({"n": 3, "dist": [[0, 1], [1, 0]], "map": [0, 1]})

    def test_n_mismatch_is_found_before_the_table_is_checked(self, monkeypatch):
        def never(*args):
            raise AssertionError("the axioms were checked")

        monkeypatch.setattr(system_mod, "_violations", never)
        with pytest.raises(BadParams, match="declared n=1 but dist has 2 rows"):
            validate_system({"n": 1, "dist": [[0, 1], [1, 0]], "map": [0, 1]})

    def test_point_count_guard_comes_before_parsing(self, monkeypatch):
        def never(*args):
            raise AssertionError("parse_rational called")

        monkeypatch.setattr(system_mod, "parse_rational", never)
        rows = system_mod._MAX_POINTS + 1
        row = [0]
        spec = {"n": rows, "dist": [row] * rows, "map": [0] * rows}
        with pytest.raises(BadParams, match=f"dist has {rows} rows"):
            validate_system(spec)

    @pytest.mark.parametrize(
        "build",
        [
            lambda rows: make_system(rows, [0] * len(rows)),
            lambda rows: metric_violations(rows, [0] * len(rows), False),
            lambda rows: FiniteMetricSystem(len(rows), rows, [0] * len(rows)),
        ],
        ids=["make_system", "metric_violations", "FiniteMetricSystem"],
    )
    def test_every_table_is_capped_before_its_rows_are_read(self, build):
        """Rows that are not collections would fail as soon as one is read."""
        rows = system_mod._MAX_POINTS + 1
        with pytest.raises(BadParams, match=f"^dist has {rows} rows; at most 4096 points"):
            build([None] * rows)

    def test_generators_share_the_point_cap(self):
        with pytest.raises(BadParams, match="4096"):
            rotation(system_mod._MAX_POINTS + 1, 1)
        with pytest.raises(BadParams, match="4096"):
            tent(system_mod._MAX_POINTS + 1)

    def test_floats_rejected(self):
        with pytest.raises(BadParams):
            make_system([[0, 0.5], [0.5, 0]], (0, 1))

    @pytest.mark.parametrize(
        "system", [rotation(5, 2), tent(4), doubling(6)], ids=["rotation", "tent", "doubling"]
    )
    def test_json_round_trip(self, system):
        """The grid maps' quantization is written as a rational string and
        read back; a system without one writes no such key."""
        import json

        spec = system.to_spec()
        assert ("quantization" in spec) == (system.quantization is not None)
        again = validate_system(json.loads(json.dumps(spec)))
        assert again == system and again.quantization == system.quantization

    @pytest.mark.parametrize("text", ["", "nope", "{", '{"n": 1,}', "[1, 2"], ids=repr)
    def test_text_that_is_not_json_is_bad_params(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(BadParams, match="system description is not JSON"):
            load_system(path)

    def test_deep_nesting_is_bad_params(self, tmp_path):
        text = "[" * 2000 + "]" * 2000
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        with pytest.raises(BadParams, match="nested too deeply"):
            load_system(deep)

    def test_the_file_text_is_freed_before_validation(self, tmp_path, monkeypatch):
        """A file padded with 1 MiB of whitespace holds no more memory while
        its description is validated than the description itself: the
        text is dropped once decoded."""
        pad = 1 << 20
        path = tmp_path / "padded.json"
        path.write_text(json.dumps(rotation(4, 1).to_spec()) + " " * pad)
        held = []
        validate = system_mod.validate_system

        def measured(spec):
            held.append(tracemalloc.get_traced_memory()[0])
            return validate(spec)

        monkeypatch.setattr(system_mod, "validate_system", measured)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert load_system(path) == rotation(4, 1)
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] - before < pad // 8

    @given(metric_systems())
    @settings(max_examples=40)
    def test_random_specs_pass_all_axioms(self, system):
        assert metric_violations(system.dist, system.map, system.invertible) == []

    @given(square_tables())
    @example((((Fraction(-1, 3),) * 6,) * 6, (0,) * 6, True))  # past the 50-entry cap
    @example((((Fraction(1, 2**1023),),), (0,), False))  # L of 1024 bits
    @example((((Fraction(1, 2**1024),),), (0,), False))  # L of 1025 bits
    @settings(max_examples=200)
    def test_matches_the_fraction_reference(self, table):
        """Equal to the reference on every table whose least common
        denominator is at most 1024 bits wide; refused past that."""
        denominators = (v.denominator for row in table[0] for v in row)
        if math.lcm(*denominators).bit_length() > 1024:
            with pytest.raises(BadParams, match="wider than 1024 bits"):
                metric_violations(*table)
        else:
            assert metric_violations(*table) == reference_violations(*table)

    def test_the_widest_accepted_table_is_checked_exactly(self):
        dist, _ = widest_table()
        dist[0][1] = dist[1][0] = Fraction(5)  # past every two-step path
        fmap = tuple(range(len(dist)))
        found = metric_violations(dist, fmap, False)
        assert found == reference_violations(dist, fmap, False)
        assert Violation("triangle", (0, 2, 1)) in found

    def test_one_bit_wider_is_refused(self):
        dist, fmap = widest_table(1025)
        spec = {"n": len(dist), "dist": [list(map(str, row)) for row in dist], "map": fmap}
        for build in (
            lambda: make_system(dist, fmap),
            lambda: metric_violations(dist, fmap, False),
            lambda: FiniteMetricSystem(len(dist), tuple(map(tuple, dist)), tuple(fmap)),
            lambda: validate_system(spec),
        ):
            with pytest.raises(BadParams, match="wider than 1024 bits"):
                build()

    @given(integer_rows())
    @example(_extreme_rows(2**4 - 1))  # largest |entry| 2**b - 1: w = b + 3
    @example(_extreme_rows(2**4))  # 2**b: the lanes are one bit wider
    @example(_extreme_rows(2**61 - 1))
    @example(_extreme_rows(2**61))
    @example(((0,),))
    @example(((7,),))
    @example(((0, 0), (0, 0)))  # zero off-diagonal entries
    @example(((0, 0, 0), (0, 0, 5), (0, -3, 0)))
    @settings(max_examples=300)
    def test_packed_flags_match_the_scalar_test(self, rows):
        assert all_triangle_pairs(rows) == scalar_triangle_pairs(rows)

    @given(metric_systems())
    @settings(max_examples=40)
    def test_packed_flags_on_a_stretched_metric(self, system):
        rows = [list(row) for row in system._metric.rows]
        if system.n > 1:
            rows[0][1] = rows[1][0] = 3 * max(map(max, rows))
        rows = tuple(map(tuple, rows))
        assert all_triangle_pairs(rows) == scalar_triangle_pairs(rows)

    @given(integer_rows().map(symmetric_rows))
    @_with_extreme_metric_examples
    @example(((0,),))
    @example(((0, 1), (1, 0)))
    @settings(max_examples=300)
    def test_the_pair_check_flags_the_first_row(self, rows):
        assert_first_row(rows)

    @given(stretched_metric_rows())
    @settings(max_examples=60)
    def test_the_pair_check_on_a_stretched_metric(self, rows):
        assert_first_row(rows)

    def test_empty_table_has_no_violations(self):
        assert metric_violations((), (), False) == []

    def test_a_full_list_skips_the_triangle_pass(self, monkeypatch):
        def never(*args):
            raise AssertionError("triangle pass run")

        monkeypatch.setattr(system_mod, "_triangle_pairs", never)
        # 28 positivity and 28 symmetry violations fill the list first.
        dist = tuple(tuple(Fraction(-(8 * i + j)) for j in range(8)) for i in range(8))
        found = metric_violations(dist, tuple(range(8)), False)
        assert len(found) == 50 and all(v.kind != "triangle" for v in found)

    def test_a_full_list_stops_the_triangle_pass(self, monkeypatch):
        flagged = []
        pairs = system_mod._triangle_pairs

        def counted(*args):
            for pair in pairs(*args):
                flagged.append(pair)
                yield pair

        monkeypatch.setattr(system_mod, "_triangle_pairs", counted)
        # Every distance is 2 but d(0, 1) = 5, so each of the 116 pairs
        # (0, j) and (1, j) with j > 1 breaks the triangle inequality once.
        n = 60
        dist = [[Fraction(0 if i == j else 2) for j in range(n)] for i in range(n)]
        dist[0][1] = dist[1][0] = Fraction(5)
        found = metric_violations(dist, tuple(range(n)), False)
        assert found == reference_violations(dist, tuple(range(n)), False)
        assert len(found) == 50 and len(flagged) == 50


class TestParseOnce:
    def test_equal_strings_share_one_fraction(self):
        rows = [["0", "3/7", "3/7"], ["3/7", "0", "3/7"], ["3/7", "3/7", "0"]]
        system = make_system(rows, (0, 1, 2))
        off_diagonal = [v for i, row in enumerate(system.dist) for v in row[:i] + row[i + 1 :]]
        assert off_diagonal == [Fraction(3, 7)] * 6
        assert len(set(map(id, off_diagonal))) == 1

    @pytest.mark.parametrize("bad", [True, 1.0, [1], None], ids=repr)
    def test_a_value_equal_to_a_parsed_string_is_still_refused(self, bad):
        with pytest.raises(BadParams) as expected:
            parse_rational(bad)
        with pytest.raises(BadParams) as got:
            make_system([[0, "1", 1], ["1", 0, bad], [1, bad, 0]], (0, 1, 2))
        assert str(got.value) == str(expected.value)

    def test_the_first_bad_entry_raises_first(self):
        with pytest.raises(BadParams, match="cannot parse rational 'x'"):
            make_system([["0", "x"], [1.0, "x"]], (0, 1))
        with pytest.raises(BadParams, match="floating point rejected"):
            make_system([["0", 1.0], ["x", "x"]], (0, 1))


def reference_read(dist_rows, fmap):
    """The table reader as it stood when every entry became a Fraction:
    ``parse_rational`` on each entry in row-major order, the shape checks,
    then the scaling onto the least common denominator. ``_read`` must
    match its table or its BadParams text."""
    dist = tuple(tuple(map(parse_rational, row)) for row in system_mod._rows(dist_rows))
    n = len(dist)
    if any(len(row) != n for row in dist):
        raise BadParams("dist must be a square table")
    fmap = check_collection("map", fmap)
    if len(fmap) != n:
        raise BadParams(f"map must list {n} image indices")
    return system_mod._Table(*system_mod._over_common_denominator(dist)), fmap


def _read_outcome(read, rows, fmap):
    """The table's rows, denominator and map, with the type of every
    entry, or the text of the BadParams raised."""
    try:
        table, fmap = read(rows, fmap)
    except BadParams as exc:
        return str(exc)
    types = {type(v) for row in table.rows for v in row}
    return table.rows, table.denominator, fmap, types


# Odd spellings, refused strings and non-strings: each is also an example
# (``_with_odd_examples``).
_ODD_ENTRIES = (
    "-0", " 3/4 ", "007/010", "+1/2", "0.25", "1e-3", "1_000", "\u0661\u0662", "1/0",
    "1" * 4301, "1e4301", 2, Fraction(3, 4), True, 1.0,
)
_RAW_ENTRIES = st.one_of(
    st.fractions(min_value=-3, max_value=40, max_denominator=12).flatmap(
        lambda q: st.sampled_from([str(q), f" {q}\t", q, q.numerator if q.denominator == 1 else q])
    ),
    st.decimals(min_value=-3, max_value=40, places=3).map(str),
    # "p/q" unreduced, and with q = 0.
    st.builds("{}/{}".format, st.integers(-3, 60), st.integers(0, 24)),
    st.sampled_from(_ODD_ENTRIES + (None, [1], "x", "")),
)
# Denominators 2**a * 3**b of up to 1335 bits: about a tenth of the tables
# drawn pass the 1024-bit stop.
_WIDE_ENTRIES = st.builds(
    lambda a, b: 2**a * 3**b, st.integers(0, 700), st.integers(0, 400)
).flatmap(lambda q: st.sampled_from([f"1/{q}", f"-7/{q}", Fraction(3, q), 5, f" 2/{q} "]))


_WIDE_RAW = 2**1100
# Plain texts, unreduced "p/q" included, whose raw denominators may pass
# 1024 bits while their reduced ones do not, and plain-looking texts that
# parse_rational refuses.
_PLAIN_EXAMPLES = (
    "-0", "0/7", "007/010", "6/4", f"{_WIDE_RAW}/{_WIDE_RAW}", f"{3 * _WIDE_RAW}/{2 * _WIDE_RAW}",
    f"{3**400}/{3**400}", f"{2**600}/{2**600}", f"1/{_WIDE_RAW}",
)
_REFUSED_PLAIN_LOOKING = ("5/", "/5", "-", "1/0", "1" * 4301)
_PLAIN = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 60), st.integers(1, 24)),
    st.integers(-3, 60).map(str),
    st.sampled_from(_PLAIN_EXAMPLES),
)
_PLAIN_ENTRIES = st.one_of(_PLAIN, _PLAIN, _PLAIN, st.sampled_from(_REFUSED_PLAIN_LOOKING))


@st.composite
def raw_tables(draw, entries, max_n: int = 5):
    """Rows and a map, as a user may pass them: up to ``max_n`` rows whose
    entries come from a small pool, so that rows share entries; now and then
    a row or the map has one entry too many."""
    n = draw(st.integers(0, max_n))
    pool = draw(st.lists(entries, min_size=1, max_size=4))
    cell = st.sampled_from(pool)
    ragged = st.sampled_from((n,) * 19 + (n + 1,))
    rows = [[draw(cell) for _ in range(draw(ragged))] for _ in range(n)]
    return rows, list(range(draw(ragged)))


def _with_odd_examples(test):
    """``test`` with one example per odd entry, off the diagonal of a
    two-point table."""
    for odd in _ODD_ENTRIES:
        test = example(([["0", odd], [odd, "0"]], [0, 1]))(test)
    return test


class TestTableReader:
    """``_read`` takes raw rows straight onto integers: each distinct string
    is read once into an int pair, with no Fraction in between."""

    @given(raw_tables(_RAW_ENTRIES))
    @_with_odd_examples
    @settings(max_examples=300)
    def test_matches_the_fraction_pipeline(self, table):
        assert _read_outcome(system_mod._read, *table) == _read_outcome(reference_read, *table)

    @given(raw_tables(_WIDE_ENTRIES, max_n=6))
    @example(([[str(v) for v in row] for row in widest_table()[0]], range(10)))
    @example(([[str(v) for v in row] for row in widest_table(1025)[0]], range(10)))
    @settings(max_examples=100)
    def test_matches_it_at_the_1024_bit_stop(self, table):
        assert _read_outcome(system_mod._read, *table) == _read_outcome(reference_read, *table)

    @given(raw_tables(_PLAIN_ENTRIES))
    @settings(max_examples=300)
    def test_matches_it_on_plain_strings(self, table):
        assert _read_outcome(system_mod._read, *table) == _read_outcome(reference_read, *table)

    @pytest.mark.parametrize("text", _PLAIN_EXAMPLES + _REFUSED_PLAIN_LOOKING, ids=lambda t: t[:12])
    def test_matches_it_on_each_plain_example(self, text):
        table = ([["0", text, "3/4"], [text, "0", "1/2"], ["3/4", "1/2", "0"]], [0, 1, 2])
        assert _read_outcome(system_mod._read, *table) == _read_outcome(reference_read, *table)

    def test_plain_strings_skip_the_entry_reader(self, monkeypatch):
        """A table of plain strings is read in one pass, so it is that pass
        that a timed load of such a file measures."""

        def never(value):
            raise AssertionError(f"{value!r} read on its own")

        rows = [["0", "3/7", "12/14"], ["6/14", "-0", "006/014"], ["6/7", "3/7", "0/5"]]
        expected = _read_outcome(reference_read, rows, (1, 2, 2))
        monkeypatch.setattr(system_mod, "_pair", never)
        assert _read_outcome(system_mod._read, rows, (1, 2, 2)) == expected
        make_system(rows, (1, 2, 2))

    def test_the_first_refused_string_of_a_row_raises(self):
        """Not the first one read: a row's distinct strings are read as a set."""
        row = ["0", *(f"{k}x" for k in range(40))]
        rows = [["0"] * len(row), row, *([["0"] * len(row)] * (len(row) - 2))]
        with pytest.raises(BadParams, match=r"^cannot parse rational '0x'$"):
            system_mod._read(rows, range(len(row)))

    def test_plain_strings_build_no_fraction(self, monkeypatch):
        made = []
        new = Fraction.__new__

        def spy(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        rows = [["0", "3/7", "6/7"], ["3/7", "-0", "006/014"], ["6/7", "3/7", "0/5"]]
        monkeypatch.setattr(Fraction, "__new__", spy)
        system = make_system(rows, (1, 2, 2))
        monkeypatch.undo()
        assert made == []
        # The view still holds one shared Fraction per value.
        dist = system.dist
        assert dist[0][1] is dist[1][2] is dist[2][1] == Fraction(3, 7)
        assert dist[0][0] is dist[1][1] is dist[2][2] == 0


class TestDistanceOrder:
    @given(metric_systems())
    @settings(max_examples=40)
    def test_ball_is_the_closed_ball(self, system):
        radii = [Fraction(0), *sweep_values(system), system.diameter + 1]
        for p in system.points:
            row = system.dist[p]
            order = list(system._metric.nearest_first[p])
            assert sorted(order) == list(system.points)
            assert [row[q] for q in order] == sorted(row)
            for r in radii:
                expected = {q for q in system.points if row[q] <= r}
                assert to_frozenset(system.ball(p, r)) == expected

    def test_nearest_first_is_read_only(self):
        system = validate_system(rotation(4, 1).to_spec())
        order = system._metric.nearest_first
        assert list(order[0]) == [0, 1, 3, 2]
        with pytest.raises(TypeError):
            order[0] = order[1]
        assert system.ball(0, Fraction(1, 4)) == 0b1011

    @pytest.mark.parametrize("p", [-1, 4, 1.0, True, "0"])
    def test_point_out_of_range(self, p):
        system = rotation(4, 1)
        with pytest.raises(BadParams, match="point index out of range"):
            system.ball(p, Fraction(1, 4))

    @pytest.mark.parametrize("p", [-1, 4, 1.0, True, "0"])
    @pytest.mark.parametrize(
        "accessor",
        [
            lambda system, p: system.orbit(p, 3),
            lambda system, p: system.d(p, 0),
            lambda system, p: system.d(0, p),
            lambda system, p: decompose(build_delta_graph(system, 0)).class_of(p),
        ],
        ids=["orbit", "d-row", "d-column", "class_of"],
    )
    def test_point_accessors_check_the_index(self, accessor, p):
        with pytest.raises(BadParams, match="point index out of range"):
            accessor(rotation(4, 1), p)

    def test_ball_parses_its_radius(self):
        system = rotation(4, 1)
        assert system.ball(0, "1/2") == system.ball(0, Fraction(1, 2)) == 0b1111
        assert system.ball(0, 0) == 0b1
        for r in (0.5, -1, "-1/4", "1/0"):
            with pytest.raises(BadParams):
                system.ball(0, r)
        # Ball tables are keyed by the bound floor(r * L), here L = 4, and a
        # refused radius leaves none behind.
        assert list(system._full_balls) == [2, 0]


# The generators as they were written on Fractions, one Fraction operation
# per table entry: the reference for the integer-built tables.


def reference_cantor_identity(depth):
    points = [Fraction(0)]
    for level in range(1, depth + 1):
        step = Fraction(2, 3**level)
        points = sorted(x + off for x in points for off in (Fraction(0), step))
    dist = tuple(tuple(abs(a - b) for b in points) for a in points)
    n = len(points)
    return FiniteMetricSystem(n, dist, tuple(range(n)), invertible=True)


def reference_rotation(n, k):
    dist = tuple(
        tuple(Fraction(min(abs(i - j), n - abs(i - j)), n) for j in range(n))
        for i in range(n)
    )
    return FiniteMetricSystem(n, dist, tuple((i + k) % n for i in range(n)), invertible=True)


def reference_north_south(n):
    half, one = Fraction(1, 2), Fraction(1)
    side_a, side_b = (n - 1) // 2, (n - 2) // 2
    gap = Fraction(1, 8 * (side_a + 1))
    step_a = (half - gap) / side_a
    positions = [Fraction(0)]
    positions += [gap + (j - 1) * step_a for j in range(1, side_a + 1)]
    positions.append(half)
    if side_b:
        step_b = (half - gap) / side_b
        positions += [one - gap - (j - 1) * step_b for j in range(1, side_b + 1)]
    sink = side_a + 1
    fmap = [0] + [j + 1 for j in range(1, side_a + 1)] + [sink]
    fmap += [sink if j == side_b else sink + j + 1 for j in range(1, side_b + 1)]
    dist = tuple(
        tuple(min(abs(a - b), one - abs(a - b)) for b in positions) for a in positions
    )
    return FiniteMetricSystem(n, dist, tuple(fmap), invertible=False)


def reference_discretize(cells, circle, formula):
    """``formula`` on the centers (2i + 1) / 2n of n = ``cells`` equal cells
    of [0, 1], or of the circle, each image sent to its nearest center, ties
    to the smaller index."""
    centers = [Fraction(2 * i + 1, 2 * cells) for i in range(cells)]

    def metric(x, y):
        gap = abs(x - y)
        return min(gap, 1 - gap) if circle else gap

    fmap = []
    for y in map(formula, centers):
        # The centers nearest y on the line are the two around it; on the
        # circle they or the two ends.
        j = bisect_left(centers, y)
        near = {0, cells - 1} if circle else set()
        near.update(k for k in (j - 1, j) if 0 <= k < cells)
        fmap.append(min(sorted(near), key=lambda k: metric(y, centers[k])))
    # Both metrics read only |i - j| on an evenly spaced grid.
    gaps = [metric(c, centers[0]) for c in centers]
    dist = tuple(tuple(gaps[abs(i - j)] for j in range(cells)) for i in range(cells))
    return SimpleNamespace(
        dist=dist, map=tuple(fmap), invertible=len(set(fmap)) == cells,
        quantization=Fraction(1, 2 * cells),
    )


def reference_tent(cells):
    return reference_discretize(cells, False, lambda x: min(2 * x, 2 - 2 * x))


def reference_doubling(cells):
    return reference_discretize(cells, True, lambda x: 2 * x % 1)


# (id, generator, reference, args) at edge sizes: one point, odd and even
# counts, rotation steps below 0 and past n.
_INTEGER_BUILT = [
    *[
        (f"cantor-identity:{d}", cantor_identity, reference_cantor_identity, (d,))
        for d in range(6)
    ],
    *[
        (f"rotation:{n}:{k}", rotation, reference_rotation, (n, k))
        for n, k in [(1, 0), (2, 1), (5, -2), (6, 13), (7, 3), (8, -8), (12, 5)]
    ],
    *[
        (f"north-south:{n}", north_south, reference_north_south, (n,))
        for n in (3, 4, 5, 6, 9, 16, 33)
    ],
    *[(f"tent:{c}", tent, reference_tent, (c,)) for c in (1, 2, 3, 5, 7, 16)],
    *[(f"doubling:{c}", doubling, reference_doubling, (c,)) for c in (1, 2, 3, 6, 9, 16)],
]


def _radii(dist):
    """0, every distance v, v -+ 1/(7L) for the common denominator L of
    the table (a ball's radius is never negative), and a radius past the
    diameter."""
    values = sorted({v for row in dist for v in row})
    off = Fraction(1, 7 * math.lcm(*(v.denominator for v in values)))
    near = [v + sign * off for v in values for sign in (-1, 1) if v + sign * off >= 0]
    return [Fraction(0), *values, *near, values[-1] + 1]


def reference_queries(dist, fmap, radii):
    """Every distance query of FiniteMetricSystem, answered on the Fractions."""
    n = len(dist)
    points = range(n)
    return (
        tuple(sorted({dist[i][j] for i in points for j in range(i)})),
        max(v for row in dist for v in row),
        min((dist[fmap[p]][q] for p in points for q in points if q != fmap[p]), default=None),
        [sorted(points, key=lambda q: (dist[p][q], q)) for p in points],
        [[{q for q in points if dist[p][q] <= r} for r in radii] for p in points],
    )


def queries(system, radii):
    table = system_mod._Table(system._metric.rows, system._metric.denominator)
    return (
        system.distance_values,
        system.diameter,
        system.functional_threshold,
        [list(table.nearest_first[p]) for p in system.points],
        [[to_frozenset(system.ball(p, r)) for r in radii] for p in system.points],
    )


class TestIntegerTables:
    """Generators build their tables on integers; every query reads them."""

    @pytest.mark.parametrize(
        "build, reference, args", [case[1:] for case in _INTEGER_BUILT],
        ids=[case[0] for case in _INTEGER_BUILT],
    )
    def test_generators_match_the_fraction_reference(self, build, reference, args):
        system, expected = build(*args), reference(*args)
        assert system.dist == expected.dist
        assert system.map == expected.map
        assert system.invertible is expected.invertible
        assert system.quantization == expected.quantization
        # One shared object per distinct value in both tables, and the
        # integer table is the Fraction table over its least common
        # denominator.
        entries = [v for row in system.dist for v in row]
        ints = [v for row in system._metric.rows for v in row]
        assert all(type(v) is Fraction for v in entries)
        assert len({id(v) for v in entries}) == len(set(entries))
        assert len({id(v) for v in ints}) == len(set(ints))
        table = system._metric
        assert (table.rows, table.denominator) == system_mod._over_common_denominator(system.dist)
        radii = _radii(system.dist)
        assert queries(system, radii) == reference_queries(system.dist, system.map, radii)

    def test_the_widest_accepted_table_answers_as_its_fractions(self):
        system = make_system(*widest_table())
        assert system._metric.denominator.bit_length() == 1024
        radii = _radii(system.dist)
        assert queries(system, radii) == reference_queries(system.dist, system.map, radii)


def _each_generator(*extra):
    """Parametrize ``system`` over each generator, far_two_cycles()
    included, at a few sizes: fresh systems for each test."""
    cases = [
        *standard_corpus(),
        *[(f"rotation:{n}:5", rotation(n, 5)) for n in (1, 12, 97)],
        *[(f"tent:{c}", tent(c)) for c in (1, 33)],
        *[(f"doubling:{c}", doubling(c)) for c in (1, 33)],
        ("cantor-identity:5", cantor_identity(5)),
        ("north-south:40", north_south(40)),
        *extra,
    ]
    return pytest.mark.parametrize(
        "system", [system for _, system in cases], ids=[name for name, _ in cases]
    )


class TestOneTable:
    """A system stores its integer table only; dist is a view of it, built
    on its first read."""

    @_each_generator()
    def test_no_search_builds_the_view(self, system):
        assert "dist" not in vars(system)
        delta = eps = system.min_gap or 0
        check_slimit_property(system, delta, eps)
        check_shadowing_property(system, delta, eps)
        assert "dist" not in vars(system)
        run_harness(system)
        assert "dist" not in vars(system)

    def test_separation_reads_no_view(self):
        system = north_south(9)
        dec = decompose(build_delta_graph(system, 0))
        assert len(dec.classes) == 2 and None not in dec.separation
        assert "dist" not in vars(system)
        assert dec.separation[0] is dec.separation[1] is system.dist[0][min(dec.classes[1])]

    @_each_generator()
    def test_the_view_rebuilds_an_equal_system(self, system):
        again = FiniteMetricSystem(
            system.n, system.dist, system.map, system.invertible, system.quantization
        )
        assert again == system and hash(again) == hash(system)
        assert (again._metric.rows, again._metric.denominator) == (
            system._metric.rows, system._metric.denominator
        )

    @_each_generator(("direct", FiniteMetricSystem(3, [[0, 2, 1], [2, 0, 1], [1, 1, 0]], [0, 0, 1])))
    def test_the_view_shares_one_fraction_per_value(self, system):
        entries = [v for row in system.dist for v in row]
        assert all(type(v) is Fraction for v in entries)
        assert len({id(v) for v in entries}) == len(set(entries))
        assert system.diameter is max(entries)
        assert all(system.d(p, q) is system.dist[p][q] for p in system.points for q in system.points)

    @pytest.mark.parametrize("other", [None, 4, "rotation:4:1", rotation(4, 1).to_spec()], ids=repr)
    def test_a_system_is_unequal_to_a_non_system(self, other):
        system = rotation(4, 1)
        assert system.__eq__(other) is NotImplemented
        assert system != other and other != system
        assert "dist" not in vars(system)

    def test_the_view_is_read_only(self):
        system = rotation(4, 1)
        with pytest.raises(AttributeError):
            system.dist = ()
        assert "dist" not in vars(system)


@pytest.fixture
def no_view(monkeypatch):
    """Positioned systems whose integer table view raises when built."""

    def refuse(positions):
        raise AssertionError("the table view was built")

    monkeypatch.setattr(system_mod._Positions, "rows", property(refuse))


class TestPositions:
    """The positioned generators answer from their sorted positions, and
    build their table view only when something reads it."""

    @pytest.mark.parametrize(
        "gen", ["cantor-identity:7", "north-south:64", "rotation:12:5"]
    )
    def test_verify_builds_no_view(self, no_view, capsys, gen):
        # rotation:12:5 is invertible, so verify also decides its inverse,
        # a copy made by dataclasses.replace.
        assert cli.main(["verify", "--gen", gen]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["system"] == gen

    def test_the_ladder_and_its_exports_build_no_view(self, no_view):
        system = north_south(384)
        v = system.distance_values
        # The eight deltas of the ladder workload.
        deltas = [v[20], v[5], (v[4] + v[5]) / 2, v[4], v[3], v[2], v[1], v[0]]
        ladder = refine_ladder(system, deltas)
        for level in ladder.levels:
            decomposition_report(level)
            decomposition_dot(level, isolation_radius=level.delta)
        assert max(ladder.class_counts()) > 300

    @pytest.mark.parametrize(
        "system, delta, eps",
        [
            (rotation(96, 7), Fraction(1, 96), Fraction(1, 24)),
            (tent(256), Fraction(1, 256), Fraction(1, 64)),
            (tent(256), Fraction(1, 512), Fraction(1, 8)),
            (north_south(64), Fraction(1, 16), Fraction(1, 2)),
        ],
        ids=["rotation:96:7", "tent:256", "tent:256-delta-below-eps", "north-south:64"],
    )
    def test_checks_build_no_view(self, no_view, system, delta, eps):
        check_shadowing_property(system, delta, eps)
        check_slimit_property(system, delta, eps)

    @pytest.mark.parametrize("gen", ["tent:4096", "north-south:4096"])
    def test_checks_below_the_least_distance_read_no_table(self, no_view, monkeypatch, gen):
        """Below the least distance every verdict is forced. The least gap
        is read off the sorted positions, and neither the list of distance
        values nor the table view is built."""

        def refuse(system):
            raise AssertionError("the distance values were listed")

        monkeypatch.setattr(system_mod._Positions, "distance_ints", property(refuse))
        system = parse_generator_string(gen)
        least = system.min_gap
        for delta, eps in [(0, 0), (least / 2, 0), (0, least / 2), (least / 2, least / 2)]:
            for check in (check_shadowing_property, check_slimit_property):
                verdict = check(system, delta, eps)
                assert verdict.passed and verdict.states_explored == system.n
            states = reachable_states(system, delta, eps)
            assert states == [(p, 1 << p) for p in system.points]
        assert "rows" not in vars(system._metric)
        argv = ["shadow", "--gen", gen, "--delta", str(least / 2), "--eps", str(least / 2)]
        for prop in ("shadowing", "slimit"):
            assert cli.main([*argv, "--property", prop]) == 0

    @pytest.mark.parametrize(
        "gen",
        [
            *(f"rotation:{n}:{k}" for n, k in [(1, 0), (2, 1), (7, 3), (64, 5)]),
            *(f"{name}:{n}" for name in ("tent", "doubling") for n in (1, 2, 5, 64)),
            *(f"north-south:{n}" for n in (3, 4, 9, 64)),
            *(f"cantor-identity:{d}" for d in (0, 1, 3, 6)),
        ],
    )
    def test_the_json_round_trip_is_an_equal_system(self, gen):
        system = parse_generator_string(gen)
        again = validate_system(json.loads(json.dumps(system.to_spec())))
        assert isinstance(again._metric, system_mod._Table)
        assert isinstance(system._metric, system_mod._Positions)
        assert again == system and hash(again) == hash(system)

    @pytest.mark.parametrize(
        "gen", ["rotation:1:0", "rotation:2:1", "cantor-identity:1", "tent:2", "doubling:2"]
    )
    def test_the_rotation_step_matches_the_table_at_two_points(self, gen):
        """Every table of at most two points is shift-invariant, whether its
        points lie on a line or a circle; the map decides."""
        system = parse_generator_string(gen)
        table = validate_system(json.loads(json.dumps(system.to_spec())))
        assert system._rotation_step == table._rotation_step

    def test_replace_carries_the_positions(self, no_view):
        system = rotation(12, 5)
        copy = replace(system, map=tuple(range(12)))
        assert copy._metric is system._metric and copy._rotation_step == 0
        with pytest.raises(AssertionError, match="the table view was built"):
            copy.dist

    @_each_generator()
    def test_d_is_the_table_entry_and_builds_no_view(self, system):
        values = [[system.d(p, q) for q in system.points] for p in system.points]
        if isinstance(system._metric, system_mod._Positions):
            assert "rows" not in vars(system._metric)
        assert values == [list(row) for row in system.dist]

    def test_a_pseudo_orbit_check_builds_no_view(self):
        """Checking a few steps reads a few distances at the point cap."""
        system = rotation(4096, 1)
        step = Fraction(1, 4096)
        assert validate_pseudo_orbit(system, PseudoOrbit.plain([0, 2, 4], step))
        assert first_violation(system, PseudoOrbit.plain([0, 3], step)) == (0, 2 * step, step)
        assert "rows" not in vars(system._metric)

    @pytest.mark.parametrize("gen", ["rotation:4096:1", "north-south:4096"])
    def test_hausdorff_distance_builds_no_view(self, no_view, gen):
        """Two small sets are compared through point distances."""
        system = parse_generator_string(gen)
        a, b = {0, 1, 2}, {100, 2000}
        expected = max(
            max(min(system.d(x, y) for y in b) for x in a),
            max(min(system.d(x, y) for x in a) for y in b),
        )
        assert hausdorff_distance(system, a, b) == expected


def assert_nearest(system) -> None:
    """``min_gap``, ``_least_distance`` and ``functional_threshold`` against
    pairwise minima of d(i, j); all None on one point."""
    least = scaled = threshold = None
    if system.n > 1:
        nearest = [min(system.d(p, q) for q in system.points if q != p) for p in system.points]
        least, threshold = min(nearest), min(nearest[t] for t in set(system.map))
        scaled = least * system._metric.denominator
    assert (system.min_gap, system._least_distance, system.functional_threshold) == (
        least, scaled, threshold
    )


class TestNearestPoints:
    """The least distance and the functional threshold, read from the
    separations of one-point classes, against pairwise minima."""

    def test_the_corpus(self):
        for _, system in standard_corpus():
            assert_nearest(system)

    def test_every_generator_up_to_16_points(self):
        for n in range(1, 17):
            for _, system in systems(n):
                assert_nearest(system)

    @pytest.mark.parametrize("circle", [False, True], ids=["line", "circle"])
    def test_random_positions(self, circle):
        """Circle positions are turned by a random angle, so the nearest
        pair may lie across position 0, and each map's image is a random
        subset of the points, at times one point."""
        rng = random.Random(f"nearest points, circle={circle}")
        for _ in range(100):
            n = rng.randint(2, 24)
            positions, unit = random_positions(rng, n, circle)
            if circle:
                turn = rng.randrange(unit)
                positions = [(x + turn) % unit for x in positions]
            fmap = rng.choices(rng.sample(range(n), rng.randint(1, n)), k=n)
            assert_nearest(system_mod._points_system(positions, unit, circle, fmap))

    @given(metric_systems())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_tables(self, system):
        assert_nearest(system)

    def test_an_asymmetric_table_takes_the_least_entry_of_any_row(self):
        """A system handed its metric skips the axiom checks. Below its least
        distance every ball is {p}, and a ball reads a row, so the least
        distance is the least entry off the diagonal of any row."""
        table = system_mod._Table(((0, 1), (5, 0)), 1)
        system = FiniteMetricSystem(2, map=(1, 1), _metric=table)
        assert system.min_gap == 1 and system.functional_threshold == 5
        assert system.ball(0, 1) == 0b11


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

    @pytest.mark.parametrize("text", ["rotation:4:-1", "rotation:+4:1", "rotation:04:1"])
    def test_signed_and_padded_generator_params(self, text):
        _, n, k = text.split(":")
        assert parse_generator_string(text) == rotation(int(n), int(k))

    def test_generator_errors(self):
        with pytest.raises(UnknownGenerator):
            build_corpus_system("solenoid", [3])
        with pytest.raises(BadParams):
            build_corpus_system("rotation", [4])
        with pytest.raises(BadParams):
            build_corpus_system("north-south", [2])
        with pytest.raises(BadParams):
            build_corpus_system("cantor-identity", [-1])
        for param in ("+-4", "4_0", "\u0664"):  # not ASCII digits with one sign
            with pytest.raises(BadParams, match="expected an integer"):
                build_corpus_system("rotation", {"n": param, "k": 1})

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

    def test_discretize_deterministic(self):
        assert doubling(8) == doubling(8)

    @pytest.mark.parametrize(
        "build, reference", [(doubling, reference_doubling), (tent, reference_tent)],
        ids=["doubling", "tent"],
    )
    @pytest.mark.parametrize("cells", [*range(1, 65), 255, 256, 1023, 1024])
    def test_integer_formulas_match_the_fraction_reference(self, build, reference, cells):
        system, expected = build(cells), reference(cells)
        assert system.dist == expected.dist
        assert system.map == expected.map
        assert system.invertible is expected.invertible
        assert system.quantization == expected.quantization

    @pytest.mark.parametrize(
        "build, sizes, grid",
        [
            (doubling, [1, 2, 3, 8, 9], True),
            (tent, [1, 2, 3, 8, 9], True),
            (lambda n: rotation(n, 3), [1, 2, 6, 9], False),
            (cantor_identity, [0, 1, 3], False),
            (north_south, [3, 4, 9], False),
        ],
        ids=["doubling", "tent", "rotation", "cantor-identity", "north-south"],
    )
    def test_positioned_generators_derive_their_flags(self, build, sizes, grid):
        """Invertible exactly when the map is a bijection; the grid maps
        record the half cell 1/(2n) as their quantization, the others none."""
        for size in sizes:
            system = build(size)
            assert system.invertible is (len(set(system.map)) == system.n)
            assert system.quantization == (Fraction(1, 2 * system.n) if grid else None)


def reference_shortest_path_metric(n, edges):
    """The completion on Fractions, one Fraction addition per relaxation:
    the reference for the integer completion."""
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = Fraction(0)
    for i, j, w in edges:
        w = Fraction(w)
        if dist[i][j] is None or w < dist[i][j]:
            dist[i][j] = dist[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] is not None and dist[k][j] is not None:
                    via = dist[i][k] + dist[k][j]
                    if dist[i][j] is None or via < dist[i][j]:
                        dist[i][j] = dist[j][i] = via
    if any(v is None for row in dist for v in row):
        return BadParams
    return dist


_WEIGHTS = st.one_of(
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(1, 2**62), st.integers(2**40, 2**61 - 1)),
    st.integers(1, 9),
)


@st.composite
def weighted_graphs(draw, max_n: int = 7):
    """Edge lists on n points with repeated edges, both directions and,
    sometimes, missing links."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = [(i, j, draw(_WEIGHTS)) for i, j in draw(st.lists(pairs, max_size=3 * n))]
    if n > 1 and draw(st.booleans()):  # a path through every point
        edges += [(i, i + 1, draw(_WEIGHTS)) for i in range(n - 1)]
    return n, edges


class TestShortestPathMetric:
    @given(weighted_graphs())
    @example((1, []))
    @example((3, [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 0, 3)]))
    @settings(max_examples=200)
    def test_matches_the_fraction_reference(self, graph):
        n, edges = graph
        expected = reference_shortest_path_metric(n, edges)
        if expected is BadParams:
            with pytest.raises(BadParams, match="disconnected"):
                shortest_path_metric(n, edges)
        else:
            got = shortest_path_metric(n, edges)
            assert got == expected
            assert all(type(v) is Fraction for row in got for v in row)

    def test_a_weight_denominator_past_the_bound_is_refused(self):
        edges = [(0, 1, Fraction(1, 2**1023)), (1, 2, 1)]
        assert shortest_path_metric(3, edges)[0][2] == 1 + Fraction(1, 2**1023)
        edges.append((0, 2, Fraction(3, 2**1024)))
        with pytest.raises(BadParams, match="wider than 1024 bits"):
            shortest_path_metric(3, edges)

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

    @pytest.mark.parametrize(
        "end", [-1, 3, 5, True, 1.0, "1", None], ids=lambda e: repr(e)
    )
    def test_endpoint_outside_the_points_rejected(self, end):
        """-1 would read as point n - 1 and 3 past the table; a bool, a
        float or a str is no index."""
        edges = [(0, 1, 1), (0, end, 1), (1, 2, 1)]
        with pytest.raises(BadParams, match=r"edge \(0, .*endpoint") as caught:
            shortest_path_metric(3, edges)
        assert repr(end) in str(caught.value)
        edges = [(0, 1, 1), (end, 2, 1)]
        with pytest.raises(BadParams, match="is not an integer in 0..2"):
            shortest_path_metric(3, edges)

    @pytest.mark.parametrize("n", [0, -1, 4097, 10**20], ids=lambda n: repr(n))
    def test_n_is_bounded_by_the_point_cap(self, n):
        with pytest.raises(BadParams, match=r"n out of range: .* in 1\.\.4096"):
            shortest_path_metric(n, ())

    @pytest.mark.parametrize("n", ["3", 3.0, True, None], ids=lambda n: repr(n))
    def test_n_must_be_an_int(self, n):
        with pytest.raises(BadParams, match="n must be an integer"):
            shortest_path_metric(n, [])


_ROWS = [[0, 1], [1, 0]]


def _ns6_classes():
    """north-south:6 at delta 0: two classes, the source and the sink."""
    return decompose(build_delta_graph(north_south(6), 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_harness(north_south(6), grid=[(1, 1)]),
        lambda: run_harness(north_south(6), grid=[5]),
        lambda: run_harness(north_south(6), grid=5),
        lambda: check_shadowing_property(north_south(6), 1, 1, domain=3),
        lambda: brute_force_oracle(north_south(6), 1, 1, max_len="3"),
        lambda: make_system(_ROWS, None),
        lambda: make_system(_ROWS, 7),
        lambda: doubling("4"),
        lambda: doubling(True),
        lambda: doubling(4.0),
        lambda: tent("4"),
        lambda: tent(True),
        lambda: tent(4.0),
        lambda: invariant_core(rotation(4, 1), 5),
        lambda: invariant_core(rotation(4, 1), [[0]]),
        lambda: hausdorff_distance(rotation(4, 1), 5, [1]),
        lambda: hausdorff_distance(rotation(4, 1), [0], [4]),
        lambda: rotation(4, 1).orbit(0, "3"),
        lambda: rotation(4, 1).orbit(0, -1),
        lambda: rotation(4, 1).orbit(0, True),
        lambda: rotation(4, 1).orbit(0, 2**24 + 1),
        lambda: rotation(4, 1).orbit(0, 10**20),
        lambda: metric_violations([[0, 0.5], [0.5, 0]], (0, 1), False),
        lambda: metric_violations([[0, 1]], (0,), False),
        lambda: metric_violations(_ROWS, (0,), False),
        lambda: metric_violations(_ROWS, None, False),
        lambda: FiniteMetricSystem(3, ((0, 1), (1, 0)), (0, 1)),
        lambda: FiniteMetricSystem(2, ((0, 1), (1, 0)), (0,)),
        lambda: FiniteMetricSystem(2, ((0, 1), (1, 0)), (0, 5)),
        lambda: FiniteMetricSystem(2, ((0, 1), (1, 0)), (0, "1")),
        lambda: FiniteMetricSystem(2, (("0", "1"), ("1", "0")), (0, 1)),
        lambda: FiniteMetricSystem(2, ((0, 0.5), (0.5, 0)), (0, 1)),
        lambda: FiniteMetricSystem(0, (), ()),
        lambda: refine_ladder(rotation(4, 1), 5),
        lambda: PseudoOrbit(5, 1),
        lambda: PseudoOrbit.plain(5, 1),
        lambda: PseudoOrbit((0, 1), 1, 2),
        lambda: brute_force_oracle(north_south(6), 1, 1, max_len=1),
        lambda: validate_system({"n": "2", "dist": _ROWS, "map": [0, 1]}),
        lambda: rotation(4, "1"),
        lambda: cantor_identity(11),
        # A bare string is one text, not a collection of its characters.
        lambda: refine_ladder(rotation(4, 1), "21"),
        lambda: PseudoOrbit("01", 0),
        lambda: make_system(_ROWS, "10"),
        lambda: PseudoOrbit(("a", "b"), 0),
        lambda: PseudoOrbit((1.0,), 0),
        lambda: PseudoOrbit((0, -1), 0),
        lambda: make_system(5, (0,)),
        lambda: metric_violations([5], (0,), False),
        lambda: FiniteMetricSystem(2, 5, (0, 1)),
        lambda: FiniteMetricSystem(2, (5, (1, 0)), (0, 1)),
        lambda: build_corpus_system("rotation", ["1" * 4301, 1]),
        lambda: _ns6_classes().is_initial(-1),
        lambda: _ns6_classes().is_terminal(2),
        lambda: _ns6_classes().is_isolated(2, 1),
        lambda: _ns6_classes().is_terminal("0"),
        lambda: FiniteMetricSystem(2, _ROWS, (0, 0), invertible="no", quantization=0.5),
        lambda: FiniteMetricSystem(2, _ROWS, (1, 0), invertible="no"),
        lambda: FiniteMetricSystem(2, _ROWS, (1, 0), invertible=1),
        lambda: FiniteMetricSystem(2, _ROWS, (0, 0), invertible=True),
        lambda: replace(rotation(4, 1), map=(0, 0, 1, 2)),
        lambda: FiniteMetricSystem(2, _ROWS, (1, 0), quantization=0.5),
        lambda: FiniteMetricSystem(2, _ROWS, (1, 0), quantization=-1),
        lambda: FiniteMetricSystem(2, _ROWS, (1, 0), quantization="-1/2"),
        lambda: make_system(_ROWS, (1, 0), invertible="no"),
        lambda: make_system(_ROWS, (1, 0), invertible=1),
        lambda: make_system(_ROWS, (0, 0), invertible="no"),
        lambda: metric_violations(_ROWS, (0, 0), "no"),
        lambda: validate_system({"n": 2, "dist": _ROWS, "map": [1, 0], "invertable": True}),
        lambda: validate_system(
            {"generator": "rotation", "params": [2, 1], "n": 2, "dist": _ROWS, "map": [1, 0]}
        ),
        lambda: validate_system({"generator": "rotation", "params": [2, 1], 1: 2}),
        lambda: validate_system({"n": 2, "dist": _ROWS, "map": [1, 0], "quantization": 0.5}),
        lambda: validate_system({"n": 2, "dist": _ROWS, "map": [1, 0], "quantization": "-1/2"}),
        lambda: validate_system({"generator": "tent", "params": [4], "quantization": "1/8"}),
        lambda: _ns6_classes().is_isolated(0, 0.5),
        lambda: _ns6_classes().is_isolated(0, True),
        lambda: _ns6_classes().is_isolated(0, -1),
        lambda: _ns6_classes().is_isolated(0, "x"),
        lambda: decompose(build_delta_graph(rotation(4, 1), 0)).is_isolated(0, "x"),
        lambda: decompose(build_delta_graph(rotation(4, 1), 0)).is_isolated(0, -1),
        lambda: PseudoOrbit((99, 0), 1).errors(north_south(8)),
    ],
    ids=[
        "grid-pair",
        "grid-int-entry",
        "grid-int",
        "domain-int",
        "max-len-str",
        "map-none",
        "map-int",
        "doubling-cells-str",
        "doubling-cells-bool",
        "doubling-cells-float",
        "tent-cells-str",
        "tent-cells-bool",
        "tent-cells-float",
        "core-int",
        "core-unhashable",
        "hausdorff-int",
        "hausdorff-point",
        "orbit-length-str",
        "orbit-length-negative",
        "orbit-length-bool",
        "orbit-length-past-bound",
        "orbit-length-huge",
        "violations-float",
        "violations-not-square",
        "violations-short-map",
        "violations-map-none",
        "direct-rows",
        "direct-short-map",
        "direct-map-target",
        "direct-map-str",
        "direct-str-entries",
        "direct-float-entries",
        "direct-no-points",
        "ladder-int",
        "pseudo-orbit-int",
        "plain-int",
        "tail-start-past-end",
        "max-len-one",
        "spec-n-str",
        "rotation-k-str",
        "cantor-depth",
        "ladder-str",
        "pseudo-orbit-str",
        "map-str",
        "pseudo-orbit-str-points",
        "pseudo-orbit-float-point",
        "pseudo-orbit-negative-point",
        "make-int-dist",
        "violations-int-row",
        "direct-int-dist",
        "direct-int-row",
        "generator-param-4301-digits",
        "initial-class-minus-one",
        "terminal-class-k",
        "isolated-class-k",
        "terminal-class-str",
        "direct-str-invertible-float-quantization",
        "direct-str-invertible",
        "direct-int-invertible",
        "direct-invertible-not-bijective",
        "replaced-invertible-not-bijective",
        "direct-float-quantization",
        "direct-negative-quantization",
        "direct-negative-str-quantization",
        "make-str-invertible",
        "make-int-invertible",
        "make-str-invertible-not-bijective",
        "violations-str-invertible",
        "spec-misspelled-key",
        "spec-generator-and-table",
        "spec-generator-int-key",
        "spec-float-quantization",
        "spec-negative-quantization",
        "spec-generator-quantization",
        "isolated-float-radius",
        "isolated-bool-radius",
        "isolated-negative-radius",
        "isolated-text-radius",
        "one-class-isolated-text-radius",
        "one-class-isolated-negative-radius",
        "pseudo-orbit-errors-point-past-end",
    ],
)
def test_malformed_arguments_raise_bad_params(call):
    """Arguments of the wrong shape or type are refused as bad parameters,
    not with whatever TypeError or IndexError the code meets first."""
    with pytest.raises(BadParams):
        call()


def test_check_points_refuses_at_the_first_bad_point():
    """Items are checked as they are read, so a long collection with an
    early bad index is refused without reading the rest."""
    read = []

    def points():
        for p in range(10**5):
            read.append(p)
            yield p

    system = rotation(4, 1)
    with pytest.raises(BadParams, match="point index out of range: 4 "):
        system_mod.check_points(system, points())
    assert len(read) <= system.n + 1
    assert system_mod.check_points(system, iter([2, 0, 2])) == {0, 2}
    with pytest.raises(BadParams, match="expected a collection of point indices, got 5"):
        system_mod.check_points(system, 5)


def test_a_direct_system_stores_tuples():
    """Lists handed to a direct construction are stored as tuples, so the
    system is hashable and its table cannot change under it."""
    system = FiniteMetricSystem(2, [[0, 1], [1, 0]], [1, 0])
    assert system.dist == ((0, 1), (1, 0)) and system.map == (1, 0)
    assert hash(system) == hash(FiniteMetricSystem(2, ((0, 1), (1, 0)), (1, 0)))
    assert system.ball(0, 1) == 0b11 and system.diameter == 1
    # Builders hand in their integer table and build no Fraction table; the
    # dist view is made on its first read and kept.
    for built in (rotation(4, 1), make_system(_ROWS, (1, 0))):
        assert "dist" not in vars(built)
        assert built.dist is built.dist and "dist" in vars(built)


def test_a_direct_system_checks_the_axioms(monkeypatch):
    """A ``dist`` handed in directly, or to ``replace``, is checked as
    ``make_system`` checks it; a metric handed on is not checked again."""
    with pytest.raises(InvalidSystem, match=re.escape("symmetry(1, 0)")) as err:
        FiniteMetricSystem(2, [[0, 1], [5, 0]], (1, 1))
    assert err.value.violations == (Violation("symmetry", (1, 0)),)
    with pytest.raises(InvalidSystem) as err:
        replace(make_system(_ROWS, (1, 0)), dist=((0, 1), (1, 1)))
    assert err.value.violations == (Violation("identity", (1, 1)),)
    checked = []
    real = system_mod._violations
    monkeypatch.setattr(
        system_mod, "_violations", lambda *args: checked.append(args) or real(*args)
    )
    system = FiniteMetricSystem(2, _ROWS, (1, 0))
    assert len(checked) == 1
    replace(system, map=(0, 0))
    replace(system, quantization="1/8")
    FiniteMetricSystem(2, map=(1, 1), _metric=system._metric)
    assert len(checked) == 1


def test_rational_strings_are_valid_arguments():
    """The string forms that every rational argument takes."""
    assert metric_violations([["0", "1/2"], ["1/2", "0"]], (1, 0), True) == []
    assert metric_violations([["0", "1/2"], ["1", "0"]], (0, 0), False) == [
        Violation("symmetry", (1, 0))
    ]
    system = FiniteMetricSystem(2, _ROWS, (1, 0), quantization="1/8")
    assert system.quantization == Fraction(1, 8) and type(system.quantization) is Fraction
    classes = _ns6_classes()
    for i, sep in enumerate(classes.separation):
        for r in (sep / 2, sep):
            isolated = classes.is_isolated(i, r)
            assert classes.is_isolated(i, format_rational(r)) is isolated is (r < sep)


def test_a_replaced_table_is_rebuilt():
    """A system copied with a new dist reads the new distances; one copied
    with a new map keeps the integer table."""
    system = rotation(4, 1)
    doubled = tuple(tuple(2 * v for v in row) for row in system.dist)
    wide = replace(system, dist=doubled)
    assert wide.dist[0][1] == Fraction(1, 2) and wide.diameter == 1
    assert wide.ball(0, Fraction(1, 4)) == 0b1
    assert wide.ball(0, Fraction(1, 2)) == 0b1011
    assert replace(system, map=(0, 1, 2, 3))._metric is system._metric


def _fraction_or_bad(text: str):
    """Fraction's own reading of ``text``: the reference for parse_rational.

    A decimal exponent of magnitude above 4300 is refused unread: Fraction
    would build a power of ten with that many digits. A value whose
    numerator or denominator has more than 4300 digits is refused too: it
    could not be printed.
    """
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)$", text.strip())
    if exponent and abs(int(exponent[1])) > 4300:
        return BadParams
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return BadParams
    if abs(value.numerator) >= 10**4300 or value.denominator >= 10**4300:
        return BadParams
    return value


_RATIONAL_TEXT = st.one_of(
    st.text(alphabet="0123456789-+/._e \t\u00b2\u0663", max_size=10),
    st.builds(
        "{}/{}".format, st.integers(-(10**30), 10**30), st.integers(-5, 10**30)
    ),
    st.builds(str, st.integers(-(10**30), 10**30)),
)


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


@given(st.text(alphabet="0123456789+-_ \t\u00b2\u0665", max_size=6))
@example("-0")
@example("+-5")
@example("1_0")
@example(" 5")
@example("\u0665")
@example("+")
def test_parse_int_keeps_the_integer_text_rules(text):
    """parse_int takes exactly the strings of the two rules it replaced:
    generator params were ASCII digits after at most one sign, and
    --state-cap was ASCII digits after at most one '+', valued at least 1."""
    param_ok = _ascii_digits(text[1:] if text[:1] in ("+", "-") else text)
    cap_ok = _ascii_digits(text.removeprefix("+")) and int(text) >= 1
    for lo, ok in ((None, param_ok), (1, cap_ok)):
        if ok:
            assert parse_int("value", text, lo) == int(text)
        else:
            with pytest.raises(BadParams):
                parse_int("value", text, lo)


class TestParseRational:
    @given(_RATIONAL_TEXT)
    @example(" 7/2\n")
    @example("+3")
    @example("1/-2")
    @example("1/0")
    @example("1_0")
    @example("\u00b2")  # superscript two: isdigit() but not a decimal digit
    @example("\u0663")  # Arabic-Indic three: a decimal digit, not ASCII
    @example("0.25")
    @example("-")
    @example("")
    @example("1e4299")  # 4300 digits parse and print
    @example("1e-4299")
    @example("1e4300")  # 4301 digits are refused
    @example("1e-4300")
    @example("12345e4296")
    @example("1E4301")
    @example("1e-4301")
    @example("1e4_301")
    @settings(max_examples=300)
    def test_matches_fraction(self, text):
        expected = _fraction_or_bad(text)
        if expected is BadParams:
            with pytest.raises(BadParams):
                parse_rational(text)
        else:
            got = parse_rational(text)
            assert type(got) is Fraction and got == expected
            assert format_rational(got) == str(expected)

    def test_digit_bound_holds_for_ints_and_fractions(self):
        assert parse_rational(10**4300 - 1) == 10**4300 - 1
        for value in (10**4300, -(10**4300), Fraction(1, 10**4300)):
            with pytest.raises(BadParams, match="exceeds 4300 digits"):
                parse_rational(value)
