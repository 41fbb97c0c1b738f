"""Finite metric dynamical systems.

A system is a finite point set 0..n-1 carrying an exact rational metric
table and a total self-map. This module validates explicit descriptions
and generates the built-in corpus, the grid maps included. Every
comparison downstream (``d <= delta`` and friends) is exact, so systems
built here never depend on float rounding.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, cycle, filterfalse, repeat
from operator import floordiv, lshift, mul, sub

from .bits import _bit_map, _translation_runs, bits, mask_of
from .errors import BadParams, InvalidSystem, UnknownGenerator, Violation
from .rational import (
    check_collection,
    check_int,
    format_rational,
    parse_int,
    parse_nonnegative,
    parse_rational,
    plain_pair,
    plain_texts,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

_MAX_VIOLATIONS = 50
_MAX_CANTOR_DEPTH = 10
# Most points a generator builds or a table may list; ``_rows`` refuses a
# larger dist table on its row count, before any row is read.
_MAX_POINTS = 4096
# Longest orbit that ``FiniteMetricSystem.orbit`` lists: 2**24 entries make a
# 128 MiB tuple of pointers on 64-bit CPython and take about a second.
_MAX_ORBIT_LENGTH = 2**24
# Widest common denominator, in bits, that a distance table may have. Up to
# it the integer rows take a small multiple of the memory of the Fraction
# table they stand for. Past it they can grow without bound (as n**4 when
# every entry has its own large denominator), so such a table is refused.
_MAX_COMMON_DENOMINATOR_BITS = 1024
# The keys that an explicit system spec and a generator spec may hold.
_EXPLICIT_KEYS = frozenset({"n", "dist", "map", "invertible", "quantization"})
_GENERATOR_KEYS = frozenset({"generator", "params"})


class _Table:
    """The distance table, stored once: integer rows over L, the least
    common denominator of the table, whose entries order, and compare with
    0, as the distances do. ``FiniteMetricSystem.dist`` is a view of it.
    Its queries, and those of ``_Positions``, take and give distances times
    L; balls and separations read each point's nearest-first order."""

    def __init__(self, rows: tuple[tuple[int, ...], ...], denominator: int):
        self.rows, self.denominator = rows, denominator

    def distance(self, i: int, j: int) -> int:
        """The distance between the points i and j, times the denominator."""
        return self.rows[i][j]

    @cached_property
    def nearest_first(self) -> tuple[array, ...]:
        """Per point p, every point sorted by d(p, .), ties by index."""
        return tuple(array("i", sorted(range(len(row)), key=row.__getitem__)) for row in self.rows)

    def ball(self, p: int, bound: int) -> int:
        """The mask of every point within ``bound`` of p: the prefix of p's
        nearest-first order within it."""
        order = self.nearest_first[p]
        return mask_of(order[: bisect_right(order, bound, key=self.rows[p].__getitem__)])

    def separations(self, class_index, least: list) -> None:
        """Lower each ``least[i]``, an int or inf, to the least distance from
        class i to another: each class point walks its order to the first
        point of another."""
        rows = self.rows
        for p, i in enumerate(class_index):
            if i is None:
                continue
            for q in self.nearest_first[p]:
                if class_index[q] not in (None, i):
                    least[i] = min(least[i], rows[p][q])
                    break

    def shift_invariant(self) -> bool:
        """Whether i -> i + 1 mod n is an isometry: each row is the row
        before it rotated by one."""
        rows = self.rows
        return all(row[0] == above[-1] and row[1:] == above[:-1] for above, row in zip(rows, rows[1:]))

    @cached_property
    def distance_ints(self) -> tuple[int, ...]:
        """The distinct positive distances times the denominator, ascending."""
        return tuple(sorted(set().union(*(row[:i] for i, row in enumerate(self.rows)))))


class _Positions:
    """Where a positioned generator puts its points: point p at
    ``at[p] / denominator`` on the circle of length ``circumference /
    denominator``, whose arc-length metric takes the shorter way round. The
    circle of length 1 has ``circumference == denominator``. The line
    [0, 1] is the circle of length 2: two of its points are at most half-way
    round apart the direct way, so the shorter arc is |x - y|, and one
    metric serves both. The integer table these stand for is built on its
    first read (``rows``); every other query of ``_Table`` is read off the
    sorted positions."""

    def __init__(self, at: tuple[int, ...], denominator: int, circumference: int):
        self.at, self.denominator, self.circumference = at, denominator, circumference

    def between(self, x: int, y: int) -> int:
        """The distance between the positions x and y, times the denominator."""
        gap = abs(x - y)
        return min(gap, self.circumference - gap)

    def distance(self, i: int, j: int) -> int:
        """The distance between the points i and j, times the denominator."""
        return self.between(self.at[i], self.at[j])

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The points in ascending position order."""
        return tuple(sorted(range(len(self.at)), key=self.at.__getitem__))

    @cached_property
    def ascending(self) -> list[int]:
        """The positions in ascending order: ``at[order[j]]`` at j."""
        return [self.at[p] for p in self.order]

    @cached_property
    def prefix(self) -> list[int]:
        """prefix[j]: the mask of the first j points in position order, so
        the points of positions lo..hi-1 are ``prefix[hi] ^ prefix[lo]``."""
        masks = [0]
        for p in self.order:
            masks.append(masks[-1] | 1 << p)
        return masks

    def ball(self, p: int, bound: int) -> int:
        """The mask of every point within ``bound`` (a distance times the
        denominator) of p: the points of the arc of positions within it,
        found by two bisections of the sorted positions, and cut in two
        where it crosses position 0."""
        xs, prefix, full = self.ascending, self.prefix, self.circumference
        # Every arc-length distance is at most full / 2.
        if bound + bound >= full:
            return prefix[-1]
        a = self.at[p]
        lo, hi = a - bound, a + bound
        if lo < 0:
            return prefix[bisect_right(xs, hi)] | prefix[-1] ^ prefix[bisect_left(xs, lo + full)]
        if hi >= full:
            return prefix[bisect_right(xs, hi - full)] | prefix[-1] ^ prefix[bisect_left(xs, lo)]
        return prefix[bisect_right(xs, hi)] ^ prefix[bisect_left(xs, lo)]

    def separations(self, class_index, least: list) -> None:
        """Lower ``least[i]`` to the least distance from class i to another.
        Between the points of two classes, the least distance is met at two
        that are neighbours in position order, the last beside the first,
        among the points in some class."""
        full = self.circumference
        held = [
            (x, i)
            for x, i in zip(self.ascending, map(class_index.__getitem__, self.order))
            if i is not None
        ]
        for (x, i), (y, j) in zip(held, held[1:] + held[:1]):
            if i != j:
                # between(x, y), inline: the shorter way round.
                d = abs(x - y)
                if d + d > full:
                    d = full - d
                if d < least[i]:
                    least[i] = d
                if d < least[j]:
                    least[j] = d

    def shift_invariant(self) -> bool:
        """Whether i -> i + 1 mod n is an isometry: on at most two points, as
        is every table of at most two points, or when the points go round
        the circle in index order with equal steps, so that the shift is a
        rotation. Three or more points of a line lie within half its circle,
        so they never go round with equal steps.
        ``tests/positions_scope.py`` checks this rule against the table on
        every positioned generator."""
        at, full = self.at, self.circumference
        steps = {(b - a) % full for a, b in zip(at, at[1:] + at[:1])}
        return len(at) <= 2 or len(steps) == 1

    @cached_property
    def distance_ints(self) -> tuple[int, ...]:
        """The distinct positive distances times the denominator, ascending:
        the gaps between sorted positions, each taken the shorter way round
        when the positions span more than half the circle (as no line's
        do). About n**2 / 2 of them are read, as on a table."""
        xs = self.ascending
        gaps: set[int] = set()
        for step in range(1, len(xs)):
            gaps.update(map(sub, xs[step:], xs))
        if 2 * (xs[-1] - xs[0]) > self.circumference:
            gaps = {self.between(0, g) for g in gaps}
        return tuple(sorted(gaps))

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The integer table over the denominator, built on first read. Its
        rows hold one shared int per distinct value, and the denominator is
        the least common denominator of the table when one position is 0
        and the positions have no factor in common with it."""
        at, full = self.at, self.circumference

        def row(a: int) -> list[int]:
            gaps = [abs(a - b) for b in at]
            return [g if g + g <= full else full - g for g in gaps]

        ints: dict[int, int] = {}
        return tuple(tuple(map(ints.setdefault, gaps, gaps)) for gaps in map(row, at))


class _Memo(dict):
    """Each key read so far, mapped to ``make(key)``: one shared value per
    key. A key that ``make`` refuses raises and is not stored."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass(frozen=True, init=False, eq=False)
class FiniteMetricSystem:
    """Points 0..n-1 with an exact metric table and a total self-map.

    ``quantization`` is the resolution floor that the grid maps record; it
    is informational only and never enforced. Construction checks the
    shape: BadParams unless ``dist`` is n rows (at most ``_MAX_POINTS``) of
    n ints or Fractions with a least common denominator of at most
    ``_MAX_COMMON_DENOMINATOR_BITS`` bits, ``map`` lists n point indices,
    ``invertible`` is a bool that is True only for a bijective map and
    ``quantization`` is None or a nonnegative rational. A ``dist`` that
    passes is then checked against the metric axioms, as ``make_system``
    checks it, and InvalidSystem lists what it breaks. ``map`` is stored
    as a tuple and ``quantization`` as a Fraction.

    The distances are stored once, in ``_metric``: the integer ``_Table`` of
    an explicit system, or the integer ``_Positions`` on a line or circle
    that a positioned generator gives its points. Both answer the same
    queries, and each distance query here is one call on the metric.
    Builders that hold one pass it and no ``dist``; ``dataclasses.replace``
    hands it on unchecked, or rebuilds and checks a table for a new
    ``dist``. The metric's ``rows`` are the integer table, on a positioned
    system a view built on its first read, and ``dist`` is a read-only view
    of them. Equality and hashing read n, ``map``, ``invertible``,
    ``quantization`` and the table, so they build the view.
    """

    n: int
    map: tuple[int, ...]
    invertible: bool
    quantization: Fraction | None
    _metric: _Table | _Positions = field(repr=False)

    def __init__(self, n, dist=None, map=None, invertible=False, quantization=None, _metric=None):
        object.__setattr__(self, "n", check_int("n", n, 1))
        fmap = check_collection("map", map)
        rebuild = dist is not None or _metric is None
        rows = _rows(dist) if rebuild else _metric.rows if isinstance(_metric, _Table) else None
        # Positions have one entry per point, a table n rows of n.
        lengths = [len(_metric.at)] if rows is None else [len(rows), *(len(row) for row in rows)]
        if len(fmap) != n or any(length != n for length in lengths):
            raise BadParams(f"{n} points need {n} rows of {n} distances and {n} map entries")
        check_points(self, fmap)
        if _check_invertible(invertible) and len(set(fmap)) != n:
            raise BadParams("an invertible system needs a bijective map")
        if quantization is not None:
            quantization = parse_nonnegative(quantization)
        if rebuild:
            if not {type(v) for row in rows for v in row} <= {int, Fraction}:
                raise BadParams("distances must be ints or Fractions")
            _metric = _Table(*_over_common_denominator(rows))
            violations = _violations(_metric, fmap, invertible)
            if violations:
                raise InvalidSystem(violations)
        object.__setattr__(self, "map", fmap)
        object.__setattr__(self, "invertible", invertible)
        object.__setattr__(self, "quantization", quantization)
        object.__setattr__(self, "_metric", _metric)

    def _key(self) -> tuple:
        metric = self._metric
        return self.n, self.map, self.invertible, self.quantization, metric.rows, metric.denominator

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSystem):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _bound(self, r) -> int:
        """What a distance times the denominator is at most exactly when the
        distance is at most ``r``: floor(r * L)."""
        return r.numerator * self._metric.denominator // r.denominator

    @cached_property
    def _values(self) -> _Memo:
        """Each integer distance read so far, mapped to the one Fraction it
        stands for."""
        return _Memo(partial(Fraction, denominator=self._metric.denominator))

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as rows of Fractions, one shared object per value."""
        values = self._values.__getitem__
        return tuple(tuple(map(values, row)) for row in self._metric.rows)

    def d(self, i: int, j: int) -> Fraction:
        i, j = check_point(self, i), check_point(self, j)
        return self._values[self._metric.distance(i, j)]

    @property
    def points(self) -> range:
        return range(self.n)

    def orbit(self, x: int, length: int) -> tuple[int, ...]:
        """First ``length`` points of the forward orbit of ``x``."""
        check_point(self, x)
        out = []
        for _ in range(check_int("length", length, 0, _MAX_ORBIT_LENGTH)):
            out.append(x)
            x = self.map[x]
        return tuple(out)

    def ball(self, p: int, r) -> int:
        """Bitmask of the closed ball: every q with d(p, q) <= r."""
        check_point(self, p)
        # A domain mask of -1 keeps every point.
        return self._balls(parse_nonnegative(r), 1 << p, -1)[p]

    @cached_property
    def _full_balls(self) -> dict:
        """Per bound ``_bound(r)``, the full r-ball mask of each point asked
        for so far."""
        return {}

    def _balls(self, r, keys: int, dmask: int) -> dict[int, int]:
        """The closed r-ball within the domain ``dmask`` of each point of
        the mask ``keys``, ascending. A ball depends on r only through
        ``_bound(r)``, so the full balls are kept under that int: each is
        built the first time any caller asks for its point at a radius with
        that bound, and kept for the life of the system, one mask of n bits
        per (point, bound) asked for. The shadow searches and
        ``build_delta_graph`` both read their balls here, so a search and a
        delta graph at one bound build each ball once between them."""
        bound = self._bound(r)
        full = self._full_balls.setdefault(bound, {})
        build = self._metric.ball
        out = {}
        for p in bits(keys):
            ball = full.get(p)
            if ball is None:
                ball = full[p] = build(p, bound)
            out[p] = ball & dmask
        return out

    def _separations(self, class_index, k: int) -> tuple[Fraction | None, ...]:
        """Per class i of the k classes that ``class_index`` gives each point
        (None for a point in no class), the least distance from class i to
        another class; every entry is None when k < 2."""
        least = [math.inf] * k
        if k > 1:
            self._metric.separations(class_index, least)
        return tuple(None if d == math.inf else self._values[d] for d in least)

    @cached_property
    def _map_runs(self) -> list[tuple[int, int]]:
        """The map's ``_translation_runs`` table, read by ``_image`` and
        ``_preimage``."""
        return _translation_runs(self.map)

    @cached_property
    def _image(self):
        """f(Y) for a bitmask Y: each translation run moves by its shift,
        or, when Y has no more points than the map has runs, each byte of
        Y is looked up in a memo that lasts as long as the system."""
        return _bit_map(self._map_runs, [1 << t for t in self.map])

    @cached_property
    def _preimage(self):
        """f^-1(M) for a bitmask M: x lies in f^-1(M) when bit f(x) of M is
        set, so each run's image moves back by the run's shift; sparser
        masks read a byte memo as ``_image`` does."""
        pre_bit = [0] * self.n
        for x, t in enumerate(self.map):
            pre_bit[t] |= 1 << x
        return _bit_map(
            [(run << s if s >= 0 else run >> -s, -s) for run, s in self._map_runs], pre_bit
        )

    @cached_property
    def _rotation_step(self) -> int | None:
        """k when the shift i -> i + 1 mod n is an isometry of the metric
        (``shift_invariant``) that commutes with f(i) = i + k mod n, as on
        every ``rotation:N:K``. None for any other system."""
        n, k = self.n, self.map[0]
        if any(t != (i + k) % n for i, t in enumerate(self.map)):
            return None
        return k if self._metric.shift_invariant() else None

    @cached_property
    def _nearest(self) -> list:
        """Per point, the distance to its nearest other point times the
        denominator (inf on one point): the separations of the classes that
        hold one point each."""
        nearest = [math.inf] * self.n
        self._metric.separations(range(self.n), nearest)
        return nearest

    @cached_property
    def _least_distance(self) -> int | None:
        """The least distance between two points times the denominator, None
        on one point."""
        return None if self.n < 2 else min(self._nearest)

    @cached_property
    def diameter(self) -> Fraction:
        ints = self._metric.distance_ints
        return self._values[ints[-1] if ints else 0]

    @cached_property
    def distance_values(self) -> tuple[Fraction, ...]:
        """Distinct positive distances, ascending."""
        return tuple(map(self._values.__getitem__, self._metric.distance_ints))

    @cached_property
    def min_gap(self) -> Fraction | None:
        least = self._least_distance
        return None if least is None else self._values[least]

    @cached_property
    def functional_threshold(self) -> Fraction | None:
        """Smallest positive value of d(f(p), q) over q != f(p).

        Below this resolution a delta graph carries only the exact edges
        p -> f(p), so refining delta further cannot change anything.
        None for a one-point system.
        """
        if self.n < 2:
            return None
        nearest = self._nearest
        return self._values[min(nearest[t] for t in set(self.map))]

    def to_spec(self) -> dict:
        """Explicit JSON-ready description (rationals as strings), with a
        ``quantization`` key only when the system records one."""
        text = _Memo(lambda entry: format_rational(self._values[entry]))
        spec = {
            "n": self.n,
            "dist": [list(map(text.__getitem__, row)) for row in self._metric.rows],
            "map": list(self.map),
            "invertible": self.invertible,
        }
        if self.quantization is not None:
            spec["quantization"] = format_rational(self.quantization)
        return spec


def check_point(system: FiniteMetricSystem, p) -> int:
    """``p`` when it is an int index of a point of ``system``, else BadParams."""
    return check_int("point index", p, 0, system.n - 1)


def check_points(system: FiniteMetricSystem, points) -> frozenset[int]:
    """``points``, a collection of point indices of ``system``, as a frozenset;
    otherwise BadParams, raised at the first item read that is no index."""
    try:
        items = iter(points)
    except TypeError:
        raise BadParams(f"expected a collection of point indices, got {points!r}") from None
    return frozenset(check_point(system, p) for p in items)


def _check_invertible(invertible) -> bool:
    """``invertible`` when it is a bool, else BadParams."""
    if not isinstance(invertible, bool):
        raise BadParams(f"invertible must be true or false, got {invertible!r}")
    return invertible


def _common_denominator(denominators) -> int:
    """The least common multiple of ``denominators``. Raises BadParams as
    soon as it passes ``_MAX_COMMON_DENOMINATOR_BITS`` bits."""
    common = 1
    for q in denominators:
        common = math.lcm(common, q)
        if common.bit_length() > _MAX_COMMON_DENOMINATOR_BITS:
            limit = _MAX_COMMON_DENOMINATOR_BITS
            raise BadParams(f"the distances' least common denominator is wider than {limit} bits")
    return common


def _over_common_denominator(rows) -> tuple[tuple, int]:
    """The rows multiplied by L, the least common denominator of all their
    entries, and L: exact integers that compare, and differ in sign, as the
    entries do. Raises BadParams as soon as L passes
    ``_MAX_COMMON_DENOMINATOR_BITS`` bits, before any row is scaled."""
    denominators = {v.denominator for row in rows for v in row}
    common = _common_denominator(denominators)
    scale = {q: common // q for q in denominators}
    return tuple(tuple(v.numerator * scale[v.denominator] for v in row) for row in rows), common


def _violations(table: _Table, fmap, invertible: bool) -> list[Violation]:
    rows = table.rows
    n = len(rows)
    out: list[Violation] = []

    def add(kind, *indices):
        if len(out) < _MAX_VIOLATIONS:
            out.append(Violation(kind, tuple(indices)))

    for i in range(n):
        if rows[i][i] != 0:
            add("identity", i, i)
        for j in range(i):
            if rows[i][j] <= 0:
                add("positivity", i, j)
            if rows[i][j] != rows[j][i]:
                add("symmetry", i, j)
    # Once the list is full nothing more is added, so the rest is skipped.
    if len(out) == _MAX_VIOLATIONS:
        return out
    lanes = _lanes(rows)
    # A table with no other violation is a symmetric one of positive
    # distances, on which the pair check finds the first row to list.
    start = _first_triangle_row(rows, lanes) if not out else 0
    if start is not None:
        for i, j in _triangle_pairs(rows, lanes, start):
            row_i, row_j = rows[i], rows[j]
            dij = row_i[j]
            for k in range(n):
                if row_i[k] - row_j[k] > dij:
                    out.append(Violation("triangle", (i, j, k)))
                    if len(out) == _MAX_VIOLATIONS:
                        return out
    total = True
    for i, target in enumerate(fmap):
        if not isinstance(target, int) or isinstance(target, bool) or not 0 <= target < n:
            add("map_not_total", i)
            total = False
    if total and invertible and len(set(fmap)) != n:
        add("not_bijective")
    return out


def _lanes(rows) -> tuple[list[int], int, int]:
    """The rows packed for SIMD within a register (Lamport, CACM 1975). With
    w three bits wider than the largest |entry| and B = 2**(w-2), row i is
    N_i, the sum of (row_i[k] + B) << k*w, each lane in [0, 2**w); ONES has
    1 in each lane, and HIGH, with the top bit of each lane set, is
    2B * ONES. Eight lanes make w whole bytes, so a row is summed eight
    lanes at a time and its groups joined as bytes, where a running sum
    would copy the growing int once per lane."""
    n = len(rows)
    w = max(max(map(max, rows), default=0), -min(map(min, rows), default=0)).bit_length() + 3
    shifts = range(0, 8 * w, w)
    bias = sum(map(lshift, repeat(1 << (w - 2)), shifts))
    pad = (0,) * (-n % 8)

    def pack(row) -> int:
        lanes = map(lshift, chain(row, pad), cycle(shifts))
        groups = map(sum, zip(*[lanes] * 8), repeat(bias))
        data = b"".join(map(int.to_bytes, groups, repeat(w), repeat("little")))
        return int.from_bytes(data, "little")

    # The sum of 2**(k*w) for k < n.
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)
    return list(map(pack, rows)), ones, ones << (w - 1)


def _first_triangle_row(rows, lanes) -> int | None:
    """The first row i for which some (j, k) has d(i, k) > d(i, j) + d(j, k),
    None when no row has one, on a symmetric table with a zero diagonal
    and positive entries elsewhere. On such a table (i, j, k) breaks the
    inequality exactly when (k, j, i) does, so each unordered pair i < k is
    tested once, for a j with d(i, j) + d(j, k) < d(i, k). Lane j of
    N_i + N_k - d(i, k) * ONES is row_i[j] + row_k[j] - d(i, k) + 2**(w-1),
    strictly between 0 and 2**w, and its top bit is clear exactly when j
    is such a point."""
    packed, ones, high = lanes
    for i, (n_i, row_i) in enumerate(zip(packed, rows)):
        for n_k, dik in zip(packed[i + 1 :], row_i[i + 1 :]):
            if (n_k + n_i - dik * ones) & high != high:
                return i
    return None


def _triangle_pairs(rows, lanes, start: int):
    """Every (i, j), in row-major order from row ``start``, for which some k
    has d(i, k) > d(i, j) + d(j, k), that is, the largest row_i[k] - row_j[k]
    exceeds row_i[j]; ``lanes`` are the rows' ``_lanes``."""
    packed, ones, high = lanes
    # Lane k of N_j + HIGH - N_i + row_i[j] * ONES, where the biases cancel,
    # is row_j[k] - row_i[k] + row_i[j] + 2**(w-1), strictly between 0 and 2**w,
    # so no lane borrows from or carries into the next, and its top bit is
    # clear exactly when k breaks the triangle inequality.
    for i in range(start, len(rows)):
        offset = high - packed[i]
        for j, (n_j, dij) in enumerate(zip(packed, rows[i])):
            if (n_j + offset + dij * ones) & high != high:
                yield i, j


def _rows(dist) -> tuple:
    """``dist`` as a tuple of rows: a list as it is (a JSON table is not
    copied), any other collection as a tuple. BadParams unless each is a
    collection, and for more than ``_MAX_POINTS`` rows before any is read."""
    rows = check_collection("dist", dist)
    if len(rows) > _MAX_POINTS:
        raise BadParams(f"dist has {len(rows)} rows; at most {_MAX_POINTS} points are allowed")
    return tuple(row if type(row) is list else check_collection("dist row", row) for row in rows)


def _pair(value) -> tuple[int, int]:
    """The reduced (numerator, denominator) of a rational ``parse_rational``
    accepts; BadParams as it raises."""
    if type(value) is str and (pair := plain_pair(value)):
        return pair
    q = parse_rational(value)
    return q.numerator, q.denominator


def _plain_table(rows) -> tuple[tuple, int] | None:
    """The integer rows over L, the least common denominator, and L, when
    every entry of ``rows`` is a str that ``plain_texts`` accepts, with a
    denominator that is not 0, and L_raw, the least common multiple of the
    denominators as written, has at most ``_MAX_COMMON_DENOMINATOR_BITS``
    bits; else None. Each distinct text p/q is read once, unreduced, and
    scaled to p * (L_raw / q). With h the gcd of L_raw and every scaled
    entry, L is L_raw / h and each entry is its scaled int over h: the
    reduced denominators divide L_raw, so L_raw / L divides h, and
    L_raw / h is a common denominator, so L divides it."""
    # 1, 1.0, True and Fraction(1) hash alike, so the types are checked
    # entry by entry before the entries are merged into a set.
    if not set(map(type, chain.from_iterable(rows))) <= {str}:
        return None
    texts = tuple(set(chain.from_iterable(rows)))
    if not plain_texts(texts):
        return None
    numerators, denominators = [], []
    for text in texts:
        num, _, den = text.partition("/")
        numerators.append(int(num))
        denominators.append(den)
    values = {den: int(den or 1) for den in set(denominators)}
    if 0 in values.values():
        return None
    try:
        raw = _common_denominator(values.values())
    except BadParams:
        # Reducing the entries first may bring the table under the limit.
        return None
    scale = {den: raw // q for den, q in values.items()}
    scaled = list(map(mul, numerators, map(scale.__getitem__, denominators)))
    h = math.gcd(raw, *scaled)
    ints = dict(zip(texts, scaled if h == 1 else map(floordiv, scaled, repeat(h))))
    return tuple(tuple(map(ints.__getitem__, row)) for row in rows), raw // h


def _parse(rows) -> tuple[_Memo, dict]:
    """Each distinct string of ``rows`` as its reduced (numerator,
    denominator), and per row that holds anything else, its entries' pairs.
    BadParams for the first entry in row-major order that
    ``parse_rational`` refuses."""
    # Each distinct string is read once into a (numerator, denominator) pair.
    # A row that holds anything else is read entry by entry: 1, 1.0, True and
    # Fraction(1) hash alike, and the float and the bool must still be refused.
    pairs = _Memo(_pair)
    mixed = {}
    for i, row in enumerate(rows):
        if set(map(type, row)) <= {str}:
            fresh = set(filterfalse(pairs.__contains__, row))
            try:
                pairs.update(zip(fresh, map(_pair, fresh)))
            except BadParams:
                # The row's first refused entry raises, not the first one read.
                list(map(pairs.__getitem__, row))
                raise
        else:
            mixed[i] = [pairs[v] if type(v) is str else _pair(v) for v in row]
    return pairs, mixed


def _read(dist_rows, fmap) -> tuple[_Table, tuple]:
    """The rows as an integer table and the map as a tuple with one entry
    per row. BadParams, first to last: as ``_rows`` raises, for the first
    entry in row-major order that ``parse_rational`` refuses, for a table
    that is not square, for a map of another length, and for a common
    denominator wider than ``_MAX_COMMON_DENOMINATOR_BITS`` bits. A table of
    plain strings is read by ``_plain_table``, which refuses nothing; any
    other goes through ``_parse``, each string scaled once onto L and every
    entry spelled alike sharing that one int."""
    rows = _rows(dist_rows)
    plain = _plain_table(rows)
    if plain is None:
        pairs, mixed = _parse(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise BadParams("dist must be a square table")
    fmap = check_collection("map", fmap)
    if len(fmap) != n:
        raise BadParams(f"map must list {n} image indices")
    if plain is not None:
        return _Table(*plain), fmap
    denominators = {q for _, q in chain(pairs.values(), *mixed.values())}
    common = _common_denominator(denominators)
    scale = {q: common // q for q in denominators}
    ints = {text: p * scale[q] for text, (p, q) in pairs.items()}
    table = tuple(
        tuple(map(ints.__getitem__, row)) if i not in mixed
        else tuple(p * scale[q] for p, q in mixed[i])
        for i, row in enumerate(rows)
    )
    return _Table(table, common), fmap


def make_system(dist_rows, fmap, invertible=False) -> FiniteMetricSystem:
    """Build a system from raw rows, validating every axiom exactly."""
    table, fmap = _read(dist_rows, fmap)
    violations = _violations(table, fmap, _check_invertible(invertible))
    if violations:
        raise InvalidSystem(violations)
    return FiniteMetricSystem(len(fmap), map=fmap, invertible=invertible, _metric=table)


def validate_system(spec) -> FiniteMetricSystem:
    """Validate a system description.

    Accepts either an explicit record {"n", "dist", "map", "invertible",
    "quantization"} or a generator reference {"generator": name,
    "params": {...}}, with no other key. Raises InvalidSystem with the full
    list of violated axioms, or BadParams for structural problems and for a
    table whose least common denominator is wider than
    ``_MAX_COMMON_DENOMINATOR_BITS`` bits.
    """
    if not isinstance(spec, dict):
        raise BadParams("system spec must be a mapping")
    unknown = spec.keys() - (_GENERATOR_KEYS if "generator" in spec else _EXPLICIT_KEYS)
    if unknown:
        raise BadParams(f"system spec has unknown keys: {sorted(unknown, key=repr)}")
    if "generator" in spec:
        return build_corpus_system(spec["generator"], spec.get("params", {}))
    missing = {"n", "dist", "map"} - spec.keys()
    if missing:
        raise BadParams(f"system spec missing keys: {sorted(missing)}")
    declared_n, dist, fmap = spec["n"], spec["dist"], spec["map"]
    check_int("n", declared_n)
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise BadParams("dist must be a list of row lists")
    if not isinstance(fmap, list):
        raise BadParams("map must be a list of image indices")
    invertible = _check_invertible(spec.get("invertible", False))
    # Parsed before the axioms are checked, so a bad value fails fast.
    quantization = spec.get("quantization")
    if quantization is not None:
        quantization = parse_nonnegative(quantization)
    if declared_n != len(dist):
        raise BadParams(f"declared n={declared_n} but dist has {len(dist)} rows")
    system = make_system(dist, fmap, invertible)
    return system if quantization is None else replace(system, quantization=quantization)


def _decode(text: str):
    """The JSON value of a system description, else BadParams."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise BadParams("system description is nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise BadParams(f"system description is not JSON: {exc}") from exc


def load_system(path) -> FiniteMetricSystem:
    # Only the decoded value outlives this block, so the file's text is
    # freed before the table is read and its axioms checked.
    with open(path, "r", encoding="utf-8") as handle:
        spec = _decode(handle.read())
    return validate_system(spec)


def _points_system(
    positions, unit: int, circle: bool, fmap, quantization=None
) -> FiniteMetricSystem:
    """The points positions[i] / unit of the circle of length 1, or of
    [0, 1], the circle of length 2 under its arc-length metric; invertible
    when ``fmap`` is a bijection. No table is built until one is read
    (``_Positions.rows``)."""
    fmap = tuple(fmap)
    return FiniteMetricSystem(
        len(fmap), map=fmap, invertible=len(set(fmap)) == len(fmap), quantization=quantization,
        _metric=_Positions(tuple(positions), unit, unit if circle else 2 * unit),
    )


def _grid_system(cells: int, circle: bool, fmap) -> FiniteMetricSystem:
    """The centers (2i + 1) / 2n of n = ``cells`` equal cells of [0, 1], or of
    the circle, i / n apart as the points i / n are. ``fmap`` sends each center
    to the center of the cell (j/n, (j+1)/n], or [0, 1/n] for j = 0, that holds
    its image, which is then at most 1/(2n) away."""
    return _points_system(range(cells), cells, circle, fmap, Fraction(1, 2 * cells))


# ---------------------------------------------------------------------------
# built-in generators


def cantor_identity(depth: int) -> FiniteMetricSystem:
    """Identity map on the 2**depth left endpoints of the level-``depth``
    middle-thirds construction, with the line metric |x - y|."""
    check_int("depth", depth, 0, _MAX_CANTOR_DEPTH)
    # Positions over 3**depth: the step 2/3**level is 2 * 3**(depth - level).
    points = [0]
    for level in range(1, depth + 1):
        step = 2 * 3 ** (depth - level)
        points = sorted(x + off for x in points for off in (0, step))
    return _points_system(points, 3**depth, False, range(len(points)))


def rotation(n: int, k: int) -> FiniteMetricSystem:
    """Rigid rotation p -> p + k on n equally spaced circle points."""
    check_int("n", n, 1, _MAX_POINTS)
    check_int("rotation step k", k)
    return _points_system(range(n), n, True, [(i + k) % n for i in range(n)])


def north_south(n: int) -> FiniteMetricSystem:
    """Source/sink flow on a circle.

    One fixed source at angle 0 and one fixed sink at angle 1/2; the other
    n-2 points march stepwise toward the sink along their arc. Spacing is
    chosen so that, at resolutions between the source's escape gap and one
    step, the chain structure is exactly two classes: the source (initial)
    and the sink (terminal).
    """
    check_int("n", n, 3, _MAX_POINTS)
    interior = n - 2
    side_a = (interior + 1) // 2
    side_b = interior // 2
    gap = Fraction(1, 8 * (side_a + 1))
    step_a = (_HALF - gap) / side_a
    positions = [_ZERO]
    positions += [gap + (j - 1) * step_a for j in range(1, side_a + 1)]
    positions.append(_HALF)
    if side_b:
        step_b = (_HALF - gap) / side_b
        positions += [_ONE - gap - (j - 1) * step_b for j in range(1, side_b + 1)]
    sink = side_a + 1
    fmap = [0]
    fmap += [j + 1 for j in range(1, side_a + 1)]  # last A step lands on the sink
    fmap.append(sink)
    for j in range(1, side_b + 1):
        fmap.append(sink if j == side_b else sink + j + 1)
    (positions,), unit = _over_common_denominator((positions,))
    return _points_system(positions, unit, True, fmap)


def parallel_cycles() -> FiniteMetricSystem:
    """Five points: two parallel 2-cycles plus one transient feeding them.

    Points are a=0, c1=1, c2=2, e1=3, e2=4 with map [2, 2, 1, 4, 3]; the
    c-cycle and e-cycle run side by side at distance 1 while everything
    else sits 4 apart (a is 1 from c1 and 2 from e1).
    """
    rows = [
        [0, 1, 4, 2, 4],
        [1, 0, 4, 1, 4],
        [4, 4, 0, 4, 1],
        [2, 1, 4, 0, 4],
        [4, 4, 1, 4, 0],
    ]
    return make_system(rows, (2, 2, 1, 4, 3))


def doubling(cells: int) -> FiniteMetricSystem:
    """Angle doubling y -> 2y mod 1 on ``cells`` centers of the circle."""
    n = check_int("cells", cells, 1, _MAX_POINTS)
    # Center i goes to (2i + 1) / n mod 1: the right end of cell (2i + 1) % n - 1, or 0.
    return _grid_system(n, True, [max((2 * i + 1) % n - 1, 0) for i in range(n)])


def tent(cells: int) -> FiniteMetricSystem:
    """Tent map y -> min(2y, 2 - 2y) on ``cells`` centers of [0, 1]."""
    n = check_int("cells", cells, 1, _MAX_POINTS)
    # A center at most 1/2 goes to (2i + 1) / n, the right end of cell 2i; one
    # past 1/2 goes to (2n - 2i - 1) / n, the right end of cell 2(n - i - 1).
    return _grid_system(n, False, [2 * i if 2 * i < n else 2 * (n - i - 1) for i in range(n)])


_GENERATORS = {
    "rotation": (("n", "k"), rotation),
    "cantor-identity": (("depth",), cantor_identity),
    "north-south": (("n",), north_south),
    "parallel-cycles": ((), parallel_cycles),
    "doubling": (("cells",), doubling),
    "tent": (("cells",), tent),
}


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))


def build_corpus_system(name: str, params=()) -> FiniteMetricSystem:
    """Instantiate a named generator with positional or keyword params."""
    if not isinstance(name, str) or name not in _GENERATORS:
        raise UnknownGenerator(f"unknown generator {name!r}; known: {', '.join(generator_names())}")
    param_names, fn = _GENERATORS[name]
    if not isinstance(params, (dict, list, tuple)):
        raise BadParams(f"{name}: params must be a list or a mapping, got {params!r}")
    if isinstance(params, dict):
        unknown = set(params) - set(param_names)
        if unknown:
            raise BadParams(f"{name}: unknown params {sorted(unknown)}")
        missing = [p for p in param_names if p not in params]
        if missing:
            raise BadParams(f"{name}: missing params {missing}")
        args = [params[p] for p in param_names]
    else:
        args = list(params)
        if len(args) != len(param_names):
            raise BadParams(
                f"{name} takes {len(param_names)} params ({', '.join(param_names) or 'none'})"
            )
    return fn(*(parse_int(f"{name} param {p}", a) for p, a in zip(param_names, args)))


def parse_generator_string(text: str) -> FiniteMetricSystem:
    """Build from shorthand ``name:arg1:arg2`` (e.g. ``rotation:4:1``)."""
    name, *args = text.split(":")
    return build_corpus_system(name, args)

