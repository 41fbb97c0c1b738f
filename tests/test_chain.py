"""Delta graphs, chain recurrence, decompositions, ladders, set utilities."""

from __future__ import annotations

import json
import re
from dataclasses import fields, replace
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainshadow import (
    BadParams,
    EmptySet,
    NotDecreasing,
    build_delta_graph,
    cantor_identity,
    check_slimit_property,
    decompose,
    decomposition_dot,
    decomposition_report,
    default_grid,
    hausdorff_distance,
    invariant_core,
    make_system,
    north_south,
    parse_generator_string,
    refine_ladder,
    rotation,
)
from chainshadow import chain as chain_mod
from chainshadow import system as system_mod
from chainshadow.bits import bits
from chainshadow.chain import DeltaGraph
from chainshadow.rational import format_rational
from conftest import metric_systems, system_and_scales, widest_table
from corpus import standard_corpus
from positions_scope import systems as positioned_systems


# Fixed points at 0, 2 and 4 on a line, each reaching the next one down
# through a transient point 1/2 away (at 3/2 and 7/2) that f sends there: at
# delta 1/2 the classes form the chain C2 -> C1 -> C0, and C2 -> C0 is not
# drawn.
_STAIRCASE = make_system(
    [[Fraction(abs(a - b), 2) for b in (0, 3, 4, 7, 8)] for a in (0, 3, 4, 7, 8)],
    (0, 0, 2, 2, 4),
)


def closure(graph):
    """Transitive-closure matrix: reach[x][y] when a path of length >= 1
    runs from x to y."""
    n = graph.system.n
    reach = [[q in graph.succ[p] for q in range(n)] for p in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def closure_reaches(graph, x, y):
    """Transitive-closure oracle for reachability with path length >= 1."""
    return closure(graph)[x][y]


def brute_decomposition(graph):
    """(classes, class_index, class_reach) from the closure alone: classes
    by mutual reach among the points on a cycle, numbered by least point."""
    reach = closure(graph)
    cr = [p for p in graph.system.points if reach[p][p]]
    classes = sorted(
        {frozenset(q for q in cr if reach[p][q] and reach[q][p]) for p in cr}, key=min
    )
    class_index = tuple(
        next((i for i, cls in enumerate(classes) if p in cls), None)
        for p in graph.system.points
    )
    class_reach = tuple(
        sum(
            1 << j
            for j, other in enumerate(classes)
            if j != i and any(reach[p][q] for p in cls for q in other)
        )
        for i, cls in enumerate(classes)
    )
    return tuple(classes), class_index, class_reach


def reference_components(graph):
    """The two-pass (Kosaraju) SCC search: a finish-order DFS, then a DFS
    over the reversed graph in reverse finish order, which meets the SCCs
    sources first. Returns (classes, class_index, class_reach) numbered as
    ``decompose`` numbers them: cyclic SCCs first, by least point."""
    n, succ = graph.system.n, graph.succ
    seen = [False] * n
    order = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(succ[v]):
                stack[-1] = (v, i + 1)
                w = succ[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
                stack.pop()
    preds = [[] for _ in range(n)]
    for p in range(n):
        for q in succ[p]:
            preds[q].append(p)
    topo_of = [-1] * n
    topo = []
    for root in reversed(order):
        if topo_of[root] >= 0:
            continue
        t = len(topo)
        members = [root]
        topo_of[root] = t
        stack = [root]
        while stack:
            for w in preds[stack.pop()]:
                if topo_of[w] < 0:
                    topo_of[w] = t
                    members.append(w)
                    stack.append(w)
        topo.append(tuple(sorted(members)))
    acyclic = [len(m) == 1 and m[0] not in succ[m[0]] for m in topo]
    by_id = sorted(range(len(topo)), key=lambda t: (acyclic[t], topo[t][0]))
    sid_of = sorted(range(len(topo)), key=by_id.__getitem__)
    scc_of = tuple(sid_of[t] for t in topo_of)
    sccs = tuple(topo[t] for t in by_id)
    reach = [0] * len(sccs)
    for sid in reversed(sid_of):  # sinks first
        mask = 1 << sid
        for v in sccs[sid]:
            for w in succ[v]:
                if scc_of[w] != sid:
                    mask |= reach[scc_of[w]]
        reach[sid] = mask
    k = acyclic.count(False)
    class_bits = (1 << k) - 1
    return (
        tuple(map(frozenset, sccs[:k])),
        tuple(sid if sid < k else None for sid in scc_of),
        tuple(reach[i] & class_bits & ~(1 << i) for i in range(k)),
    )


def reached_from(dec, mask):
    """Bitmask of the classes that some class in ``mask`` reaches."""
    return reduce(or_, (dec.class_reach[i] for i in bits(mask)), 0)


def reference_report(dec):
    """``decomposition_report`` as it was written before the class masks:
    flags and pairs read off ``class_reach`` alone, the pairs sorted."""
    reached = reached_from(dec, (1 << len(dec.classes)) - 1)
    pairs = ((i, j) for j, mask in enumerate(dec.class_reach) for i in bits(mask))
    return {
        "delta": format_rational(dec.delta),
        "cr_size": len(dec.cr),
        "classes": [
            {
                "id": i,
                "points": sorted(cls),
                "terminal": dec.class_reach[i] == 0,
                "initial": not reached >> i & 1,
                "separation": None if sep is None else format_rational(sep),
            }
            for i, (cls, sep) in enumerate(zip(dec.classes, dec.separation))
        ],
        "order": [list(pair) for pair in sorted(pairs)],
    }


def reference_dot(dec, isolation_radius=None):
    """``decomposition_dot`` as it was written before the class masks: each
    class's covers are its reach less what the classes it reaches reach."""
    reached = reached_from(dec, (1 << len(dec.classes)) - 1)
    lines = ["digraph chain_components {", "  node [shape=box];"]
    for i, cls in enumerate(dec.classes):
        flags = []
        if dec.class_reach[i] == 0:
            flags.append("terminal")
        if not reached >> i & 1:
            flags += ["initial", "maximal"]
        if isolation_radius is not None and dec.is_isolated(i, isolation_radius):
            flags.append("isolated")
        sep = dec.separation[i]
        label = f"C{i}|size={len(cls)}"
        if flags:
            label += "|" + ",".join(flags)
        if sep is not None:
            label += f"|sep={format_rational(sep)}"
        lines.append(f'  C{i} [label="{label}"];')
    for a, mask in enumerate(dec.class_reach):
        for b in bits(mask & ~reached_from(dec, mask)):
            lines.append(f"  C{a} -> C{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def grid_deltas(name):
    """Every delta of the generator system's ``default_grid``, ascending."""
    grid = default_grid(parse_generator_string(name))
    return sorted({entry.delta_coarse for entry in grid} | {entry.delta_fine for entry in grid})


def ladder_deltas():
    """The eight deltas of the ladder workload on north-south:384, picked
    from its distance values as ``bench/workloads.ladder_deltas`` picks them."""
    v = north_south(384).distance_values
    return [v[20], v[5], (v[4] + v[5]) / 2, v[4], v[3], v[2], v[1], v[0]]


LADDER_GRAPHS = [("north-south:384", delta) for delta in ladder_deltas()]


def bench_graphs():
    """(name, delta) of every delta graph the benchmark builds: the harness
    systems at their default-grid deltas and north-south:384 at the eight
    ladder deltas."""
    cases = [
        (name, delta)
        for name in ("cantor-identity:7", "north-south:64")
        for delta in grid_deltas(name)
    ]
    return cases + LADDER_GRAPHS


def check_exports(dec):
    """The report, both DOT forms and ``order_pairs`` against the references
    built from ``class_reach``, and each class's DOT ``isolated`` flag
    against ``is_isolated``, also at the least separation, which some
    classes meet and others exceed."""
    report = reference_report(dec)
    assert json.dumps(decomposition_report(dec), indent=2) == json.dumps(report, indent=2)
    assert dec.order_pairs() == tuple(map(tuple, report["order"]))
    for radius in (None, dec.delta):
        assert decomposition_dot(dec, radius) == reference_dot(dec, radius)
    seps = [sep for sep in dec.separation if sep is not None]
    for radius in [None, dec.delta] + ([min(seps)] if seps else []):
        labels = re.findall(r'^  C\d+ \[label="(.*)"\];$', decomposition_dot(dec, radius), re.M)
        isolated = ["isolated" in re.split(r"[|,]", label) for label in labels]
        k = range(len(dec.classes))
        assert isolated == [radius is not None and dec.is_isolated(i, radius) for i in k]


def classes_and_reach(dec):
    return dec.classes, dec.class_index, dec.class_reach


# The corpus and four one-point systems, positioned and tabled.
ONE_POINT_GENERATORS = ("rotation:1:0", "cantor-identity:0", "tent:1")
ONE_CLASS_SYSTEMS = [
    *standard_corpus(),
    *((gen, parse_generator_string(gen)) for gen in ONE_POINT_GENERATORS),
    ("one-point-table", make_system([[0]], (0,))),
]


def _no_walk(*args):
    raise AssertionError("the separations were walked")


class _Unindexed(tuple):
    """Successor rows that can be iterated but not read by index, as a
    Tarjan pass reads them."""

    def __getitem__(self, i):
        raise AssertionError("a Tarjan pass ran")


@st.composite
def strongly_connected_graphs(draw):
    """A graph on the points of a random system that holds a cycle through
    every point in a drawn order, plus random edges, so that it is one SCC."""
    system = draw(metric_systems())
    n = system.n
    order = draw(st.permutations(range(n)))
    rows = [draw(st.sets(st.integers(0, n - 1))) for _ in range(n)]
    for i in range(n):
        rows[order[i]].add(order[(i + 1) % n])
    return DeltaGraph(system, Fraction(1), tuple(tuple(sorted(row)) for row in rows))


class TestComponents:
    @given(system_and_scales())
    @example((_STAIRCASE, Fraction(1, 2), Fraction(1, 2)))
    @example((north_south(8), Fraction(5, 32), Fraction(5, 32)))
    @settings(max_examples=60)
    def test_matches_reference(self, data):
        system, delta, _ = data
        graph = build_delta_graph(system, delta)
        assert classes_and_reach(decompose(graph)) == reference_components(graph)

    @pytest.mark.parametrize("name,delta", bench_graphs(), ids=str)
    def test_matches_reference_on_bench_graphs(self, name, delta):
        graph = build_delta_graph(parse_generator_string(name), delta)
        assert classes_and_reach(decompose(graph)) == reference_components(graph)

    @pytest.mark.parametrize(
        "name, system", ONE_CLASS_SYSTEMS, ids=[name for name, _ in ONE_CLASS_SYSTEMS]
    )
    def test_one_class_past_the_diameter(self, name, system):
        """At delta >= the diameter every successor row holds every point,
        and the decomposition is one class, read without a Tarjan pass: the
        pass reads rows by index, and these rows refuse it."""
        for delta in (system.diameter, 2 * system.diameter + 1):
            graph = build_delta_graph(system, delta)
            dec = decompose(replace(graph, succ=_Unindexed(graph.succ)))
            assert classes_and_reach(dec) == reference_components(graph)
            assert dec.classes == (frozenset(system.points),)
            assert (dec.class_covers, dec.class_above, dec.separation) == ((0,), (0,), (None,))
            check_class_masks(dec)
            check_exports(dec)

    @pytest.mark.parametrize(
        "name, delta",
        [
            ("cantor-identity:7", Fraction(1094, 2187)),
            ("north-south:64", Fraction(127, 496)),
            *LADDER_GRAPHS[:2],
        ],
        ids=str,
    )
    def test_one_scc_skips_the_class_passes(self, monkeypatch, name, delta):
        """Graphs with a successor row that misses a point, whose Tarjan
        pass closes one SCC: each is one class, read with no pass after
        Tarjan's and no separation walk."""
        system = parse_generator_string(name)
        graph = build_delta_graph(system, delta)
        assert sum(map(len, graph.succ)) < system.n**2
        monkeypatch.setattr(system_mod.FiniteMetricSystem, "_separations", _no_walk)
        dec = decompose(graph)
        assert classes_and_reach(dec) == reference_components(graph)
        assert dec.classes == (frozenset(system.points),)
        check_class_masks(dec)
        check_exports(dec)

    @given(strongly_connected_graphs())
    @settings(max_examples=100)
    def test_strongly_connected_graphs(self, graph):
        dec = decompose(graph)
        assert classes_and_reach(dec) == reference_components(graph)
        assert dec.classes == (frozenset(graph.system.points),)
        check_class_masks(dec)
        check_exports(dec)

    def test_one_point_with_no_edge_is_no_class(self):
        """One SCC, but acyclic: a point with no self-loop is not recurrent."""
        graph = DeltaGraph(make_system([[0]], (0,)), Fraction(0), ((),))
        dec = decompose(graph)
        assert classes_and_reach(dec) == reference_components(graph) == ((), (None,), ())

    def test_deep_cycle(self):
        # One DFS path runs through all 1024 points.
        dec = decompose(build_delta_graph(rotation(1024, 1), 0))
        assert dec.classes == (frozenset(range(1024)),)

    def test_deep_transient_chain(self):
        system = north_south(1024)
        graph = build_delta_graph(system, 0)
        sink = 512  # side A runs 1 -> 2 -> ... -> 511 -> 512, a fixed point
        assert system.orbit(1, sink + 1) == (*range(1, sink + 1), sink)
        dec = decompose(graph)
        assert dec.classes == (frozenset({0}), frozenset({sink}))
        # The sink is a fixed point at delta 0, so it reaches no other point.
        assert graph.succ[sink] == (sink,)
        assert dec.class_reach == (0, 0)


def check_class_masks(dec):
    """The covers and above masks against ``class_reach``."""
    k = len(dec.classes)
    for a, mask in enumerate(dec.class_reach):
        assert dec.class_covers[a] == mask & ~reached_from(dec, mask)
    assert dec.class_above == tuple(
        sum(1 << j for j in range(k) if dec.class_reach[j] >> i & 1) for i in range(k)
    )
    old_pairs = [(i, j) for j, mask in enumerate(dec.class_reach) for i in bits(mask)]
    assert dec.order_pairs() == tuple(sorted(old_pairs))


class TestClassMasks:
    @given(system_and_scales())
    @example((_STAIRCASE, Fraction(1, 2), Fraction(1, 2)))
    @example((north_south(8), Fraction(5, 32), Fraction(5, 32)))
    @settings(max_examples=60)
    def test_match_class_reach(self, data):
        system, delta, _ = data
        check_class_masks(decompose(build_delta_graph(system, delta)))

    @pytest.mark.parametrize("name,delta", LADDER_GRAPHS, ids=str)
    def test_match_class_reach_on_ladder_graphs(self, name, delta):
        check_class_masks(decompose(build_delta_graph(parse_generator_string(name), delta)))

    def test_staircase(self):
        # the chain C2 -> C1 -> C0, with C2 -> C0 not a cover
        dec = decompose(build_delta_graph(_STAIRCASE, Fraction(1, 2)))
        assert dec.class_covers == (0, 0b001, 0b010)
        assert dec.class_above == (0b110, 0b100, 0)
        assert dec.order_pairs() == ((0, 1), (0, 2), (1, 2))


class TestDeltaGraph:
    def test_delta_zero_is_functional(self, parallel):
        graph = build_delta_graph(parallel, 0)
        assert graph.succ == tuple((parallel.map[p],) for p in parallel.points)

    def test_diameter_delta_is_complete(self):
        system = rotation(2, 1)
        graph = build_delta_graph(system, system.diameter)
        assert all(len(row) == 2 for row in graph.succ)

    def test_parallel_cycles_edges_at_one(self, parallel):
        graph = build_delta_graph(parallel, 1)
        assert 4 in graph.succ[0]  # a -> e2 via d(c2, e2) = 1
        assert 3 not in graph.succ[0]  # a -> e1 blocked by d(c2, e1) = 4
        assert graph.succ == ((2, 4), (2, 4), (0, 1, 3), (2, 4), (1, 3))

    def test_negative_delta_rejected(self, parallel):
        with pytest.raises(BadParams):
            build_delta_graph(parallel, Fraction(-1, 2))

    @given(system_and_scales())
    @settings(max_examples=40)
    def test_exact_edge_and_monotonicity(self, data):
        system, delta, eps = data
        smaller, larger = sorted((delta, eps))
        fine = build_delta_graph(system, smaller)
        coarse = build_delta_graph(system, larger)
        for p in system.points:
            assert system.map[p] in fine.succ[p]
            assert set(fine.succ[p]) <= set(coarse.succ[p])


def mask_path_succ(system, delta):
    """Successor tuples read a bit at a time off ``system.ball`` masks, the
    reference for ``build_delta_graph``, which reads the same masks a run
    of bits at a time."""
    return tuple(tuple(bits(system.ball(fp, delta))) for fp in system.map)


# Tables with tied distances: points on a line with unit spacing (each inner
# point has two neighbours at every distance), the discrete metric (one
# distance for all pairs), and a rotation.
TIED_TABLES = [
    ("line", make_system([[abs(a - b) for b in range(6)] for a in range(6)], (1, 2, 3, 3, 3, 0))),
    ("discrete", make_system([[int(a != b) for b in range(5)] for a in range(5)], (1, 1, 4, 0, 2))),
    ("rotation:8:3", rotation(8, 3)),
]


def tied_radii(system) -> list[Fraction]:
    """0, every distance value v, v less a sliver, and past the diameter."""
    values = system.distance_values
    tiny = values[0] / 2**20
    return [Fraction(0), *values, *(v - tiny for v in values), values[-1] + 1]


class TestSuccessors:
    """Successor tuples are the delta balls of the images, read from the
    system's ball memo; the ball bitmasks read a bit at a time are the
    reference."""

    @given(system_and_scales())
    @settings(max_examples=60)
    def test_match_the_mask_path(self, data):
        system, delta, _ = data
        assert build_delta_graph(system, delta).succ == mask_path_succ(system, delta)

    @pytest.mark.parametrize(
        "system",
        [system for _, system in TIED_TABLES] + [make_system(*widest_table())],
        ids=[name for name, _ in TIED_TABLES] + ["1024-bit-denominator"],
    )
    def test_match_the_mask_path_on_explicit_tables(self, system):
        for delta in tied_radii(system):
            assert build_delta_graph(system, delta).succ == mask_path_succ(system, delta)

    @pytest.mark.parametrize(
        "system",
        [system for _, system in (*standard_corpus(), *TIED_TABLES)],
        ids=[name for name, _ in (*standard_corpus(), *TIED_TABLES)],
    )
    def test_a_warm_memo_gives_the_graph_of_a_fresh_system(self, system):
        """A graph at a bound whose balls a search has built, some or all of
        them, is the graph of a fresh copy, whose memo is empty; ``replace``
        copies a system without its balls. Below the least distance the
        search is forced and builds none."""
        for delta in tied_radii(system):
            warm = replace(system)
            check_slimit_property(warm, delta, delta)
            built = vars(warm).get("_full_balls", {}).get(warm._bound(delta))
            assert bool(built) is (delta >= system.min_gap)
            fresh = replace(system)
            assert build_delta_graph(warm, delta).succ == build_delta_graph(fresh, delta).succ

    def test_match_the_mask_path_on_positioned_generators(self):
        """Every positioned generator on 2 to 32 points. Its ball masks
        come in the three kinds that ``build_delta_graph`` reads apart, and
        each kind is met: every point, one run of set bits (one slice), and
        more runs, as where a ball wraps round position 0."""
        kinds = set()
        for n in range(2, 33):
            for _, system in positioned_systems(n):
                for delta in tied_radii(system):
                    succ = build_delta_graph(system, delta).succ
                    assert succ == mask_path_succ(system, delta)
                    for row in succ:
                        kinds.add(
                            "full" if len(row) == n
                            else "one run" if row[-1] - row[0] == len(row) - 1
                            else "runs"
                        )
        assert kinds == {"full", "one run", "runs"}

    def test_one_int_object_per_point(self):
        """Every successor tuple reads its points from one shared int per
        point, also above CPython's small-int cache (256), so a dense graph
        costs a pointer per edge, not a new int."""
        system = north_south(300)
        graph = build_delta_graph(system, Fraction(1, 2))
        assert graph.succ == mask_path_succ(system, Fraction(1, 2))
        seen = {}
        for row in graph.succ:
            for q in row:
                assert seen.setdefault(q, q) is q

    def test_widest_accepted_table(self):
        assert make_system(*widest_table())._metric.denominator.bit_length() == 1024


class TestReachability:
    def test_exact_edge_reaches(self, parallel):
        graph = build_delta_graph(parallel, 0)
        for p in parallel.points:
            assert parallel.map[p] in graph.succ[p]

    def test_no_return_to_transient(self, path_system):
        graph = build_delta_graph(path_system, Fraction(1, 10))
        assert not closure_reaches(graph, 2, 0)
        dec = decompose(graph)
        assert dec.class_of(0) is None
        assert dec.is_terminal(dec.class_of(2))

    def test_parallel_cycles_cross_path(self, parallel):
        graph = build_delta_graph(parallel, 1)
        assert closure_reaches(graph, 0, 3)  # a -> e2 -> e1
        dec = decompose(graph)
        assert dec.class_of(0) == dec.class_of(3)

    @given(system_and_scales())
    @settings(max_examples=40)
    def test_matches_transitive_closure(self, data):
        """Bit j of class i's reach is set exactly when i != j and a point of
        class i reaches a point of class j; points of one class reach each
        other."""
        system, delta, _ = data
        graph = build_delta_graph(system, delta)
        reach = closure(graph)
        dec = decompose(graph)
        for x in dec.cr:
            for y in dec.cr:
                i, j = dec.class_of(x), dec.class_of(y)
                assert dec.class_reach[i] >> j & 1 == (i != j and reach[x][y])
                assert reach[x][y] or i != j


class TestChainRecurrence:
    def test_path_system_only_sink(self, path_system):
        graph = build_delta_graph(path_system, Fraction(1, 10))
        assert decompose(graph).cr == {2}

    def test_rotation_all_recurrent(self):
        graph = build_delta_graph(rotation(4, 1), 0)
        assert decompose(graph).cr == {0, 1, 2, 3}

    def test_parallel_cycles_fine_and_coarse(self, parallel):
        assert decompose(build_delta_graph(parallel, Fraction(1, 2))).cr == {1, 2, 3, 4}
        # at delta=1 the transient re-enters through d(c1, a) = 1
        assert decompose(build_delta_graph(parallel, 1)).cr == {0, 1, 2, 3, 4}

    @given(system_and_scales())
    @settings(max_examples=40)
    def test_cr_matches_cycle_membership(self, data):
        system, delta, _ = data
        graph = build_delta_graph(system, delta)
        reach = closure(graph)
        cr = decompose(graph).cr
        for p in system.points:
            assert (p in cr) == reach[p][p]


class TestDecomposition:
    @given(system_and_scales())
    # An acyclic SCC (a transient point) sits between classes, and class ids
    # differ from the topological order of the SCCs.
    @example((_STAIRCASE, Fraction(1, 2), Fraction(1, 2)))
    # Six classes whose ids differ from the topological order of the SCCs.
    @example((north_south(8), Fraction(5, 32), Fraction(5, 32)))
    @settings(max_examples=60)
    def test_matches_brute_force(self, data):
        system, delta, _ = data
        graph = build_delta_graph(system, delta)
        dec = decompose(graph)
        assert (dec.classes, dec.class_index, dec.class_reach) == brute_decomposition(
            graph
        )

    def test_far_cycles_disconnected(self, far_cycles):
        dec = decompose(build_delta_graph(far_cycles, Fraction(1, 10)))
        assert [sorted(c) for c in dec.classes] == [[0, 1], [2, 3]]
        assert dec.terminal_classes() == (0, 1)
        assert dec.initial_classes() == (0, 1)
        assert dec.order_pairs() == ()

    def test_north_south_source_sink(self, ns6):
        dec = decompose(build_delta_graph(ns6, Fraction(1, 24)))
        assert [sorted(c) for c in dec.classes] == [[0], [3]]
        assert dec.initial_classes() == (0,)
        assert dec.terminal_classes() == (1,)
        assert dec.order_pairs() == ((1, 0),)  # sink class below source class

    def test_parallel_cycles_two_then_one(self, parallel):
        half = decompose(build_delta_graph(parallel, Fraction(1, 2)))
        assert [sorted(c) for c in half.classes] == [[1, 2], [3, 4]]
        whole = decompose(build_delta_graph(parallel, 1))
        assert [sorted(c) for c in whole.classes] == [[0, 1, 2, 3, 4]]

    @given(system_and_scales())
    @settings(max_examples=40)
    def test_partition_and_acyclicity(self, data):
        system, delta, _ = data
        graph = build_delta_graph(system, delta)
        dec = decompose(graph)
        union = set()
        for cls in dec.classes:
            assert cls and not (union & cls)
            union |= cls
        assert union == dec.cr
        for i, j in dec.order_pairs():
            assert i != j
            assert (j, i) not in dec.order_pairs()

    @given(system_and_scales())
    @settings(max_examples=40)
    def test_separation_is_least_cross_class_distance(self, data):
        system, delta, _ = data
        dec = decompose(build_delta_graph(system, delta))
        for i, cls in enumerate(dec.classes):
            expected = min(
                (
                    system.dist[p][q]
                    for p in cls
                    for j, other in enumerate(dec.classes)
                    if j != i
                    for q in other
                ),
                default=None,
            )
            assert dec.separation[i] == expected

    def test_single_class_skips_separation_walk(self, monkeypatch):
        """On a table (no positions) the separations read each point's
        nearest-first order when there are two classes, and none with one."""
        rows = [[abs(a - b) for b in range(4)] for a in range(4)]
        reads = []
        order = system_mod._Table.__dict__["nearest_first"]

        def counted(table):
            reads.append(table)
            return order.__get__(table, system_mod._Table)

        monkeypatch.setattr(system_mod._Table, "nearest_first", property(counted))
        for fmap, separation in [((1, 2, 3, 0), (None,)), ((1, 0, 3, 2), (1, 1))]:
            graph = build_delta_graph(make_system(rows, fmap), 0)
            assert isinstance(graph.system._metric, system_mod._Table)
            reads.clear()
            assert decompose(graph).separation == separation
            assert bool(reads) == (len(separation) > 1)

    @given(system_and_scales())
    @settings(max_examples=40)
    def test_terminal_classes_absorb_edges(self, data):
        system, delta, _ = data
        graph = build_delta_graph(system, delta)
        dec = decompose(graph)
        for i in dec.terminal_classes():
            for p in dec.classes[i]:
                assert set(graph.succ[p]) <= dec.classes[i]

    @given(system_and_scales())
    @example((_STAIRCASE, Fraction(1, 2), Fraction(1, 2)))
    @settings(max_examples=40)
    def test_order_agrees_with_reachability(self, data):
        system, delta, _ = data
        graph = build_delta_graph(system, delta)
        reach = closure(graph)
        dec = decompose(graph)

        def order(a, b):
            return a == b or dec.class_reach[b] >> a & 1 == 1

        for a, cls_a in enumerate(dec.classes):
            for b, cls_b in enumerate(dec.classes):
                expected = a == b or any(reach[q][p] for q in cls_b for p in cls_a)
                assert order(a, b) == expected
        if dec.classes:
            k = len(dec.classes)
            tops = tuple(
                a for a in range(k)
                if not any(order(a, b) for b in range(k) if b != a)
            )
            assert tops and tops == dec.initial_classes()


class TestClassOrder:
    def test_north_south_order(self, ns6):
        dec = decompose(build_delta_graph(ns6, Fraction(1, 24)))
        source = dec.initial_classes()[0]
        sink = dec.terminal_classes()[0]
        assert dec.class_reach[source] == 1 << sink
        assert dec.class_reach[sink] == 0

    def test_incomparable_cycles(self, far_cycles):
        dec = decompose(build_delta_graph(far_cycles, Fraction(1, 10)))
        assert dec.class_reach == (0, 0)

    def test_reached_from(self):
        # the staircase chain C2 -> C1 -> C0
        dec = decompose(build_delta_graph(_STAIRCASE, Fraction(1, 2)))
        assert reached_from(dec, 0) == 0
        assert reached_from(dec, 0b001) == 0
        assert reached_from(dec, 0b010) == 0b001
        assert reached_from(dec, 0b100) == reached_from(dec, 0b110) == 0b011

    def test_maximal_classes(self, ns6, far_cycles):
        """The maximal classes of the class order are the initial classes."""
        dec = decompose(build_delta_graph(ns6, Fraction(1, 24)))
        assert dec.initial_classes() == (0,)
        pair = decompose(build_delta_graph(far_cycles, Fraction(1, 10)))
        assert pair.initial_classes() == (0, 1)
        single = decompose(build_delta_graph(rotation(4, 1), 0))
        assert single.initial_classes() == (0,)


class TestSetUtilities:
    def test_is_isolated(self, far_cycles):
        dec = decompose(build_delta_graph(far_cycles, Fraction(1, 10)))
        assert dec.is_isolated(0, 1) and dec.is_isolated(1, 1)
        assert not dec.is_isolated(0, 5) and not dec.is_isolated(1, 5)
        single = decompose(build_delta_graph(rotation(4, 1), 0))
        assert single.is_isolated(0, 1000)
        assert single.is_isolated(0, 0)  # the harness margin may be 0
        assert dec.is_isolated(0, Fraction(39, 10)) and not dec.is_isolated(0, 4)

    def test_hausdorff(self, parallel):
        assert hausdorff_distance(parallel, {1, 2}, {1, 2}) == 0
        assert hausdorff_distance(parallel, {0}, {1}) == 1
        assert hausdorff_distance(parallel, {1, 2}, {3, 4}) == 1
        with pytest.raises(EmptySet):
            hausdorff_distance(parallel, set(), {1})

    @given(metric_systems(max_n=6), st.data())
    @settings(max_examples=40)
    def test_hausdorff_matches_definition(self, system, picks):
        sets = st.sets(st.sampled_from(list(system.points)), min_size=1)
        a, b = picks.draw(sets), picks.draw(sets)
        d = system.dist
        expected = max(
            max(min(d[x][y] for y in b) for x in a), max(min(d[y][x] for x in a) for y in b)
        )
        assert hausdorff_distance(system, a, b) == expected

    def test_invariant_core(self, parallel):
        assert invariant_core(parallel, {1, 2}) == {1, 2}
        assert invariant_core(parallel, {0, 1, 2}) == {0, 1, 2}
        assert invariant_core(parallel, {0, 1}) == set()  # cascade deletion

    @given(metric_systems(max_n=5), st.data())
    @settings(max_examples=40)
    def test_invariant_core_is_greatest(self, system, picks):
        subset = frozenset(
            p for p in system.points if picks.draw(st.booleans(), label=f"keep{p}")
        )
        core = invariant_core(system, subset)
        assert core <= subset
        assert all(system.map[p] in core for p in core)
        # no forward-invariant subset of the input escapes the core
        from itertools import combinations

        pool = sorted(subset)
        for size in range(1, len(pool) + 1):
            for combo in combinations(pool, size):
                if all(system.map[p] in combo for p in combo):
                    assert set(combo) <= core


def standalone_levels(system, deltas) -> tuple:
    """The decomposition of each delta's graph on its own."""
    return tuple(decompose(build_delta_graph(system, d)) for d in deltas)


def level_fields(levels) -> list[tuple]:
    """Every field of each decomposition, ``delta`` included."""
    return [tuple(getattr(dec, f.name) for f in fields(dec)) for dec in levels]


def regime_deltas(system) -> list[Fraction]:
    """Decreasing deltas with two in each regime where the balls stay put:
    each distance value v and the midpoint to the next (past the largest,
    twice it), and 0 and half the least, both below every distance."""
    values = system.distance_values
    if not values:
        return [Fraction(1), Fraction(0)]
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])] + [2 * values[-1]]
    return sorted({*values, *mids, values[0] / 2, Fraction(0)}, reverse=True)


def doctored_ladder(monkeypatch, coarse_index):
    """``refine_ladder`` on cantor-identity:2 at deltas 1 and 1/4, whose
    classes by point are (0, 0, 0, 0) and (0, 0, 1, 1), with the coarse
    level's ``class_index`` replaced by ``coarse_index``."""
    real = chain_mod.decompose

    def doctored(graph):
        dec = real(graph)
        return replace(dec, class_index=coarse_index) if graph.delta == 1 else dec

    monkeypatch.setattr(chain_mod, "decompose", doctored)
    return refine_ladder(cantor_identity(2), [1, Fraction(1, 4)])


class TestLadder:
    def test_cantor_counts(self):
        ladder = refine_ladder(cantor_identity(2), [1, Fraction(1, 4), Fraction(1, 20)])
        assert ladder.class_counts() == (1, 2, 4)
        assert ladder.refinement == ((0, 0), (0, 0, 1, 1))
        assert ladder.threshold == Fraction(2, 9)
        assert ladder.stabilized_at == 2

    def test_single_level(self, parallel):
        ladder = refine_ladder(parallel, [1])
        assert ladder.class_counts() == (1,)
        assert ladder.refinement == ()

    def test_rotation_two_levels(self):
        ladder = refine_ladder(rotation(4, 1), [1, 0])
        assert ladder.class_counts() == (1, 1)

    def test_one_point_system_is_stable_from_the_first_level(self):
        ladder = refine_ladder(rotation(1, 0), [1, 0])
        assert ladder.threshold is None and ladder.stabilized_at == 0

    def test_needs_a_delta(self, parallel):
        with pytest.raises(BadParams, match="at least one delta"):
            refine_ladder(parallel, [])

    def test_not_decreasing(self, parallel):
        with pytest.raises(NotDecreasing):
            refine_ladder(parallel, [1, 1])
        with pytest.raises(NotDecreasing):
            refine_ladder(parallel, [Fraction(1, 4), 1])

    @given(metric_systems(max_n=6))
    @settings(max_examples=30)
    def test_ladder_laws_on_random_systems(self, system):
        values = system.distance_values
        if not values:
            return
        deltas = sorted({2 * values[-1], values[-1], values[0], values[0] / 2}, reverse=True)
        ladder = refine_ladder(system, deltas)
        for coarse, fine, mapping in zip(
            ladder.levels, ladder.levels[1:], ladder.refinement
        ):
            assert fine.cr <= coarse.cr
            for child, parent in enumerate(mapping):
                assert fine.classes[child] <= coarse.classes[parent]

    @given(st.data())
    @settings(max_examples=60)
    def test_every_level_is_its_graph_decomposed(self, data):
        """Each level equals its delta's graph decomposed on its own, field
        by field, on every regime delta and on a drawn subset of them, so
        that a level reused from the one before stands beside neighbours
        of every kind."""
        system = data.draw(metric_systems(max_n=6))
        pool = regime_deltas(system)
        drawn = data.draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        for deltas in (pool, sorted(drawn, reverse=True)):
            ladder = refine_ladder(system, deltas)
            assert level_fields(ladder.levels) == level_fields(standalone_levels(system, deltas))

    def test_every_bench_level_is_its_graph_decomposed(self):
        system = north_south(384)
        deltas = ladder_deltas()
        ladder = refine_ladder(system, deltas)
        assert level_fields(ladder.levels) == level_fields(standalone_levels(system, deltas))

    def test_equal_graphs_are_decomposed_once(self, monkeypatch):
        """On the bench deltas the graphs at 2683/586752 and 383/97792 are
        equal, and so are those at 1/768 and 1/1536: six of the eight
        levels run a Tarjan pass, and each of the other two is the level
        before it at its own delta."""
        real = chain_mod.decompose
        decomposed = []

        def counted(graph):
            decomposed.append(graph.delta)
            return real(graph)

        monkeypatch.setattr(chain_mod, "decompose", counted)
        deltas = ladder_deltas()
        ladder = refine_ladder(north_south(384), deltas)
        assert decomposed == [deltas[k] for k in (0, 1, 2, 4, 5, 6)]
        for k in (3, 7):
            assert ladder.levels[k] == replace(ladder.levels[k - 1], delta=deltas[k])
            assert ladder.refinement[k - 1] == tuple(range(len(ladder.levels[k].classes)))

    def test_a_fine_class_across_two_coarse_classes(self, monkeypatch):
        with pytest.raises(RuntimeError, match="^class containment violated across levels$"):
            doctored_ladder(monkeypatch, (0, 1, 0, 0))

    def test_a_fine_recurrent_point_transient_above(self, monkeypatch):
        with pytest.raises(RuntimeError, match="^recurrence monotonicity violated$"):
            doctored_ladder(monkeypatch, (0, 0, 0, None))

    def test_monotonicity_is_checked_first(self, monkeypatch):
        """Fine class 0 leaves its coarse class at its second point, before
        point 3, the last, turns transient one level up; monotonicity is
        still the error raised."""
        with pytest.raises(RuntimeError, match="^recurrence monotonicity violated$"):
            doctored_ladder(monkeypatch, (0, 1, 0, None))


class TestExports:
    def test_report_schema(self, ns6):
        dec = decompose(build_delta_graph(ns6, Fraction(1, 24)))
        report = decomposition_report(dec)
        assert set(report) == {"delta", "cr_size", "classes", "order"}
        assert report["delta"] == "1/24"
        assert report["cr_size"] == 2
        assert report["order"] == [[1, 0]]
        first = report["classes"][0]
        assert set(first) == {"id", "points", "terminal", "initial", "separation"}

    def test_dot_export(self, ns6):
        dec = decompose(build_delta_graph(ns6, Fraction(1, 24)))
        dot = decomposition_dot(dec, isolation_radius=Fraction(1, 24))
        assert dot.startswith("digraph")
        assert "C0 -> C1;" in dot
        assert "initial,maximal,isolated" in dot
        assert "terminal" in dot

    def test_separation_null_for_single_class(self):
        dec = decompose(build_delta_graph(rotation(4, 1), 0))
        report = decomposition_report(dec)
        assert report["classes"][0]["separation"] is None

    @pytest.mark.parametrize(
        "name,delta",
        [("cantor-identity:7", delta) for delta in grid_deltas("cantor-identity:7")]
        + LADDER_GRAPHS,
        ids=str,
    )
    def test_exports_match_reference(self, name, delta):
        check_exports(decompose(build_delta_graph(parse_generator_string(name), delta)))

    @given(system_and_scales())
    @example((_STAIRCASE, Fraction(1, 2), Fraction(1, 2)))
    @settings(max_examples=60)
    def test_exports_match_reference_on_random_systems(self, data):
        """Random systems number their classes by least point, so their
        class orders are scattered rather than runs of consecutive ids."""
        system, delta, _ = data
        check_exports(decompose(build_delta_graph(system, delta)))

    @given(system_and_scales())
    @example((_STAIRCASE, Fraction(1, 2), Fraction(1, 2)))
    @settings(max_examples=60)
    def test_dot_edges_are_the_covering_pairs(self, data):
        """A -> B exactly when B lies strictly below A in the class order
        with no class strictly between them (brute force on the class order)."""
        system, delta, eps = data
        dec = decompose(build_delta_graph(system, delta))
        k = range(len(dec.classes))

        def below(a, b):
            return a != b and dec.class_reach[b] >> a & 1 == 1

        covers = [
            (a, b) for a in k for b in k
            if below(b, a) and not any(below(b, c) and below(c, a) for c in k)
        ]
        dot = decomposition_dot(dec, eps)
        edges = [tuple(map(int, e)) for e in re.findall(r"C(\d+) -> C(\d+);", dot)]
        assert edges == covers
