"""Delta-transition graphs and chain-recurrence structure.

At resolution delta the transition graph has an edge p -> q exactly when
d(f(p), q) <= delta, so the exact edge p -> f(p) is always present. Chain
recurrence at that resolution is membership in a directed cycle, classes
are the strongly connected pieces of the recurrent part, and the class
order is reachability between classes (possibly through transient points).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .bits import bits as _bits, mask_of, runs
from .errors import BadParams, EmptySet, NotDecreasing
from .rational import check_collection, check_int, format_rational, parse_nonnegative
from .system import FiniteMetricSystem, check_point, check_points


@dataclass(frozen=True)
class DeltaGraph:
    """Directed graph of allowed single steps at resolution ``delta``."""

    system: FiniteMetricSystem
    delta: Fraction
    succ: tuple[tuple[int, ...], ...]


def build_delta_graph(system: FiniteMetricSystem, delta) -> DeltaGraph:
    """The successors of p are the delta ball of f(p), ascending. Each ball
    comes from the system's ball memo, which the shadow searches read too,
    and is read a run of its mask at a time as slices of one tuple of n
    ints, so every edge to a point shares that point's one int object. A
    ball of one run of set bits is its one slice, and a full ball is that
    tuple itself."""
    delta = parse_nonnegative(delta)
    ids = tuple(range(system.n))
    rows = {}
    for t, ball in system._balls(delta, mask_of(set(system.map)), -1).items():
        # Adding the lowest bit carries through the first run (as in runs).
        low = ball & -ball
        carried = ball + low
        if not ball & carried:
            rows[t] = ids[low.bit_length() - 1 : (ball ^ carried).bit_length() - 1]
            continue
        row: list[int] = []
        for lo, hi in runs(ball):
            row += ids[lo:hi]
        rows[t] = tuple(row)
    return DeltaGraph(system, delta, tuple(map(rows.__getitem__, system.map)))


@dataclass(frozen=True)
class ChainDecomposition:
    """Classes of mutual reachability inside the recurrent set at one delta.

    ``class_reach[i]`` is a bitmask of other classes reachable from class i,
    ``class_covers[i]`` the part of it with no class in between, and
    ``class_above[i]`` a bitmask of the other classes that reach class i;
    ``separation[i]`` is the least distance from class i to any other class
    (None when the decomposition has a single class).
    """

    system: FiniteMetricSystem
    delta: Fraction
    classes: tuple[frozenset[int], ...]
    class_index: tuple[int | None, ...]
    class_reach: tuple[int, ...]
    class_covers: tuple[int, ...]
    class_above: tuple[int, ...]
    separation: tuple[Fraction | None, ...]

    @cached_property
    def cr(self) -> frozenset[int]:
        return frozenset(p for p, c in enumerate(self.class_index) if c is not None)

    def class_of(self, p: int) -> int | None:
        return self.class_index[check_point(self.system, p)]

    def is_terminal(self, i: int) -> bool:
        return self.class_reach[check_int("class index", i, 0, len(self.classes) - 1)] == 0

    def is_initial(self, i: int) -> bool:
        return self.class_above[check_int("class index", i, 0, len(self.classes) - 1)] == 0

    def is_isolated(self, i: int, r) -> bool:
        """Whether class i lies farther than r from every other class."""
        sep = self.separation[check_int("class index", i, 0, len(self.classes) - 1)]
        return _isolated(sep, parse_nonnegative(r))

    def terminal_classes(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.classes)) if self.is_terminal(i))

    def initial_classes(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.classes)) if self.is_initial(i))

    def order_pairs(self) -> tuple[tuple[int, int], ...]:
        """All strict pairs (i, j) with class i below class j, sorted."""
        return tuple((i, j) for i, above in self._above_runs() for j in above)

    def _above_runs(self):
        """(i, range) for each run of consecutive class ids above class i,
        ascending. Class orders mostly come in such runs, so the sorted
        pairs are read a run at a time rather than a bit at a time."""
        return (
            (i, range(start, stop))
            for i, mask in enumerate(self.class_above)
            for start, stop in runs(mask)
        )


def _isolated(sep: Fraction | None, r: Fraction) -> bool:
    """Whether a class whose separation is ``sep`` lies farther than the
    parsed radius r from every other class: a lone class always does."""
    return sep is None or sep > r


def _one_class(graph: DeltaGraph) -> ChainDecomposition:
    """The decomposition of a graph that is one cyclic SCC: one class of
    every point, with nothing above, below or beside it."""
    n = graph.system.n
    return ChainDecomposition(
        graph.system, graph.delta, (frozenset(range(n)),), (0,) * n, (0,), (0,), (0,), (None,)
    )


def decompose(graph: DeltaGraph) -> ChainDecomposition:
    """Chain classes from one iterative Tarjan pass, which closes the SCCs
    sinks first. The k cyclic SCCs take ids 0..k-1 by least point, so chain
    class i is SCC i; the acyclic SCCs take the ids after them. A graph
    whose every successor row holds all n points, as at any delta past
    the diameter, is one class with no pass. A graph whose pass closes
    one cyclic SCC, which then holds every point, is that one class with
    no pass over the edges after Tarjan's."""
    succ = graph.succ
    n = graph.system.n
    if sum(map(len, succ)) == n * n:
        return _one_class(graph)
    # index[v] is v's discovery number, and n once v's SCC has closed, so
    # lowlinks skip closed points. path holds the DFS path and edges the
    # iterator over each path point's successors; a point's lowlink is
    # kept in a local while its edges are read, and stored when the DFS
    # leaves it for a child.
    index = [-1] * n
    low = [0] * n
    tick = 0
    open_stack: list[int] = []
    closed: list[tuple[bool, tuple[int, ...]]] = []  # (acyclic, members) sinks first
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = tick
        tick += 1
        open_stack.append(root)
        path = [root]
        edges = [iter(succ[root])]
        while path:
            v = path[-1]
            low_v = low[v]
            for w in edges[-1]:
                seen = index[w]
                if seen < 0:
                    low[v] = low_v
                    index[w] = low[w] = tick
                    tick += 1
                    open_stack.append(w)
                    path.append(w)
                    edges.append(iter(succ[w]))
                    break
                if seen < low_v:
                    low_v = seen
            else:
                path.pop()
                edges.pop()
                if low_v < index[v]:
                    # Not a root, so v's parent is on the path.
                    if low_v < low[path[-1]]:
                        low[path[-1]] = low_v
                elif open_stack[-1] == v:
                    # A singleton SCC is cyclic exactly when v has a self-loop.
                    open_stack.pop()
                    index[v] = n
                    closed.append((v not in succ[v], (v,)))
                else:
                    members = []
                    w = -1
                    while w != v:
                        w = open_stack.pop()
                        index[w] = n
                        members.append(w)
                    closed.append((False, tuple(sorted(members))))
    if len(closed) == 1 and not closed[0][0]:
        return _one_class(graph)
    # SCCs are disjoint, so (acyclic, members) pairs sort by least point.
    sccs = [members for _, members in sorted(closed)]
    scc_of = [0] * n
    for sid, members in enumerate(sccs):
        for v in members:
            scc_of[v] = sid
    k = sum(not acyclic for acyclic, _ in closed)
    # reach[s] masks the classes that s reaches, s included if a class.
    # below[s] masks the classes strictly below some class that s reaches
    # (s itself if a class), so a class's below is its strict class reach,
    # and its covers are the classes in it but in no successor's below.
    reach = [0] * len(sccs)
    below = [0] * len(sccs)
    covers = [0] * k
    for _, members in closed:  # sinks first
        sid = scc_of[members[0]]
        mask = 1 << sid if sid < k else 0
        under = 0
        for v in members:
            for w in succ[v]:
                t = scc_of[w]
                if t != sid:
                    mask |= reach[t]
                    under |= below[t]
        reach[sid] = mask
        if sid < k:
            below[sid] = mask & ~(1 << sid)
            covers[sid] = below[sid] & ~under
        else:
            below[sid] = under
    # above[s] masks the classes that reach s, s excluded.
    above = [0] * len(sccs)
    for _, members in reversed(closed):  # sources first
        sid = scc_of[members[0]]
        up = above[sid] | (1 << sid if sid < k else 0)
        for v in members:
            for w in succ[v]:
                t = scc_of[w]
                if t != sid:
                    above[t] |= up
    class_index = tuple(sid if sid < k else None for sid in scc_of)
    return ChainDecomposition(
        graph.system,
        graph.delta,
        tuple(map(frozenset, sccs[:k])),
        class_index,
        tuple(below[:k]),
        tuple(covers),
        tuple(above[:k]),
        graph.system._separations(class_index, k),
    )


def hausdorff_distance(system: FiniteMetricSystem, a, b) -> Fraction:
    a = check_points(system, a)
    b = check_points(system, b)
    if not a or not b:
        raise EmptySet("Hausdorff distance needs nonempty sets")
    # Point distances, so a positioned system builds no table view.
    distance = system._metric.distance
    forward = max(min(distance(x, y) for y in b) for x in a)
    backward = max(min(distance(y, x) for x in a) for y in b)
    return system._values[max(forward, backward)]


def invariant_core(system: FiniteMetricSystem, points) -> frozenset[int]:
    """Greatest forward-invariant subset of the given point set."""
    core = check_points(system, points)
    while True:
        leaving = {p for p in core if system.map[p] not in core}
        if not leaving:
            return core
        core -= leaving


@dataclass(frozen=True)
class DeltaLadder:
    """Decompositions along strictly decreasing resolutions.

    ``refinement[k][j]`` is the class at level k containing class j of
    level k+1. ``stabilized_at`` is the first level whose delta lies below
    the functional threshold, after which all levels agree with the plain
    orbit graph.
    """

    system: FiniteMetricSystem
    deltas: tuple[Fraction, ...]
    levels: tuple[ChainDecomposition, ...]
    refinement: tuple[tuple[int, ...], ...]
    threshold: Fraction | None
    stabilized_at: int | None

    def class_counts(self) -> tuple[int, ...]:
        return tuple(len(level.classes) for level in self.levels)


def _require_decreasing(deltas) -> None:
    """Refuse a list of deltas that does not strictly decrease."""
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        got = ", ".join(map(format_rational, deltas))
        raise NotDecreasing(f"deltas must strictly decrease, got {got}")


def refine_ladder(system: FiniteMetricSystem, deltas) -> DeltaLadder:
    resolved = [parse_nonnegative(d) for d in check_collection("deltas", deltas)]
    if not resolved:
        raise BadParams("need at least one delta")
    _require_decreasing(resolved)
    # decompose reads only a graph's rows (and its system), and graphs
    # shrink as delta falls, so equal rows can only be those of the level
    # before: that level's decomposition is taken at the new delta.
    levels: list[ChainDecomposition] = []
    previous = None
    for d in resolved:
        graph = build_delta_graph(system, d)
        if graph.succ == previous:
            levels.append(replace(levels[-1], delta=graph.delta))
        else:
            levels.append(decompose(graph))
        previous = graph.succ
    refinement = []
    for coarse, fine in zip(levels, levels[1:]):
        # (fine class, coarse class) of each fine recurrent point: a fine
        # class inside one coarse class gives one pair.
        pairs = {(j, i) for j, i in zip(fine.class_index, coarse.class_index) if j is not None}
        if any(i is None for _, i in pairs):
            raise RuntimeError("recurrence monotonicity violated")
        if len(pairs) != len(fine.classes):
            raise RuntimeError("class containment violated across levels")
        parent = dict(pairs)
        refinement.append(tuple(map(parent.__getitem__, range(len(fine.classes)))))
    threshold = system.functional_threshold
    # A one-point system has no threshold: it is always the plain orbit graph.
    stabilized = next(
        (k for k, d in enumerate(resolved) if threshold is None or d < threshold), None
    )
    return DeltaLadder(
        system, tuple(resolved), tuple(levels), tuple(refinement), threshold, stabilized
    )


# ---------------------------------------------------------------------------
# exports


def decomposition_report(dec: ChainDecomposition) -> dict:
    """JSON-ready report; ``order`` pairs [i, j] mean class i <= class j."""
    return {
        "delta": format_rational(dec.delta),
        "cr_size": len(dec.cr),
        "classes": [
            {
                "id": i,
                "points": sorted(cls),
                "terminal": reach == 0,
                "initial": above == 0,
                "separation": None if sep is None else format_rational(sep),
            }
            # Read off the masks: each index is a class, so no per-class check.
            for i, (cls, reach, above, sep) in enumerate(
                zip(dec.classes, dec.class_reach, dec.class_above, dec.separation)
            )
        ],
        "order": [[i, j] for i, above in dec._above_runs() for j in above],
    }


def decomposition_dot(dec: ChainDecomposition, isolation_radius=None) -> str:
    """DOT digraph of the condensation (transitively reduced).

    Edges point in flow direction: A -> B means chains run from A to B.
    When ``isolation_radius`` is given, classes separated by more than it
    are flagged as isolated.
    """
    if isolation_radius is not None:
        isolation_radius = parse_nonnegative(isolation_radius)
    lines = ["digraph chain_components {", "  node [shape=box];"]
    # Flags are read off the masks, as in decomposition_report.
    classes = zip(dec.classes, dec.class_reach, dec.class_above, dec.separation)
    for i, (cls, reach, above, sep) in enumerate(classes):
        flags = []
        if reach == 0:
            flags.append("terminal")
        if above == 0:
            # initial classes are exactly the maximal ones of the class order
            flags += ["initial", "maximal"]
        if isolation_radius is not None and _isolated(sep, isolation_radius):
            flags.append("isolated")
        label = f"C{i}|size={len(cls)}"
        if flags:
            label += "|" + ",".join(flags)
        if sep is not None:
            label += f"|sep={format_rational(sep)}"
        lines.append(f'  C{i} [label="{label}"];')
    for a, mask in enumerate(dec.class_covers):
        for b in _bits(mask):
            lines.append(f"  C{a} -> C{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
