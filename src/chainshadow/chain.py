"""Delta-transition graphs and chain-recurrence structure.

At resolution delta the transition graph has an edge p -> q exactly when
d(f(p), q) <= delta, so the exact edge p -> f(p) is always present. Chain
recurrence at that resolution is membership in a directed cycle, classes
are the strongly connected pieces of the recurrent part, and the class
order is reachability between classes (possibly through transient points).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count

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
    ints, so every edge to a point shares that point's one int object."""
    delta = parse_nonnegative(delta)
    ids = tuple(range(system.n))
    rows = {}
    for t, ball in system._balls(delta, mask_of(set(system.map)), -1).items():
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
    # lowlinks skip closed points.
    index = [-1] * n
    low = [0] * n
    ticks = count()
    open_stack: list[int] = []
    closed: list[tuple[bool, tuple[int, ...]]] = []  # (acyclic, members) sinks first
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(ticks)
        open_stack.append(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, edges = stack[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = next(ticks)
                    open_stack.append(w)
                    stack.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                stack.pop()
                if low[v] == index[v]:
                    members = [open_stack.pop()]
                    while members[-1] != v:
                        members.append(open_stack.pop())
                    for w in members:
                        index[w] = n
                    # A cyclic SCC holds a cycle: a self-loop if a singleton.
                    acyclic = len(members) == 1 and v not in succ[v]
                    closed.append((acyclic, tuple(sorted(members))))
                if stack and low[v] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[v]
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
    levels = [decompose(build_delta_graph(system, d)) for d in resolved]
    refinement = []
    for coarse, fine in zip(levels, levels[1:]):
        if not fine.cr <= coarse.cr:
            raise RuntimeError("recurrence monotonicity violated")
        mapping = []
        for cls in fine.classes:
            parents = {coarse.class_index[p] for p in cls}
            if len(parents) != 1 or None in parents:
                raise RuntimeError("class containment violated across levels")
            mapping.append(parents.pop())
        refinement.append(tuple(mapping))
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
