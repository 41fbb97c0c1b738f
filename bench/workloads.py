"""The four benchmark workloads, one per layer, and their output checks.

Each workload's ``setup`` builds its inputs (systems, JSON files) and
returns a ``Workload`` whose ``pass_ops`` lists the operations of one pass
in an order drawn from the seed. An operation's ``call`` is the timed work;
its ``check`` runs afterwards, untimed, and returns an error message or
None. Direct calls into a layer go through ``self.tracer.call`` so that a
traced pass records them as spans. See README.md for why each workload
exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

F = Fraction


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    canonical: Callable[[object], bytes]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    sizes: dict
    ops: list[Op]
    # Operations whose outputs depend on the seed (checked against the
    # recorded digests only on the default seed).
    seeded_outputs: frozenset = frozenset()
    # Run before the shuffled operations of every pass, in this order.
    head: list[Op] = field(default_factory=list)

    def pass_ops(self, rng: random.Random) -> list[Op]:
        return self.head + rng.sample(self.ops, len(self.ops))


class Context:
    """What a workload's set-up needs: the freshly imported package, the
    tracer in use for the current pass, a scratch directory, seed and size."""

    def __init__(self, mods, work_dir, seed, small):
        self.mods = mods
        self.work_dir = work_dir
        self.seed = seed
        self.small = small
        self.tracer = None  # set by the runner before each pass

    def call(self, name, fn, /, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def witness_error(mods, system, witness, eps, domain=None) -> str | None:
    """A witness must be a valid pseudo-orbit that no point shadows."""
    shadow = mods["shadow"]
    if not shadow.validate_pseudo_orbit(system, witness):
        return f"witness {witness.points} breaks its own error bound"
    if witness.kind == shadow.PLAIN:
        hit = shadow.is_shadowed(system, witness, eps, domain)
    else:
        hit = shadow.is_limit_shadowed(system, witness, eps, domain)
    if hit is not None:
        return f"witness {witness.points} is shadowed by point {hit}"
    return None


# ---------------------------------------------------------------------------
# harness: the theorem harness as the CLI runs it


HARNESS = ("cantor-identity:7", "north-south:64")
HARNESS_SMALL = ("cantor-identity:3", "north-south:8")


def setup_harness(ctx: Context) -> Workload:
    cli = ctx.mods["cli"]
    gens = HARNESS_SMALL if ctx.small else HARNESS
    # Warm-up: argparse and the harness code path on a five-point system.
    warm = os.path.join(ctx.work_dir, "warm.json")
    cli.main(["verify", "--gen", "parallel-cycles", "--out", warm])
    return Workload({"generators": list(gens)}, [_harness_op(ctx, g) for g in gens])


def _harness_op(ctx: Context, gen: str) -> Op:
    cli = ctx.mods["cli"]
    out = os.path.join(ctx.work_dir, "harness-" + gen.replace(":", "_") + ".json")
    argv = ["verify", "--gen", gen, "--out", out]

    def call():
        code = ctx.call("cli.main", cli.main, argv)
        with open(out, "rb") as handle:
            data = handle.read()
        ctx.tracer.note(report_bytes=len(data))
        return code, data

    def canonical(result) -> bytes:
        code, data = result
        return f"exit={code}\n".encode() + data

    def check(result) -> str | None:
        code, data = result
        report = json.loads(data)
        if code != (1 if report["nonvacuous_failures"] else 0):
            return f"exit code {code} disagrees with the report"
        return _harness_witness_errors(ctx.mods, gen, report)

    return Op(f"harness:{gen}", call, canonical, check)


def _harness_witness_errors(mods, gen: str, report: dict) -> str | None:
    """Check every witness in a harness report against the system.

    Class-level theorems decide shadowing on the invariant core of one
    class at the witness's delta; that class is the one holding the
    witness's first point.
    """
    system = mods["system"].parse_generator_string(gen)
    chain = mods["chain"]
    orbit = mods["shadow"].PseudoOrbit
    cores: dict = {}

    def core_of(delta, point):
        if delta not in cores:
            cores[delta] = chain.decompose(chain.build_delta_graph(system, delta))
        dec = cores[delta]
        cls = dec.class_of(point)
        return None if cls is None else chain.invariant_core(system, dec.classes[cls])

    for entry in report["entries"]:
        eps = F(entry["eps"])
        for result in entry["results"]:
            full = result["theorem"] == "slimit_implies_shadowing"
            for data in result["witnesses"]:
                w = orbit.from_json(data)
                domain = None if full else core_of(w.delta, w.points[0])
                if not full and domain is None:
                    return f"{result['theorem']} witness starts outside every class"
                err = witness_error(mods, system, w, eps, domain)
                if err:
                    return f"{result['theorem']}: {err}"
        violation = entry["slimit_violation"]
        if violation is not None:
            err = witness_error(mods, system, orbit.from_json(violation["orbit"]), eps)
            if err:
                return f"slimit_violation: {err}"
    return None


# ---------------------------------------------------------------------------
# decide: single shadowing and slimit verdicts through the library


def _decide_cases(small: bool):
    """(generator, name, params, [(delta, eps), ...])."""
    if small:
        return [
            ("rotation", "rotation:12:5", (12, 5), [(F(1, 12), F(1, 6))]),
            ("tent", "tent:16", (16,), [(F(1, 16), F(1, 8))]),
            ("north_south", "north-south:8", (8,), [(F(1, 16), F(1, 2))]),
        ]
    return [
        # State-bound: the subset automaton grows to 83k states at eps 1/4,
        # and every check fails with a long witness.
        (
            "rotation", "rotation:96:7", (96, 7),
            [(F(1, 96), eps) for eps in (F(1, 24), F(1, 12), F(1, 8), F(1, 6), F(1, 4))],
        ),
        # Table-bound: the ball, successor and merge tables of 256 points
        # cost more than the few thousand states explored.
        ("tent", "tent:256", (256,), [(F(1, 256), F(1, 64)), (F(1, 128), F(1, 32)), (F(1, 512), F(1, 8))]),
        # Passing, so the automaton is explored to the end.
        ("north_south", "north-south:64", (64,), [(F(1, 16), F(1, 2))]),
    ]


def setup_decide(ctx: Context) -> Workload:
    system_mod = ctx.mods["system"]
    ops = []
    sizes = {}
    for fn_name, label, params, pairs in _decide_cases(ctx.small):
        system = ctx.call(f"system.{fn_name}", getattr(system_mod, fn_name), *params)
        sizes[label] = [f"{d}@{e}" for d, e in pairs]
        for delta, eps in pairs:
            for prop in ("shadowing", "slimit"):
                ops.append(_decide_op(ctx, label, system, prop, delta, eps))
    # Warm-up: one check of each property on a five-point system.
    tiny = system_mod.parallel_cycles()
    ctx.mods["shadow"].check_shadowing_property(tiny, 1, 1)
    ctx.mods["shadow"].check_slimit_property(tiny, 1, 1)
    return Workload({"checks": sizes}, ops)


def _decide_op(ctx: Context, label, system, prop, delta, eps) -> Op:
    fn_name = f"check_{prop}_property"
    fn = getattr(ctx.mods["shadow"], fn_name)

    def call():
        return ctx.call(f"shadow.{fn_name}", fn, system, delta, eps)

    def canonical(verdict) -> bytes:
        data = verdict.to_json()
        del data["states_explored"]  # work done, not part of the answer
        return _dumps(data)

    def check(verdict) -> str | None:
        if verdict.passed != (verdict.witness is None):
            return "the pass flag disagrees with the witness"
        if verdict.witness is None:
            return None
        return witness_error(ctx.mods, system, verdict.witness, eps)

    return Op(f"decide:{label}:{prop}:{delta}:{eps}", call, canonical, check)


# ---------------------------------------------------------------------------
# load: reading and validating user systems from JSON


LOAD_SIZES = (64, 96)
LOAD_SIZES_SMALL = (8, 12)
_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def random_spec(rng: random.Random, n: int) -> dict:
    """n distinct rational plane points under the L1 metric, with a random
    self-map, in the explicit form ``FiniteMetricSystem.to_spec`` writes.

    The L1 distance of points is a metric by construction, so the file is
    valid and its exact validation is the cost being measured.
    """
    points: set = set()
    while len(points) < n:
        points.add(
            (F(rng.randrange(100), rng.choice(_DENOMINATORS)),
             F(rng.randrange(100), rng.choice(_DENOMINATORS)))
        )
    ordered = sorted(points)
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in ordered] for a in ordered]
    return {
        "n": n,
        "dist": [[str(v) for v in row] for row in dist],
        "map": [rng.randrange(n) for _ in range(n)],
        "invertible": False,
    }


def stretched(rng: random.Random, spec: dict) -> dict:
    """The same system with one distance (both directions) made longer than
    any two-step path, which breaks the triangle inequality."""
    n = spec["n"]
    i, j = rng.sample(range(n), 2)
    diameter = max(F(v) for row in spec["dist"] for v in row)
    dist = [list(row) for row in spec["dist"]]
    dist[i][j] = dist[j][i] = str(3 * diameter)
    return {**spec, "dist": dist}


def setup_load(ctx: Context) -> Workload:
    rng = random.Random(ctx.seed)
    sizes = LOAD_SIZES_SMALL if ctx.small else LOAD_SIZES
    cases = []
    for n in sizes:
        cases.append((f"n{n}", random_spec(rng, n), True))
    cases.append((f"n{sizes[0]}-invalid", stretched(rng, cases[0][1]), False))
    ops = []
    for label, spec, valid in cases:
        path = os.path.join(ctx.work_dir, f"load-{label}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        ops.append(_load_op(ctx, label, path, spec, valid))
    # Warm-up: JSON decoding and validation on a four-point file.
    warm = os.path.join(ctx.work_dir, "warm.json")
    with open(warm, "w", encoding="utf-8") as handle:
        json.dump(random_spec(random.Random(0), 4), handle)
    ctx.mods["system"].load_system(warm)
    return Workload({"points": list(sizes), "invalid": 1}, ops, frozenset(op.name for op in ops))


def _load_op(ctx: Context, label, path, spec, valid) -> Op:
    system_mod = ctx.mods["system"]
    invalid = ctx.mods["errors"].InvalidSystem

    def call():
        try:
            result = ctx.call("system.load_system", system_mod.load_system, path)
        except invalid as exc:
            result = exc
            ctx.tracer.note(violations=len(exc.violations))
        ctx.tracer.note(n=spec["n"])
        return result

    def canonical(result) -> bytes:
        if isinstance(result, invalid):
            return _dumps([str(v) for v in result.violations])
        return _dumps(result.to_spec())

    def check(result) -> str | None:
        if valid:
            if isinstance(result, invalid):
                return f"valid file rejected: {result}"
            if result.to_spec() != spec:
                return "loaded system does not round-trip to its file"
            return None
        if not isinstance(result, invalid):
            return "invalid file accepted"
        if not any(v.kind == "triangle" for v in result.violations):
            return "invalid file rejected without a triangle violation"
        return None

    return Op(f"load:{label}", call, canonical, check)


# ---------------------------------------------------------------------------
# ladder: decompositions along decreasing resolutions, with their exports


LADDER_N = 384
LADDER_N_SMALL = 32


def ladder_deltas(system) -> list[Fraction]:
    """Eight decreasing deltas picked from the system's distance values.

    For north-south the chain structure changes at the first few distance
    values: above v[4] everything is one class, from v[2] to v[4] almost
    every point is its own class (380-382 classes at n=384), and below v[2]
    only the source and sink remain. Half the levels sit in the many-class
    band so that decomposition and export work is a large share of a pass.
    """
    v = system.distance_values
    return [v[20], v[5], (v[4] + v[5]) / 2, v[4], v[3], v[2], v[1], v[0]]


def setup_ladder(ctx: Context) -> Workload:
    system_mod = ctx.mods["system"]
    chain = ctx.mods["chain"]
    n = LADDER_N_SMALL if ctx.small else LADDER_N
    system = ctx.call("system.north_south", system_mod.north_south, n)
    deltas = ladder_deltas(system)
    # refine_ladder reads this cached property; compute it in set-up, as
    # ladder_deltas did for distance_values.
    _ = system.functional_threshold
    held: dict = {}

    def refine():
        held["ladder"] = ctx.call("chain.refine_ladder", chain.refine_ladder, system, deltas)
        return held["ladder"]

    def refine_canonical(ladder) -> bytes:
        return _dumps(
            {
                "deltas": [str(d) for d in ladder.deltas],
                "classes": [sorted(sorted(c) for c in lv.classes) for lv in ladder.levels],
                "refinement": [list(m) for m in ladder.refinement],
                "threshold": str(ladder.threshold),
                "stabilized_at": ladder.stabilized_at,
            }
        )

    def refine_check(ladder) -> str | None:
        for k, mapping in enumerate(ladder.refinement):
            coarse, fine = ladder.levels[k].classes, ladder.levels[k + 1].classes
            if any(not fine[j] <= coarse[i] for j, i in enumerate(mapping)):
                return f"level {k + 1} class not inside its refinement parent"
        return None

    head = [Op("ladder:refine", refine, refine_canonical, refine_check)]
    ops = [_export_op(ctx, held, k) for k in range(len(deltas))]
    # Warm-up: one small ladder with both exports.
    small = chain.refine_ladder(system_mod.north_south(8), [F(1, 2), F(1, 64)])
    chain.decomposition_report(small.levels[0])
    chain.decomposition_dot(small.levels[0])
    sizes = {"points": n, "deltas": [str(d) for d in deltas]}
    return Workload(sizes, ops, head=head)


def _export_op(ctx: Context, held: dict, k: int) -> Op:
    chain = ctx.mods["chain"]

    def call():
        level = held["ladder"].levels[k]
        report = ctx.call("chain.decomposition_report", chain.decomposition_report, level)
        dot = ctx.call(
            "chain.decomposition_dot", chain.decomposition_dot, level, isolation_radius=level.delta
        )
        return level, report, dot

    def canonical(result) -> bytes:
        _, report, dot = result
        return _dumps(report) + b"\n" + dot.encode()

    def check(result) -> str | None:
        level, report, dot = result
        if len(report["classes"]) != len(level.classes):
            return "report class count differs from the decomposition"
        if dot.count("[label=") != len(level.classes):
            return "DOT node count differs from the decomposition"
        return None

    return Op(f"ladder:export:{k}", call, canonical, check)


SETUPS = {
    "harness": setup_harness,
    "decide": setup_decide,
    "load": setup_load,
    "ladder": setup_ladder,
}
