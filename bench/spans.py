"""Spans around calls into chainshadow's layers, recorded from outside.

The layers are the package modules ``system``, ``chain``, ``shadow``,
``verify`` and ``cli``. A span is named ``<layer>.<function>`` after the
function that runs, so its layer is the part before the dot. Nothing under
``src/`` is edited: calls that one layer makes into the layer below are
caught by swapping the names the calling module imported for timing
wrappers (``Tracer.install``), and the benchmark's own direct calls go
through ``Tracer.call``.

Spans stay in memory; ``layer_metrics`` turns the spans of one pass into
per-layer numbers, and ``Tracer.dump`` writes every span once, at the end
of a run.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

LAYERS = ("system", "chain", "shadow", "verify", "cli")

# Names a module imported from the layer below, swapped while tracing:
# (module, imported name, span name).
CROSS_LAYER_CALLS = (
    ("cli", "run_harness", "verify.run_harness"),
    ("cli", "parse_generator_string", "system.parse_generator_string"),
    ("verify", "check_shadowing_property", "shadow.check_shadowing_property"),
    ("verify", "check_slimit_property", "shadow.check_slimit_property"),
    ("verify", "build_delta_graph", "chain.build_delta_graph"),
    ("verify", "decompose", "chain.decompose"),
    ("verify", "invariant_core", "chain.invariant_core"),
    # refine_ladder builds and decomposes each level through its own module
    # globals; swapping them splits the ladder's time between the two.
    ("chain", "build_delta_graph", "chain.build_delta_graph"),
    ("chain", "decompose", "chain.decompose"),
)

GENERATORS = frozenset(
    {"system.parse_generator_string", "system.rotation", "system.tent", "system.north_south"}
)
SHADOWING = "shadow.check_shadowing_property"
SLIMIT = "shadow.check_slimit_property"
EXPORTS = frozenset({"chain.decomposition_report", "chain.decomposition_dot"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _check_notes(args, kwargs, result):
    system, delta, eps = args[:3]
    domain = kwargs.get("domain", args[3] if len(args) > 3 else None)
    key = (id(system.dist), system.map, delta, eps, None if domain is None else frozenset(domain))
    notes = {"key": key}
    if result is not None:
        notes["states"] = result.states_explored
        notes["failing"] = not result.passed
    return notes


def _graph_notes(args, kwargs, result):
    system, delta = args[:2]
    notes = {"key": (id(system.dist), system.map, delta)}
    if result is not None:
        notes["edges"] = sum(len(row) for row in result.succ)
    return notes


def _decompose_notes(args, kwargs, result):
    return {} if result is None else {"classes": len(result.classes)}


# Counts taken from a call's arguments and result, after its span has ended.
NOTES = {
    SHADOWING: _check_notes,
    SLIMIT: _check_notes,
    "chain.build_delta_graph": _graph_notes,
    "chain.decompose": _decompose_notes,
}


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, **attrs) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._last = -1

    def call(self, name, fn, /, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        result = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._last = index
            note = NOTES.get(name)
            if note is not None:
                span.attrs.update(note(args, kwargs, result))

    def note(self, **attrs) -> None:
        """Attach counts to the span that finished last."""
        self.spans[self._last].attrs.update(attrs)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, modules) -> list:
        """Swap every cross-layer import for a wrapper; returns the undo list."""
        undo = []
        for module_name, attr, span_name in CROSS_LAYER_CALLS:
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(span_name, original))
            undo.append((module, attr, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    def dump(self, path, header: dict) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "attrs": {k: v for k, v in s.attrs.items() if k != "key"},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": rows}, handle)


def _distinct(spans: list[Span]) -> int:
    """Distinct argument keys, counted within each operation."""
    return len({(s.op, s.attrs["key"]) for s in spans})


def layer_metrics(all_spans: list[Span], lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers for the spans ``all_spans[lo:hi]``.

    The slice must hold whole top-level calls (one pass, or one set-up), so
    that every parent of a span in it lies in it too. A span's self time
    is its duration minus its direct children's; calls are single-threaded
    and nested, so children never overlap.
    """
    spans = all_spans[lo:hi]
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent - lo] -= s.seconds

    def total_ms(names) -> float:
        return 1000 * sum(s.seconds for s in spans if s.name in names)

    def named(*names) -> list[Span]:
        return [s for s in spans if s.name in names]

    def from_verify(group) -> list[Span]:
        return [
            s for s in group
            if s.parent is not None and all_spans[s.parent].layer == "verify"
        ]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1000 * sum(o for s, o in zip(spans, own) if s.layer == layer)

    loads = named("system.load_system")
    m["system.validate_ms"] = total_ms({"system.load_system"})
    m["system.validate_calls"] = len(loads)
    m["system.triangle_triples"] = sum(s.attrs.get("n", 0) ** 3 for s in loads)
    m["system.violations_reported"] = sum(s.attrs.get("violations", 0) for s in loads)
    m["system.generate_ms"] = total_ms(GENERATORS)
    m["system.generate_calls"] = len([s for s in spans if s.name in GENERATORS])

    graphs = named("chain.build_delta_graph")
    decs = named("chain.decompose")
    m["chain.build_delta_graph_ms"] = total_ms({"chain.build_delta_graph"})
    m["chain.build_delta_graph_calls"] = len(graphs)
    m["chain.build_delta_graph_distinct"] = _distinct(graphs)
    m["chain.edges"] = sum(s.attrs.get("edges", 0) for s in graphs)
    m["chain.decompose_ms"] = total_ms({"chain.decompose"})
    m["chain.decompose_calls"] = len(decs)
    m["chain.classes"] = sum(s.attrs.get("classes", 0) for s in decs)
    m["chain.export_ms"] = total_ms(EXPORTS)

    checks = named(SHADOWING, SLIMIT)
    check_s = sum(s.seconds for s in checks)
    states = sum(s.attrs.get("states", 0) for s in checks)
    m["shadow.shadowing_ms"] = total_ms({SHADOWING})
    m["shadow.slimit_ms"] = total_ms({SLIMIT})
    m["shadow.check_calls"] = len(checks)
    m["shadow.states_explored"] = states
    m["shadow.states_per_s"] = states / check_s if check_s else 0.0
    m["shadow.failing_verdicts"] = sum(1 for s in checks if s.attrs.get("failing"))

    verify_checks = from_verify(checks)
    verify_graphs = from_verify(graphs)
    m["verify.harness_ms"] = total_ms({"verify.run_harness"})
    m["verify.check_calls"] = len(verify_checks)
    m["verify.check_distinct"] = _distinct(verify_checks)
    m["verify.check_reuse"] = (
        1 - _distinct(verify_checks) / len(verify_checks) if verify_checks else 0.0
    )
    m["verify.graph_calls"] = len(verify_graphs)
    m["verify.graph_distinct"] = _distinct(verify_graphs)

    m["cli.main_ms"] = total_ms({"cli.main"})
    m["cli.report_bytes"] = sum(s.attrs.get("report_bytes", 0) for s in named("cli.main"))
    return m
