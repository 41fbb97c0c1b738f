"""Finite-scale theorem harness.

Each check is a conditional: its hypothesis is probed first and a failed
hypothesis yields an explicit ``vacuous`` status so that vacuous truth is
never counted as evidence. Every failure carries a machine-checkable
witness (a class, a pseudo-orbit, or both). Per-class dynamical checks
run on the invariant core of the class; classes with an empty core are
flagged degenerate and excluded from the quantifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .chain import (
    ChainDecomposition,
    build_delta_graph,
    class_order,
    decompose,
    invariant_core,
)
from .errors import BadParams, NotInvertible
from .rational import format_rational, parse_nonnegative
from .shadow import (
    PseudoOrbit,
    check_shadowing_property,
    check_slimit_property,
)
from .system import FiniteMetricSystem

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"

SLIMIT_IMPLIES_SHADOWING = "slimit_implies_shadowing"
CLASS_DENSENESS = "shadowing_class_denseness"
INITIAL_CLASSES = "initial_classes_shadow"
ISOLATED_CLASSES = "isolated_classes_shadow"


@dataclass(frozen=True)
class TheoremResult:
    theorem: str
    params: dict
    status: str
    details: dict = field(default_factory=dict)
    witnesses: tuple[PseudoOrbit, ...] = ()

    @property
    def is_nonvacuous_failure(self) -> bool:
        return self.status == FAILS

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params,
            "status": self.status,
            "details": self.details,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def verify_slimit_implies_shadowing(system, delta, eps, *, state_cap=None) -> TheoremResult:
    """slimit passing at (delta, eps) must force shadowing to pass too."""
    delta = parse_nonnegative(delta)
    eps = parse_nonnegative(eps)
    slimit = check_slimit_property(system, delta, eps, state_cap=state_cap)
    shadowing = check_shadowing_property(system, delta, eps, state_cap=state_cap)
    broken = slimit.passed and not shadowing.passed
    details = {"slimit_pass": slimit.passed, "shadowing_pass": shadowing.passed}
    witnesses = ()
    if broken and shadowing.witness is not None:
        witnesses = (shadowing.witness,)
    return TheoremResult(
        SLIMIT_IMPLIES_SHADOWING,
        _params(delta=delta, eps=eps),
        FAILS if broken else HOLDS,
        details,
        witnesses,
    )


def verify_shadowing_class_denseness(
    system, delta_coarse, delta_fine, eps, *, state_cap=None
) -> TheoremResult:
    """Under a passing slimit check, every coarse class must contain a fine
    class whose invariant core has the shadowing property.

    Fine classes inside a coarse class are tried maximal-first under the
    fine class order, but any certifying class is accepted.
    """
    delta_coarse = parse_nonnegative(delta_coarse)
    delta_fine = parse_nonnegative(delta_fine)
    eps = parse_nonnegative(eps)
    if delta_fine > delta_coarse:
        raise BadParams("delta_fine must not exceed delta_coarse")
    params = _params(delta_coarse=delta_coarse, delta_fine=delta_fine, eps=eps)
    slimit = check_slimit_property(system, delta_fine, eps, state_cap=state_cap)
    if not slimit.passed:
        return TheoremResult(
            CLASS_DENSENESS, params, VACUOUS, {"slimit_pass": False}
        )
    coarse = decompose(build_delta_graph(system, delta_coarse))
    fine = decompose(build_delta_graph(system, delta_fine))
    per_class = []
    witnesses: list[PseudoOrbit] = []
    all_certified = True
    for i, coarse_cls in enumerate(coarse.classes):
        inside = [j for j, cls in enumerate(fine.classes) if cls <= coarse_cls]
        ordered = _maximal_first(fine, inside)
        certifier = None
        degenerate = []
        failing_witness = None
        for j in ordered:
            core = invariant_core(system, fine.classes[j])
            if not core:
                degenerate.append(j)
                continue
            verdict = check_shadowing_property(
                system, delta_fine, eps, domain=core, state_cap=state_cap
            )
            if verdict.passed:
                certifier = j
                break
            if failing_witness is None:
                failing_witness = verdict.witness
        entry = {
            "coarse": i,
            "fine_classes": inside,
            "certifier": certifier,
            "degenerate": degenerate,
        }
        per_class.append(entry)
        if certifier is None:
            all_certified = False
            if failing_witness is not None:
                witnesses.append(failing_witness)
    return TheoremResult(
        CLASS_DENSENESS,
        params,
        HOLDS if all_certified else FAILS,
        {"slimit_pass": True, "coarse_classes": per_class},
        tuple(witnesses),
    )


def verify_initial_classes_shadow(
    system,
    delta,
    eps,
    *,
    allow_noninvertible: bool = False,
    state_cap=None,
) -> TheoremResult:
    """Under a passing slimit check, the invariant core of every initial
    class must have the shadowing property.

    Requires an invertible system unless ``allow_noninvertible`` is set;
    finite systems with transients cannot be bijections, so the harness
    runs the same check on them with the relaxation recorded. For
    invertible systems the initial flags are cross-checked against the
    terminal classes of the inverse map's graph at the same resolution;
    the two scale collapses can genuinely differ, so a mismatch is
    reported but does not fail the theorem.
    """
    delta = parse_nonnegative(delta)
    eps = parse_nonnegative(eps)
    if not system.invertible and not allow_noninvertible:
        raise NotInvertible("system is not invertible; pass allow_noninvertible=True")
    params = _params(delta=delta, eps=eps)
    slimit = check_slimit_property(system, delta, eps, state_cap=state_cap)
    if not slimit.passed:
        return TheoremResult(INITIAL_CLASSES, params, VACUOUS, {"slimit_pass": False})
    dec = decompose(build_delta_graph(system, delta))
    initial = dec.initial_classes()
    details: dict = {
        "slimit_pass": True,
        "invertible": system.invertible,
        "initial_classes": list(initial),
        "degenerate": [],
    }
    if system.invertible:
        details["inverse_cross_check"] = _inverse_cross_check(system, delta, dec)
    else:
        details["inverse_cross_check"] = None
    status, witnesses = _check_class_cores(
        system, dec, initial, delta, eps, state_cap, details
    )
    return TheoremResult(INITIAL_CLASSES, params, status, details, witnesses)


def verify_isolated_implies_shadowing(
    system, delta, eps, *, state_cap=None
) -> TheoremResult:
    """Under a passing full-system shadowing check, every class separated
    from all others by more than 2*eps + delta must pass the restricted
    shadowing check on its invariant core.

    The margin guarantees that pseudo-orbits started in the class, and
    their shadows, cannot involve any other class, which is what makes the
    restriction meaningful.
    """
    delta = parse_nonnegative(delta)
    eps = parse_nonnegative(eps)
    params = _params(delta=delta, eps=eps)
    full = check_shadowing_property(system, delta, eps, state_cap=state_cap)
    if not full.passed:
        return TheoremResult(ISOLATED_CLASSES, params, VACUOUS, {"shadowing_pass": False})
    margin = 2 * eps + delta
    dec = decompose(build_delta_graph(system, delta))
    isolated = [
        i
        for i, sep in enumerate(dec.separation)
        if sep is None or sep > margin
    ]
    details: dict = {
        "shadowing_pass": True,
        "margin": format_rational(margin),
        "isolated_classes": isolated,
        "degenerate": [],
    }
    status, witnesses = _check_class_cores(
        system, dec, isolated, delta, eps, state_cap, details
    )
    return TheoremResult(ISOLATED_CLASSES, params, status, details, witnesses)


@dataclass(frozen=True)
class SlimitViolation:
    """A failing slimit witness plus how closely it matches the canonical
    counterexample shape: a start outside the recurrent set whose tail
    orbit lives in an initial class."""

    orbit: PseudoOrbit
    starts_outside_cr: bool
    tail_class_initial: bool | None

    def to_json(self) -> dict:
        return {
            "orbit": self.orbit.to_json(),
            "starts_outside_cr": self.starts_outside_cr,
            "tail_class_initial": self.tail_class_initial,
        }


def find_slimit_violation(
    system, delta, eps, *, state_cap=None
) -> SlimitViolation | None:
    """Canonical slimit counterexample at (delta, eps), if one exists."""
    delta = parse_nonnegative(delta)
    eps = parse_nonnegative(eps)
    verdict = check_slimit_property(system, delta, eps, state_cap=state_cap)
    if verdict.passed:
        return None
    orbit = verdict.witness
    assert orbit is not None and orbit.tail_start is not None
    dec = decompose(build_delta_graph(system, delta))
    start_cls = dec.class_of(orbit.points[0])
    tail_cls = dec.class_of(orbit.points[orbit.tail_start])
    return SlimitViolation(
        orbit,
        starts_outside_cr=start_cls is None,
        tail_class_initial=None if tail_cls is None else dec.is_initial(tail_cls),
    )


# ---------------------------------------------------------------------------
# harness orchestration


class GridEntry(NamedTuple):
    delta_coarse: Fraction
    delta_fine: Fraction
    eps: Fraction


def default_grid(system: FiniteMetricSystem) -> tuple[GridEntry, ...]:
    """A small parameter grid derived from the system's distance values."""
    values = system.distance_values
    if not values:
        zero = Fraction(0)
        return (GridEntry(zero, zero, zero),)
    smallest = values[0]
    largest = values[-1]
    middle = values[len(values) // 2]
    fine = sorted({smallest / 2, smallest, middle, largest})
    return tuple(GridEntry(largest, v, v) for v in fine)


@dataclass(frozen=True)
class HarnessReport:
    system_name: str
    entries: tuple[GridEntry, ...]
    results: tuple[tuple[TheoremResult, ...], ...]
    violations: tuple[SlimitViolation | None, ...]

    @property
    def nonvacuous_failures(self) -> int:
        return sum(
            1
            for bundle in self.results
            for result in bundle
            if result.is_nonvacuous_failure
        )

    def to_json(self) -> dict:
        entries = []
        for entry, bundle, violation in zip(self.entries, self.results, self.violations):
            entries.append(
                {
                    "delta_coarse": format_rational(entry.delta_coarse),
                    "delta_fine": format_rational(entry.delta_fine),
                    "eps": format_rational(entry.eps),
                    "results": [r.to_json() for r in bundle],
                    "slimit_violation": None if violation is None else violation.to_json(),
                }
            )
        return {
            "system": self.system_name,
            "entries": entries,
            "nonvacuous_failures": self.nonvacuous_failures,
        }


def run_harness(
    system,
    name: str = "system",
    grid=None,
    *,
    state_cap=None,
) -> HarnessReport:
    """Run every theorem analog over a parameter grid."""
    if grid is None:
        grid = default_grid(system)
    entries = tuple(
        GridEntry(
            parse_nonnegative(e[0]), parse_nonnegative(e[1]), parse_nonnegative(e[2])
        )
        for e in grid
    )
    for entry in entries:
        if entry.delta_fine > entry.delta_coarse:
            raise BadParams("grid entries need delta_fine <= delta_coarse")
    results = []
    violations = []
    for coarse, fine, eps in entries:
        bundle = (
            verify_slimit_implies_shadowing(system, fine, eps, state_cap=state_cap),
            verify_shadowing_class_denseness(
                system, coarse, fine, eps, state_cap=state_cap
            ),
            verify_initial_classes_shadow(
                system, fine, eps, allow_noninvertible=True, state_cap=state_cap
            ),
            verify_isolated_implies_shadowing(system, fine, eps, state_cap=state_cap),
        )
        results.append(bundle)
        violations.append(find_slimit_violation(system, fine, eps, state_cap=state_cap))
    return HarnessReport(name, entries, tuple(results), tuple(violations))


# ---------------------------------------------------------------------------
# helpers


def _params(**values: Fraction) -> dict:
    return {key: format_rational(val) for key, val in values.items()}


def _check_class_cores(
    system, dec: ChainDecomposition, indices, delta, eps, state_cap, details: dict
) -> tuple[str, tuple[PseudoOrbit, ...]]:
    """Run the restricted shadowing check on the invariant core of each
    listed class.

    Classes with an empty core go to ``details["degenerate"]``; the others
    are listed under ``details["checked"]``. Returns the status and the
    witnesses of the failing classes.
    """
    witnesses: list[PseudoOrbit] = []
    checked = []
    for i in indices:
        core = invariant_core(system, dec.classes[i])
        if not core:
            details["degenerate"].append(i)
            continue
        verdict = check_shadowing_property(
            system, delta, eps, domain=core, state_cap=state_cap
        )
        checked.append({"class": i, "pass": verdict.passed})
        if not verdict.passed:
            witnesses.append(verdict.witness)
    details["checked"] = checked
    return (FAILS if witnesses else HOLDS), tuple(witnesses)


def _maximal_first(dec: ChainDecomposition, subset: list[int]) -> list[int]:
    """Order a subset of classes maximal-first under the class order
    restricted to that subset."""
    maximal = [
        j
        for j in subset
        if not any(class_order(dec, j, k) for k in subset if k != j)
    ]
    rest = [j for j in subset if j not in maximal]
    return maximal + rest


def _inverse_cross_check(system, delta: Fraction, dec: ChainDecomposition) -> bool:
    """Compare initial classes of the map with terminal classes of its
    inverse at the same resolution (point sets, not indices)."""
    inverse = [0] * system.n
    for p, q in enumerate(system.map):
        inverse[q] = p
    reversed_system = FiniteMetricSystem(
        system.n, system.dist, tuple(inverse), invertible=True
    )
    rev_dec = decompose(build_delta_graph(reversed_system, delta))
    initial_sets = {dec.classes[i] for i in dec.initial_classes()}
    terminal_sets = {rev_dec.classes[i] for i in rev_dec.terminal_classes()}
    return initial_sets == terminal_sets
