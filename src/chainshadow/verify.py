"""Finite-scale theorem harness.

Each check is a conditional: its hypothesis is probed first and a failed
hypothesis yields an explicit ``vacuous`` status so that vacuous truth is
never counted as evidence. The harness searches the whole system only:
three facts answer the checks on class cores (``tests/small_scope.py``
checks each law on every map of up to four points).

- (S0) slimit at (delta, eps) on a domain implies shadowing there: a
  state with no candidate misses every merge set.
- (S) whole-system slimit at (delta, eps) implies shadowing at (delta,
  eps) on every nonempty forward-invariant set inside the
  delta-chain-recurrent set, so on every class core. Put n steps around a
  delta-cycle through the start of a pseudo-orbit in the set before it,
  and its last point's orbit after it: a shadow that merges into that
  orbit is on that point's cycle after n steps, so its n-th image lies in
  the set and shadows the pseudo-orbit.
- (I) whole-system shadowing at (delta, eps) implies shadowing on the
  core of every class whose separation exceeds eps: as for (S), with 2n
  steps in front, the shadow's 2n-th image is periodic, and each point of
  its cycle is chain recurrent and within eps of the class, so in it.

So every check holds or is vacuous, except that
``shadowing_class_denseness`` fails, with no witness, on a coarse class
that holds no fine class or only fine classes with empty cores, as on
both entries of ``verify --gen north-south:8 --deltas 7/32,3/16 --eps
1/2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .bits import mask_of
from .chain import (
    ChainDecomposition,
    _isolated,
    build_delta_graph,
    decompose,
    invariant_core,
)
from .errors import BadParams
from .rational import check_collection, format_rational, parse_nonnegative
from .shadow import (
    DEFAULT_STATE_CAP,
    PseudoOrbit,
    ShadowVerdict,
    _decide,
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


class _Answers:
    """The whole-system verdicts and the decompositions of one system, each
    computed on first use and read back after that.

    Each ``run_harness`` call makes one and shares it across its grid. It
    holds no verdict on a class core: (S) and (I) give those from the
    whole-system verdicts. The ball and image tables its searches read
    are the system's own, so they outlive the object. Every verdict comes
    from a decider looked up as a module global each time it runs, so a
    caller that swaps the deciders sees every question, including those
    that ``_decide`` answers without a search. The memo keys radii by
    their integer ratios, so a lookup hashes no Fraction.

    The whole-system searches of ``both`` stop at the first failing states
    of each property (``_decide`` in witness mode), so the
    ``states_explored`` of a failing verdict is where its search stopped,
    not the full count of that level; no report reads it.
    """

    def __init__(self, system: FiniteMetricSystem, state_cap):
        self.system = system
        self.state_cap = state_cap
        self.memo: dict = {}

    def verdict(self, check: str, delta, eps) -> ShadowVerdict:
        """The whole-system ``"slimit"`` or ``"shadowing"`` verdict at
        (delta, eps)."""
        key = (check, delta.as_integer_ratio(), eps.as_integer_ratio())
        verdict = self.memo.get(key)
        if verdict is None:
            decide = check_slimit_property if check == "slimit" else check_shadowing_property
            verdict = self.memo[key] = decide(self.system, delta, eps, state_cap=self.state_cap)
        return verdict

    def both(self, delta, eps) -> tuple[ShadowVerdict, ShadowVerdict]:
        """The whole-system slimit and shadowing verdicts at (delta, eps),
        from one BFS when neither is known yet."""
        ratios = delta.as_integer_ratio(), eps.as_integer_ratio()
        keys = (("slimit", *ratios), ("shadowing", *ratios))
        if not any(key in self.memo for key in keys):
            props = ("slimit", "shadowing")
            verdicts = _decide(self.system, delta, eps, None, self.state_cap, props, False)
            self.memo.update(zip(keys, verdicts))
        return self.verdict("slimit", delta, eps), self.verdict("shadowing", delta, eps)

    def decomposition(self, delta) -> ChainDecomposition:
        key = ("decompose", delta.as_integer_ratio())
        if key not in self.memo:
            self.memo[key] = decompose(build_delta_graph(self.system, delta))
        return self.memo[key]


def _slimit_implies_shadowing(ans: _Answers, delta, eps) -> TheoremResult:
    """slimit passing at (delta, eps) must force shadowing to pass too, as
    (S0) says it does: this compares the two whole-system searches."""
    slimit, shadowing = ans.both(delta, eps)
    broken = slimit.passed and not shadowing.passed
    witness = shadowing.witness if broken else None
    return TheoremResult(
        SLIMIT_IMPLIES_SHADOWING,
        _params(delta=delta, eps=eps),
        FAILS if broken else HOLDS,
        {"slimit_pass": slimit.passed, "shadowing_pass": shadowing.passed},
        () if witness is None else (witness,),
    )


def _class_denseness(ans: _Answers, delta_coarse, delta_fine, eps) -> TheoremResult:
    """Under a passing slimit check at (delta_fine, eps), every coarse
    class must contain a fine class whose invariant core has the shadowing
    property.

    By (S), that slimit check gives every nonempty fine core the shadowing
    property. So the certifier of a coarse class is the first fine class
    inside it, maximal-first under the fine class order, whose core is
    nonempty; the empty-core classes tried before it are listed as
    degenerate. A coarse class that holds no fine class, or only fine
    classes with empty cores, has no certifier, and the check fails with
    no witness.
    """
    params = _params(delta_coarse=delta_coarse, delta_fine=delta_fine, eps=eps)
    if not ans.verdict("slimit", delta_fine, eps).passed:
        return TheoremResult(CLASS_DENSENESS, params, VACUOUS, {"slimit_pass": False})
    coarse = ans.decomposition(delta_coarse)
    fine = ans.decomposition(delta_fine)
    per_class = []
    for i, coarse_cls in enumerate(coarse.classes):
        inside = [j for j, cls in enumerate(fine.classes) if cls <= coarse_cls]
        entry = {"coarse": i, "fine_classes": inside, "certifier": None, "degenerate": []}
        per_class.append(entry)
        for j in _maximal_first(fine, inside):
            if invariant_core(ans.system, fine.classes[j]):
                entry["certifier"] = j
                break
            entry["degenerate"].append(j)
    certified = all(entry["certifier"] is not None for entry in per_class)
    return TheoremResult(
        CLASS_DENSENESS,
        params,
        HOLDS if certified else FAILS,
        {"slimit_pass": True, "coarse_classes": per_class},
    )


def _initial_classes_shadow(ans: _Answers, delta, eps) -> TheoremResult:
    """Under a passing slimit check, the invariant core of every initial
    class must have the shadowing property, as (S) says it has.

    Finite systems with transients cannot be bijections, so the check runs
    on any system and records whether it is invertible. For an invertible
    system, ``inverse_cross_check`` records that the initial classes are
    the terminal classes of the inverse map's delta graph at the same
    resolution, as point sets. That holds by two steps, given a symmetric
    table (which construction checks) and a bijective map (which
    ``invertible`` means), so it is not computed:

    - the inverse's graph H is f applied to the reverse of f's graph G:
      f(a) -> f(b) is an edge of H iff d(a, f(b)) <= delta, iff b -> a is
      an edge of G, so f(C) is a terminal class of H iff C is an initial
      class of G;
    - f(C) = C: every point of a bijection is periodic, so at every delta
      the exact edges p -> f(p) -> ... -> p close a cycle, and p and f(p)
      share a class.
    """
    params = _params(delta=delta, eps=eps)
    if not ans.verdict("slimit", delta, eps).passed:
        return TheoremResult(INITIAL_CLASSES, params, VACUOUS, {"slimit_pass": False})
    dec = ans.decomposition(delta)
    initial = dec.initial_classes()
    details: dict = {
        "slimit_pass": True,
        "invertible": ans.system.invertible,
        "initial_classes": list(initial),
        "degenerate": [],
        "inverse_cross_check": True if ans.system.invertible else None,
    }
    return _check_class_cores(ans, INITIAL_CLASSES, params, dec, initial, details)


def _isolated_implies_shadowing(ans: _Answers, delta, eps) -> TheoremResult:
    """Under a passing full-system shadowing check, the invariant core of
    every class separated from all others by more than 2*eps + delta must
    have the shadowing property.

    By (I), a separation above eps already gives every such core the
    property, so the margin asks for more than the law needs.
    """
    params = _params(delta=delta, eps=eps)
    if not ans.verdict("shadowing", delta, eps).passed:
        return TheoremResult(ISOLATED_CLASSES, params, VACUOUS, {"shadowing_pass": False})
    # delta and eps are parsed Fractions, so the margin is one too.
    margin = 2 * eps + delta
    dec = ans.decomposition(delta)
    isolated = [i for i, sep in enumerate(dec.separation) if _isolated(sep, margin)]
    details: dict = {
        "shadowing_pass": True,
        "margin": format_rational(margin),
        "isolated_classes": isolated,
        "degenerate": [],
    }
    return _check_class_cores(ans, ISOLATED_CLASSES, params, dec, isolated, details)


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


def _slimit_violation(ans: _Answers, delta, eps) -> SlimitViolation | None:
    """Canonical slimit counterexample at (delta, eps), if one exists."""
    verdict = ans.verdict("slimit", delta, eps)
    if verdict.passed:
        return None
    orbit = verdict.witness
    assert orbit is not None and orbit.tail_start is not None
    dec = ans.decomposition(delta)
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
    """A small parameter grid derived from the system's distance values.
    Only the three that it reads become Fractions."""
    ints = system._metric.distance_ints
    if not ints:
        zero = Fraction(0)
        return (GridEntry(zero, zero, zero),)
    smallest, middle, largest = (system._values[ints[i]] for i in (0, len(ints) // 2, -1))
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
        return sum(r.is_nonvacuous_failure for bundle in self.results for r in bundle)

    def to_json(self) -> dict:
        entries = [
            {
                "delta_coarse": format_rational(entry.delta_coarse),
                "delta_fine": format_rational(entry.delta_fine),
                "eps": format_rational(entry.eps),
                "results": [r.to_json() for r in bundle],
                "slimit_violation": None if violation is None else violation.to_json(),
            }
            for entry, bundle, violation in zip(self.entries, self.results, self.violations)
        ]
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
    state_cap=DEFAULT_STATE_CAP,
) -> HarnessReport:
    """Run every theorem analog over a parameter grid."""
    if grid is None:
        grid = default_grid(system)
    entries = check_collection("grid", grid)
    if not all(isinstance(e, (tuple, list)) and len(e) == 3 for e in entries):
        raise BadParams("grid must be a collection of (delta_coarse, delta_fine, eps) entries")
    entries = tuple(GridEntry(*_rationals(*e)) for e in entries)
    for entry in entries:
        if entry.delta_fine > entry.delta_coarse:
            raise BadParams("grid entries need delta_fine <= delta_coarse")
    ans = _Answers(system, state_cap)
    results = []
    violations = []
    for coarse, fine, eps in entries:
        bundle = (
            _slimit_implies_shadowing(ans, fine, eps),
            _class_denseness(ans, coarse, fine, eps),
            _initial_classes_shadow(ans, fine, eps),
            _isolated_implies_shadowing(ans, fine, eps),
        )
        results.append(bundle)
        violations.append(_slimit_violation(ans, fine, eps))
    return HarnessReport(name, entries, tuple(results), tuple(violations))


# ---------------------------------------------------------------------------
# helpers


def _rationals(*values) -> tuple[Fraction, ...]:
    return tuple(parse_nonnegative(v) for v in values)


def _params(**values: Fraction) -> dict:
    return {key: format_rational(val) for key, val in values.items()}


def _check_class_cores(
    ans: _Answers, theorem, params, dec: ChainDecomposition, indices, details
) -> TheoremResult:
    """The theorem, holding, for the listed classes: the caller's
    hypothesis gives each nonempty core the shadowing property, by (S) or
    (I). Classes with an empty core go to ``details["degenerate"]``; the
    others are listed as passing under ``details["checked"]``."""
    checked = []
    for i in indices:
        if invariant_core(ans.system, dec.classes[i]):
            checked.append({"class": i, "pass": True})
        else:
            details["degenerate"].append(i)
    details["checked"] = checked
    return TheoremResult(theorem, params, HOLDS, details)


def _maximal_first(dec: ChainDecomposition, subset: list[int]) -> list[int]:
    """Order a subset of classes maximal-first under the class order
    restricted to that subset."""
    # Class j lies below another class of the subset when one of them reaches
    # it (class_above is strict); a stable sort on that puts the maximal first.
    mask = mask_of(subset)
    return sorted(subset, key=lambda j: dec.class_above[j] & mask != 0)
