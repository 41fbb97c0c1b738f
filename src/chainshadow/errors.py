"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class ChainShadowError(Exception):
    """Base class for every error raised by this package."""


@dataclass(frozen=True)
class Violation:
    """One violated system axiom; ``indices`` pins the offending entries."""

    kind: str
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.indices}"


class InvalidSystem(ChainShadowError):
    """A system description breaks a metric or map axiom."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class UnknownGenerator(ChainShadowError):
    pass


class BadParams(ChainShadowError):
    pass


class NotDecreasing(ChainShadowError):
    pass


class EmptySet(ChainShadowError):
    pass


class EmptyDomain(ChainShadowError):
    pass


class DomainNotInvariant(ChainShadowError):
    """The requested domain is not forward-invariant under the map."""


class KindMismatch(ChainShadowError):
    """A pseudo-orbit of the wrong kind was passed to a checker."""


class TooLarge(ChainShadowError):
    """The brute-force oracle guard refused an oversized instance."""


class Inconclusive(ChainShadowError):
    """Exploration hit the state cap before reaching a verdict."""

    def __init__(self, states_explored: int, cap: int):
        self.states_explored = states_explored
        self.cap = cap
        super().__init__(f"state cap {cap} exceeded after {states_explored} states")
