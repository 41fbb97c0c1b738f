"""Exact chain-recurrence and shadowing analysis for finite metric systems.

The package decides, at chosen resolutions, which points of a finite
dynamical system are chain recurrent, how they split into components, and
whether coarse pseudo-orbits can be tracked by true orbits (shadowing) or
tracked with eventually vanishing error (slimit shadowing), extracting
concrete counterexample pseudo-orbits when they cannot.
"""

from .chain import (
    ChainDecomposition,
    DeltaGraph,
    DeltaLadder,
    build_delta_graph,
    decompose,
    decomposition_dot,
    decomposition_report,
    hausdorff_distance,
    invariant_core,
    refine_ladder,
)
from .errors import (
    BadParams,
    ChainShadowError,
    DomainNotInvariant,
    EmptyDomain,
    EmptySet,
    Inconclusive,
    InvalidSystem,
    KindMismatch,
    NotDecreasing,
    TooLarge,
    UnknownGenerator,
    Violation,
)
from .rational import format_rational, parse_rational
from .shadow import (
    OracleVerdict,
    OrbitViolation,
    PseudoOrbit,
    ShadowVerdict,
    brute_force_oracle,
    check_shadowing_property,
    check_slimit_property,
    first_violation,
    is_limit_shadowed,
    is_shadowed,
    validate_pseudo_orbit,
)
from .system import (
    FiniteMetricSystem,
    build_corpus_system,
    cantor_identity,
    doubling,
    generator_names,
    load_system,
    make_system,
    north_south,
    parallel_cycles,
    parse_generator_string,
    rotation,
    tent,
    validate_system,
)
from .verify import (
    FAILS,
    HOLDS,
    VACUOUS,
    GridEntry,
    HarnessReport,
    SlimitViolation,
    TheoremResult,
    default_grid,
    run_harness,
)

__version__ = "0.1.0"
