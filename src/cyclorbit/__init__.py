"""Orbit decisions for cyclic permutation groups, in time linear in the input.

Deciding whether some power of a permutation g maps configuration v to
configuration w reduces, cycle by cycle, to string matching, and from there
to a system of linear congruences; the full exponent set is always an
arithmetic progression (or empty).  The package bundles the reduction, two
congruence solvers, brute-force oracles, scaling benchmarks on a family
whose group order grows exponentially, and exact combinatorics for the
average number of equations the reduction emits.
"""

from .congruence import (
    EMPTY,
    ArithmeticProgression,
    CongruenceSystem,
    CostCounter,
    SystemFormatError,
    extended_gcd,
    naive_intersection,
    progression,
    solve_system,
)
from .permutation import (
    Configuration,
    Cycle,
    CycleNotationError,
    Permutation,
    apply,
    apply_power,
    first_primes,
    format_permutation,
    order,
    parse_permutation,
    primorial_permutation,
    project,
)
from .analysis import (
    StirlingTable,
    asymptotic_ratio_report,
    cycle_count_moments,
    fit_polylog_exponent,
    harmonic_values,
    measure_average_cost,
    verify_moment_identities,
)
from .bench import (
    instance_size_bits,
    ratio_band,
    run_primes_then_pairs_scaling,
    run_primorial_scaling,
    run_random_scaling,
)
from .crt_solver import (
    CoprimeBase,
    CrtStats,
    PowerEquation,
    decide_solvable,
    factorize,
)
from .oracle import (
    OrderBoundExceeded,
    brute_force_cycle_solutions,
    brute_force_orbit,
)
from .orbit import NOT_IN_ORBIT, OrbitAnswer, decide_orbit, reduce
from .strmatch import rotate_right, rotation_exponents

__version__ = "0.1.0"

# Every kernel is plain Python; callers that record the backend read this.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "EMPTY",
    "NOT_IN_ORBIT",
    "ArithmeticProgression",
    "Configuration",
    "CongruenceSystem",
    "CoprimeBase",
    "CostCounter",
    "CrtStats",
    "Cycle",
    "CycleNotationError",
    "OrbitAnswer",
    "OrderBoundExceeded",
    "Permutation",
    "PowerEquation",
    "StirlingTable",
    "SystemFormatError",
    "apply",
    "apply_power",
    "asymptotic_ratio_report",
    "brute_force_cycle_solutions",
    "brute_force_orbit",
    "cycle_count_moments",
    "decide_orbit",
    "decide_solvable",
    "extended_gcd",
    "factorize",
    "first_primes",
    "fit_polylog_exponent",
    "format_permutation",
    "harmonic_values",
    "instance_size_bits",
    "measure_average_cost",
    "naive_intersection",
    "order",
    "parse_permutation",
    "primorial_permutation",
    "progression",
    "project",
    "ratio_band",
    "reduce",
    "rotate_right",
    "rotation_exponents",
    "run_primes_then_pairs_scaling",
    "run_primorial_scaling",
    "run_random_scaling",
    "solve_system",
    "verify_moment_identities",
    "__version__",
]
