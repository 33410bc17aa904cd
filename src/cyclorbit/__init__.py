"""Orbit decisions for cyclic permutation groups, in time linear in the input.

Deciding whether some power of a permutation g maps configuration v to
configuration w reduces, cycle by cycle, to string matching, and from there
to a system of linear congruences; the full exponent set is always an
arithmetic progression (or empty).  The package bundles the reduction, two
congruence solvers, brute-force oracles, scaling benchmarks on a family
whose group order grows exponentially, and exact combinatorics for the
average number of equations the reduction emits.

__all__ is the public surface: the decision and its pieces (reduce,
rotation_exponents, solve_system, decide_solvable), their oracles, the
types they take and return, and the measurements.  The kernels and tables
behind them (extended_gcd, factorize, CoprimeBase, StirlingTable, ...)
are imported from their modules.  A checked argument of the wrong type
raises TypeError, and one out of range ValueError.
"""

from .congruence import (
    EMPTY,
    ArithmeticProgression,
    CongruenceSystem,
    CostCounter,
    SystemFormatError,
    naive_intersection,
    progression,
    solve_system,
)
from .permutation import (
    Cycle,
    CycleNotationError,
    Permutation,
    apply,
    apply_power,
    format_permutation,
    order,
    parse_permutation,
    primorial_permutation,
    project,
)
from .analysis import (
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
from .crt_solver import CrtStats, decide_solvable
from .oracle import OrderBoundExceeded, brute_force_orbit
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
    "CongruenceSystem",
    "CostCounter",
    "CrtStats",
    "Cycle",
    "CycleNotationError",
    "OrbitAnswer",
    "OrderBoundExceeded",
    "Permutation",
    "SystemFormatError",
    "apply",
    "apply_power",
    "brute_force_orbit",
    "decide_orbit",
    "decide_solvable",
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
