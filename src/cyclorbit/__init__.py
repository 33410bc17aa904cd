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
are imported from their modules.  An argument of the wrong type raises a
TypeError that names it, and an integer out of range a ValueError.

Importing the package loads only the decision path (congruence,
permutation, strmatch, orbit), and not dataclasses or inspect: its value
types are plain classes on congruence.FrozenValue.  The names of the
measurements (analysis, bench), the oracle and the coprime-base solver
(crt_solver) load their module the first time one of them is read.
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
from .orbit import NOT_IN_ORBIT, OrbitAnswer, decide_orbit, reduce
from .strmatch import rotate_right, rotation_exponents

__version__ = "0.1.0"

# Every kernel is plain Python; callers that record the backend read this.
BACKEND = "pure"

# public name -> the module that defines it, imported when the name is first read
_LAZY = {
    "fit_polylog_exponent": "analysis",
    "harmonic_values": "analysis",
    "measure_average_cost": "analysis",
    "verify_moment_identities": "analysis",
    "instance_size_bits": "bench",
    "ratio_band": "bench",
    "run_primes_then_pairs_scaling": "bench",
    "run_primorial_scaling": "bench",
    "run_random_scaling": "bench",
    "CrtStats": "crt_solver",
    "decide_solvable": "crt_solver",
    "OrderBoundExceeded": "oracle",
    "brute_force_orbit": "oracle",
}

__all__ = [
    "BACKEND",
    "EMPTY",
    "NOT_IN_ORBIT",
    "ArithmeticProgression",
    "CongruenceSystem",
    "CostCounter",
    "Cycle",
    "CycleNotationError",
    "OrbitAnswer",
    "Permutation",
    "SystemFormatError",
    "apply",
    "apply_power",
    "decide_orbit",
    "format_permutation",
    "naive_intersection",
    "order",
    "parse_permutation",
    "primorial_permutation",
    "progression",
    "project",
    "reduce",
    "rotate_right",
    "rotation_exponents",
    "solve_system",
    "__version__",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | __all__)
