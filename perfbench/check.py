"""Correctness gate: each answer against what its input was built to have.

A check returns None for a right answer and a one-line reason otherwise.
It uses only the generator's records and the benchmark's own index
arithmetic, never cyclorbit.
"""

from __future__ import annotations

import numpy as np

from workloads import OrbitCase, SystemCase, power


def check_orbit(case: OrbitCase, answer) -> str | None:
    """answer is [in_orbit, witness, period] as decide_orbit gave it."""
    in_orbit, witness, period = answer
    if case.r_star is None:
        return f"YES on a {case.kind} instance" if in_orbit else None
    if not in_orbit:
        return f"NO on a {case.kind} instance"
    if not 0 <= witness < period:
        return f"witness {witness} outside [0, {period})"
    if (case.r_star - witness) % period:
        return f"planted r*={case.r_star} not in {witness}+{period}Z"
    if period != case.period:
        return f"period {period}, expected {case.period}"
    if not np.array_equal(power(case.cycles, case.v, witness), case.w):
        return f"witness {witness} does not map v to w"
    return None


def check_system(case: SystemCase, answer) -> str | None:
    """answer is [offset, period, solvable]: solve_system's progression (both
    None when EMPTY) and decide_solvable's verdict."""
    offset, period, solvable = answer
    empty = period is None
    if solvable == empty:
        return f"decide_solvable says {solvable} but solve_system {'is' if empty else 'is not'} EMPTY"
    if case.x_star is None:
        return None if empty else "a solution set for a system with a forced conflict"
    if empty:
        return "EMPTY for a system with a planted solution"
    if not 0 <= offset < period:
        return f"offset {offset} outside [0, {period})"
    if (case.x_star - offset) % period:
        return "planted solution not in the solution set"
    if period != case.lcm:
        return "period is not the lcm of the moduli"
    return None


def check(case, answer) -> str | None:
    if isinstance(answer, dict):
        return f"raised {answer['error']}"
    if isinstance(case, OrbitCase):
        return check_orbit(case, answer)
    return check_system(case, answer)
