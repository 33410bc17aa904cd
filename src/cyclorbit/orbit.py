"""Reduction of orbit instances to congruence systems, and the full decision.

g^x v = w holds iff on every cycle of g the projection of w is the
projection of v rotated right x times, and every index g fixes already
agrees.  The admissible rotation counts on one k-cycle, found by string
matching in the doubled projection, always form (a_i + b_i Z) restricted to
[0, k) with b_i | k, so each cycle contributes one congruence
x = a_i (mod b_i) and the orbit question becomes solvability of the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne

from .congruence import (
    ArithmeticProgression,
    CongruenceSystem,
    CostCounter,
    clip,
    solve_system,
)
from .permutation import Configuration, Permutation, apply_power, check_configuration, project
from .strmatch import rotation_exponents


@dataclass(frozen=True)
class OrbitAnswer:
    """Outcome of an orbit decision: either no exponent works, or the full
    exponent set (an arithmetic progression) with its smallest member."""

    in_orbit: bool
    solutions: ArithmeticProgression | None = None

    def __post_init__(self):
        if self.in_orbit:
            if self.solutions is None or self.solutions.is_empty:
                raise ValueError("a positive answer needs a nonempty solution set")
        elif self.solutions is not None:
            raise ValueError("a negative answer carries no solution set")

    @property
    def witness(self) -> int | None:
        """The smallest exponent r with g^r v = w, None when not in orbit."""
        return None if self.solutions is None else self.solutions.offset

    def __str__(self):
        if not self.in_orbit:
            return "NO"
        return f"YES r={self.witness} solutions={self.solutions.offset}+{self.solutions.period}Z"


NOT_IN_ORBIT = OrbitAnswer(False)

# turns a moved mask into a fixed-point mask
_FIXED = bytes.maketrans(b"\0\1", b"\1\0")


def reduce(
    g: Permutation,
    v: Configuration,
    w: Configuration,
    counter: CostCounter | None = None,
) -> CongruenceSystem | None:
    """One congruence per cycle of g, or None when no exponent can work.

    None is returned as soon as either a fixed point of g disagrees between
    v and w or some cycle admits no rotation at all.  With multiple
    admissible rotations on a cycle the emitted modulus is their common gap,
    which divides the cycle length.
    """
    check_configuration(g, v, w)
    fixed = g.moved_mask().translate(_FIXED)
    if counter is not None:
        counter.add_word_ops(g.n)
    if any(map(ne, compress(v, fixed), compress(w, fixed))):
        return None
    equations = []
    for c in g.cycles:
        k = len(c)
        vc = project(v, c)
        wc = project(w, c)
        if counter is not None:
            counter.add_word_ops(2 * k)
        exponents = rotation_exponents(vc, wc, counter)
        if not exponents:
            return None
        a_i = exponents[0]
        b_i = exponents[1] - a_i if len(exponents) > 1 else k
        # the admissible rotations of one cycle are evenly spaced and the gap
        # divides k; read against a range, so no second k-long tuple is built
        if (
            b_i < 1
            or k % b_i
            or len(exponents) != len(r := range(a_i, k, b_i))
            or any(map(ne, exponents, r))
        ):
            raise RuntimeError(
                f"rotations {clip(exponents)} of a {k}-cycle are not a progression"
            )
        if counter is not None:
            counter.charge(a_i, b_i)
        equations.append((a_i, b_i))
    return CongruenceSystem(tuple(equations))


def decide_orbit(
    g: Permutation,
    v: Configuration,
    w: Configuration,
    counter: CostCounter | None = None,
) -> OrbitAnswer:
    """Decide whether w is in the <g>-orbit of v; on yes, return every exponent."""
    system = reduce(g, v, w, counter)
    if system is None:
        return NOT_IN_ORBIT
    solutions = solve_system(system, counter)
    if solutions.is_empty:
        return NOT_IN_ORBIT
    answer = OrbitAnswer(True, solutions)
    if apply_power(g, answer.witness, v) != w:
        raise RuntimeError(f"witness r={clip(answer.witness)} does not carry v to w")
    return answer
