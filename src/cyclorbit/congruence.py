"""Arithmetic progressions and solvers for systems of linear congruences.

The solution set of any conjunction of congruences x = a_i (mod b_i) is
either empty or a single arithmetic progression a + bZ.  solve_system folds
the equations into that form one at a time; each step solves one linear
congruence via the extended Euclidean algorithm.  naive_intersection is the
deliberately dumb oracle the solver is tested against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

WORD_BITS = 64


class CostCounter:
    """Tallies word operations and the widest operand seen.

    One arithmetic operation on B-bit operands is charged ceil(B / 64)
    units, so work on multi-word integers is billed proportionally to their
    width.  add_word_ops charges flat units for symbol-level work.
    """

    __slots__ = ("word_ops", "max_bits")

    def __init__(self):
        self.word_ops = 0
        self.max_bits = 0

    def charge(self, *operands: int):
        bits = 1
        for x in operands:
            b = x.bit_length()
            if b > bits:
                bits = b
        self.word_ops += (bits + WORD_BITS - 1) // WORD_BITS
        if bits > self.max_bits:
            self.max_bits = bits

    def add_word_ops(self, units: int):
        self.word_ops += units

    def observe(self, *values: int):
        """Track operand width without charging an operation."""
        for x in values:
            b = x.bit_length()
            if b > self.max_bits:
                self.max_bits = b

    def __repr__(self):
        return f"CostCounter(word_ops={self.word_ops}, max_bits={self.max_bits})"


@dataclass(frozen=True)
class ArithmeticProgression:
    """The set offset + period * Z, or the empty set when both fields are None.

    Nonempty progressions are canonical: period >= 1 and 0 <= offset < period.
    """

    offset: int | None
    period: int | None

    def __post_init__(self):
        if (self.offset is None) != (self.period is None):
            raise ValueError("offset and period must be both set or both None")
        if self.period is not None:
            if self.period < 1:
                raise ValueError(f"period must be >= 1, got {self.period}")
            if not 0 <= self.offset < self.period:
                raise ValueError(
                    f"offset {self.offset} not in [0, {self.period})"
                )

    @property
    def is_empty(self) -> bool:
        return self.period is None

    def __contains__(self, x: int) -> bool:
        if self.is_empty:
            return False
        return (x - self.offset) % self.period == 0

    def __str__(self):
        if self.is_empty:
            return "EMPTY"
        return f"{self.offset} + {self.period} Z"


EMPTY = ArithmeticProgression(None, None)


def progression(offset: int, period: int) -> ArithmeticProgression:
    """The progression offset + period * Z with the offset reduced into [0, period)."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    return ArithmeticProgression(offset % period, period)


_CLIP = 40


def clip(value) -> str:
    """str(value) for an error message, cut off past 40 characters and counted;
    an int past the digit limit is named by its bit length, so clip never raises."""
    try:
        text = str(value)
    except ValueError:  # past the interpreter's int digit limit
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return text if len(text) <= _CLIP else f"{text[:_CLIP]}... ({len(text)} characters)"


def parse_int(token: str, what: str) -> int:
    """int(token), or a ValueError that names what and echoes at most a
    clipped token.  A decimal past the interpreter's digit limit is reported
    by its digit count."""
    try:
        return int(token)
    except ValueError:
        pass
    digits = token.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if digits.isdecimal():
        raise ValueError(
            f"{what} has {len(digits)} digits, more than the "
            f"{sys.get_int_max_str_digits()} allowed"
        )
    raise ValueError(f"{what} must be an integer, got {clip(repr(token))}")


class SystemFormatError(ValueError):
    """Malformed congruence-system text; line is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CongruenceSystem:
    """A conjunction of congruences x = a_i (mod b_i), each with 0 <= a_i < b_i."""

    equations: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for a, b in self.equations:
            if b < 1:
                raise ValueError(f"modulus must be >= 1, got {b}")
            if not 0 <= a < b:
                raise ValueError(f"residue {a} not in [0, {b})")

    def __iter__(self):
        return iter(self.equations)

    def __len__(self):
        return len(self.equations)

    def satisfied_by(self, x: int) -> bool:
        return all((x - a) % b == 0 for a, b in self.equations)

    @classmethod
    def from_text(cls, text: str) -> "CongruenceSystem":
        """Parse lines of the form "a mod b"; blank lines and # comments are skipped."""
        eqs = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[1] != "mod":
                raise SystemFormatError(
                    f"expected 'a mod b', got {clip(repr(line))}", lineno
                )
            try:
                a = parse_int(parts[0], "residue")
                b = parse_int(parts[2], "modulus")
            except ValueError as exc:
                raise SystemFormatError(str(exc), lineno) from None
            if b < 1:
                raise SystemFormatError(
                    f"modulus must be >= 1, got {clip(parts[2])}", lineno
                )
            if not 0 <= a < b:
                raise SystemFormatError(
                    f"residue {clip(parts[0])} not in [0, {clip(parts[2])})", lineno
                )
            eqs.append((a, b))
        return cls(tuple(eqs))

    def to_text(self) -> str:
        return "\n".join(f"{a} mod {b}" for a, b in self.equations)


def extended_gcd(a: int, b: int, counter: CostCounter | None = None):
    """(g, x, y) with a*x + b*y == g == gcd(a, b), for a, b >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        if counter is not None:
            counter.charge(old_r, r)
        q = old_r // r
        old_r, r = r, old_r - q * r
        if counter is not None:
            counter.charge(q, old_s, s)
            counter.charge(q, old_t, t)
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def solve_linear_congruence(
    a: int, b: int, n: int, counter: CostCounter | None = None
) -> ArithmeticProgression:
    """Solution set of a*x = b (mod n): empty unless gcd(a, n) divides b,
    otherwise a progression with period n / gcd(a, n)."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if counter is not None:
        counter.charge(a, n)
        counter.charge(b, n)
    a_red = a % n
    b_red = b % n
    d, x, _ = extended_gcd(a_red, n, counter)
    if counter is not None:
        counter.charge(b_red, d)
    if b_red % d != 0:
        return EMPTY
    period = n // d
    xq = x * (b_red // d)
    if counter is not None:
        counter.charge(n, d)
        counter.charge(x, b_red // d)
        counter.charge(xq, period)
    return ArithmeticProgression(xq % period, period)


def solve_system(
    system: CongruenceSystem, counter: CostCounter | None = None
) -> ArithmeticProgression:
    """Intersection of all a_i + b_i * Z, folding in one congruence at a time.

    Starting from 0 + 1Z, each step intersects the running progression
    a + bZ with the next equation by solving b*y = a_i - a (mod b_i) for
    the shift y; an unsolvable step makes the whole system EMPTY.  The empty
    system yields 0 + 1Z (every exponent).
    """
    a, b = 0, 1
    for a_i, b_i in system:
        if counter is not None:
            counter.charge(a_i, a)
        step = solve_linear_congruence(b, a_i - a, b_i, counter)
        if step.is_empty:
            return EMPTY
        if counter is not None:
            counter.charge(step.offset, b)
            counter.charge(b, step.period)
        a = step.offset * b + a
        b = b * step.period
        if counter is not None:
            counter.observe(a, b)
    return ArithmeticProgression(a, b)


def naive_intersection(
    system: CongruenceSystem, scan_bound: int = 10**6
) -> ArithmeticProgression:
    """Oracle solver: scan [0, lcm of moduli) and rebuild the set from the hits.

    Shares no code with solve_system on purpose.  Raises ValueError when the
    scan would exceed scan_bound.
    """
    span = math.lcm(*(b for _, b in system)) if len(system) else 1
    if span > scan_bound:
        raise ValueError(f"lcm {span} exceeds the scan bound {scan_bound}")
    hits = [x for x in range(span) if system.satisfied_by(x)]
    if not hits:
        return EMPTY
    if len(hits) == 1:
        return ArithmeticProgression(hits[0], span)
    d = hits[1] - hits[0]
    if span % d or hits != list(range(hits[0], span, d)):
        raise RuntimeError(f"scan hits {hits[:8]} are not one progression mod {span}")
    return ArithmeticProgression(hits[0], d)
