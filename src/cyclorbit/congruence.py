"""Arithmetic progressions and solvers for systems of linear congruences.

The solution set of any conjunction of congruences x = a_i (mod b_i) is
either empty or a single arithmetic progression a + bZ.  solve_system keeps
one residue per distinct modulus, a repeated modulus with another residue
being EMPTY at once, and folds the distinct moduli into that form in
ascending order; each step is one call of the extended Euclidean algorithm
and a shift of the running progression.  In that order the running modulus
stays a divisor of lcm(1..b_i), so for an orbit system, whose distinct
moduli sum to at most the degree, the fold is linear in the input.
naive_intersection is the deliberately dumb oracle the solver is tested
against.  at_least reads every integer argument with a lower bound in the
package: a float or a string raises TypeError, a value below the bound
ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import index

WORD_BITS = 64


@dataclass(slots=True, eq=False)
class CostCounter:
    """Tallies word operations and the widest operand seen.

    One arithmetic operation on B-bit operands is charged ceil(B / 64)
    units, so work on multi-word integers is billed proportionally to their
    width.  add_word_ops charges flat units for symbol-level work.
    """

    word_ops: int = field(default=0, init=False)
    max_bits: int = field(default=0, init=False)

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
            offset, period = _check_residue(self.offset, self.period, "offset", "period")
            object.__setattr__(self, "offset", offset)
            object.__setattr__(self, "period", period)

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
    period = at_least(period, 1, "period")
    return ArithmeticProgression(offset % period, period)


_CLIP = 40


def decimal(value: int) -> str:
    """str(value); an int past the interpreter's digit limit is named by its
    sign and bit length instead, so decimal never raises."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def clip(value) -> str:
    """str(value) for an error message, cut off past 40 characters and counted;
    an int is written by decimal, so clip never raises on an int."""
    text = decimal(value) if isinstance(value, int) else str(value)
    return text if len(text) <= _CLIP else f"{text[:_CLIP]}... ({len(text)} characters)"


def at_least(value, low: int, what: str) -> int:
    """value read with operator.index, so a float or a string raises
    TypeError; a ValueError that names what if it is below low."""
    value = index(value)
    if value < low:
        raise ValueError(f"{what} must be >= {low}, got {clip(value)}")
    return value


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


def content_lines(text: str):
    """(1-based line number, stripped line) for each line of text that is
    neither blank nor a # comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


class SystemFormatError(ValueError):
    """Malformed congruence-system text; line is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_residue(a, b, a_name: str, b_name: str) -> tuple[int, int]:
    """(a, b) read with operator.index; the one check of a residue a modulo
    b, which must be b >= 1 and 0 <= a < b."""
    b = at_least(b, 1, b_name)
    a = index(a)
    if not 0 <= a < b:
        raise ValueError(f"{a_name} {clip(a)} not in [0, {clip(b)})")
    return a, b


def _report_first_bad_equation(text: str, eqs: list[tuple[int, int]]) -> None:
    """Raise SystemFormatError for the first of eqs, parsed in order from the
    content lines of text, that fails its check; return if none does."""
    for (lineno, _), (a, b) in zip(content_lines(text), eqs):
        try:
            _check_residue(a, b, "residue", "modulus")
        except ValueError as exc:
            raise SystemFormatError(str(exc), lineno) from None


@dataclass(frozen=True)
class CongruenceSystem:
    """A conjunction of congruences x = a_i (mod b_i), each with 0 <= a_i < b_i.

    The equations are stored as read with operator.index, so a float or a
    string raises TypeError.
    """

    equations: tuple[tuple[int, int], ...]

    def __post_init__(self):
        equations = tuple(
            _check_residue(a, b, "residue", "modulus") for a, b in self.equations
        )
        object.__setattr__(self, "equations", equations)

    def __iter__(self):
        return iter(self.equations)

    def __len__(self):
        return len(self.equations)

    def satisfied_by(self, x: int) -> bool:
        return all((x - a) % b == 0 for a, b in self.equations)

    @classmethod
    def from_text(cls, text: str) -> "CongruenceSystem":
        """Parse lines of the form "a mod b"; blank lines and # comments are skipped.

        The parse loop only parses and the constructor makes the one check
        of each equation.  Every error names the first bad line: before a
        line that does not parse is reported, the equations above it are
        checked.
        """
        eqs = []
        for lineno, line in content_lines(text):
            parts = line.split()
            try:
                if len(parts) != 3 or parts[1] != "mod":
                    raise ValueError(f"expected 'a mod b', got {clip(repr(line))}")
                eqs.append((parse_int(parts[0], "residue"), parse_int(parts[2], "modulus")))
            except ValueError as exc:
                _report_first_bad_equation(text, eqs)
                raise SystemFormatError(str(exc), lineno) from None
        try:
            return cls(tuple(eqs))
        except ValueError:
            _report_first_bad_equation(text, eqs)
            raise

    def to_text(self) -> str:
        return "\n".join(f"{a} mod {b}" for a, b in self.equations)


def extended_gcd(a: int, b: int, counter: CostCounter | None = None):
    """(g, x) with g == gcd(a, b) and a*x = g (mod b), for a, b >= 0.

    Only the cofactor of a is carried: the one of b is never read.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        if counter is not None:
            counter.charge(old_r, r)
        q = old_r // r
        old_r, r = r, old_r - q * r
        if counter is not None:
            counter.charge(q, old_s, s)
        old_s, s = s, old_s - q * s
    return old_r, old_s


def solve_system(
    system: CongruenceSystem, counter: CostCounter | None = None
) -> ArithmeticProgression:
    """Intersection of all a_i + b_i * Z, folding in one distinct modulus at a time.

    system is a CongruenceSystem, whose constructor is the one check of
    each equation; the fold checks none again.  A first pass keeps one
    residue per modulus and returns EMPTY as soon as a modulus comes back
    with another residue.  Then, starting from 0 + 1Z, each distinct
    modulus in ascending order intersects a + bZ with x = a_i (mod b_i):
    the step takes d, x = extended_gcd(b mod b_i, b_i) and
    c = (a_i - a) mod b_i, returns EMPTY unless d divides c, and else moves
    to a + y*b + b*(b_i/d) Z with y = x*(c/d) mod (b_i/d).  The empty
    system yields 0 + 1Z (every exponent).

    In ascending order the running modulus b stays a divisor of
    lcm(1..b_i), whose logarithm is below 1.04*b_i (Rosser-Schoenfeld), and
    the distinct moduli of an orbit system sum to at most the degree n, so
    the fold of an orbit system costs O(n) word operations whatever the
    order of its cycles.  The counter is charged one operation per equation
    for the dedupe and D*ceil(log2(D+1)) comparisons for sorting the D
    distinct moduli.
    """
    residues = {}
    for a_i, b_i in system:
        if counter is not None:
            counter.charge(a_i, b_i)
        if residues.setdefault(b_i, a_i) != a_i:
            return EMPTY
    moduli = sorted(residues)
    if counter is not None:
        comparisons = len(moduli).bit_length()
        for b_i in moduli:
            for _ in range(comparisons):
                counter.charge(b_i)
    a, b = 0, 1
    for b_i in moduli:
        a_i = residues[b_i]
        d, x = extended_gcd(b % b_i, b_i, counter)
        c = (a_i - a) % b_i
        if counter is not None:
            counter.charge(a_i, a)
            counter.charge(b, b_i)
            counter.charge(a_i - a, b_i)
            counter.charge(c, d)
        if c % d:
            return EMPTY
        period = b_i // d
        xq = x * (c // d)
        y = xq % period
        if counter is not None:
            counter.charge(b_i, d)
            counter.charge(x, c // d)
            counter.charge(xq, period)
            counter.charge(y, b)
            counter.charge(b, period)
        a += y * b
        b *= period
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
        raise ValueError(f"lcm {clip(span)} exceeds the scan bound {clip(scan_bound)}")
    hits = [x for x in range(span) if system.satisfied_by(x)]
    if not hits:
        return EMPTY
    if len(hits) == 1:
        return ArithmeticProgression(hits[0], span)
    d = hits[1] - hits[0]
    if span % d or hits != list(range(hits[0], span, d)):
        raise RuntimeError(f"scan hits {hits[:8]} are not one progression mod {span}")
    return ArithmeticProgression(hits[0], d)
