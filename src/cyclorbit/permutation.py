"""Permutations in disjoint cycle form and their action on configurations.

A configuration is a length-n string over a finite alphabet.  A permutation
g of [1, n] acts by moving symbols to their image positions: position g(j)
of g(x) holds the symbol x had at position j.  Restricted to one cycle
(written in successor order) a single application is exactly a cyclic right
shift of the projected string, which is what the whole reduction to
congruences rests on.

Each input invariant has one check.  A Permutation is immutable, and its
degree and indices, which must be ints (operator.index), are checked once
when it is built, the indices by one pass over all its cycles;
check_configuration is the one length check of a configuration against the
degree.  parse_permutation reads whitespace-free cycle notation with the
json module and leaves the rest, and every error, to a token scanner that
keeps its own checks.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from operator import index

from .congruence import at_least, clip, decimal, parse_int

Configuration = str


class CycleNotationError(ValueError):
    """Malformed cycle notation; position is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Cycle(tuple):
    """A k-cycle (j_1,...,j_k): j_1 -> j_2 -> ... -> j_k -> j_1, indices 1-based.

    The tuple of its indices, checked when made, in an order preserved
    verbatim: projections and rotation exponents are stated relative to it.
    """

    __slots__ = ()

    def __new__(cls, elements):
        return _checked_cycles((elements,))[0]

    @property
    def elements(self):
        """The cycle itself: its indices in successor order."""
        return self

    def __repr__(self):
        return "(" + ",".join(map(decimal, self)) + ")"


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of [1, n] given as a product of pairwise disjoint cycles.

    Cycles of length 1 are accepted but dropped: those indices become plain
    fixed points, as does every index not mentioned at all.
    """

    n: int
    cycles: tuple[Cycle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n", at_least(self.n, 1, "degree"))
        cycles = tuple(c for c in _checked_cycles(self.cycles, self.n) if len(c) >= 2)
        object.__setattr__(self, "cycles", cycles)

    def moved_mask(self):
        """bytearray of length n, entry j-1 set iff some cycle contains j."""
        mask = bytearray(self.n)
        for c in self.cycles:
            for e in c:
                mask[e - 1] = 1
        return mask

    def __repr__(self):
        return f"Permutation({decimal(self.n)}, {''.join(map(repr, self.cycles))!r})"


def _checked_cycles(cycles, n=math.inf) -> list[Cycle]:
    """Each cycle as a Cycle of ints, after one pass over all cycles that
    checks each index once: an int (operator.index, so a float or a string
    raises TypeError), no cycle empty, every index in [1, n], none used
    twice.  The ValueError names the first bad index in cycle order."""
    out = []
    seen = set()
    for c in cycles:
        elems = tuple.__new__(Cycle, map(index, c))  # the one place a Cycle is made
        if not elems:
            raise ValueError("a cycle needs at least one element")
        out.append(elems)
        before = len(seen)
        seen.update(elems)
        # with no index used twice, seen grows by exactly the cycle's length
        if min(elems) < 1 or max(elems) > n or len(seen) - before != len(elems):
            used = set()  # walk again, only to name the first bad index
            for e in (e for cycle in out for e in cycle):
                if not 1 <= e <= n:
                    raise ValueError(f"index {clip(e)} outside [1, {clip(n)}]")
                if e in used:
                    raise ValueError(f"index {clip(e)} already used")
                used.add(e)
    return out


def cycles_of_mapping(mapping):
    """Cycles of length >= 2 of a 0-based permutation table.

    Each cycle starts at its smallest element and the cycles are ordered by
    that element; fixed points are omitted.  Raises ValueError if mapping
    is not a permutation of range(len(mapping)).
    """
    n = len(mapping)
    # n entries that cover range(n) leave no room for a repeat or a stray
    if not set(mapping).issuperset(range(n)):
        raise ValueError("mapping is not a permutation of its indices")
    seen = bytearray(n)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        j = mapping[start]
        if j == start:
            continue
        cyc = [start]
        while j != start:
            seen[j] = 1
            cyc.append(j)
            j = mapping[j]
        out.append(cyc)
    return out


def order(g: Permutation) -> int:
    """Order of the cyclic group <g>: the lcm of the cycle lengths."""
    return math.lcm(*(len(c) for c in g.cycles))


def check_configuration(g: Permutation, *configurations: Configuration) -> None:
    """Raise ValueError naming the first configuration whose length is not g's degree."""
    for v in configurations:
        if len(v) != g.n:
            raise ValueError(f"configuration length {len(v)} does not match degree {clip(g.n)}")


def apply(g: Permutation, v: Configuration) -> Configuration:
    """One application of g to v."""
    check_configuration(g, v)
    out = list(v)
    for e in g.cycles:
        k = len(e)
        for t in range(k):
            out[e[(t + 1) % k] - 1] = v[e[t] - 1]
    return "".join(out)


def apply_power(g: Permutation, r: int, v: Configuration) -> Configuration:
    """g^r v computed in one pass: each cycle's projection is right-shifted r mod k times."""
    r = at_least(r, 0, "exponent")
    check_configuration(g, v)
    out = list(v)
    for e in g.cycles:
        k = len(e)
        s = r % k
        if s == 0:
            continue
        proj = [v[j - 1] for j in e]
        rot = proj[-s:] + proj[:-s]
        for j, ch in zip(e, rot):
            out[j - 1] = ch
    return "".join(out)


def project(v: Configuration, c: Cycle) -> str:
    """v restricted to the cycle's indices, in the cycle's stored order."""
    try:
        return "".join([v[j - 1] for j in c])
    except IndexError:
        raise ValueError(f"cycle {clip(c)} reaches outside the configuration") from None


def format_permutation(g: Permutation) -> str:
    """Cycle notation, e.g. "(6,5,7,3,2,1)(4,8)"; the identity formats as "".
    Exact, so an index past the interpreter's digit limit raises a ValueError."""
    try:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in g.cycles)
    except ValueError:  # then the largest index is past the limit
        top = clip(max(map(max, g.cycles)))
        raise ValueError(f"index {top} is past the digit limit of cycle notation") from None


_TOKEN = re.compile(r"\d+|\S")

# deletes every character that whitespace-free cycle notation may hold
_NOT_NOTATION = str.maketrans("", "", "0123456789(),")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(6,5,7,3,2,1)(4,8)" into a Permutation of [1, n].

    Whitespace is allowed between cycles and around indices.  Blank text is
    the identity.  Raises CycleNotationError carrying the character position
    of the first problem: bad syntax, an index outside [1, n] or past the
    interpreter's digit limit, or an index used twice.

    Text of only 0-9, parentheses and commas that starts with ( and ends
    with ) is read in bulk by json: with ")(" turned into "],[" and the
    whole put in brackets, JSON's grammar over those characters is cycle
    notation without leading zeros, and its indices are checked only by
    Permutation.  Text json rejects, or that Permutation rejects, goes to
    the token scanner, which finds and reports the problem, so both paths
    give the same result or the same error.
    """
    if text[:1] == "(" and text[-1:] == ")" and not text.translate(_NOT_NOTATION):
        try:
            return Permutation(n, json.loads("[[" + text[1:-1].replace(")(", "],[") + "]]"))
        except ValueError:  # not JSON, or an index outside [1, n] or used twice
            pass
    return _scan_permutation(text, n)


def _scan_permutation(text: str, n: int) -> Permutation:
    """parse_permutation by one step per token, reporting the first problem."""
    cycles = []
    seen = set()
    elems = None  # indices of the open cycle; None between cycles
    want_index = False
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if elems is None:
            if tok != "(":
                raise CycleNotationError(f"expected '(' but found {tok[0]!r}", m.start())
            elems = []
            want_index = True
        elif want_index:
            if not tok.isdecimal():
                raise CycleNotationError("expected a cycle index", m.start())
            try:
                val = parse_int(tok, "index")
            except ValueError as exc:
                raise CycleNotationError(str(exc), m.start()) from None
            if not 1 <= val <= n:
                raise CycleNotationError(f"index {clip(val)} outside [1, {clip(n)}]", m.start())
            if val in seen:
                raise CycleNotationError(f"index {clip(val)} already used", m.start())
            seen.add(val)
            elems.append(val)
            want_index = False
        elif tok == ",":
            want_index = True
        elif tok == ")":
            cycles.append(elems)
            elems = None
        else:
            raise CycleNotationError("expected ',' or ')'", m.start())
    if elems is not None:
        message = "expected a cycle index" if want_index else "expected ',' or ')'"
        raise CycleNotationError(message, len(text))
    return Permutation(n, cycles)


def first_primes(count: int) -> list[int]:
    """The first `count` primes, by trial division against the primes found so far."""
    count = at_least(count, 0, "count")
    primes: list[int] = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return primes


def primorial_permutation(i: int) -> Permutation:
    """Disjoint consecutive cycles whose lengths are the first i primes.

    On degree 2 + 3 + ... + p_i; the cycle lengths are pairwise coprime, so
    the order is their product, which grows exponentially in the degree.
    """
    i = at_least(i, 1, "i")
    cycles = []
    lo = 1
    for p in first_primes(i):
        cycles.append(range(lo, lo + p))
        lo += p
    return Permutation(lo - 1, cycles)
