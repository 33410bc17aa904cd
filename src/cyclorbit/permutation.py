"""Permutations in disjoint cycle form and their action on configurations.

A configuration is a length-n string over a finite alphabet.  A permutation
g of [1, n] acts by moving symbols to their image positions: position g(j)
of g(x) holds the symbol x had at position j.  Restricted to one cycle
(written in successor order) a single application is exactly a cyclic right
shift of the projected string, which is what the whole reduction to
congruences rests on.

A permutation's indices are checked once, by one pass over all its cycles
when it is built; parse_permutation's token scanner keeps its own checks.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .congruence import clip, parse_int

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
        return "(" + ",".join(map(str, self)) + ")"


class Permutation:
    """A permutation of [1, n] given as a product of pairwise disjoint cycles.

    Cycles of length 1 are accepted but dropped: those indices become plain
    fixed points, as does every index not mentioned at all.
    """

    __slots__ = ("n", "cycles")

    def __init__(self, n: int, cycles=()):
        if n < 1:
            raise ValueError(f"degree must be >= 1, got {n}")
        self.n = n
        self.cycles = tuple(c for c in _checked_cycles(cycles, n) if len(c) >= 2)

    @classmethod
    def from_mapping(cls, mapping) -> Permutation:
        """The permutation of [1, len(mapping)] whose 0-based image table is mapping."""
        return cls(len(mapping), [[j + 1 for j in c] for c in cycles_of_mapping(mapping)])

    def mapping(self):
        """0-based image table: mapping()[j] == g(j+1) - 1."""
        image = list(range(self.n))
        for e in self.cycles:
            k = len(e)
            for t in range(k):
                image[e[t] - 1] = e[(t + 1) % k] - 1
        return image

    def moved_mask(self):
        """bytearray of length n, entry j-1 set iff some cycle contains j."""
        mask = bytearray(self.n)
        for c in self.cycles:
            for e in c:
                mask[e - 1] = 1
        return mask

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.n == other.n and self.cycles == other.cycles

    def __hash__(self):
        return hash((self.n, self.cycles))

    def __repr__(self):
        return f"Permutation({self.n}, {format_permutation(self)!r})"


def _checked_cycles(cycles, n=math.inf) -> list[Cycle]:
    """Each cycle as a Cycle of ints, after one pass over all cycles that
    checks each index once: no cycle empty, every index in [1, n], none used
    twice.  The ValueError names the first bad index in cycle order."""
    out = []
    seen = set()
    for c in cycles:
        elems = tuple.__new__(Cycle, map(int, c))  # the one place a Cycle is made
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


def apply(g: Permutation, v: Configuration) -> Configuration:
    """One application of g to v."""
    if len(v) != g.n:
        raise ValueError(f"configuration length {len(v)} does not match degree {g.n}")
    out = list(v)
    for e in g.cycles:
        k = len(e)
        for t in range(k):
            out[e[(t + 1) % k] - 1] = v[e[t] - 1]
    return "".join(out)


def apply_power(g: Permutation, r: int, v: Configuration) -> Configuration:
    """g^r v computed in one pass: each cycle's projection is right-shifted r mod k times."""
    if r < 0:
        raise ValueError(f"exponent must be >= 0, got {r}")
    if len(v) != g.n:
        raise ValueError(f"configuration length {len(v)} does not match degree {g.n}")
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
        raise ValueError(f"cycle {c!r} reaches outside the configuration") from None


def format_permutation(g: Permutation) -> str:
    """Cycle notation, e.g. "(6,5,7,3,2,1)(4,8)"; the identity formats as ""."""
    return "".join(repr(c) for c in g.cycles)


_TOKEN = re.compile(r"\d+|\S")

# an index of at most 18 decimal digits fits an int64
_FAST_DIGITS = 18
_OPEN, _CLOSE, _COMMA, _ZERO = b"(),0"


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(6,5,7,3,2,1)(4,8)" into a Permutation of [1, n].

    Whitespace is allowed between cycles and around indices.  Blank text is
    the identity.  Raises CycleNotationError carrying the character position
    of the first problem: bad syntax, an index outside [1, n] or past the
    interpreter's digit limit, or an index used twice.

    Whitespace-free ASCII text is read in bulk and its indices are checked
    only by Permutation.  Text the bulk pass cannot read, or that Permutation
    rejects, goes to the token scanner, which finds and reports the problem,
    so both paths give the same result or the same error.
    """
    try:
        return Permutation(n, _bulk_cycles(text))
    except ValueError:  # not read in bulk, or an index outside [1, n] or used twice
        return _scan_permutation(text, n)


def _bulk_cycles(text: str):
    """The cycles of whitespace-free ASCII cycle notation, one list of
    indices each, unchecked; ValueError when the text is not of that form or
    holds an index of more than 18 digits.

    All indices are read at once into one int64 array, and each cycle's list
    is made only when it is reached.  One byte or bool per character and one
    int64 per index, with no per-character array kept past the shape check.
    """
    if not (text.isascii() and text[:1] == "(" and text[-1:] == ")"):
        raise ValueError("not whitespace-free ASCII cycle notation")
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    starts, lengths, ends = _index_runs(b)
    width = int(lengths.max())
    if width > _FAST_DIGITS:
        raise ValueError(f"an index has more than {_FAST_DIGITS} digits")
    vals = np.zeros(starts.size, np.int64)
    for d in range(width):  # Horner's rule, one digit position at a time
        live = lengths > d
        digit = b.take(starts, mode="clip")
        digit -= _ZERO
        np.multiply(vals, 10, out=vals, where=live)
        np.add(vals, digit, out=vals, where=live)
        starts += 1
    ends = ends.tolist()
    return (vals[i:j].tolist() for i, j in zip([0] + ends, ends))


def _index_runs(b):
    """(starts, lengths, ends) of the indices in the bytes b of cycle
    notation that starts with ( and ends with ); ValueError if b is not of
    the shape of cycles "(" i ("," i)* ")" one after another.

    That shape is fixed by which character may follow which, so local
    successor rules check it exactly.
    """
    isdig = b - np.uint8(_ZERO) < 10  # wraps below '0', so only 0-9 pass
    sep = b == _OPEN
    sep |= b == _COMMA  # ( and , are followed by an index
    known = b == _CLOSE
    known |= isdig
    known |= sep
    if (
        not known.all()
        or (sep[:-1] > isdig[1:]).any()  # ( or , not followed by a digit
        or ((b[:-1] == _CLOSE) > (b[1:] == _OPEN)).any()  # ) not followed by (
        or (isdig[:-1] & (b[1:] == _OPEN)).any()  # an index followed by (
    ):
        raise ValueError("not of the shape of cycle notation")
    starts = np.flatnonzero(sep)
    starts += 1
    term = b == _CLOSE  # each index ends at , or )
    term |= b == _COMMA
    lengths = np.flatnonzero(term)
    lengths -= starts
    return starts, lengths, np.searchsorted(starts, np.flatnonzero(b == _CLOSE))


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
    if count < 0:
        raise ValueError("count must be >= 0")
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
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    cycles = []
    lo = 1
    for p in first_primes(i):
        cycles.append(range(lo, lo + p))
        lo += p
    return Permutation(lo - 1, cycles)
