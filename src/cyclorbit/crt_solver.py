"""Solvability of congruence systems over a coprime base.

Each modulus is split over an incremental coprime base: a set of pairwise
coprime integers > 1, refined by gcds as the moduli are read (the quadratic
form of Bernstein, "Factoring into coprimes in essentially linear time",
J. Algorithms 2005), so no modulus is ever factored into primes.  A
congruence x = a (mod b) with b = prod q^e over the base becomes one atom
x = a (mod q^e) per key q, and the atoms are scanned with one table per key:
the strongest residue seen for q, reduced at every level 1..e.  Moduli q^e of
distinct keys are coprime, so by the CRT the atoms decide the system, and
the atoms of one key form a chain exactly as those of one prime would.  An
atom no stronger than the table is answered by one lookup, in time
polynomial in its own size, never in the size of what is already stored.
Every step is charged to a CrtStats, a fresh one when the caller passes
none.  This route only decides solvability; it does not produce the
solution progression.

The base keeps its keys in groups, each with the product of the keys it was
given, the first step towards Bernstein's product trees.  Group invariant: a
group's product has exactly the prime factors of the group's keys.  A key
that splits leaves its pieces, which have its prime factors, in its group,
and a new key multiplies the product of the group it joins, so no product is
ever recomputed.  A modulus takes one gcd with each group's product and
gcds with single keys only in the groups whose product shares a factor with
it.  A new group is opened once the last holds about sqrt(K) of the K keys,
so a modulus that meets one group costs O(sqrt K) gcds rather than O(K).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from math import gcd, isqrt, prod

from .congruence import CongruenceSystem, at_least


@dataclass
class CrtStats:
    """Accounting for one solvability check.

    bit_ops charges comparisons at min(bit lengths) + 1, and gcds, divisions
    and reductions quadratically in the operand widths, the straightforward
    arithmetic model.  p_max is the largest base element and e_max the
    longest table when the scan returns.  per_atom records ((q, e, z), bit_ops
    spent on it) for each atom x = z (mod q^e) kept, so tests can pin down
    that cheap atoms stay cheap next to expensive neighbours.
    """

    p_max: int = 0
    e_max: int = 0
    bit_ops: int = 0
    per_atom: list[tuple[tuple[int, int, int], int]] = field(default_factory=list)

    def charge_compare(self, x: int, y: int) -> None:
        self.bit_ops += min(x.bit_length(), y.bit_length()) + 1

    def charge_mod(self, x: int, m: int) -> None:
        self.bit_ops += (x.bit_length() + 1) * (m.bit_length() + 1)


def _coprime_pair(x: int, y: int, stats: CrtStats) -> list[tuple[int, int, int]]:
    """A coprime base of x and y as (q, i, j) with x = prod q^i and y = prod q^j.

    A piece sharing g > 1 with another is replaced, with the other, by g
    and the two cofactors; the product of the pieces falls at every step.
    """
    pieces: dict[int, tuple[int, int]] = {}
    todo = [(x, 1, 0), (y, 0, 1)]
    while todo:
        q, i, j = todo.pop()
        for p in pieces:
            stats.charge_mod(p, q)
            g = gcd(p, q)
            if g > 1:
                break
        else:
            pieces[q] = (i, j)
            continue
        pi, pj = pieces.pop(p)
        stats.charge_mod(p, g)
        stats.charge_mod(q, g)
        for r, ri, rj in ((g, pi + i, pj + j), (p // g, pi, pj), (q // g, i, j)):
            if r > 1:
                todo.append((r, ri, rj))
    return [(q, i, j) for q, (i, j) in pieces.items()]


def _refresh_levels(q: int, z: int, e: int, stats: CrtStats) -> list[int]:
    """[z mod q^1, ..., z mod q^e], reducing stepwise from the top; [] for e = 0."""
    levels = [0] * e
    for level in range(e, 0, -1):
        m = q**level
        stats.charge_mod(z, m)
        z = levels[level - 1] = z % m
    return levels


class CoprimeBase(dict):
    """A coprime base: each key maps to its level table (see decide_solvable).

    Keys enter and leave only through factorize.  Group i holds members[i],
    which maps each of its keys to the key's rank, the order in which it
    joined the base (so ranks follow the dict's order), and products[i], the
    product of the keys the group was given.  product_bits is the sum of
    bit_length() + 1 over the products, the width charged per modulus.
    """

    def __init__(self):
        super().__init__()
        self.products: list[int] = []
        self.members: list[dict[int, int]] = []
        self.product_bits = 0
        self._ranks = count()

    def hits(self, b: int, stats: CrtStats) -> list[tuple[int, int]]:
        """(key, group) for each key sharing a factor with b, in the base's
        order; each gcd taken is charged at its operands' widths."""
        width = b.bit_length() + 1
        stats.bit_ops += width * self.product_bits
        found = []
        for i, product in enumerate(self.products):
            if gcd(b, product) > 1:
                for y, rank in self.members[i].items():
                    stats.bit_ops += width * (y.bit_length() + 1)
                    if gcd(b, y) > 1:
                        found.append((rank, y, i))
        found.sort()
        return [(y, i) for _, y, i in found]

    def split(self, y: int, group: int, tables: dict[int, list[int]]) -> None:
        """Replace the key y of the given group by the pieces in tables; they
        have y's prime factors, so the group's product still covers them."""
        del self[y]
        members = self.members[group]
        del members[y]
        for q, table in tables.items():
            self[q] = table
            members[q] = next(self._ranks)

    def add(self, q: int) -> None:
        """Take q, coprime to every key, as a new key with an empty table."""
        self[q] = []
        if self.members and len(self.members[-1]) < isqrt(len(self)):
            product = self.products.pop()
            self.product_bits -= product.bit_length() + 1
        else:
            product = 1
            self.members.append({})
        product *= q
        self.products.append(product)
        self.product_bits += product.bit_length() + 1
        self.members[-1][q] = next(self._ranks)


def factorize(
    b: int, levels: CoprimeBase, stats: CrtStats | None = None
) -> list[tuple[int, int]]:
    """Take b into the coprime base levels, and return b's (key, exponent)
    pairs over the refined base; their product is b.

    Only keys sharing a factor with b change.  Such a key y = prod q^c is
    replaced by its pieces, and its table z mod y^e by z mod q^(c*e) for
    each; a key that comes back unchanged keeps its table.  A part of b
    coprime to every key becomes a new key with an empty table.
    """
    if stats is None:
        stats = CrtStats()
    b = at_least(b, 1, "modulus")
    if b == 1:
        return []
    pairs = []
    rest = b
    for y, group in levels.hits(b, stats):
        part = rest
        k = 0
        stats.charge_mod(rest, y)
        while rest % y == 0:
            rest //= y
            k += 1
            stats.charge_mod(rest, y)
        stats.charge_mod(rest, y)
        if gcd(rest, y) == 1:  # b's part over y is a power of y: y stays a key
            pairs.append((y, k))
            continue
        pieces = _coprime_pair(part, y, stats)
        # the pieces y does not use make up the rest of b, coprime to y
        rest = prod(q**i for q, i, c in pieces if not c)
        # y is split: were it a piece, the others would be coprime to it, so
        # gcd(rest, y) == 1 and the power-of-y case above would have taken b
        held = levels[y]
        z = held[-1] if held else 0
        # z mod y^e holds z mod q^(c*e)
        levels.split(y, group, {q: _refresh_levels(q, z, c * len(held), stats)
                                for q, _, c in pieces if c})
        pairs.extend((q, i) for q, i, c in pieces if i and c)
    if rest > 1:
        levels.add(rest)
        pairs.append((rest, 1))
    return pairs


def _scan(system: CongruenceSystem, levels: CoprimeBase, stats: CrtStats) -> bool:
    for a, b in system:
        for q, e_new in factorize(b, levels, stats):
            m = q**e_new
            stats.charge_mod(a, m)
            z_new = a % m
            spent_before = stats.bit_ops
            held = levels[q]
            e = len(held)
            stats.charge_compare(e, e_new)
            if e_new <= e:
                stats.charge_compare(held[e_new - 1], z_new)
                if held[e_new - 1] != z_new:
                    return False
            else:
                if e:
                    m = q**e
                    stats.charge_mod(z_new, m)
                    stats.charge_compare(held[-1], z_new % m)
                    if z_new % m != held[-1]:
                        return False
                levels[q] = _refresh_levels(q, z_new, e_new, stats)
            stats.per_atom.append(((q, e_new, z_new), stats.bit_ops - spent_before))
    return True


def decide_solvable(
    system: CongruenceSystem, stats: CrtStats | None = None
) -> bool:
    """True iff the system has a solution, by scanning atoms over a coprime base.

    levels[q] is the strongest residue seen for the key q, reduced at every
    level 1..e, so the held atom is z = levels[q][-1] mod q^e with e =
    len(levels[q]), and an empty table holds nothing yet.  A new atom
    z' mod q^e' with e' <= e is answered by the one lookup
    levels[q][e' - 1] == z'.  A stronger one must agree with z at level e,
    then its own reductions replace the table.  The first disagreement
    refutes the system, before later moduli are taken into the base.
    TypeError unless system is a CongruenceSystem.
    """
    if not isinstance(system, CongruenceSystem):
        raise TypeError(f"system must be a CongruenceSystem, got {type(system).__name__}")
    if stats is None:
        stats = CrtStats()
    levels = CoprimeBase()
    solvable = _scan(system, levels, stats)
    stats.p_max = max(stats.p_max, max(levels, default=0))
    stats.e_max = max(stats.e_max, max(map(len, levels.values()), default=0))
    return solvable
