"""Solvability of congruence systems by prime-power splitting.

Factor every modulus, split each congruence into prime-power atoms
x = z (mod p^e), then scan the atoms with one table per prime: the
strongest residue seen for p, reduced at every level 1..e.  An atom no
stronger than the table is answered by one lookup, in time polynomial in
its own size, never in the size of what is already stored, which is what
keeps the whole check linear for unary-sized inputs.  Every step is
charged to a CrtStats, a fresh one when the caller passes none.  This route
only decides solvability; it does not produce the solution progression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .congruence import CongruenceSystem


@dataclass(frozen=True)
class PrimePowerEquation:
    """One atom x = residue (mod prime**exponent), with 0 <= residue < modulus."""

    prime: int
    exponent: int
    residue: int

    @property
    def modulus(self) -> int:
        return self.prime**self.exponent

    def __str__(self):
        return f"{self.residue} mod {self.prime}^{self.exponent}"


@dataclass
class CrtStats:
    """Accounting for one solvability check.

    bit_ops charges comparisons at min(bit lengths) + 1 and reductions
    quadratically in the operand widths, the straightforward arithmetic
    model.  per_atom records (atom, bit_ops spent on that atom) so tests can
    pin down that cheap atoms stay cheap next to expensive neighbours.
    """

    p_max: int = 0
    e_max: int = 0
    bit_ops: int = 0
    per_atom: list[tuple[PrimePowerEquation, int]] = field(default_factory=list)

    def charge_compare(self, x: int, y: int) -> int:
        cost = min(x.bit_length(), y.bit_length()) + 1
        self.bit_ops += cost
        return cost

    def charge_mod(self, x: int, m: int) -> int:
        cost = (x.bit_length() + 1) * (m.bit_length() + 1)
        self.bit_ops += cost
        return cost


def factorize(b: int, stats: CrtStats | None = None) -> list[tuple[int, int]]:
    """Trial-division factorization: ascending (prime, exponent) pairs, product b."""
    if stats is None:
        stats = CrtStats()
    if b < 1:
        raise ValueError(f"can only factor positive integers, got {b}")
    out = []
    x = b
    d = 2
    while d * d <= x:
        if x % d == 0:
            e = 0
            while x % d == 0:
                stats.charge_mod(x, d)
                x //= d
                e += 1
            out.append((d, e))
        else:
            stats.charge_mod(x, d)
        d += 1 if d == 2 else 2
    if x > 1:
        out.append((x, 1))
    return out


def split_equation(
    a: int, b: int, stats: CrtStats | None = None
) -> list[PrimePowerEquation]:
    """CRT split of x = a (mod b) into one atom per prime dividing b.

    b = 1 contributes nothing.  The conjunction of the atoms is equivalent
    to the original congruence because the prime-power moduli are coprime.
    """
    if stats is None:
        stats = CrtStats()
    if b < 1:
        raise ValueError(f"modulus must be >= 1, got {b}")
    if not 0 <= a < b:
        raise ValueError(f"residue {a} not in [0, {b})")
    atoms = []
    for p, e in factorize(b, stats):
        q = p**e
        stats.charge_mod(a, q)
        atoms.append(PrimePowerEquation(p, e, a % q))
    return atoms


def _refresh_levels(p: int, z: int, e: int, stats: CrtStats) -> list[int]:
    """[z mod p^1, ..., z mod p^e], cheapest first by reducing stepwise."""
    levels = [0] * e
    levels[e - 1] = z
    for level in range(e - 1, 0, -1):
        q = p**level
        stats.charge_mod(levels[level], q)
        levels[level - 1] = levels[level] % q
    return levels


def decide_solvable(
    system: CongruenceSystem, stats: CrtStats | None = None
) -> bool:
    """True iff the system has a solution, by scanning prime-power atoms.

    levels[p] is the strongest residue seen for p, reduced at every level
    1..e, so the held atom is z = levels[p][-1] mod p^e with e =
    len(levels[p]).  A new atom z' mod p^e' with e' <= e is answered by the
    one lookup levels[p][e' - 1] == z'.  A stronger one must agree with z
    at level e, then its own reductions replace the table.  The first
    disagreement refutes the system, before later equations are factored.
    """
    if stats is None:
        stats = CrtStats()
    levels: dict[int, list[int]] = {}
    for a, b in system:
        for atom in split_equation(a, b, stats):
            p, e_new, z_new = atom.prime, atom.exponent, atom.residue
            spent_before = stats.bit_ops
            stats.p_max = max(stats.p_max, p)
            stats.e_max = max(stats.e_max, e_new)
            held = levels.get(p)
            if held is None:
                levels[p] = _refresh_levels(p, z_new, e_new, stats)
            else:
                e = len(held)
                stats.charge_compare(e, e_new)
                if e_new <= e:
                    stats.charge_compare(held[e_new - 1], z_new)
                    if held[e_new - 1] != z_new:
                        return False
                else:
                    q = p**e
                    stats.charge_mod(z_new, q)
                    stats.charge_compare(held[-1], z_new % q)
                    if z_new % q != held[-1]:
                        return False
                    levels[p] = _refresh_levels(p, z_new, e_new, stats)
            stats.per_atom.append((atom, stats.bit_ops - spent_before))
    return True
